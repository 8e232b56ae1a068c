//! The extension harness: one checked, traced run loop under every
//! simulated sweep — the figure engine's per-seed cells, the extension
//! sweeps (false causality, chaos, durability, churn, soak, batching) and
//! `simulate --seeds`.
//!
//! A sweep is a unit list, a config per unit and a row per result. The
//! loop in between is [`run_units`]: it fans the units out on
//! [`crate::pool::run_indexed`], asserts that every run drained and that
//! every recorded history passes the causal-consistency checker, writes
//! one JSONL trace per unit when asked, and returns the results in unit
//! order — so a table folded from them is byte-identical whatever the job
//! count. Placement follows the protocol ([`paper_cfg`]), and the protocol
//! spellings the CLIs accept and the trace names carry are [`slug`]s.

use crate::pool;
use crate::trace::write_trace;
use causal_checker::check;
use causal_obs::to_jsonl;
use causal_proto::ProtocolKind;
use causal_simnet::{run, SimConfig, SimResult};
use std::path::Path;

/// All five bundled protocols in table order: the three that run under
/// partial replication, then the full-replication pair. The paper's four
/// alone are [`ProtocolKind::ALL`].
pub const PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::FullTrack,
    ProtocolKind::OptTrack,
    ProtocolKind::HbTrack,
    ProtocolKind::OptTrackCrp,
    ProtocolKind::OptP,
];

/// The paper's setting for `kind`: partial replication (`p = round(0.3·n)`,
/// even placement) when the protocol supports it, full replication
/// otherwise.
pub fn paper_cfg(kind: ProtocolKind, n: usize, w_rate: f64, seed: u64) -> SimConfig {
    if kind.supports_partial() {
        SimConfig::paper_partial(kind, n, w_rate, seed)
    } else {
        SimConfig::paper_full(kind, n, w_rate, seed)
    }
}

/// `kind` as the CLIs spell it and trace files name it: `full-track`,
/// `opt-track`, `hb-track`, `opt-track-crp`, `optp`.
pub fn slug(kind: ProtocolKind) -> String {
    kind.to_string().to_lowercase()
}

/// The protocol whose [`slug`] is `name`.
pub fn parse_protocol(name: &str) -> Option<ProtocolKind> {
    PROTOCOLS.into_iter().find(|&kind| slug(kind) == name)
}

/// Run `cfg(u)` for every unit on `jobs` worker threads and return the
/// results in unit order. `tag(u)` names the unit in panic messages and,
/// with a `trace_dir`, is the stem of its trace, `<trace_dir>/<tag>.jsonl`;
/// without one the run is untraced. Panics when a run leaves updates
/// parked or its recorded history (if any) has causal violations.
pub fn run_units<U: Sync>(
    jobs: usize,
    units: &[U],
    cfg: impl Fn(&U) -> SimConfig + Sync,
    tag: impl Fn(&U) -> String + Sync,
    trace_dir: Option<&Path>,
) -> Vec<SimResult> {
    pool::run_indexed(jobs, units.len(), |i| {
        let (mut cfg, tag) = (cfg(&units[i]), tag(&units[i]));
        cfg.record_trace = trace_dir.is_some();
        let mut r = run(&cfg);
        // Written and dropped here, so a sweep never holds its traces.
        if let (Some(dir), Some(events)) = (trace_dir, r.trace.take()) {
            let path = dir.join(format!("{tag}.jsonl"));
            write_trace(&path, &to_jsonl(&events)).expect("trace write");
        }
        assert_eq!(r.final_pending, 0, "{tag}: run must drain");
        if let Some(h) = &r.history {
            let v = check(h);
            assert!(v.protocol_clean(), "{tag}: causal violations: {v:?}");
        }
        r
    })
}

/// A nanosecond quantity as a milliseconds cell, `-` when absent.
pub fn ms_cell(ns: Option<f64>) -> String {
    ns.map_or("-".to_string(), |v| format!("{:.1}", v / 1e6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_simnet::FaultPlan;

    /// The acceptance property of every sweep built on the harness:
    /// `jobs = 4` returns bit-for-bit the `jobs = 1` results, in unit
    /// order, and writes byte-identical traces under the unit tags.
    #[test]
    fn jobs_change_neither_results_nor_traces() {
        let units: Vec<(ProtocolKind, u64)> = PROTOCOLS
            .iter()
            .flat_map(|&kind| [1, 2].map(|seed| (kind, seed)))
            .collect();
        let cfg = |&(kind, seed): &(ProtocolKind, u64)| {
            paper_cfg(kind, 5, 0.5, seed)
                .small()
                .with_history()
                .with_faults(FaultPlan::uniform(0.1, 0.02))
        };
        let tag = |&(kind, seed): &(ProtocolKind, u64)| format!("{}-{seed}", slug(kind));
        let dir = std::env::temp_dir().join(format!("causal-harness-{}", std::process::id()));
        let fingerprints = |jobs: usize| {
            let traces = dir.join(jobs.to_string());
            std::fs::create_dir_all(&traces).unwrap();
            let results = run_units(jobs, &units, cfg, tag, Some(&traces));
            let runs: Vec<String> = results
                .iter()
                .map(|r| format!("{:?} {} {:?}", r.metrics, r.duration, r.final_local_meta))
                .collect();
            let files: Vec<Vec<u8>> = units
                .iter()
                .map(|u| std::fs::read(traces.join(format!("{}.jsonl", tag(u)))).unwrap())
                .collect();
            (runs, files)
        };
        let (seq, seq_traces) = fingerprints(1);
        let (par, par_traces) = fingerprints(4);
        assert_eq!(seq.len(), units.len());
        assert_eq!(seq, par, "results diverge across jobs");
        assert!(seq_traces.iter().all(|t| !t.is_empty()), "empty trace");
        assert_eq!(seq_traces, par_traces, "traces diverge across jobs");
        // The tag names the unit: distinct seeds make distinct runs.
        assert_ne!(seq[0], seq[1]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
