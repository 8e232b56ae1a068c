//! Durability sweeps: WAL + checkpoint recovery vs. the full peer rebuild
//! under correlated (overlapping) crashes.
//!
//! The chaos sweep measures what reliable delivery costs; this sweep
//! measures what *durable state* buys. Every run injects two overlapping
//! fail-stop crashes — a correlated failure PR 1's recovery could not
//! survive at all — plus a fetch deadline so reads aimed at a dead replica
//! fail over instead of hanging. The grid compares recovery modes: the
//! ledger-only full peer rebuild, the WAL with log-only replay, and the WAL
//! with two checkpoint cadences. Columns report the price (WAL/checkpoint
//! bytes written) against the payoff (local replays, delta-sync savings,
//! recovery latency). Every run must still pass the causal-consistency
//! checker — like the chaos sweep, this is a correctness net first.

use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_simnet::{CrashWindow, DurabilityPlan, SimConfig};
use causal_types::{SimDuration, SimTime, SiteId};
use std::path::Path;

use crate::harness::{ms_cell, paper_cfg, run_units, slug};
use crate::Scale;

/// One recovery mode: `(label, wal, checkpoint interval in ms)`.
type RecoveryMode = (&'static str, bool, Option<u64>);

/// The recovery modes compared.
pub const MODES: [RecoveryMode; 4] = [
    ("rebuild", false, None),
    ("wal", true, None),
    ("wal+ckpt250", true, Some(250)),
    ("wal+ckpt1000", true, Some(1000)),
];

fn durability_cfg(
    kind: ProtocolKind,
    n: usize,
    mode: RecoveryMode,
    events: usize,
    seed: u64,
) -> SimConfig {
    let (_, wal, ckpt_ms) = mode;
    let mut cfg = paper_cfg(kind, n, 0.5, seed).with_history();
    cfg.workload.events_per_process = events;
    // Two overlapping windows: sites 0 and 1 are down together during
    // [800 ms, 1200 ms) — with the paper's even placement and p = 3 that
    // covers two of the three replicas of the low-numbered variables.
    cfg.crashes = vec![
        CrashWindow {
            site: SiteId(0),
            start: SimTime::from_millis(500),
            end: SimTime::from_millis(1_200),
        },
        CrashWindow {
            site: SiteId(1),
            start: SimTime::from_millis(800),
            end: SimTime::from_millis(1_500),
        },
    ];
    cfg.durability = DurabilityPlan {
        wal,
        checkpoint_every: ckpt_ms.map(SimDuration::from_millis),
        fetch_deadline: Some(SimDuration::from_millis(150)),
        lose_media: Vec::new(),
        torn_tail: Vec::new(),
    };
    cfg
}

/// Recovery cost vs. durability mode under two overlapping crashes: for
/// each of the paper's four protocols and each mode, the bytes spent on
/// the WAL and on checkpoints against the sync traffic avoided and the
/// recovery latency, plus the per-site registry's p99 tails and
/// buffered-update total. Runs fan out over `jobs` threads; with a
/// `trace_dir`, each run's structured trace lands there as
/// `durability-<protocol>-<mode>.jsonl`. Panics if any run fails to
/// quiesce or violates causal consistency.
pub fn durability_sweep(scale: Scale, n: usize, jobs: usize, trace_dir: Option<&Path>) -> Table {
    let mut t = Table::new(
        format!(
            "Durability sweep: WAL/checkpoint recovery vs. full rebuild \
             (n={n}, w=0.5, overlapping crashes of s0 and s1, 150 ms fetch deadline)"
        ),
        &[
            "protocol",
            "mode",
            "recovery ms",
            "sync KB",
            "delta saved KB",
            "wal KB",
            "ckpt KB",
            "replays",
            "failovers",
            "degraded",
            "virtual s",
            "apply p99 ms",
            "rtt p99 ms",
            "buffered",
        ],
    );
    let events = scale.events().min(200);
    let units: Vec<(ProtocolKind, RecoveryMode)> = ProtocolKind::ALL
        .iter()
        .flat_map(|&kind| MODES.iter().map(move |&mode| (kind, mode)))
        .collect();
    let results = run_units(
        jobs,
        &units,
        |&(kind, mode)| durability_cfg(kind, n, mode, events, 0xD04A_B1E5),
        |&(kind, (label, ..))| format!("durability-{}-{label}", slug(kind)),
        trace_dir,
    );
    for (&(kind, (label, ..)), r) in units.iter().zip(&results) {
        let m = &r.metrics;
        t.push_row(vec![
            kind.to_string(),
            label.to_string(),
            ms_cell((m.recovery_ns.count() > 0).then(|| m.recovery_ns.mean())),
            format!("{:.1}", m.sync_bytes as f64 / 1000.0),
            format!("{:.1}", m.delta_sync_saved_bytes as f64 / 1000.0),
            format!("{:.1}", m.wal_bytes as f64 / 1000.0),
            format!("{:.1}", m.checkpoint_bytes as f64 / 1000.0),
            m.recovery_replays.to_string(),
            m.fetch_failovers.to_string(),
            (m.degraded_reads + m.degraded_recoveries).to_string(),
            format!("{:.1}", r.duration.as_secs_f64()),
            ms_cell(m.apply_latency_ns.quantile(0.99)),
            ms_cell(m.fetch_rtt_ns.quantile(0.99)),
            m.per_site.total_buffered().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_sweep_runs_clean_at_quick_scale() {
        let t = durability_sweep(Scale::Quick, 5, 1, None);
        assert_eq!(t.len(), ProtocolKind::ALL.len() * MODES.len());
        let csv = t.to_csv();
        for (i, line) in csv.lines().skip(1).enumerate() {
            let cols: Vec<&str> = line.split(',').collect();
            let replays: u64 = cols[7].parse().unwrap();
            if i % MODES.len() == 0 {
                // The rebuild rows run without a WAL: no local replays.
                assert_eq!(replays, 0, "rebuild row must not replay: {line}");
            } else {
                // Every WAL row replays both crashed sites locally.
                assert_eq!(replays, 2, "wal row must replay twice: {line}");
            }
        }
    }
}
