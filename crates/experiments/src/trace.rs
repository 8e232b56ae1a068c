//! Post-hoc analysis of structured simulation traces.
//!
//! A trace (see `causal-obs`) is a flat, sim-time-ordered stream of events
//! carrying full identifiers — `(site, origin, clock, var)` — so the causal
//! story of any write can be reconstructed without re-running the
//! simulation. This module closes the loop back to the independent checker:
//! [`history_from_trace`] rebuilds a [`History`] from the trace through
//! the same event→history mapping the simulator records its own history
//! with ([`causal_simnet::record_event`]), and [`check_trace`] parses
//! serialized JSONL and validates the rebuilt history with
//! `causal-checker` exactly as a recorded in-sim history would be. A trace
//! that reproduces a checker-clean history is evidence the trace itself is
//! complete and correctly ordered — the acceptance gate for the tracing
//! subsystem.

use causal_checker::{check, History, Violations};
use causal_obs::{parse_jsonl, TraceEvent};
use causal_simnet::record_event;
use std::path::Path;

/// Rebuild an execution history from trace events alone: the simulator's
/// own mapping ([`record_event`]) folded over them, so the result is
/// record-for-record identical to an in-sim recording of the same run.
pub fn history_from_trace(events: &[TraceEvent], n: usize) -> History {
    events.iter().fold(History::new(n), |mut h, ev| {
        record_event(&mut h, ev);
        h
    })
}

/// Parse the JSONL trace `jsonl`, rebuild its history and run the
/// causal-consistency checker on it. A trace that does not parse is an
/// error.
pub fn check_trace(jsonl: &str, n: usize) -> Result<Violations, String> {
    Ok(check(&history_from_trace(&parse_jsonl(jsonl)?, n)))
}

/// Write the JSONL text `jsonl` to `path` atomically (temp file + rename,
/// so a crashed run never leaves a half-written trace).
pub fn write_trace(path: &Path, jsonl: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, jsonl)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::paper_cfg;
    use causal_obs::to_jsonl;
    use causal_proto::ProtocolKind;
    use causal_simnet::{run, SimConfig};
    use causal_types::SiteId;
    use causal_workload::ChurnPlan;

    fn traced(cfg: &SimConfig) -> (Vec<TraceEvent>, History) {
        let r = run(&cfg.clone().with_history().with_trace());
        (r.trace.expect("recorded"), r.history.expect("recorded"))
    }

    fn traced_run(kind: ProtocolKind, seed: u64) -> (Vec<TraceEvent>, History) {
        traced(&paper_cfg(kind, 6, 0.5, seed).small())
    }

    /// The churn plan of the goldens' `churn` scenario: a join, a
    /// migration, a graceful leave (site 2) and a crash-leave (site 4).
    fn churn_cfg(kind: ProtocolKind) -> SimConfig {
        let spec = "join:7@5s;migrate:3:0->7@20s;leave:2@40s;crash-leave:4@60s";
        let mut cfg = paper_cfg(kind, 8, 0.5, 2);
        cfg.workload.events_per_process = 80;
        cfg.with_churn(ChurnPlan::parse(spec).expect("valid spec"))
    }

    #[test]
    fn reconstructed_history_matches_the_recorded_one() {
        let plain = [
            ProtocolKind::FullTrack,
            ProtocolKind::OptTrack,
            ProtocolKind::OptP,
        ]
        .map(|kind| (kind, paper_cfg(kind, 6, 0.5, 17).small()));
        let churn = [ProtocolKind::FullTrack, ProtocolKind::OptTrack].map(|k| (k, churn_cfg(k)));
        for (kind, cfg) in plain.into_iter().chain(churn) {
            let (events, recorded) = traced(&cfg);
            let n = cfg.workload.n;
            let rebuilt = history_from_trace(&parse_jsonl(&to_jsonl(&events)).unwrap(), n);
            assert_eq!(
                rebuilt.total_ops(),
                recorded.total_ops(),
                "{kind}: op counts diverge"
            );
            assert_eq!(
                rebuilt.total_applies(),
                recorded.total_applies(),
                "{kind}: apply counts diverge"
            );
            for site in SiteId::all(n) {
                let ops = |h: &History| h.ops(site).collect::<Vec<_>>();
                assert_eq!(ops(&rebuilt), ops(&recorded), "{kind}: op records diverge");
                let applies = |h: &History| h.applies(site).collect::<Vec<_>>();
                assert_eq!(
                    applies(&rebuilt),
                    applies(&recorded),
                    "{kind}: applies diverge"
                );
            }
            assert_eq!(rebuilt.sealed(), recorded.sealed(), "{kind}: seals diverge");
            // Without seals to compare, the last check would be vacuous.
            let sealed: Vec<usize> = (0..n).filter(|&k| recorded.sealed()[k].is_some()).collect();
            let leavers: &[usize] = if cfg.churn.is_some() { &[2, 4] } else { &[] };
            assert_eq!(sealed, leavers, "{kind}: sealed sites");
        }
    }

    #[test]
    fn reconstructed_history_passes_the_checker() {
        let (events, _) = traced_run(ProtocolKind::OptTrack, 23);
        let v = check_trace(&to_jsonl(&events), 6).expect("parses");
        assert!(v.protocol_clean(), "causal chains broken: {:?}", v.examples);
        assert!(
            check_trace("{\"t\":1}\n", 6).is_err(),
            "a broken trace fails"
        );
    }

    #[test]
    fn traces_round_trip_through_disk() {
        let (events, _) = traced_run(ProtocolKind::FullTrack, 29);
        let dir = std::env::temp_dir().join(format!("causal-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_trace(&path, &to_jsonl(&events)).unwrap();
        let back = parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, events);
        std::fs::remove_dir_all(&dir).ok();
    }
}
