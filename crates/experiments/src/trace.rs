//! Post-hoc analysis of structured simulation traces.
//!
//! A trace (see `causal-obs`) is a flat, sim-time-ordered stream of events
//! carrying full identifiers — `(site, origin, clock, var)` — so the causal
//! story of any write can be reconstructed without re-running the
//! simulation. This module closes the loop back to the independent checker:
//! [`history_from_trace`] rebuilds a [`History`] purely from the trace's
//! write/apply/read events, and [`check_trace`] validates it with
//! `causal-checker` exactly as a recorded in-sim history would be. A trace
//! that reproduces a checker-clean history is evidence the trace itself is
//! complete and correctly ordered — the acceptance gate for the tracing
//! subsystem.

use causal_checker::{check, History, Violations};
use causal_obs::{parse_jsonl, to_jsonl, EventKind, TraceEvent};
use causal_types::WriteId;
use std::path::Path;

/// Rebuild an execution history purely from trace events.
///
/// Uses only the four operation-level kinds — `write`, `apply`,
/// `read_local`, `fetch_done` — which the simulator emits in exactly the
/// order it records its own [`History`], so the reconstruction is
/// record-for-record identical to an in-sim recording of the same run.
pub fn history_from_trace(events: &[TraceEvent], n: usize) -> History {
    let mut h = History::new(n);
    for e in events {
        match e.kind {
            EventKind::Write { var, clock } => {
                h.record_write(e.site, WriteId::new(e.site, clock), var);
            }
            EventKind::Apply { origin, clock, .. } => {
                h.record_apply(e.site, WriteId::new(origin, clock));
            }
            EventKind::ReadLocal { var, writer } => {
                h.record_read(e.site, var, writer, e.site);
            }
            EventKind::FetchDone {
                var,
                served_by,
                writer,
                ..
            } => {
                h.record_read(e.site, var, writer, served_by);
            }
            _ => {}
        }
    }
    h
}

/// Rebuild the history of `events` and run the causal-consistency checker
/// on it.
pub fn check_trace(events: &[TraceEvent], n: usize) -> Violations {
    check(&history_from_trace(events, n))
}

/// Serialize `events` to JSONL at `path` (atomically: temp file + rename,
/// so a crashed run never leaves a half-written trace).
pub fn write_trace(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    let tmp = path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, to_jsonl(events))?;
    std::fs::rename(&tmp, path)
}

/// Load a JSONL trace from `path`.
pub fn read_trace(path: &Path) -> std::io::Result<Vec<TraceEvent>> {
    let text = std::fs::read_to_string(path)?;
    parse_jsonl(&text).map_err(std::io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::paper_cfg;
    use causal_obs::BufTracer;
    use causal_proto::ProtocolKind;
    use causal_simnet::run_traced;

    fn traced_run(kind: ProtocolKind, seed: u64) -> (Vec<TraceEvent>, History) {
        let cfg = paper_cfg(kind, 6, 0.5, seed).small().with_history();
        let mut tracer = BufTracer::default();
        let r = run_traced(&cfg, &mut tracer);
        (tracer.events, r.history.expect("recorded"))
    }

    #[test]
    fn reconstructed_history_matches_the_recorded_one() {
        for kind in [
            ProtocolKind::FullTrack,
            ProtocolKind::OptTrack,
            ProtocolKind::OptP,
        ] {
            let (events, recorded) = traced_run(kind, 17);
            let rebuilt = history_from_trace(&events, 6);
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
            assert_eq!(rebuilt.ops(), recorded.ops(), "{kind}: op records diverge");
        }
    }

    #[test]
    fn reconstructed_history_passes_the_checker() {
        let (events, _) = traced_run(ProtocolKind::OptTrack, 23);
        let v = check_trace(&events, 6);
        assert!(v.protocol_clean(), "causal chains broken: {:?}", v.examples);
    }

    #[test]
    fn traces_round_trip_through_disk() {
        let (events, _) = traced_run(ProtocolKind::FullTrack, 29);
        let dir = std::env::temp_dir().join(format!("causal-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_trace(&path, &events).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(back, events);
        std::fs::remove_dir_all(&dir).ok();
    }
}
