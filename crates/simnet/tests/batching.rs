//! Per-destination batching: semantics preservation and byte accounting.
//!
//! Batching is a transport-layer optimisation — frames are unbatched on
//! delivery back into the exact per-SM messages — so every execution under
//! batching must still satisfy the checker, reach quiescence with nothing
//! parked, and apply exactly as many updates as the unbatched run.

use causal_checker::check;
use causal_clocks::BatchPolicy;
use causal_proto::ProtocolKind;
use causal_simnet::{run, BatchPlan, SimConfig};
use causal_types::{MsgKind, SimDuration, SizeModel};

const ALL_FIVE: [(ProtocolKind, bool); 5] = [
    (ProtocolKind::FullTrack, true),
    (ProtocolKind::OptTrack, true),
    (ProtocolKind::HbTrack, true),
    (ProtocolKind::OptTrackCrp, false),
    (ProtocolKind::OptP, false),
];

fn cfg(kind: ProtocolKind, partial: bool, seed: u64, plan: Option<BatchPlan>) -> SimConfig {
    let base = if partial {
        SimConfig::paper_partial(kind, 8, 0.5, seed)
    } else {
        SimConfig::paper_full(kind, 8, 0.5, seed)
    };
    let mut c = base.small().with_history();
    c.size_model = SizeModel::batched();
    c.batching = plan;
    c
}

#[test]
fn batching_off_reports_zero_batch_counters() {
    for (kind, partial) in ALL_FIVE {
        let r = run(&cfg(kind, partial, 1, None));
        assert_eq!(r.metrics.batch_flushes, 0, "{kind}");
        assert_eq!(r.metrics.batched_sms, 0, "{kind}");
        assert_eq!(r.metrics.batch_bytes_saved, 0, "{kind}");
    }
}

#[test]
fn batching_preserves_causal_semantics_on_all_protocols() {
    let plan = BatchPlan::windowed(SimDuration::from_millis(30_000));
    for (kind, partial) in ALL_FIVE {
        for seed in 0..4 {
            let r = run(&cfg(kind, partial, seed, Some(plan)));
            assert_eq!(r.final_pending, 0, "{kind} seed {seed}: parked updates");
            let v = check(r.history.as_ref().unwrap());
            assert!(v.protocol_clean(), "{kind} seed {seed}: {:?}", v.examples);
        }
    }
}

#[test]
fn batching_changes_bytes_but_not_the_execution() {
    // Same seed, batching on vs off: the application-level execution is
    // identical (same ops, same applies, same fetch traffic), only the SM
    // framing differs — fewer, larger frames and fewer piggyback bytes.
    for (kind, partial) in ALL_FIVE {
        let off = run(&cfg(kind, partial, 7, None));
        let on = run(&cfg(
            kind,
            partial,
            7,
            Some(BatchPlan::windowed(SimDuration::from_millis(60_000))),
        ));
        assert_eq!(on.metrics.writes, off.metrics.writes, "{kind}");
        assert_eq!(on.metrics.reads, off.metrics.reads, "{kind}");
        assert_eq!(on.metrics.applies, off.metrics.applies, "{kind}");
        assert_eq!(
            on.metrics.sm_entries.count(),
            off.metrics.sm_entries.count(),
            "{kind}: every SM still ships exactly once"
        );
        assert!(
            on.metrics.all.count(MsgKind::Sm) < off.metrics.all.count(MsgKind::Sm),
            "{kind}: batching must reduce SM frame count"
        );
        assert!(
            on.metrics.all.bytes(MsgKind::Sm) < off.metrics.all.bytes(MsgKind::Sm),
            "{kind}: batching must reduce SM bytes"
        );
        assert!(on.metrics.batch_flushes > 0, "{kind}");
        assert!(
            on.metrics.batched_sms >= 2 * on.metrics.batch_flushes,
            "{kind}: every counted flush merges at least two SMs"
        );
        // For fixed-size piggybacks (matrix / vector) the saved-bytes
        // counter accounts exactly for the frame-size drop against the
        // unbatched run. Log piggybacks (Opt-Track, CRP) are
        // timing-dependent — batching shifts delivery times and thereby
        // log/pruning contents — so there only the direction is stable.
        let saved = off.metrics.all.bytes(MsgKind::Sm) - on.metrics.all.bytes(MsgKind::Sm);
        match kind {
            ProtocolKind::FullTrack | ProtocolKind::HbTrack | ProtocolKind::OptP => {
                assert_eq!(
                    on.metrics.batch_bytes_saved, saved,
                    "{kind}: saved bytes account exactly for the frame-size drop"
                );
            }
            _ => assert!(on.metrics.batch_bytes_saved > 0, "{kind}"),
        }
    }
}

#[test]
fn batching_runs_are_deterministic() {
    let plan = BatchPlan::windowed(SimDuration::from_millis(45_000));
    let a = run(&cfg(ProtocolKind::OptTrack, true, 42, Some(plan)));
    let b = run(&cfg(ProtocolKind::OptTrack, true, 42, Some(plan)));
    assert_eq!(a.metrics.all, b.metrics.all);
    assert_eq!(a.metrics.batch_flushes, b.metrics.batch_flushes);
    assert_eq!(a.metrics.batched_sms, b.metrics.batched_sms);
    assert_eq!(a.metrics.batch_bytes_saved, b.metrics.batch_bytes_saved);
    assert_eq!(a.duration, b.duration);
}

#[test]
fn count_bound_caps_batch_size() {
    // A count bound of 2 forces pair-sized flushes: batched_sms per flush is
    // exactly 2, and lone stragglers go out unbatched (uncounted).
    let plan = BatchPlan {
        lanes: BatchPolicy::by_count(2),
        window: SimDuration::from_millis(120_000),
    };
    let r = run(&cfg(ProtocolKind::OptP, false, 3, Some(plan)));
    assert_eq!(r.final_pending, 0);
    assert_eq!(r.metrics.batched_sms, 2 * r.metrics.batch_flushes);
    let v = check(r.history.as_ref().unwrap());
    assert!(v.protocol_clean(), "{:?}", v.examples);
}
