//! Causal stability tracking and stable-frontier garbage collection.
//!
//! A write is *stable* once every live member has applied it; everything at
//! or below the stable frontier can never again block or constrain a
//! delivery, so the collectors may drop the metadata describing it. These
//! tests pin the safety half of that contract (GC is invisible to protocol
//! behaviour and to the checker), the liveness half (a crashed member stalls
//! the frontier, and GC resumes after recovery), and the two pressure
//! valves (stuck-buffer watchdog, soft-cap write backpressure).

use causal_checker::check;
use causal_proto::ProtocolKind;
use causal_simnet::{run, CrashWindow, DurabilityPlan, FaultPlan, SimConfig, StabilityPlan};
use causal_types::{SimDuration, SimTime, SiteId};
use causal_workload::WorkloadParams;

const PROTOCOLS: [(ProtocolKind, bool); 5] = [
    (ProtocolKind::FullTrack, true),
    (ProtocolKind::OptTrack, true),
    (ProtocolKind::HbTrack, true),
    (ProtocolKind::OptTrackCrp, false),
    (ProtocolKind::OptP, false),
];

/// A dense little soak: tight delays keep many writes in flight, which is
/// exactly the regime where premature collection or a recovery
/// fast-forward/value mismatch becomes a stale read.
fn soak_cfg(kind: ProtocolKind, partial: bool, epp: usize) -> SimConfig {
    let mut cfg = if partial {
        SimConfig::paper_partial(kind, 8, 0.5, 701)
    } else {
        SimConfig::paper_full(kind, 8, 0.5, 701)
    };
    cfg.workload = WorkloadParams::soak(8, 0.5, 701);
    cfg.workload.events_per_process = epp;
    cfg.with_durability(DurabilityPlan {
        wal: true,
        ..Default::default()
    })
    .with_history()
}

/// Crash site 1 over the first half of the run (same shape as the soak
/// sweep's `crashed` scenario).
fn crashed(mut cfg: SimConfig, epp: usize) -> SimConfig {
    let span_ms = epp as u64 * 11 / 2;
    cfg.crashes = vec![CrashWindow {
        site: SiteId(1),
        start: SimTime::from_millis(span_ms / 4),
        end: SimTime::from_millis(span_ms * 45 / 100),
    }];
    cfg
}

/// With GC on, every protocol stays checker-clean and actually collects:
/// log entries or `LastWriteOn` slots are dropped and fully-checkpointed
/// WAL segments are deleted.
#[test]
fn gc_on_is_checker_clean_and_collects_for_every_protocol() {
    for (kind, partial) in PROTOCOLS {
        let cfg = soak_cfg(kind, partial, 600).with_stability(StabilityPlan::default());
        let r = run(&cfg);
        assert_eq!(r.final_pending, 0, "{kind}: parked updates left");
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
        assert!(
            r.metrics.gc_log_entries + r.metrics.gc_slots > 0 || kind == ProtocolKind::HbTrack,
            "{kind}: GC never collected protocol metadata"
        );
        assert!(
            r.metrics.wal_deleted_bytes > 0,
            "{kind}: no WAL segment fell behind the stable frontier"
        );
    }
}

/// GC only ever drops provably-redundant state, so switching it off must
/// not change a single observable of the run — only the retained-bytes
/// trajectory. This is the strongest form of the "GC is invisible"
/// contract, and the GC-off peak doubles as the unbounded baseline: the
/// GC-on peak must be a small fraction of it.
#[test]
fn gc_is_invisible_and_bounds_retained_metadata() {
    for (kind, partial) in [
        (ProtocolKind::OptTrack, true),
        (ProtocolKind::OptTrackCrp, false),
    ] {
        let on = run(&soak_cfg(kind, partial, 800).with_stability(StabilityPlan::default()));
        let off = run(
            &soak_cfg(kind, partial, 800).with_stability(StabilityPlan::default().without_gc())
        );
        assert_eq!(on.duration, off.duration, "{kind}: GC changed virtual time");
        assert_eq!(on.metrics.writes, off.metrics.writes, "{kind}");
        assert_eq!(on.metrics.reads, off.metrics.reads, "{kind}");
        assert_eq!(on.metrics.remote_reads, off.metrics.remote_reads, "{kind}");
        assert!(
            on.metrics.retained_meta_peak < off.metrics.retained_meta_peak / 4,
            "{kind}: GC-on peak {} not well below GC-off peak {}",
            on.metrics.retained_meta_peak,
            off.metrics.retained_meta_peak
        );
        assert_eq!(
            off.metrics.wal_deleted_bytes, 0,
            "{kind}: GC-off deleted WAL"
        );
    }
}

/// A crashed member stalls the stable frontier (its delivery rows stop
/// advancing), GC pauses rather than collecting state the absentee still
/// needs, and after recovery the frontier moves again and collection
/// resumes — all without a single causal violation.
#[test]
fn crash_stalls_the_frontier_and_gc_resumes() {
    for (kind, partial) in PROTOCOLS {
        let cfg =
            crashed(soak_cfg(kind, partial, 600), 600).with_stability(StabilityPlan::default());
        let r = run(&cfg);
        assert_eq!(r.final_pending, 0, "{kind}");
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
        assert!(
            r.metrics.gc_stalled_ticks > 0,
            "{kind}: frontier never stalled during the crash"
        );
        assert!(
            r.metrics.gc_slots + r.metrics.gc_log_entries + r.metrics.wal_deleted_bytes > 0,
            "{kind}: GC never resumed after recovery"
        );
    }
}

/// Regression guard for crash recovery under a dense in-flight window: the
/// full-replication snapshot install must fast-forward delivery counters to
/// the merged applied horizon and drop the redeliveries it covers —
/// stopping at the acked prefix lets stale retransmissions roll installed
/// values backwards (stale reads at the recovered site). Runs with and
/// without WAL (rebuild-from-peers path) and with no stability plan at all:
/// the guarantee is the protocol's, not the collector's.
#[test]
fn dense_crash_recovery_is_checker_clean_without_stability() {
    for (kind, partial, wal) in [
        (ProtocolKind::OptTrackCrp, false, true),
        (ProtocolKind::OptTrackCrp, false, false),
        (ProtocolKind::OptP, false, true),
        (ProtocolKind::OptP, false, false),
        (ProtocolKind::FullTrack, true, true),
        (ProtocolKind::OptTrack, true, true),
        (ProtocolKind::HbTrack, true, true),
    ] {
        let mut cfg = crashed(soak_cfg(kind, partial, 600), 600);
        if !wal {
            cfg.durability = DurabilityPlan::default();
        }
        let r = run(&cfg);
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind} wal={wal}: {:?}", v.examples);
    }
}

/// Frame loss stretches retransmission gaps to tens of milliseconds, so
/// dependent updates park well past a 20 ms threshold; the watchdog counts
/// them (once each) and the run still completes and checks clean.
#[test]
fn overdue_watchdog_flags_long_parked_updates() {
    let mut cfg = soak_cfg(ProtocolKind::OptP, false, 600);
    cfg.faults = FaultPlan {
        drop: 0.2,
        ..Default::default()
    };
    let mut plan = StabilityPlan::default().with_overdue_after(SimDuration::from_millis(20));
    plan.heartbeat_every = SimDuration::from_millis(10);
    let cfg = cfg.with_stability(plan);
    let r = run(&cfg);
    assert_eq!(r.final_pending, 0);
    assert!(
        r.metrics.buffered_overdue > 0,
        "loss-stretched parks never tripped the 20 ms watchdog"
    );
    let v = check(r.history.as_ref().unwrap());
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

/// Under a soft retained-metadata cap with GC disabled, retention can only
/// grow, so the cap engages and defers write issuance — bounded per op, so
/// the schedule still completes, and backpressure must never corrupt
/// causal order.
#[test]
fn soft_cap_backpressure_completes_clean() {
    let cfg = soak_cfg(ProtocolKind::OptTrack, true, 400).with_stability(
        StabilityPlan::default()
            .without_gc()
            .with_soft_meta_cap(20_000),
    );
    let r = run(&cfg);
    assert_eq!(r.final_pending, 0);
    assert!(
        r.metrics.backpressure_events > 0,
        "cap of 20 KB never engaged against an unbounded retention curve"
    );
    let v = check(r.history.as_ref().unwrap());
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

/// The tracker works from gossiped knowledge only, so its lag gauge and
/// unstable-window peak are live on every protocol even with GC off.
#[test]
fn lag_metrics_are_recorded() {
    let cfg = soak_cfg(ProtocolKind::FullTrack, true, 400)
        .with_stability(StabilityPlan::default().without_gc());
    let r = run(&cfg);
    assert!(r.metrics.gossip_rows > 0, "no delivery rows gossiped");
    assert!(r.metrics.unstable_peak > 0, "unstable window never tracked");
    assert!(
        r.metrics.stability_lag.quantile(0.99).is_some(),
        "lag quantile never fed"
    );
}

/// The stability heartbeat and the checkpoint cadence each re-arm only
/// while the run is otherwise live. Each used to count the other's pending
/// tick as liveness, so with both on the run never quiesced; a regression
/// would spin forever, hence the watchdog.
#[test]
fn stability_and_checkpoint_ticks_do_not_keep_each_other_awake() {
    for (kind, partial) in PROTOCOLS {
        let cfg = soak_cfg(kind, partial, 40)
            .with_durability(DurabilityPlan {
                wal: true,
                checkpoint_every: Some(SimDuration::from_millis(400)),
                ..Default::default()
            })
            .with_stability(StabilityPlan::default());
        let (done, result) = std::sync::mpsc::channel();
        // A run that hangs cannot be joined; the send fails only once the
        // watchdog below has already given up on it.
        let worker = std::thread::spawn(move || drop(done.send(run(&cfg))));
        let r = result
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{kind}: the run did not quiesce"));
        worker.join().expect("the run thread finished cleanly");
        assert_eq!(r.final_pending, 0, "{kind}: parked updates left");
        assert!(r.metrics.checkpoints > 0, "{kind}: the cadence never ran");
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
    }
}
