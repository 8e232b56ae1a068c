//! Chaos verification: every protocol must restore exactly-once FIFO
//! causal delivery over a lossy, duplicating network with a mid-run
//! fail-stop crash (state loss) — the acceptance bar for the reliable
//! transport + crash-recovery subsystem.

use causal_repro::prelude::*;

/// The issue's acceptance setting: 20 % drop, 5 % duplication, one crash
/// window while traffic is in full flight.
fn chaos_cfg(kind: ProtocolKind, partial: bool, n: usize, seed: u64) -> SimConfig {
    let mut cfg = if partial {
        SimConfig::paper_partial(kind, n, 0.5, seed)
    } else {
        SimConfig::paper_full(kind, n, 0.5, seed)
    };
    cfg.workload.events_per_process = 60;
    cfg.record_history = true;
    cfg.faults = FaultPlan::uniform(0.2, 0.05);
    cfg.crashes = vec![CrashWindow {
        site: SiteId(1),
        start: SimTime::from_millis(500),
        end: SimTime::from_millis(1_000),
    }];
    cfg
}

#[test]
fn all_protocols_survive_loss_duplication_and_a_crash() {
    let cases = [
        (ProtocolKind::FullTrack, true),
        (ProtocolKind::OptTrack, true),
        (ProtocolKind::HbTrack, true),
        (ProtocolKind::OptTrackCrp, false),
        (ProtocolKind::OptP, false),
    ];
    for (kind, partial) in cases {
        for n in [5, 10] {
            let cfg = chaos_cfg(kind, partial, n, 42);
            let r = causal_repro::simnet::run(&cfg);
            assert_eq!(r.final_pending, 0, "{kind} n={n}: parked forever");
            let v = check(r.history.as_ref().unwrap());
            assert!(
                v.protocol_clean(),
                "{kind} n={n}: causal violations under chaos: {:?}",
                v.examples
            );
            let m = &r.metrics;
            assert!(m.retransmissions > 0, "{kind} n={n}: no retransmissions");
            assert!(m.dup_drops > 0, "{kind} n={n}: no duplicate drops");
            assert!(m.fault_drops > 0, "{kind} n={n}: fault plan never fired");
            assert!(m.ack_count > 0 && m.ack_bytes > 0, "{kind} n={n}: no acks");
            assert!(m.sync_count > 0, "{kind} n={n}: recovery never synced");
            assert_eq!(
                m.recovery_ns.count(),
                1,
                "{kind} n={n}: expected exactly one recovery"
            );
        }
    }
}

#[test]
fn chaos_runs_are_deterministic() {
    let a = causal_repro::simnet::run(&chaos_cfg(ProtocolKind::OptTrack, true, 5, 9));
    let b = causal_repro::simnet::run(&chaos_cfg(ProtocolKind::OptTrack, true, 5, 9));
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.metrics.retransmissions, b.metrics.retransmissions);
    assert_eq!(a.metrics.fault_drops, b.metrics.fault_drops);
    assert_eq!(a.metrics.dup_drops, b.metrics.dup_drops);
    assert_eq!(a.metrics.applies, b.metrics.applies);
    assert_eq!(a.final_local_meta, b.final_local_meta);
}

#[test]
fn an_empty_fault_plan_is_an_exact_pass_through() {
    let plain = SimConfig::paper_partial(ProtocolKind::OptTrack, 6, 0.4, 11).small();
    let mut gated = plain.clone();
    gated.faults = FaultPlan::uniform(0.0, 0.0); // explicit but inert
    assert!(
        !gated.chaos(),
        "a zero-rate plan must not engage the transport"
    );
    let a = causal_repro::simnet::run(&plain);
    let b = causal_repro::simnet::run(&gated);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.metrics.applies, b.metrics.applies);
    assert_eq!(a.metrics.measured, b.metrics.measured);
    assert_eq!(a.final_local_meta, b.final_local_meta);
    for m in [&a.metrics, &b.metrics] {
        assert_eq!(m.retransmissions, 0);
        assert_eq!(m.dup_drops, 0);
        assert_eq!(m.ack_count, 0);
        assert_eq!(m.envelope_bytes, 0);
        assert_eq!(m.sync_count, 0);
    }
}

#[test]
fn loss_alone_without_crashes_stays_causal() {
    for kind in [ProtocolKind::FullTrack, ProtocolKind::OptTrack] {
        let mut cfg = SimConfig::paper_partial(kind, 7, 0.5, 23)
            .small()
            .with_history();
        cfg.faults = FaultPlan::uniform(0.3, 0.1);
        let r = causal_repro::simnet::run(&cfg);
        assert_eq!(r.final_pending, 0);
        assert!(check(r.history.as_ref().unwrap()).protocol_clean());
        assert!(r.metrics.retransmissions > 0);
        assert_eq!(r.metrics.sync_count, 0, "no crash, no sync traffic");
    }
}

/// Regression: a fetch re-issued across a crash can be answered twice —
/// once by the RM already in flight when the replier crashed, once by the
/// recovered replier — which used to trip the protocols' single-
/// outstanding-fetch assertion. (Found with `simulate --protocol
/// opt-track --n 5 --events 80 --faults 0.3,0.1 --crash 1:500:900`.)
#[test]
fn a_fetch_answered_across_a_crash_is_not_answered_twice() {
    let mut cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 5, 0.5, 1).with_history();
    cfg.workload.events_per_process = 80;
    cfg.faults = FaultPlan::uniform(0.3, 0.1);
    cfg.crashes = vec![CrashWindow {
        site: SiteId(1),
        start: SimTime::from_millis(500),
        end: SimTime::from_millis(900),
    }];
    let r = causal_repro::simnet::run(&cfg);
    assert_eq!(r.final_pending, 0);
    assert!(check(r.history.as_ref().unwrap()).protocol_clean());
}

#[test]
fn back_to_back_crashes_of_different_sites_recover() {
    let mut cfg = SimConfig::paper_full(ProtocolKind::OptP, 5, 0.5, 3).with_history();
    cfg.workload.events_per_process = 60;
    cfg.faults = FaultPlan::uniform(0.1, 0.02);
    cfg.crashes = vec![
        CrashWindow {
            site: SiteId(0),
            start: SimTime::from_millis(300),
            end: SimTime::from_millis(700),
        },
        CrashWindow {
            site: SiteId(3),
            start: SimTime::from_millis(4_000),
            end: SimTime::from_millis(4_600),
        },
    ];
    let r = causal_repro::simnet::run(&cfg);
    assert_eq!(r.final_pending, 0);
    assert!(check(r.history.as_ref().unwrap()).protocol_clean());
    assert_eq!(r.metrics.recovery_ns.count(), 2);
}
