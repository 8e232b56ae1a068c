//! Durability verification: the WAL + checkpoint subsystem must carry the
//! protocols through *correlated* failures — overlapping crash windows
//! that take every replica of a variable down at once, crashes inside
//! network partitions, and media loss — and reads aimed at a dead replica
//! must fail over within their deadline instead of blocking forever.

use causal_repro::clocks::DestSet;
use causal_repro::prelude::*;
use causal_repro::simnet::PartitionWindow;
use causal_repro::types::SimDuration;

/// WAL + checkpoints + fetch deadline, the full durability stack.
fn durable(mut cfg: SimConfig) -> SimConfig {
    cfg.durability = DurabilityPlan {
        wal: true,
        checkpoint_every: Some(SimDuration::from_millis(400)),
        fetch_deadline: Some(SimDuration::from_millis(150)),
        lose_media: Vec::new(),
        torn_tail: Vec::new(),
    };
    cfg
}

fn window(site: u16, start: u64, end: u64) -> CrashWindow {
    CrashWindow {
        site: SiteId(site),
        start: SimTime::from_millis(start),
        end: SimTime::from_millis(end),
    }
}

/// The issue's acceptance scenario: with `n = 10`, `p = 3`, and the
/// paper's even placement, variable 0 lives exactly on sites {0, 1, 2} —
/// three overlapping windows hold all of its replicas down at once.
/// PR 1's recovery asserted all peers were up; the WAL path must ride it
/// out and still pass the causal checker.
#[test]
fn overlapping_crashes_of_every_replica_recover_with_wal() {
    for kind in [
        ProtocolKind::FullTrack,
        ProtocolKind::OptTrack,
        ProtocolKind::HbTrack,
    ] {
        let mut cfg = durable(SimConfig::paper_partial(kind, 10, 0.5, 7).with_history());
        cfg.workload.events_per_process = 60;
        cfg.faults = FaultPlan::uniform(0.1, 0.02);
        cfg.crashes = vec![
            window(0, 500, 1_400),
            window(1, 700, 1_600),
            window(2, 900, 1_800),
        ];
        let r = causal_repro::simnet::run(&cfg);
        assert_eq!(r.final_pending, 0, "{kind}: parked forever");
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind}: violations: {:?}", v.examples);
        let m = &r.metrics;
        assert_eq!(m.recovery_ns.count(), 3, "{kind}: three recoveries");
        assert_eq!(m.recovery_replays, 3, "{kind}: every recovery replays");
        assert!(m.wal_appends > 0 && m.wal_bytes > 0, "{kind}: WAL idle");
        assert!(m.checkpoints > 0, "{kind}: checkpoints never ticked");
    }
}

/// Full-replication protocols under a two-site overlap (optP and CRP have
/// a replica everywhere, so "all replicas down" is out of reach — the
/// overlap itself plus WAL replay is the regression surface).
#[test]
fn full_replication_overlapping_crashes_recover_with_wal() {
    for kind in [ProtocolKind::OptP, ProtocolKind::OptTrackCrp] {
        let mut cfg = durable(SimConfig::paper_full(kind, 5, 0.5, 5).with_history());
        cfg.workload.events_per_process = 60;
        cfg.crashes = vec![window(0, 500, 1_200), window(1, 800, 1_500)];
        let r = causal_repro::simnet::run(&cfg);
        assert_eq!(r.final_pending, 0, "{kind}: parked forever");
        assert!(check(r.history.as_ref().unwrap()).protocol_clean());
        assert_eq!(r.metrics.recovery_replays, 2, "{kind}: replays");
    }
}

/// A site that crashes *inside* a partition recovers from its own WAL even
/// though no sync partner is reachable until the cut heals: the sync
/// deadline converts the unreachable peers into a degraded (local-state)
/// recovery, retransmission catches it up after the heal, and the history
/// stays causal.
#[test]
fn crash_during_partition_recovers_from_local_wal() {
    let mut cfg =
        durable(SimConfig::paper_partial(ProtocolKind::OptTrack, 8, 0.5, 13).with_history());
    cfg.workload.events_per_process = 60;
    cfg.partitions = vec![PartitionWindow {
        start: SimTime::from_millis(400),
        end: SimTime::from_millis(6_000),
        side_a: DestSet::from_sites([SiteId(1)]),
    }];
    cfg.crashes = vec![window(1, 800, 1_500)];
    let r = causal_repro::simnet::run(&cfg);
    assert_eq!(r.final_pending, 0, "parked forever");
    assert!(check(r.history.as_ref().unwrap()).protocol_clean());
    let m = &r.metrics;
    assert_eq!(m.recovery_replays, 1, "recovery must come from the WAL");
    assert_eq!(
        m.degraded_recoveries, 1,
        "isolated sync must hit the deadline and degrade"
    );
}

/// A fetch addressed to a crashed replica must fail over to another
/// replica within its deadline instead of blocking until the crashed site
/// returns (or forever).
#[test]
fn fetch_to_a_crashed_replica_fails_over_within_deadline() {
    let mut cfg =
        durable(SimConfig::paper_partial(ProtocolKind::OptTrack, 10, 0.5, 3).with_history());
    cfg.workload.events_per_process = 80;
    cfg.crashes = vec![window(0, 500, 4_000), window(1, 500, 4_000)];
    let r = causal_repro::simnet::run(&cfg);
    assert_eq!(r.final_pending, 0, "a blocked fetch outlived the run");
    assert!(check(r.history.as_ref().unwrap()).protocol_clean());
    assert!(
        r.metrics.fetch_failovers > 0,
        "long crash with a 150 ms deadline must force failovers"
    );
}

/// Media loss wipes the WAL: recovery must detect the lost store and fall
/// back to the full peer rebuild (no local replay) rather than replaying
/// an empty log and claiming durability it does not have.
#[test]
fn media_loss_falls_back_to_full_peer_rebuild() {
    for kind in [ProtocolKind::FullTrack, ProtocolKind::HbTrack] {
        let mut cfg = durable(SimConfig::paper_partial(kind, 6, 0.5, 17).with_history());
        cfg.workload.events_per_process = 60;
        cfg.crashes = vec![window(2, 600, 1_300)];
        cfg.durability.lose_media = vec![SiteId(2)];
        let r = causal_repro::simnet::run(&cfg);
        assert_eq!(r.final_pending, 0, "{kind}: parked forever");
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind}: violations: {:?}", v.examples);
        let m = &r.metrics;
        assert_eq!(m.recovery_ns.count(), 1, "{kind}: no recovery");
        assert_eq!(m.recovery_replays, 0, "{kind}: replayed a wiped store");
        assert!(m.sync_count > 0, "{kind}: fallback must sync from peers");
        assert_eq!(m.delta_sync_saved_bytes, 0, "{kind}: no marks survive");
    }
}

/// Durable runs are bit-deterministic like every other mode.
#[test]
fn durable_runs_are_deterministic() {
    let mk = || {
        let mut cfg =
            durable(SimConfig::paper_partial(ProtocolKind::OptTrack, 6, 0.5, 29).with_history());
        cfg.workload.events_per_process = 50;
        cfg.crashes = vec![window(0, 400, 1_000), window(3, 800, 1_400)];
        cfg
    };
    let a = causal_repro::simnet::run(&mk());
    let b = causal_repro::simnet::run(&mk());
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.metrics.wal_appends, b.metrics.wal_appends);
    assert_eq!(a.metrics.wal_bytes, b.metrics.wal_bytes);
    assert_eq!(a.metrics.checkpoint_bytes, b.metrics.checkpoint_bytes);
    assert_eq!(a.metrics.fetch_failovers, b.metrics.fetch_failovers);
    assert_eq!(a.final_local_meta, b.final_local_meta);
}

/// Same-site overlapping crash windows are a configuration error, not a
/// scenario: the simulator must reject them loudly.
#[test]
#[should_panic(expected = "overlap")]
fn same_site_overlapping_crash_windows_are_rejected() {
    let mut cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 5, 0.5, 1).small();
    cfg.crashes = vec![window(1, 500, 1_500), window(1, 1_000, 2_000)];
    let _ = causal_repro::simnet::run(&cfg);
}
