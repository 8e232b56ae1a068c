//! Fault injection: temporary network partitions.
//!
//! The paper motivates causal consistency through the CAP theorem: it is
//! one of the strongest models that stays fully available under partition.
//! These tests sever the network mid-run and verify that (a) both sides
//! keep executing their schedules without blocking, (b) crossing updates
//! park and drain after the heal, and (c) the final execution is still
//! causally consistent.

use causal_checker::check;
use causal_clocks::DestSet;
use causal_proto::ProtocolKind;
use causal_simnet::{run, PartitionWindow, SimConfig};
use causal_types::{SimTime, SiteId};

fn half(n: usize) -> DestSet {
    DestSet::from_sites((0..n / 2).map(SiteId::from))
}

/// One long partition covering the middle of the run.
fn mid_run_partition(n: usize) -> PartitionWindow {
    PartitionWindow {
        start: SimTime::from_millis(10_000),
        end: SimTime::from_millis(40_000),
        side_a: half(n),
    }
}

#[test]
fn all_protocols_survive_a_partition() {
    for (kind, partial) in [
        (ProtocolKind::FullTrack, true),
        (ProtocolKind::OptTrack, true),
        (ProtocolKind::HbTrack, true),
        (ProtocolKind::OptTrackCrp, false),
        (ProtocolKind::OptP, false),
    ] {
        let mut cfg = if partial {
            SimConfig::paper_partial(kind, 8, 0.5, 31)
        } else {
            SimConfig::paper_full(kind, 8, 0.5, 31)
        };
        cfg.workload.events_per_process = 60;
        cfg.record_history = true;
        cfg.partitions = vec![mid_run_partition(8)];
        let r = run(&cfg);
        assert_eq!(r.final_pending, 0, "{kind}: partition must heal fully");
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
    }
}

#[test]
fn partition_delays_cross_cut_updates() {
    // Same run with and without the partition: identical message counts
    // (availability — nobody stops writing), but the partitioned run parks
    // updates while the cut is active.
    let mut base = SimConfig::paper_full(ProtocolKind::OptP, 6, 0.8, 32);
    base.workload.events_per_process = 60;
    let clean = run(&base);

    let mut cut = base.clone();
    cut.partitions = vec![mid_run_partition(6)];
    let parted = run(&cut);

    assert_eq!(
        clean.metrics.all.total_count(),
        parted.metrics.all.total_count(),
        "both sides stay available: same traffic"
    );
    assert!(
        parted.metrics.max_pending > clean.metrics.max_pending,
        "cross-cut updates must park during the partition ({} vs {})",
        parted.metrics.max_pending,
        clean.metrics.max_pending
    );
    assert!(
        parted.metrics.apply_latency_ns.mean() > clean.metrics.apply_latency_ns.mean(),
        "healing delays visibility"
    );
}

#[test]
fn reads_inside_a_side_keep_working() {
    // During the partition, a side still serves causally consistent local
    // data: the run completes with a strictly-clean full-replication
    // history even though half the updates arrive late.
    let mut cfg = SimConfig::paper_full(ProtocolKind::OptTrackCrp, 6, 0.5, 33);
    cfg.workload.events_per_process = 60;
    cfg.record_history = true;
    cfg.partitions = vec![mid_run_partition(6)];
    let r = run(&cfg);
    let v = check(r.history.as_ref().unwrap());
    assert!(v.strictly_clean(), "{:?}", v.examples);
}

#[test]
fn repeated_flapping_partitions() {
    // Partition flaps on and off five times; FIFO and causality must hold
    // throughout.
    let flaps: Vec<PartitionWindow> = (0..5)
        .map(|i| PartitionWindow {
            start: SimTime::from_millis(5_000 + i * 12_000),
            end: SimTime::from_millis(11_000 + i * 12_000),
            side_a: half(8),
        })
        .collect();
    let mut cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 8, 0.5, 34);
    cfg.workload.events_per_process = 60;
    cfg.record_history = true;
    cfg.partitions = flaps;
    let r = run(&cfg);
    assert_eq!(r.final_pending, 0);
    let v = check(r.history.as_ref().unwrap());
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

#[test]
fn total_partition_of_one_site() {
    // Isolate a single site for a long stretch: it keeps writing (sends
    // buffered) and the rest of the system keeps going.
    let mut cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 8, 0.5, 35);
    cfg.workload.events_per_process = 60;
    cfg.record_history = true;
    cfg.partitions = vec![PartitionWindow {
        start: SimTime::from_millis(5_000),
        end: SimTime::from_millis(60_000),
        side_a: DestSet::from_sites([SiteId(3)]),
    }];
    let r = run(&cfg);
    assert_eq!(r.final_pending, 0);
    let v = check(r.history.as_ref().unwrap());
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

mod pauses {
    use super::*;
    use causal_simnet::PauseWindow;

    #[test]
    fn paused_site_recovers_and_catches_up() {
        for kind in [ProtocolKind::OptTrack, ProtocolKind::OptTrackCrp] {
            let partial = kind.supports_partial();
            let mut cfg = if partial {
                SimConfig::paper_partial(kind, 6, 0.5, 41)
            } else {
                SimConfig::paper_full(kind, 6, 0.5, 41)
            };
            cfg.workload.events_per_process = 60;
            cfg.record_history = true;
            cfg.pauses = vec![PauseWindow {
                site: SiteId(2),
                start: SimTime::from_millis(8_000),
                end: SimTime::from_millis(45_000),
            }];
            let r = run(&cfg);
            assert_eq!(r.final_pending, 0, "{kind}: everything drains at resume");
            let v = check(r.history.as_ref().unwrap());
            assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
            // The paused site still executes its full schedule (ops defer,
            // they are not dropped).
            assert_eq!(r.history.as_ref().unwrap().ops(SiteId(2)).len(), 60);
        }
    }

    #[test]
    fn pause_defers_the_sites_own_operations() {
        let mut base = SimConfig::paper_full(ProtocolKind::OptP, 4, 0.5, 42);
        base.workload.events_per_process = 40;
        let normal = run(&base);
        let mut paused = base.clone();
        paused.pauses = vec![PauseWindow {
            site: SiteId(0),
            start: SimTime::ZERO,
            end: SimTime::from_millis(120_000),
        }];
        let r = run(&paused);
        // Identical traffic in the end — the pause shifts time, not work.
        assert_eq!(
            r.metrics.all.total_count(),
            normal.metrics.all.total_count()
        );
        assert!(
            r.duration > normal.duration,
            "the run stretches past the pause"
        );
    }

    #[test]
    fn overlapping_pauses_and_partitions_compose() {
        let mut cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 8, 0.5, 43);
        cfg.workload.events_per_process = 50;
        cfg.record_history = true;
        cfg.partitions = vec![mid_run_partition(8)];
        cfg.pauses = vec![PauseWindow {
            site: SiteId(5),
            start: SimTime::from_millis(20_000),
            end: SimTime::from_millis(50_000),
        }];
        let r = run(&cfg);
        assert_eq!(r.final_pending, 0);
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{:?}", v.examples);
    }
}
