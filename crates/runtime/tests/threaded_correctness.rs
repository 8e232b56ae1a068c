//! Live-concurrency correctness: the identical protocol objects that the
//! simulator drives, running on real threads with real channels, must
//! produce causally consistent executions — for every interleaving the OS
//! scheduler happens to produce.

use causal_checker::check;
use causal_proto::ProtocolKind;
use causal_runtime::{replay, RuntimeConfig, ServeTransport};
use causal_types::{MsgKind, SiteId};

#[test]
fn threaded_full_replication_protocols_are_causal() {
    for kind in [ProtocolKind::OptTrackCrp, ProtocolKind::OptP] {
        for seed in 0..3 {
            let cfg = RuntimeConfig::fast(kind, 4, 0.5, seed, 40);
            let out = replay(&cfg, ServeTransport::Channel).expect("channel replay");
            assert_eq!(out.final_pending, 0, "{kind} seed {seed}");
            let v = check(&out.history);
            assert!(v.protocol_clean(), "{kind} seed {seed}: {:?}", v.examples);
            // Full replication + local reads: strict causal memory.
            assert!(v.strictly_clean(), "{kind} seed {seed}: {:?}", v.examples);
        }
    }
}

#[test]
fn threaded_partial_replication_protocols_are_causal() {
    for kind in [ProtocolKind::FullTrack, ProtocolKind::OptTrack] {
        for seed in 0..3 {
            let cfg = RuntimeConfig::fast(kind, 6, 0.5, seed, 40);
            let out = replay(&cfg, ServeTransport::Channel).expect("channel replay");
            assert_eq!(out.final_pending, 0, "{kind} seed {seed}");
            let v = check(&out.history);
            assert!(v.protocol_clean(), "{kind} seed {seed}: {:?}", v.examples);
        }
    }
}

#[test]
fn threaded_history_is_complete() {
    let cfg = RuntimeConfig::fast(ProtocolKind::OptTrackCrp, 4, 0.5, 9, 30);
    let out = replay(&cfg, ServeTransport::Channel).expect("channel replay");
    assert_eq!(out.history.total_ops(), 4 * 30, "every op recorded");
    // Every write applies everywhere under full replication.
    let writes = SiteId::all(4)
        .flat_map(|site| out.history.ops(site))
        .filter(|o| matches!(o, causal_checker::OpRecord::Write { .. }))
        .count();
    assert_eq!(out.history.total_applies(), writes * 4);
}

#[test]
fn threaded_metrics_account_for_traffic() {
    let cfg = RuntimeConfig::fast(ProtocolKind::OptTrack, 6, 0.3, 4, 40);
    let out = replay(&cfg, ServeTransport::Channel).expect("channel replay");
    // Partial replication at w=0.3 generates all three message kinds.
    assert!(out.metrics.all.count(MsgKind::Sm) > 0);
    assert_eq!(
        out.metrics.all.count(MsgKind::Fm),
        out.metrics.all.count(MsgKind::Rm)
    );
    assert!(out.elapsed.as_millis() > 0);
    // The per-site registry is filled the way the simulator fills it: each
    // delivered message counts at its site, and each received update's
    // apply records its dwell there.
    let per_site = &out.metrics.per_site;
    let delivers: u64 = per_site.iter().map(|s| s.delivers).sum();
    let kinds = [MsgKind::Sm, MsgKind::Fm, MsgKind::Rm];
    let sent: u64 = kinds.iter().map(|k| out.metrics.all.count(*k)).sum();
    assert_eq!(delivers, sent);
    let dwells: u64 = per_site.iter().map(|s| s.dwell_ns.count()).sum();
    assert!(dwells > 0);
    assert_eq!(dwells, out.metrics.apply_latency_ns.count());
}

#[test]
fn threaded_write_heavy_stress() {
    // Maximum write contention: every op is a write, everything multicasts.
    let cfg = RuntimeConfig::fast(ProtocolKind::OptP, 8, 1.0, 5, 50);
    let out = replay(&cfg, ServeTransport::Channel).expect("channel replay");
    assert_eq!(out.final_pending, 0);
    let v = check(&out.history);
    assert!(v.strictly_clean(), "{:?}", v.examples);
    // 8 sites × 50 writes × 7 peers.
    assert_eq!(out.metrics.all.count(MsgKind::Sm), 8 * 50 * 7);
}
