//! Cross-crate integration: the facade API, simulator and checker working
//! together on all four protocols.

use causal_repro::prelude::*;
use std::sync::Arc;

#[test]
fn facade_prelude_drives_a_cluster() {
    let placement = Arc::new(Placement::paper_partial(10).unwrap());
    let mut cluster = LocalCluster::new(ProtocolKind::OptTrack, placement, Default::default());
    let w = cluster.write(SiteId(0), VarId(7), 42);
    let v = cluster.read(SiteId(9), VarId(7)).unwrap();
    assert_eq!(v.writer, w);
    assert_eq!(v.data, 42);
}

#[test]
fn all_four_protocols_verified_through_the_facade() {
    for (kind, partial) in [
        (ProtocolKind::FullTrack, true),
        (ProtocolKind::OptTrack, true),
        (ProtocolKind::OptTrackCrp, false),
        (ProtocolKind::OptP, false),
    ] {
        let mut cfg = if partial {
            SimConfig::paper_partial(kind, 6, 0.5, 99)
        } else {
            SimConfig::paper_full(kind, 6, 0.5, 99)
        };
        cfg.workload.events_per_process = 80;
        cfg.record_history = true;
        let r = causal_repro::simnet::run(&cfg);
        assert_eq!(r.final_pending, 0);
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
    }
}

#[test]
fn causal_chain_across_layers() {
    // Three causally chained writes through three different sites must be
    // observed in order by a fourth, regardless of replica layout.
    let placement = Arc::new(Placement::paper_partial(8).unwrap());
    let mut c = LocalCluster::new(ProtocolKind::OptTrack, placement, Default::default());
    let w1 = c.write(SiteId(0), VarId(0), 1);
    let r1 = c.read(SiteId(1), VarId(0)).unwrap();
    assert_eq!(r1.writer, w1);
    let _w2 = c.write(SiteId(1), VarId(1), 2);
    let r2 = c.read(SiteId(2), VarId(1)).unwrap();
    assert_eq!(r2.data, 2);
    let w3 = c.write(SiteId(2), VarId(2), 3);
    // Site 5 follows the chain backwards.
    assert_eq!(c.read(SiteId(5), VarId(2)).unwrap().writer, w3);
    assert_eq!(c.read(SiteId(5), VarId(0)).unwrap().writer, w1);
}

#[test]
fn sim_and_threaded_runtime_agree_on_message_counts() {
    // Message counts are determined by the schedule and the placement, not
    // by timing: the discrete-event simulator and the live threaded runtime
    // must produce identical counts for the same seed.
    for (kind, partial) in [(ProtocolKind::OptTrack, true), (ProtocolKind::OptP, false)] {
        let n = 6;
        let seed = 1234;
        let events = 50;
        let mut sim_cfg = if partial {
            SimConfig::paper_partial(kind, n, 0.5, seed)
        } else {
            SimConfig::paper_full(kind, n, 0.5, seed)
        };
        sim_cfg.workload.events_per_process = events;
        let sim = causal_repro::simnet::run(&sim_cfg);

        let rt_cfg = RuntimeConfig::fast(kind, n, 0.5, seed, events);
        let rt = replay(&rt_cfg, ServeTransport::Channel).expect("channel replay");

        for kind_m in [MsgKind::Sm, MsgKind::Fm, MsgKind::Rm] {
            assert_eq!(
                sim.metrics.all.count(kind_m),
                rt.metrics.all.count(kind_m),
                "{kind}: {kind_m} count must match between sim and runtime"
            );
        }
        let v = check(&rt.history);
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
    }
}

#[test]
fn size_models_preserve_the_papers_ordering() {
    // The Opt-Track vs Full-Track comparison must hold under both byte
    // calibrations (the conclusions are not artifacts of the Java model).
    for model in [SizeModel::java_like(), SizeModel::wire()] {
        let n = 20;
        let mut a = SimConfig::paper_partial(ProtocolKind::OptTrack, n, 0.5, 5);
        a.size_model = model;
        a.workload.events_per_process = 100;
        let mut b = SimConfig::paper_partial(ProtocolKind::FullTrack, n, 0.5, 5);
        b.size_model = model;
        b.workload.events_per_process = 100;
        let ot = causal_repro::simnet::run(&a).metrics.measured.total_bytes();
        let ft = causal_repro::simnet::run(&b).metrics.measured.total_bytes();
        assert!(
            ot < ft,
            "Opt-Track must carry less metadata than Full-Track under {model:?}"
        );
    }
}

#[test]
fn zipf_workload_end_to_end() {
    let mut cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 8, 0.5, 7);
    cfg.workload.events_per_process = 80;
    cfg.workload.var_dist = VarDistribution::Zipf { theta: 0.99 };
    cfg.record_history = true;
    let r = causal_repro::simnet::run(&cfg);
    assert_eq!(r.final_pending, 0);
    let v = check(r.history.as_ref().unwrap());
    assert!(v.protocol_clean(), "{:?}", v.examples);
}
