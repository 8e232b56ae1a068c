//! The design-choice ablations of EXPERIMENTS.md § Ablations as facts:
//! condition-2 pruning, the size-model calibration, replica placement and
//! Zipf variable selection, each on a reduced Opt-Track cell (60 events per
//! process, w = 0.5, seed 11) whose history the checker judges.

use causal_repro::clocks::PruneConfig;
use causal_repro::prelude::*;
use std::sync::Arc;

fn cell(protocol: ProtocolKind, n: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_partial(protocol, n, 0.5, 11);
    cfg.workload.events_per_process = 60;
    cfg.record_history = true;
    cfg
}

/// Run a cell that must drain and be checker-clean; return its measured
/// meta bytes.
fn measured_bytes(label: &str, cfg: &SimConfig) -> u64 {
    let r = run(cfg);
    assert_eq!(r.final_pending, 0, "{label}: drains");
    let v = check(r.history.as_ref().expect("history recorded"));
    assert!(v.protocol_clean(), "{label}: {:?}", v.examples);
    r.metrics.measured.total_bytes()
}

#[test]
fn condition_2_pruning_reduces_measured_meta_bytes() {
    let on = cell(ProtocolKind::OptTrack, 10);
    let mut off = on.clone();
    off.prune = PruneConfig {
        condition2: false,
        ..PruneConfig::default()
    };
    let (on, off) = (
        measured_bytes("condition 2 on", &on),
        measured_bytes("condition 2 off", &off),
    );
    assert!(off > on, "condition 2 off {off} B vs on {on} B");
}

#[test]
fn opt_track_beats_full_track_under_both_size_models() {
    for model in [SizeModel::java_like(), SizeModel::wire()] {
        let [ot, ft] = [ProtocolKind::OptTrack, ProtocolKind::FullTrack].map(|protocol| {
            let mut cfg = cell(protocol, 12);
            cfg.size_model = model;
            measured_bytes(&format!("{protocol} under {model:?}"), &cfg)
        });
        assert!(ot < ft, "{model:?}: Opt-Track {ot} B vs Full-Track {ft} B");
    }
}

#[test]
fn every_placement_drains_and_is_checker_clean() {
    for (label, kind) in [
        ("even", PlacementKind::Even),
        ("hashed", PlacementKind::Hashed { seed: 3 }),
        ("clustered", PlacementKind::Clustered),
    ] {
        let mut cfg = cell(ProtocolKind::OptTrack, 12);
        cfg.placement = Arc::new(Placement::new(kind, 12, 4).unwrap());
        assert!(measured_bytes(label, &cfg) > 0, "{label}: traffic measured");
    }
}

#[test]
fn zipf_variable_selection_drains_and_is_checker_clean() {
    let mut cfg = cell(ProtocolKind::OptTrack, 12);
    cfg.workload.var_dist = VarDistribution::Zipf { theta: 0.99 };
    assert!(measured_bytes("zipf 0.99", &cfg) > 0);
}
