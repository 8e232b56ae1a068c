//! Cross-protocol equivalence under identical schedules.
//!
//! All four protocols implement the *same* optimal activation predicate
//! `A_OPT` — they differ only in how they encode the causal information
//! needed to evaluate it. With identical operation schedules and identical
//! channel latencies, the messages and their delivery times coincide, so
//! the *apply order at every site* must be identical across protocols that
//! share a placement. Likewise, Opt-Track's pruning removes only redundant
//! information, so disabling it must change bytes but never behaviour.
//!
//! These tests cross-validate the protocol implementations against each
//! other far more sharply than spot checks: a single spurious or missing
//! wait anywhere would desynchronize the apply sequences.

use causal_checker::History;
use causal_clocks::PruneConfig;
use causal_proto::ProtocolKind;
use causal_simnet::{run, SimConfig};
use causal_types::{SiteId, WriteId};

fn applies(history: &History) -> Vec<Vec<WriteId>> {
    let sites = SiteId::all(history.n());
    sites.map(|s| history.applies(s).collect()).collect()
}

fn run_partial(
    kind: ProtocolKind,
    n: usize,
    w: f64,
    seed: u64,
    prune: PruneConfig,
) -> Vec<Vec<WriteId>> {
    let mut cfg = SimConfig::paper_partial(kind, n, w, seed)
        .small()
        .with_history();
    cfg.prune = prune;
    let r = run(&cfg);
    assert_eq!(r.final_pending, 0);
    applies(r.history.as_ref().unwrap())
}

fn run_full(kind: ProtocolKind, n: usize, w: f64, seed: u64) -> Vec<Vec<WriteId>> {
    let cfg = SimConfig::paper_full(kind, n, w, seed)
        .small()
        .with_history();
    let r = run(&cfg);
    assert_eq!(r.final_pending, 0);
    applies(r.history.as_ref().unwrap())
}

#[test]
fn full_track_and_opt_track_apply_identically() {
    for seed in 0..5 {
        for w in [0.2, 0.5, 0.8] {
            let ft = run_partial(ProtocolKind::FullTrack, 8, w, seed, PruneConfig::default());
            let ot = run_partial(ProtocolKind::OptTrack, 8, w, seed, PruneConfig::default());
            assert_eq!(
                ft, ot,
                "apply orders diverged (seed {seed}, w {w}): one protocol \
                 waited where the other did not"
            );
        }
    }
}

#[test]
fn crp_and_optp_apply_identically() {
    for seed in 0..5 {
        for w in [0.2, 0.5, 0.8] {
            let crp = run_full(ProtocolKind::OptTrackCrp, 8, w, seed);
            let op = run_full(ProtocolKind::OptP, 8, w, seed);
            assert_eq!(crp, op, "apply orders diverged (seed {seed}, w {w})");
        }
    }
}

#[test]
fn partial_protocols_match_full_protocols_under_full_placement() {
    // Run the partial-replication protocols with p = n: they must behave
    // exactly like the dedicated full-replication protocols.
    for seed in 0..3 {
        let ft = run_full(ProtocolKind::FullTrack, 6, 0.5, seed);
        let ot = run_full(ProtocolKind::OptTrack, 6, 0.5, seed);
        let crp = run_full(ProtocolKind::OptTrackCrp, 6, 0.5, seed);
        let op = run_full(ProtocolKind::OptP, 6, 0.5, seed);
        assert_eq!(ft, crp, "Full-Track@p=n vs CRP (seed {seed})");
        assert_eq!(ot, op, "Opt-Track@p=n vs optP (seed {seed})");
        assert_eq!(ft, ot, "matrix vs log encodings (seed {seed})");
    }
}

#[test]
fn pruning_changes_bytes_but_never_behaviour() {
    // Condition-2 pruning and marker retention remove only *redundant*
    // information: the apply order must be bit-identical with pruning
    // disabled, while the metadata volume grows.
    for seed in 0..5 {
        let tight = PruneConfig::default();
        let loose = PruneConfig {
            condition2: false,
            ..PruneConfig::default()
        };
        let a = run_partial(ProtocolKind::OptTrack, 8, 0.5, seed, tight);
        let b = run_partial(ProtocolKind::OptTrack, 8, 0.5, seed, loose);
        assert_eq!(
            a, b,
            "pruning must be behaviour-preserving (seed {seed}); a \
             divergence means information that was still needed got pruned"
        );
    }
}

#[test]
fn pruning_reduces_metadata() {
    let mut tight_cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 8, 0.5, 3).small();
    tight_cfg.prune = PruneConfig::default();
    let mut loose_cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 8, 0.5, 3).small();
    loose_cfg.prune = PruneConfig {
        condition2: false,
        ..PruneConfig::default()
    };
    let tight = run(&tight_cfg).metrics.measured.total_bytes();
    let loose = run(&loose_cfg).metrics.measured.total_bytes();
    assert!(
        tight < loose,
        "pruning must shrink metadata ({tight} vs {loose})"
    );
}
