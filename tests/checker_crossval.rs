//! Checker-of-the-checker: the fast vector-clock verifier and the explicit
//! transitive-closure verifier must agree on real simulated histories
//! (3 000 operations each — the quadratic closure is the slow side).

use causal_repro::checker::{check, delivery_inversions_bruteforce};
use causal_repro::prelude::*;

#[test]
fn fast_and_bruteforce_checkers_agree_on_clean_histories() {
    for (kind, partial) in [
        (ProtocolKind::FullTrack, true),
        (ProtocolKind::OptTrack, true),
        (ProtocolKind::OptTrackCrp, false),
        (ProtocolKind::OptP, false),
    ] {
        for seed in 0..2 {
            let mut cfg = if partial {
                SimConfig::paper_partial(kind, 6, 0.5, seed)
            } else {
                SimConfig::paper_full(kind, 6, 0.5, seed)
            };
            cfg.workload.events_per_process = 500;
            cfg.record_history = true;
            let r = causal_repro::simnet::run(&cfg);
            let h = r.history.as_ref().unwrap();
            let v = check(h);
            let brute = delivery_inversions_bruteforce(h);
            assert_eq!(
                v.delivery + v.own_write_races,
                brute,
                "{kind} seed {seed}: fast and brute-force checkers disagree"
            );
            assert_eq!(brute, 0, "{kind} seed {seed}: protocols are clean");
        }
    }
}

#[test]
fn both_checkers_flag_a_corrupted_history() {
    // Take a real execution and corrupt one site's apply order; both
    // verifiers must notice (same positive count).
    let mut cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 5, 0.6, 3);
    cfg.workload.events_per_process = 40;
    cfg.record_history = true;
    let r = causal_repro::simnet::run(&cfg);
    let clean = r.history.unwrap();

    // Rebuild the history with site 0's applies reversed.
    let mut corrupted = causal_repro::checker::History::new(5);
    for (i, ops) in clean.ops().iter().enumerate() {
        for op in ops {
            match op {
                causal_repro::checker::OpRecord::Write { write, var } => {
                    corrupted.record_write(SiteId::from(i), *write, *var)
                }
                causal_repro::checker::OpRecord::Read {
                    var,
                    read_from,
                    served_by,
                } => corrupted.record_read(SiteId::from(i), *var, *read_from, *served_by),
            }
        }
    }
    for (i, applies) in clean.applies().iter().enumerate() {
        if i == 0 {
            for w in applies.iter().rev() {
                corrupted.record_apply(SiteId(0), *w);
            }
        } else {
            for w in applies {
                corrupted.record_apply(SiteId::from(i), *w);
            }
        }
    }

    let brute = delivery_inversions_bruteforce(&corrupted);
    assert!(brute > 0, "reversing applies must create inversions");
    let v = check(&corrupted);
    // The fast checker counts FIFO violations separately and its delivery
    // counter uses a different (per-origin last-position) accounting, so
    // exact counts differ — but both must scream.
    assert!(
        v.fifo + v.delivery + v.own_write_races > 0,
        "fast checker missed the corruption"
    );
}
