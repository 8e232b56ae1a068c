//! Differential proptests: the indexed [`Log`] against the retained naive
//! flat-vector reference [`NaiveLog`].
//!
//! Both implementations claim the same MERGE / PURGE / implicit-pruning
//! semantics (paper §III-B); `NaiveLog` is the executable specification (a
//! direct transcription of the rules), `Log` is the per-origin indexed
//! structure the simulator runs. These tests replay arbitrary operation
//! interleavings against both and require identical observable state after
//! **every** step: entry sequences (origin, clock, dests), `len`,
//! `dest_id_count`, `latest_clock` per origin, and `meta_size` under both
//! [`SizeModel`] calibrations (which also pins the indexed log's incremental
//! accounting to the reference's recompute-from-scratch answer).

use crate::reference::NaiveLog;
use crate::{DestSet, Log, LogEntry, PruneConfig};
use causal_types::{MetaSized, SiteId, SizeModel};
use proptest::prelude::*;

const SITES: usize = 8;

/// One operation of the shared Log API, applied to both implementations.
#[derive(Clone, Debug)]
enum Op {
    Upsert {
        origin: usize,
        clock: u64,
        dests: Vec<usize>,
    },
    RecordWrite {
        origin: usize,
        clock: u64,
        dests: Vec<usize>,
    },
    RemoveSite {
        site: usize,
    },
    ForgetSite {
        site: usize,
    },
    PruneApplied {
        site: usize,
        last: Vec<u64>,
    },
    /// Merge in a foreign log built from (origin, clock, dests) triples.
    Merge {
        entries: Vec<(usize, u64, Vec<usize>)>,
    },
    /// Stability GC behind a per-origin frontier.
    PruneStable {
        frontier: Vec<u64>,
    },
    Normalize,
    Purge,
    /// Read-side MERGE at `site`: the fused [`Log::merge_applied`] against
    /// the reference's `merge; prune_applied; purge`.
    MergeApplied {
        entries: Vec<(usize, u64, Vec<usize>)>,
        site: usize,
        /// `None` strips `site` from every entry.
        last: Option<Vec<u64>>,
    },
    /// `LastWriteOn` materialization: the fused [`Log::with_own`] against
    /// the reference's `upsert; remove_site | prune_applied; normalize`.
    WithOwn {
        origin: usize,
        clock: u64,
        dests: Vec<usize>,
        site: usize,
        last: Vec<u64>,
        /// Use the caps (the `pin_self` rule) instead of stripping every
        /// entry.
        capped: bool,
    },
}

fn dset(ids: &[usize]) -> DestSet {
    DestSet::from_sites(ids.iter().map(|&i| SiteId::from(i)))
}

fn arb_dests() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..SITES, 0..SITES)
}

/// Per-origin last-applied clocks.
fn arb_last() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..10, SITES..=SITES)
}

/// The (origin, clock, dests) triples a foreign log is built from.
fn arb_foreign() -> impl Strategy<Value = Vec<(usize, u64, Vec<usize>)>> {
    proptest::collection::vec((0usize..SITES, 1u64..10, arb_dests()), 0..10)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..SITES, 1u64..10, arb_dests()).prop_map(|(origin, clock, dests)| Op::Upsert {
            origin,
            clock,
            dests
        }),
        (0usize..SITES, 1u64..10, arb_dests()).prop_map(|(origin, clock, dests)| Op::RecordWrite {
            origin,
            clock,
            dests
        }),
        (0usize..SITES).prop_map(|site| Op::RemoveSite { site }),
        (0usize..SITES).prop_map(|site| Op::ForgetSite { site }),
        (0usize..SITES, arb_last()).prop_map(|(site, last)| Op::PruneApplied { site, last }),
        arb_foreign().prop_map(|entries| Op::Merge { entries }),
        proptest::collection::vec(0u64..10, SITES..=SITES)
            .prop_map(|frontier| Op::PruneStable { frontier }),
        any::<bool>().prop_map(|_| Op::Normalize),
        any::<bool>().prop_map(|_| Op::Purge),
        (arb_foreign(), 0usize..SITES, arb_last(), any::<bool>()).prop_map(
            |(entries, site, last, capped)| Op::MergeApplied {
                entries,
                site,
                last: capped.then_some(last),
            }
        ),
        (
            (0usize..SITES, 1u64..10, arb_dests()),
            0usize..SITES,
            arb_last(),
            any::<bool>()
        )
            .prop_map(|((origin, clock, dests), site, last, capped)| Op::WithOwn {
                origin,
                clock,
                dests,
                site,
                last,
                capped,
            }),
    ]
}

fn arb_cfg() -> impl Strategy<Value = PruneConfig> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(condition2, keep_markers, pin_self)| PruneConfig {
            condition2,
            keep_markers,
            pin_self,
        },
    )
}

/// The same foreign knowledge in both representations. A real piggyback is
/// a normalized log, so normalize it first — both implementations' merge
/// cross-pruning assumes sound, marker-bearing inputs.
fn foreign(entries: &[(usize, u64, Vec<usize>)], cfg: PruneConfig) -> (Log, NaiveLog) {
    let mut fi = Log::new();
    let mut fa = NaiveLog::new();
    for (o, c, ds) in entries {
        let e = LogEntry::new(SiteId::from(*o), *c, dset(ds));
        fi.upsert(e);
        fa.upsert(e);
    }
    fi.normalize(cfg);
    fa.normalize(cfg);
    (fi, fa)
}

/// Apply one op to both logs.
fn apply(op: &Op, indexed: &mut Log, naive: &mut NaiveLog, cfg: PruneConfig) {
    match op {
        Op::Upsert {
            origin,
            clock,
            dests,
        } => {
            let e = LogEntry::new(SiteId::from(*origin), *clock, dset(dests));
            indexed.upsert(e);
            naive.upsert(e);
        }
        Op::RecordWrite {
            origin,
            clock,
            dests,
        } => {
            let o = SiteId::from(*origin);
            indexed.record_write(o, *clock, dset(dests), cfg);
            naive.record_write(o, *clock, dset(dests), cfg);
        }
        Op::RemoveSite { site } => {
            indexed.remove_site(SiteId::from(*site));
            naive.remove_site(SiteId::from(*site));
        }
        Op::ForgetSite { site } => {
            indexed.forget_site(SiteId::from(*site), cfg);
            naive.forget_site(SiteId::from(*site), cfg);
        }
        Op::PruneApplied { site, last } => {
            indexed.prune_applied(SiteId::from(*site), last);
            naive.prune_applied(SiteId::from(*site), last);
        }
        Op::Merge { entries } => {
            let (fi, fa) = foreign(entries, cfg);
            indexed.merge(&fi, cfg);
            naive.merge(&fa, cfg);
        }
        Op::PruneStable { frontier } => {
            let a = indexed.prune_stable(frontier, cfg);
            let b = naive.prune_stable(frontier, cfg);
            assert_eq!(a, b, "prune_stable removal counts diverged");
        }
        Op::Normalize => {
            indexed.normalize(cfg);
            naive.normalize(cfg);
        }
        Op::Purge => {
            indexed.purge(cfg);
            naive.purge(cfg);
        }
        Op::MergeApplied {
            entries,
            site,
            last,
        } => {
            let (fi, fa) = foreign(entries, cfg);
            let site = SiteId::from(*site);
            let shared = indexed.clone();
            let (fused, dropped) = indexed.merge_applied(&fi, site, last.as_deref(), cfg);
            assert_eq!(*indexed, shared, "merge_applied reads its receiver");
            *indexed = fused;
            naive.merge(&fa, cfg);
            let merged = naive.len();
            match last {
                Some(last) => naive.prune_applied(site, last),
                None => naive.remove_site(site),
            }
            naive.purge(cfg);
            assert_eq!(dropped, merged - naive.len(), "dropped counts diverged");
        }
        Op::WithOwn {
            origin,
            clock,
            dests,
            site,
            last,
            capped,
        } => {
            let own = LogEntry::new(SiteId::from(*origin), *clock, dset(dests));
            let site = SiteId::from(*site);
            *indexed = indexed.with_own(own, site, capped.then_some(last), cfg);
            naive.upsert(own);
            if *capped {
                naive.prune_applied(site, last);
            } else {
                naive.remove_site(site);
            }
            naive.normalize(cfg);
        }
    }
}

/// Every observable of the two logs must agree (panics on divergence — the
/// vendored proptest stub reports the unshrunk failing case).
fn assert_equivalent(indexed: &Log, naive: &NaiveLog) {
    let a: Vec<_> = indexed
        .iter()
        .map(|e| (e.origin, e.clock, e.dests))
        .collect();
    let b: Vec<_> = naive.iter().map(|e| (e.origin, e.clock, e.dests)).collect();
    assert_eq!(&a, &b, "entry sequences diverged");
    assert_eq!(indexed.len(), naive.len());
    assert_eq!(indexed.is_empty(), naive.is_empty());
    assert_eq!(indexed.dest_id_count(), naive.dest_id_count());
    for o in 0..SITES {
        let o = SiteId::from(o);
        assert_eq!(indexed.latest_clock(o), naive.latest_clock(o));
        for c in 1..10 {
            assert_eq!(indexed.get(o, c), naive.get(o, c));
        }
    }
    for model in [SizeModel::java_like(), SizeModel::wire()] {
        assert_eq!(indexed.meta_size(&model), naive.meta_size(&model));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary op interleavings under the default (full Opt-Track)
    /// pruning configuration.
    #[test]
    fn indexed_matches_reference_default_cfg(
        ops in proptest::collection::vec(arb_op(), 0..24)
    ) {
        let cfg = PruneConfig::default();
        let mut indexed = Log::new();
        let mut naive = NaiveLog::new();
        for op in &ops {
            apply(op, &mut indexed, &mut naive, cfg);
            assert_equivalent(&indexed, &naive);
        }
    }

    /// Same, under every pruning-switch combination (ablation configs).
    #[test]
    fn indexed_matches_reference_any_cfg(
        cfg in arb_cfg(),
        ops in proptest::collection::vec(arb_op(), 0..24)
    ) {
        let mut indexed = Log::new();
        let mut naive = NaiveLog::new();
        for op in &ops {
            apply(op, &mut indexed, &mut naive, cfg);
            assert_equivalent(&indexed, &naive);
        }
    }

    /// The write → piggyback → merge-on-read cycle the simulator actually
    /// drives, checked step for step.
    #[test]
    fn writer_reader_cycle_matches(
        writes in proptest::collection::vec((0usize..SITES, arb_dests()), 1..16)
    ) {
        let cfg = PruneConfig::default();
        let mut wi = Log::new();
        let mut wn = NaiveLog::new();
        let mut ri = Log::new();
        let mut rn = NaiveLog::new();
        let mut clocks = [0u64; SITES];
        for (origin, dests) in &writes {
            clocks[*origin] += 1;
            let o = SiteId::from(*origin);
            // Writer snapshots (the piggyback), then records its write.
            let pi = wi.clone();
            let pn = wn.clone();
            wi.record_write(o, clocks[*origin], dset(dests), cfg);
            wn.record_write(o, clocks[*origin], dset(dests), cfg);
            assert_equivalent(&wi, &wn);
            // Reader merges the piggyback, as merge_on_read does.
            ri.merge(&pi, cfg);
            rn.merge(&pn, cfg);
            assert_equivalent(&ri, &rn);
        }
    }
}

/// Both representations of a log built by plain upserts (not normalized).
fn raw(entries: &[(usize, u64, &[usize])]) -> (Log, NaiveLog) {
    let mut indexed = Log::new();
    let mut naive = NaiveLog::new();
    for (o, c, ds) in entries {
        let e = LogEntry::new(SiteId::from(*o), *c, dset(ds));
        indexed.upsert(e);
        naive.upsert(e);
    }
    (indexed, naive)
}

/// Run one fused op against the reference composition from the given
/// starting logs, under the default config and with `pin_self` on; returns
/// the default-config result as `(origin, clock, dests)` triples.
fn named_case(local: &[(usize, u64, &[usize])], op: Op) -> Vec<(usize, u64, Vec<usize>)> {
    let mut result = Vec::new();
    for pin_self in [true, false] {
        let cfg = PruneConfig {
            pin_self,
            ..PruneConfig::default()
        };
        let (mut indexed, mut naive) = raw(local);
        apply(&op, &mut indexed, &mut naive, cfg);
        assert_equivalent(&indexed, &naive);
        let triple = |e: &LogEntry| {
            let dests = e.dests.iter().map(|s| s.index()).collect();
            (e.origin.index(), e.clock, dests)
        };
        result = indexed.iter().map(triple).collect();
    }
    result
}

fn with_own(own: (usize, u64, &[usize]), site: usize, last: &[(usize, u64)], capped: bool) -> Op {
    Op::WithOwn {
        origin: own.0,
        clock: own.1,
        dests: own.2.to_vec(),
        site,
        last: last_applied(last),
        capped,
    }
}

fn merge_applied(incoming: &[(usize, u64, &[usize])], site: usize, last: &[(usize, u64)]) -> Op {
    let entries = incoming.iter().map(|(o, c, ds)| (*o, *c, ds.to_vec()));
    Op::MergeApplied {
        entries: entries.collect(),
        site,
        last: Some(last_applied(last)),
    }
}

/// Last-applied clocks, zero except for the listed origins.
fn last_applied(known: &[(usize, u64)]) -> Vec<u64> {
    let mut last = vec![0; SITES];
    for (origin, clock) in known {
        last[*origin] = *clock;
    }
    last
}

#[test]
fn with_own_older_than_the_runs_tail_is_inserted_below_it_and_pruned_by_it() {
    let local: &[(usize, u64, &[usize])] = &[(1, 5, &[2]), (2, 1, &[0, 3])];
    for capped in [false, true] {
        let got = named_case(local, with_own((1, 3, &[2, 4]), 0, &[(2, 1)], capped));
        let want = vec![(1, 3, vec![4]), (1, 5, vec![2]), (2, 1, vec![3])];
        assert_eq!(got, want, "capped: {capped}");
    }
}

#[test]
fn with_own_equal_to_an_existing_clock_intersects() {
    let local: &[(usize, u64, &[usize])] = &[(1, 2, &[5]), (1, 3, &[0, 2, 4])];
    let got = named_case(local, with_own((1, 3, &[0, 4, 6]), 0, &[], false));
    assert_eq!(got, vec![(1, 2, vec![5]), (1, 3, vec![4])]);
    // Under caps nothing from origin 1 is known applied: site 0 stays.
    let got = named_case(local, with_own((1, 3, &[0, 4, 6]), 0, &[], true));
    assert_eq!(got, vec![(1, 2, vec![5]), (1, 3, vec![0, 4])]);
}

#[test]
fn merge_applied_adopts_an_incoming_only_run() {
    let local: &[(usize, u64, &[usize])] = &[(1, 1, &[2])];
    let incoming: &[(usize, u64, &[usize])] = &[(3, 1, &[0, 4]), (3, 2, &[5])];
    let got = named_case(local, merge_applied(incoming, 0, &[(3, 1)]));
    let want = vec![(1, 1, vec![2]), (3, 1, vec![4]), (3, 2, vec![5])];
    assert_eq!(got, want);
}

#[test]
fn merge_applied_empties_a_local_only_run_under_the_incoming_marker() {
    let local: &[(usize, u64, &[usize])] = &[(1, 1, &[2]), (1, 2, &[3])];
    let got = named_case(local, merge_applied(&[(1, 4, &[])], 0, &[]));
    assert_eq!(got, vec![(1, 4, vec![])], "only the marker is left");
}

/// The returned count is "entries the plain merge would have kept": the
/// older entry survives normalization as a non-marker and goes only because
/// site 0 is known to have applied it.
#[test]
fn merge_applied_counts_an_entry_emptied_only_by_the_cap() {
    let (indexed, _) = raw(&[(1, 1, &[0]), (1, 2, &[3])]);
    let last = last_applied(&[(1, 1)]);
    let cfg = PruneConfig::default();
    let (log, dropped) = indexed.merge_applied(&Log::new(), SiteId(0), Some(&last), cfg);
    assert_eq!((log.len(), dropped), (1, 1));
    // `named_case` holds the count to the reference's two lengths.
    let got = named_case(
        &[(1, 1, &[0]), (1, 2, &[3])],
        merge_applied(&[], 0, &[(1, 1)]),
    );
    assert_eq!(got, vec![(1, 2, vec![3])]);
}

/// …and an entry a newer same-run entry already covers is not counted, even
/// when the covering mention of the site is itself removed by the cap.
#[test]
fn merge_applied_does_not_count_an_entry_normalization_emptied() {
    let (indexed, _) = raw(&[(1, 1, &[0]), (1, 2, &[0, 3])]);
    let last = last_applied(&[(1, 2)]);
    let cfg = PruneConfig::default();
    let (log, dropped) = indexed.merge_applied(&Log::new(), SiteId(0), Some(&last), cfg);
    assert_eq!((log.len(), dropped), (1, 0));
    let got = named_case(
        &[(1, 1, &[0]), (1, 2, &[0, 3])],
        merge_applied(&[], 0, &[(1, 2)]),
    );
    assert_eq!(got, vec![(1, 2, vec![3])]);
}
