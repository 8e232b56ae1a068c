//! Causal-stability tracking: a per-site knowledge matrix and the monotone
//! stable frontier derived from it.
//!
//! A write `(j, c)` is *causally stable* once every live site `i` has applied
//! every write from origin `j` destined to `i` with clock `≤ c`. Nothing in
//! the 2016 paper ever establishes this — metadata only grows — so this
//! module provides the machinery the GC layer needs: each site maintains a
//! [`StabilityTracker`] whose rows are per-origin delivery high-water marks
//! learned from peers (piggybacked on app messages plus a low-rate
//! heartbeat), and whose *frontier* is, per origin `j`, the minimum mark
//! across all live members — the largest clock every member is known to have
//! covered. Anything at or below the frontier can be garbage-collected from
//! KS logs, `LastWriteOn` slots and WAL segments.
//!
//! The frontier is **monotone by construction**: marks are max-merged (they
//! never regress, even when a crashed site recovers with older state and
//! re-advertises lower marks), membership removals can only raise the
//! minimum, and joins are seeded at-or-above the current frontier. The
//! incremental update recomputes a column's minimum only when the raised
//! cell could have been the binding one — the formulation Moirai's
//! incremental-LSV benchmark shows is the only one that survives at scale.
//! `NaiveStability`, compiled for the tests only, is the full-recompute
//! executable specification the differential proptests hold it to.

use causal_types::SiteId;

/// Incremental stability tracker: an `n × n` knowledge matrix (`marks[i][j]`
/// = the highest clock of origin `j` that site `i` is known to have fully
/// covered) plus the per-origin stable frontier, updated in `O(n)` only when
/// a binding cell rises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StabilityTracker {
    n: usize,
    /// Live-membership mask: only member rows participate in the minimum.
    member: Vec<bool>,
    /// Row-major knowledge matrix, max-merged on every observation.
    marks: Vec<u64>,
    /// `frontier[j]` = monotone (clamped) `min` over member rows of
    /// `marks[·][j]`.
    frontier: Vec<u64>,
}

impl StabilityTracker {
    /// A fresh tracker for an `n`-site system with every site a member and
    /// all marks zero.
    pub fn new(n: usize) -> Self {
        StabilityTracker {
            n,
            member: vec![true; n],
            marks: vec![0; n * n],
            frontier: vec![0; n],
        }
    }

    /// System size `n` (the matrix dimension, not the live-member count).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `true` if `site` currently participates in the frontier minimum.
    #[inline]
    pub fn is_member(&self, site: SiteId) -> bool {
        self.member[site.index()]
    }

    /// Number of live members.
    pub fn member_count(&self) -> usize {
        self.member.iter().filter(|&&m| m).count()
    }

    /// The knowledge row for `site`: `marks[site][j]` for every origin `j`.
    pub fn row(&self, site: SiteId) -> &[u64] {
        let base = site.index() * self.n;
        &self.marks[base..base + self.n]
    }

    /// The stable frontier: per origin `j`, the highest clock every live
    /// member is known to have covered. Monotone non-decreasing per column.
    #[inline]
    pub fn frontier(&self) -> &[u64] {
        &self.frontier
    }

    /// `frontier[origin]`.
    #[inline]
    pub fn frontier_of(&self, origin: SiteId) -> u64 {
        self.frontier[origin.index()]
    }

    /// Max-merge an observed knowledge row for `site` (from a piggyback, a
    /// heartbeat, or the site's own local state). Returns `true` if any
    /// frontier column advanced.
    pub fn observe_row(&mut self, site: SiteId, row: &[u64]) -> bool {
        debug_assert_eq!(row.len(), self.n);
        let base = site.index() * self.n;
        let binding = self.member[site.index()];
        let mut advanced = false;
        for (j, &v) in row.iter().enumerate() {
            let old = self.marks[base + j];
            if v <= old {
                continue;
            }
            self.marks[base + j] = v;
            // Raising a cell strictly above the frontier can never lower the
            // column minimum, and can only raise it if the old value *was*
            // the binding minimum — i.e. old ≤ frontier[j].
            if binding && old <= self.frontier[j] {
                advanced |= self.recompute_column(j);
            }
        }
        advanced
    }

    /// Add `site` back to the membership (a PR6 join), seeding its knowledge
    /// row. Quiesced view installs seed the row at the origins' install-time
    /// clocks, which are ≥ the current frontier, so the frontier never
    /// regresses; a defensive clamp holds even if a caller seeds lower.
    /// Returns `true` if any frontier column advanced (possible when the
    /// "join" re-seeds a site that is already a member).
    pub fn add_member(&mut self, site: SiteId, seed_row: &[u64]) -> bool {
        // Adding to a non-empty membership can only lower the raw minimum,
        // but the first member after an empty set *defines* it — that one
        // transition needs a full recompute.
        let was_empty = self.member_count() == 0;
        self.member[site.index()] = true;
        let mut advanced = self.observe_row(site, seed_row);
        if was_empty {
            for j in 0..self.n {
                advanced |= self.recompute_column(j);
            }
        }
        advanced
    }

    /// Remove `site` from the membership (a PR6 leave or crash-leave): its
    /// row no longer binds the minimum, so a departed laggard cannot wedge
    /// the frontier forever. Returns `true` if any column advanced.
    pub fn remove_member(&mut self, site: SiteId) -> bool {
        if !self.member[site.index()] {
            return false;
        }
        self.member[site.index()] = false;
        let mut advanced = false;
        for j in 0..self.n {
            advanced |= self.recompute_column(j);
        }
        advanced
    }

    /// Recompute `frontier[j]` as the member-row minimum, clamped monotone.
    /// With zero members the frontier is left unchanged.
    fn recompute_column(&mut self, j: usize) -> bool {
        let mut min: Option<u64> = None;
        for i in 0..self.n {
            if self.member[i] {
                let v = self.marks[i * self.n + j];
                min = Some(min.map_or(v, |m| m.min(v)));
            }
        }
        match min {
            Some(m) if m > self.frontier[j] => {
                self.frontier[j] = m;
                true
            }
            _ => false,
        }
    }
}

/// Full-recompute reference for [`StabilityTracker`] — the executable
/// specification. Every query walks the whole matrix; the only state beyond
/// the matrix itself is the monotonicity clamp. Retained (not dead code) so
/// the differential proptests below can hold the incremental tracker to it
/// forever.
#[cfg(test)]
#[derive(Clone, Debug)]
pub struct NaiveStability {
    n: usize,
    member: Vec<bool>,
    marks: Vec<Vec<u64>>,
    clamp: Vec<u64>,
}

#[cfg(test)]
impl NaiveStability {
    /// A fresh reference tracker for `n` sites.
    pub fn new(n: usize) -> Self {
        NaiveStability {
            n,
            member: vec![true; n],
            marks: vec![vec![0; n]; n],
            clamp: vec![0; n],
        }
    }

    /// Max-merge an observed row (spec of
    /// [`StabilityTracker::observe_row`]).
    pub fn observe_row(&mut self, site: SiteId, row: &[u64]) {
        for (j, &v) in row.iter().enumerate() {
            let cell = &mut self.marks[site.index()][j];
            *cell = (*cell).max(v);
        }
    }

    /// Spec of [`StabilityTracker::add_member`].
    pub fn add_member(&mut self, site: SiteId, seed_row: &[u64]) {
        self.observe_row(site, seed_row);
        self.member[site.index()] = true;
    }

    /// Spec of [`StabilityTracker::remove_member`].
    pub fn remove_member(&mut self, site: SiteId) {
        self.member[site.index()] = false;
    }

    /// The frontier, recomputed from scratch: per column, the member-row
    /// minimum clamped against every previously returned value.
    pub fn frontier(&mut self) -> Vec<u64> {
        for j in 0..self.n {
            let min = (0..self.n)
                .filter(|&i| self.member[i])
                .map(|i| self.marks[i][j])
                .min();
            if let Some(m) = min {
                self.clamp[j] = self.clamp[j].max(m);
            }
        }
        self.clamp.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(i: usize) -> SiteId {
        SiteId::from(i)
    }

    #[test]
    fn frontier_is_the_member_minimum() {
        let mut t = StabilityTracker::new(3);
        assert_eq!(t.frontier(), &[0, 0, 0]);
        // Everyone has covered origin 0 up to clock 4, except site 2 (2).
        assert!(t.observe_row(s(0), &[4, 0, 0]) | !t.observe_row(s(0), &[4, 0, 0]));
        t.observe_row(s(1), &[5, 0, 0]);
        t.observe_row(s(2), &[2, 0, 0]);
        assert_eq!(t.frontier_of(s(0)), 2);
        // The laggard catches up: frontier rises to the next minimum.
        assert!(t.observe_row(s(2), &[4, 0, 0]));
        assert_eq!(t.frontier_of(s(0)), 4);
    }

    #[test]
    fn raising_a_non_binding_cell_does_not_advance() {
        let mut t = StabilityTracker::new(2);
        t.observe_row(s(0), &[3, 0]);
        assert_eq!(t.frontier_of(s(0)), 0, "site 1 still at 0");
        assert!(!t.observe_row(s(0), &[9, 0]), "site 1 is the binding row");
        assert_eq!(t.frontier_of(s(0)), 0);
    }

    #[test]
    fn marks_never_regress() {
        let mut t = StabilityTracker::new(2);
        t.observe_row(s(0), &[7, 3]);
        // A recovered site re-advertising older state is a no-op.
        t.observe_row(s(0), &[2, 1]);
        assert_eq!(t.row(s(0)), &[7, 3]);
    }

    #[test]
    fn leave_unwedges_the_frontier() {
        let mut t = StabilityTracker::new(3);
        t.observe_row(s(0), &[8, 0, 0]);
        t.observe_row(s(1), &[6, 0, 0]);
        // Site 2 never advances; the frontier is wedged at 0 …
        assert_eq!(t.frontier_of(s(0)), 0);
        // … until it leaves, after which the survivors' minimum binds.
        assert!(t.remove_member(s(2)));
        assert_eq!(t.frontier_of(s(0)), 6);
        assert!(!t.is_member(s(2)));
        assert_eq!(t.member_count(), 2);
    }

    #[test]
    fn join_seeds_a_row_and_cannot_regress_the_frontier() {
        let mut t = StabilityTracker::new(3);
        t.remove_member(s(2));
        for i in 0..2 {
            t.observe_row(s(i), &[5, 5, 0]);
        }
        assert_eq!(t.frontier(), &[5, 5, 0]);
        // Rejoin seeded at the install-time clocks (≥ frontier).
        t.add_member(s(2), &[6, 5, 0]);
        assert_eq!(t.frontier(), &[5, 5, 0], "join must not regress");
        // The rejoined site runs ahead; the frontier advances once the
        // binding survivors catch up.
        t.observe_row(s(2), &[7, 9, 0]);
        t.observe_row(s(0), &[7, 5, 0]);
        assert!(t.observe_row(s(1), &[7, 5, 0]));
        assert_eq!(t.frontier(), &[7, 5, 0]);
    }

    #[test]
    fn defensive_clamp_holds_for_a_low_seed() {
        let mut t = StabilityTracker::new(2);
        t.observe_row(s(0), &[4, 0]);
        t.observe_row(s(1), &[4, 0]);
        t.remove_member(s(1));
        assert_eq!(t.frontier_of(s(0)), 4);
        // A (buggy) caller seeding below the frontier must not regress it.
        t.add_member(s(1), &[1, 0]);
        assert_eq!(t.frontier_of(s(0)), 4);
    }

    /// One step of the differential script.
    #[derive(Clone, Debug)]
    enum Op {
        Observe(usize, Vec<u64>),
        Join(usize, Vec<u64>),
        Leave(usize),
    }

    fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
        // The vendored `prop_oneof!` is uniform; repeating the observe arm
        // weights the mix toward observations, as a real run is.
        let row = || proptest::collection::vec(0u64..40, n);
        prop_oneof![
            (0..n, row()).prop_map(|(i, r)| Op::Observe(i, r)),
            (0..n, row()).prop_map(|(i, r)| Op::Observe(i, r)),
            (0..n, row()).prop_map(|(i, r)| Op::Observe(i, r)),
            (0..n, row()).prop_map(|(i, r)| Op::Join(i, r)),
            (0..n).prop_map(Op::Leave),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The incremental tracker and the naive full-recompute reference
        /// agree on the frontier after every step of an arbitrary
        /// observe/join/leave interleaving, and the frontier is monotone.
        #[test]
        fn prop_incremental_matches_naive_and_is_monotone(
            ops in proptest::collection::vec(op_strategy(4), 0..60),
        ) {
            let mut fast = StabilityTracker::new(4);
            let mut spec = NaiveStability::new(4);
            let mut prev = fast.frontier().to_vec();
            for op in ops {
                match op {
                    Op::Observe(i, row) => {
                        fast.observe_row(s(i), &row);
                        spec.observe_row(s(i), &row);
                    }
                    Op::Join(i, row) => {
                        fast.add_member(s(i), &row);
                        spec.add_member(s(i), &row);
                    }
                    Op::Leave(i) => {
                        fast.remove_member(s(i));
                        spec.remove_member(s(i));
                    }
                }
                let now = fast.frontier().to_vec();
                prop_assert_eq!(&now, &spec.frontier(), "diverged from spec");
                for (a, b) in prev.iter().zip(now.iter()) {
                    prop_assert!(b >= a, "frontier regressed: {prev:?} -> {now:?}");
                }
                prev = now;
            }
        }

        /// `observe_row`'s return value is exactly "some column advanced".
        #[test]
        fn prop_observe_reports_advancement(
            ops in proptest::collection::vec(op_strategy(3), 0..40),
        ) {
            let mut t = StabilityTracker::new(3);
            for op in ops {
                match op {
                    Op::Observe(i, row) => {
                        let before = t.frontier().to_vec();
                        let adv = t.observe_row(s(i), &row);
                        prop_assert_eq!(adv, t.frontier() != &before[..]);
                    }
                    Op::Join(i, row) => {
                        let before = t.frontier().to_vec();
                        let adv = t.add_member(s(i), &row);
                        prop_assert_eq!(adv, t.frontier() != &before[..]);
                    }
                    Op::Leave(i) => {
                        let before = t.frontier().to_vec();
                        let adv = t.remove_member(s(i));
                        prop_assert_eq!(adv, t.frontier() != &before[..]);
                    }
                }
            }
        }
    }
}
