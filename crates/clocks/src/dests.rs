//! Compact destination-site sets.

use causal_types::{MetaSized, SiteId, SizeModel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of sites a [`DestSet`] can hold.
///
/// The paper simulates up to `n = 40` processes; a single 128-bit word gives
/// generous headroom while keeping the set `Copy` and branch-free.
pub const MAX_SITES: usize = 128;

/// A set of destination sites, stored as a 128-bit mask.
///
/// This is the `Dests` component of an Opt-Track log entry
/// `⟨j, clock_j, Dests⟩`: the set of replica sites to which a write was
/// multicast and for which that fact is still *relevant explicit
/// information* (not yet known to be delivered or superseded).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct DestSet(u128);

impl DestSet {
    /// The empty set.
    pub const EMPTY: DestSet = DestSet(0);

    /// Construct from an iterator of site ids.
    pub fn from_sites<I: IntoIterator<Item = SiteId>>(sites: I) -> Self {
        let mut s = DestSet::EMPTY;
        for site in sites {
            s.insert(site);
        }
        s
    }

    /// Set of all sites `0..n`.
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_SITES, "DestSet supports at most {MAX_SITES} sites");
        if n == MAX_SITES {
            DestSet(u128::MAX)
        } else {
            DestSet((1u128 << n) - 1)
        }
    }

    /// The `len` sites `start, start + 1, …` counted round a ring of `n`
    /// sites (`start < n`, `len ≤ n ≤ MAX_SITES`): a run of `len` low bits
    /// rotated left by `start` within the ring's `n` bits. One mask, not
    /// an insert per site — a partially replicated variable's replica set.
    #[inline]
    pub fn ring(start: usize, len: usize, n: usize) -> Self {
        assert!(start < n && len <= n, "ring({start}, {len}) of {n} sites");
        let run = DestSet::full(len).0;
        // The bits pushed past site `n - 1` come back round from site 0;
        // `checked_shr` covers the 128-bit shift of `start == 0, n == 128`.
        let wrapped = run.checked_shr((n - start) as u32).unwrap_or(0);
        DestSet((run << start | wrapped) & DestSet::full(n).0)
    }

    /// Insert a site.
    #[inline]
    pub fn insert(&mut self, s: SiteId) {
        debug_assert!(s.index() < MAX_SITES);
        self.0 |= 1u128 << s.index();
    }

    /// Remove a site; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, s: SiteId) -> bool {
        let bit = 1u128 << s.index();
        let was = self.0 & bit != 0;
        self.0 &= !bit;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, s: SiteId) -> bool {
        self.0 & (1u128 << s.index()) != 0
    }

    /// Number of sites in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` if no site is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set difference `self \ other` (condition-2 pruning uses this).
    #[inline]
    pub fn minus(&self, other: &DestSet) -> DestSet {
        DestSet(self.0 & !other.0)
    }

    /// Set intersection (the MERGE rule for entries present in both logs).
    #[inline]
    pub fn intersect(&self, other: &DestSet) -> DestSet {
        DestSet(self.0 & other.0)
    }

    /// Set union.
    #[inline]
    pub fn union(&self, other: &DestSet) -> DestSet {
        DestSet(self.0 | other.0)
    }

    /// `true` if `self ⊆ other`.
    #[inline]
    pub fn is_subset(&self, other: &DestSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// In-place difference.
    #[inline]
    pub fn subtract(&mut self, other: &DestSet) {
        self.0 &= !other.0;
    }

    /// Iterate over member sites in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = SiteId> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(SiteId::from(i))
            }
        })
    }
}

impl FromIterator<SiteId> for DestSet {
    fn from_iter<I: IntoIterator<Item = SiteId>>(iter: I) -> Self {
        DestSet::from_sites(iter)
    }
}

impl fmt::Debug for DestSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

impl MetaSized for DestSet {
    /// A destination set costs one packed word or one id per member,
    /// depending on the model's [`causal_types::DestsEncoding`].
    fn meta_size(&self, model: &SizeModel) -> u64 {
        model.dest_set(self.len())
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
    fn insert_remove_contains() {
        let mut d = DestSet::EMPTY;
        assert!(d.is_empty());
        d.insert(s(3));
        d.insert(s(40));
        assert!(d.contains(s(3)));
        assert!(d.contains(s(40)));
        assert!(!d.contains(s(4)));
        assert_eq!(d.len(), 2);
        assert!(d.remove(s(3)));
        assert!(!d.remove(s(3)));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn full_set_has_all_sites() {
        let d = DestSet::full(40);
        assert_eq!(d.len(), 40);
        assert!(d.contains(s(0)));
        assert!(d.contains(s(39)));
        assert!(!d.contains(s(40)));
        assert_eq!(DestSet::full(MAX_SITES).len(), MAX_SITES);
    }

    #[test]
    fn set_algebra() {
        let a = DestSet::from_sites([s(1), s(2), s(3)]);
        let b = DestSet::from_sites([s(2), s(3), s(4)]);
        assert_eq!(a.minus(&b), DestSet::from_sites([s(1)]));
        assert_eq!(a.intersect(&b), DestSet::from_sites([s(2), s(3)]));
        assert_eq!(a.union(&b), DestSet::from_sites([s(1), s(2), s(3), s(4)]));
        assert!(a.intersect(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let d = DestSet::from_sites([s(9), s(0), s(127), s(5)]);
        let v: Vec<_> = d.iter().collect();
        assert_eq!(v, vec![s(0), s(5), s(9), s(127)]);
    }

    #[test]
    fn debug_formatting() {
        let d = DestSet::from_sites([s(1), s(2)]);
        assert_eq!(format!("{d:?}"), "{s1,s2}");
    }

    #[test]
    fn meta_size_follows_encoding() {
        let j = SizeModel::java_like(); // packed word
        let w = SizeModel::wire(); // per site id
        let d = DestSet::from_sites([s(1), s(2), s(3)]);
        assert_eq!(d.meta_size(&j), 10, "one packed word");
        assert_eq!(d.meta_size(&w), 6, "three 2-byte ids");
    }

    proptest! {
        #[test]
        fn prop_minus_then_union_restores_subset(xs in proptest::collection::vec(0usize..MAX_SITES, 0..32),
                                                 ys in proptest::collection::vec(0usize..MAX_SITES, 0..32)) {
            let a = DestSet::from_sites(xs.iter().map(|&i| s(i)));
            let b = DestSet::from_sites(ys.iter().map(|&i| s(i)));
            // (a \ b) ∪ (a ∩ b) == a
            prop_assert_eq!(a.minus(&b).union(&a.intersect(&b)), a);
            // difference and intersection are disjoint
            prop_assert!(a.minus(&b).intersect(&b).is_empty());
        }

        #[test]
        fn prop_len_matches_iter_count(xs in proptest::collection::vec(0usize..MAX_SITES, 0..64)) {
            let a = DestSet::from_sites(xs.iter().map(|&i| s(i)));
            prop_assert_eq!(a.len(), a.iter().count());
        }

        #[test]
        fn prop_subset_reflexive_and_empty(xs in proptest::collection::vec(0usize..MAX_SITES, 0..32)) {
            let a = DestSet::from_sites(xs.iter().map(|&i| s(i)));
            prop_assert!(a.is_subset(&a));
            prop_assert!(DestSet::EMPTY.is_subset(&a));
        }
    }
}
