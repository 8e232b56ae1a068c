//! Replica placement strategies.

use causal_clocks::DestSet;
use causal_proto::Replication;
use causal_types::{Error, Result, SiteId, VarId};
use serde::{Deserialize, Serialize};

/// Which placement strategy to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PlacementKind {
    /// The paper's placement: variable `h` is replicated at the `p`
    /// consecutive sites starting at `h mod n`, spreading replicas evenly
    /// (`|X_i| ≈ p·q/n` per site).
    Even,
    /// Pseudo-random placement: the starting site is a hash of the variable
    /// id (seeded), replicas are the following `p` consecutive sites.
    Hashed {
        /// Hash seed, so different runs can draw different placements.
        seed: u64,
    },
    /// Clustered placement: sites are divided into contiguous regions of
    /// size `p`; a variable lives entirely inside one region. Models
    /// region-local storage and maximizes placement skew.
    Clustered,
    /// Full replication (`p = n`) — required by Opt-Track-CRP and optP.
    Full,
}

/// A concrete placement of `q` variables over `n` sites with replication
/// factor `p`.
///
/// Placement is static for the lifetime of a run (the paper does not model
/// reconfiguration). `fetch_target` implements the paper's "predesignated
/// site" for remote reads: each (site, variable) pair always fetches from
/// the same replica — the one closest to the reader in ring distance, with
/// ties broken towards lower site ids.
#[derive(Clone, Debug)]
pub struct Placement {
    kind: PlacementKind,
    n: usize,
    p: usize,
}

impl Placement {
    /// Create a placement. `p` must satisfy `1 ≤ p ≤ n` (for
    /// [`PlacementKind::Full`], `p` is forced to `n`).
    pub fn new(kind: PlacementKind, n: usize, p: usize) -> Result<Self> {
        if n == 0 || n > causal_clocks::dests::MAX_SITES {
            return Err(Error::InvalidConfig(format!(
                "n must be in 1..={}, got {n}",
                causal_clocks::dests::MAX_SITES
            )));
        }
        let p = if kind == PlacementKind::Full { n } else { p };
        if p == 0 || p > n {
            return Err(Error::InvalidConfig(format!(
                "replication factor p must be in 1..=n ({n}), got {p}"
            )));
        }
        Ok(Placement { kind, n, p })
    }

    /// The paper's partial-replication setting: `p = max(1, round(0.3·n))`.
    pub fn paper_partial(n: usize) -> Result<Self> {
        let p = ((0.3 * n as f64).round() as usize).max(1);
        Placement::new(PlacementKind::Even, n, p)
    }

    /// Full replication over `n` sites.
    pub fn full(n: usize) -> Result<Self> {
        Placement::new(PlacementKind::Full, n, n)
    }

    /// Replication factor.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Placement strategy.
    pub fn kind(&self) -> PlacementKind {
        self.kind
    }

    fn start_site(&self, var: VarId) -> usize {
        match self.kind {
            PlacementKind::Even | PlacementKind::Full => var.index() % self.n,
            PlacementKind::Hashed { seed } => {
                // SplitMix64 over (var, seed): cheap, deterministic, well
                // spread.
                let mut z = (var.index() as u64)
                    .wrapping_add(seed)
                    .wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize % self.n
            }
            PlacementKind::Clustered => {
                let regions = self.n / self.p.max(1);
                if regions == 0 {
                    0
                } else {
                    (var.index() % regions) * self.p
                }
            }
        }
    }

    /// Ring distance from `from` to `to` over `n` sites (used to pick the
    /// predesignated fetch replica; also by [`crate::DynamicPlacement`] to
    /// keep view-aware failover orders consistent with the static ones).
    pub(crate) fn ring_distance(&self, from: usize, to: usize) -> usize {
        let d = (to + self.n - from) % self.n;
        d.min(self.n - d)
    }

    /// All replicas of `var` ordered by fetch preference for `site`:
    /// ascending ring distance, ties towards lower site ids. The first
    /// entry is exactly [`Replication::fetch_target`]; the rest are the
    /// failover order a degraded read walks when the predesignated replica
    /// does not answer within its deadline.
    pub fn fetch_candidates(&self, var: VarId, site: SiteId) -> Vec<SiteId> {
        let mut candidates: Vec<SiteId> = self.replicas(var).iter().collect();
        candidates.sort_by_key(|r| (self.ring_distance(site.index(), r.index()), *r));
        candidates
    }
}

impl Replication for Placement {
    fn n(&self) -> usize {
        self.n
    }

    /// The `p` consecutive sites from the variable's start site, round the
    /// ring: one rotated mask.
    fn replicas(&self, var: VarId) -> DestSet {
        DestSet::ring(self.start_site(var), self.p, self.n)
    }

    fn fetch_target(&self, var: VarId, site: SiteId) -> SiteId {
        let mut best: Option<(usize, SiteId)> = None;
        for r in self.replicas(var).iter() {
            let d = self.ring_distance(site.index(), r.index());
            match best {
                Some((bd, bs)) if (d, r) >= (bd, bs) => {}
                _ => best = Some((d, r)),
            }
        }
        best.expect("placement guarantees at least one replica").1
    }

    fn is_full(&self) -> bool {
        self.p == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn even_placement_spreads_load() {
        // Paper setting: n = 10, p = 3, q = 100 → |X_i| = p·q/n = 30 each.
        let pl = Placement::paper_partial(10).unwrap();
        assert_eq!(pl.p(), 3);
        let mut load = vec![0usize; 10];
        for v in VarId::all(100) {
            for s in pl.replicas(v).iter() {
                load[s.index()] += 1;
            }
        }
        assert!(load.iter().all(|&l| l == 30), "even load, got {load:?}");
    }

    #[test]
    fn paper_partial_rounds_point_three_n() {
        for (n, expect) in [(5, 2), (10, 3), (20, 6), (30, 9), (40, 12)] {
            assert_eq!(Placement::paper_partial(n).unwrap().p(), expect);
        }
    }

    #[test]
    fn full_placement_is_full() {
        let pl = Placement::full(7).unwrap();
        assert!(pl.is_full());
        assert_eq!(pl.replicas(VarId(3)).len(), 7);
    }

    #[test]
    fn fetch_target_is_a_replica_and_deterministic() {
        let pl = Placement::paper_partial(10).unwrap();
        for v in VarId::all(50) {
            for s in SiteId::all(10) {
                let t = pl.fetch_target(v, s);
                assert!(pl.replicas(v).contains(t));
                assert_eq!(t, pl.fetch_target(v, s), "predesignated = stable");
            }
        }
    }

    #[test]
    fn fetch_target_prefers_nearby_replica() {
        // n = 10, p = 3, var 0 → replicas {0, 1, 2}. Site 9's nearest is 0.
        let pl = Placement::new(PlacementKind::Even, 10, 3).unwrap();
        assert_eq!(pl.fetch_target(VarId(0), SiteId(9)), SiteId(0));
        assert_eq!(pl.fetch_target(VarId(0), SiteId(4)), SiteId(2));
    }

    #[test]
    fn clustered_placement_keeps_replicas_in_one_region() {
        let pl = Placement::new(PlacementKind::Clustered, 12, 3).unwrap();
        for v in VarId::all(40) {
            let sites: Vec<_> = pl.replicas(v).iter().collect();
            let region = sites[0].index() / 3;
            assert!(sites.iter().all(|s| s.index() / 3 == region));
        }
    }

    #[test]
    fn hashed_placement_differs_by_seed() {
        let a = Placement::new(PlacementKind::Hashed { seed: 1 }, 20, 6).unwrap();
        let b = Placement::new(PlacementKind::Hashed { seed: 2 }, 20, 6).unwrap();
        let differs = VarId::all(50).any(|v| a.replicas(v) != b.replicas(v));
        assert!(differs);
    }

    #[test]
    fn replicas_are_the_p_sites_from_the_start_site_round_the_ring() {
        let kinds = [
            PlacementKind::Even,
            PlacementKind::Hashed { seed: 7 },
            PlacementKind::Clustered,
            PlacementKind::Full,
        ];
        for kind in kinds {
            for n in 1..=causal_clocks::dests::MAX_SITES {
                for p in 1..=n {
                    let pl = Placement::new(kind, n, p).unwrap();
                    for var in VarId::all(2 * n) {
                        let start = pl.start_site(var);
                        let walked = (0..pl.p()).map(|j| SiteId::from((start + j) % n));
                        assert_eq!(pl.replicas(var), DestSet::from_sites(walked));
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Placement::new(PlacementKind::Even, 0, 1).is_err());
        assert!(Placement::new(PlacementKind::Even, 5, 0).is_err());
        assert!(Placement::new(PlacementKind::Even, 5, 6).is_err());
        assert!(Placement::new(PlacementKind::Even, 500, 3).is_err());
    }

    #[test]
    fn fetch_candidates_lead_with_the_predesignated_replica() {
        let pl = Placement::new(PlacementKind::Even, 10, 3).unwrap();
        // var 0 → replicas {0, 1, 2}; from site 9 the order is 0, 1, 2.
        assert_eq!(
            pl.fetch_candidates(VarId(0), SiteId(9)),
            vec![SiteId(0), SiteId(1), SiteId(2)]
        );
        // From site 4 the nearest is 2, then 1, then 0.
        assert_eq!(
            pl.fetch_candidates(VarId(0), SiteId(4)),
            vec![SiteId(2), SiteId(1), SiteId(0)]
        );
    }

    proptest! {
        #[test]
        fn prop_fetch_candidates_cover_replicas_and_agree_with_target(
            n in 2usize..50,
            v in 0u32..200,
            s in 0usize..50,
        ) {
            prop_assume!(s < n);
            let pl = Placement::paper_partial(n).unwrap();
            let cands = pl.fetch_candidates(VarId(v), SiteId::from(s));
            prop_assert_eq!(cands.len(), pl.p());
            prop_assert_eq!(cands[0], pl.fetch_target(VarId(v), SiteId::from(s)));
            for c in &cands {
                prop_assert!(pl.replicas(VarId(v)).contains(*c));
            }
        }

        #[test]
        fn prop_replica_count_is_p(n in 1usize..60, pfrac in 0.05f64..1.0, v in 0u32..500) {
            let p = ((n as f64 * pfrac).ceil() as usize).clamp(1, n);
            for kind in [PlacementKind::Even, PlacementKind::Hashed { seed: 7 }] {
                let pl = Placement::new(kind, n, p).unwrap();
                prop_assert_eq!(pl.replicas(VarId(v)).len(), p);
            }
        }

        #[test]
        fn prop_fetch_target_member(n in 2usize..50, v in 0u32..200, s in 0usize..50) {
            prop_assume!(s < n);
            let pl = Placement::paper_partial(n).unwrap();
            let t = pl.fetch_target(VarId(v), SiteId::from(s));
            prop_assert!(pl.replicas(VarId(v)).contains(t));
        }
    }
}
