//! Per-site metrics registry.
//!
//! [`RunMetrics`](crate::RunMetrics) aggregates a run into totals; the
//! registry keeps the same story *per site*, which is where asymmetries
//! live — one slow or lossy site shows up as an outlier row here while
//! the run-wide mean hides it. Counters are exact; dwell time and fetch
//! RTT are histograms, so their tails survive aggregation.

use crate::stats::Histogram;
use serde::{Deserialize, Serialize};

metrics_struct! {
    /// Counters and latency summaries for one site.
    pub struct SiteMetrics {
        /// Protocol messages this site sent (SM + FM + RM).
        pub sends: u64 => sum,
        /// Protocol messages delivered to this site's protocol layer.
        pub delivers: u64 => sum,
        /// Updates applied to this site's replica.
        pub applies: u64 => sum,
        /// Arriving updates the activation predicate parked in the pending
        /// buffer (releases are counted by `applies` with a non-zero dwell).
        pub buffered: u64 => sum,
        /// Data-frame retransmissions this site's transport performed.
        pub retransmits: u64 => sum,
        /// Pending-queue dwell time per applied update, virtual nanoseconds
        /// (0 when applied on arrival).
        pub dwell_ns: Histogram => merge,
        /// Remote-fetch round-trip time observed by this site as the reader.
        pub fetch_rtt_ns: Histogram => merge,
    }
}

/// The per-site registry: one [`SiteMetrics`] slot per site, indexed by
/// the site's dense index. Grows on demand so callers never have to know
/// `n` up front.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SiteRegistry {
    sites: Vec<SiteMetrics>,
}

impl SiteRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure slots exist for sites `0..n`.
    pub fn ensure(&mut self, n: usize) {
        if self.sites.len() < n {
            self.sites.resize_with(n, SiteMetrics::default);
        }
    }

    /// Number of site slots.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no site has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Mutable access to one site's slot, growing the registry if needed.
    pub fn site_mut(&mut self, index: usize) -> &mut SiteMetrics {
        self.ensure(index + 1);
        &mut self.sites[index]
    }

    /// Shared access to one site's slot, if registered.
    pub fn site(&self, index: usize) -> Option<&SiteMetrics> {
        self.sites.get(index)
    }

    /// Iterate the slots in site order.
    pub fn iter(&self) -> impl Iterator<Item = &SiteMetrics> {
        self.sites.iter()
    }

    /// Total buffered count across all sites.
    pub fn total_buffered(&self) -> u64 {
        self.sites.iter().map(|s| s.buffered).sum()
    }

    /// Fold another registry into this one, site by site.
    pub fn merge(&mut self, other: &SiteRegistry) {
        self.ensure(other.sites.len());
        for (mine, theirs) in self.sites.iter_mut().zip(&other.sites) {
            mine.merge(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_mut_grows_on_demand() {
        let mut r = SiteRegistry::new();
        assert!(r.is_empty());
        r.site_mut(3).sends = 7;
        assert_eq!(r.len(), 4);
        assert_eq!(r.site(3).unwrap().sends, 7);
        assert_eq!(r.site(0).unwrap().sends, 0);
        assert!(r.site(4).is_none());
    }

    #[test]
    fn ensure_never_shrinks() {
        let mut r = SiteRegistry::new();
        r.ensure(5);
        r.site_mut(2).buffered = 3;
        r.ensure(2);
        assert_eq!(r.len(), 5);
        assert_eq!(r.total_buffered(), 3);
    }

    #[test]
    fn dwell_records_mean_and_p99() {
        let mut s = SiteMetrics::default();
        for x in [10.0, 20.0, 30.0] {
            s.dwell_ns.record(x);
        }
        assert_eq!(s.dwell_ns.count(), 3);
        assert!((s.dwell_ns.mean() - 20.0).abs() < 1e-9);
        // The last rank is the max, exactly.
        assert_eq!(s.dwell_ns.quantile(0.99), Some(30.0));
    }

    #[test]
    fn merge_adds_counters_and_folds_accums() {
        let mut a = SiteRegistry::new();
        a.site_mut(0).sends = 2;
        a.site_mut(0).dwell_ns.record(100.0);
        let mut b = SiteRegistry::new();
        b.site_mut(0).sends = 3;
        b.site_mut(0).retransmits = 1;
        b.site_mut(0).dwell_ns.record(300.0);
        b.site_mut(1).delivers = 4;
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.site(0).unwrap().sends, 5);
        assert_eq!(a.site(0).unwrap().retransmits, 1);
        assert_eq!(a.site(0).unwrap().dwell_ns.count(), 2);
        assert!((a.site(0).unwrap().dwell_ns.mean() - 200.0).abs() < 1e-9);
        assert_eq!(a.site(1).unwrap().delivers, 4);
    }
}
