//! Operation-latency reporting for the live serving path.
//!
//! The `serve` load generator is closed-loop: every client issues one
//! operation, waits for it to complete (a remote read blocks for its RM),
//! thinks, and issues the next. Each site records those completion times
//! into its own [`OpLatency`] histogram, the run folds them with the rest
//! of its metrics, and the merged histogram snapshots to a plain-number
//! [`LatencySummary`] for reports.

use crate::stats::Histogram;
use serde::{Deserialize, Serialize};

/// Operation completion times, nanoseconds.
pub type OpLatency = Histogram;

/// A point-in-time latency summary, microseconds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Operations completed.
    pub ops: u64,
    /// Mean completion latency.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst completion observed.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarise completion times recorded in nanoseconds (all zero when
    /// nothing completed).
    pub fn from_ns(h: &OpLatency) -> Self {
        let us = |ns: Option<f64>| ns.unwrap_or(0.0) / 1e3;
        LatencySummary {
            ops: h.count(),
            mean_us: h.mean() / 1e3,
            p50_us: us(h.quantile(0.5)),
            p99_us: us(h.quantile(0.99)),
            max_us: us(h.max()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_summarizes_to_zero() {
        let s = LatencySummary::from_ns(&OpLatency::new());
        assert_eq!(s.ops, 0);
        assert_eq!(s.p50_us, 0.0);
        assert_eq!(s.p99_us, 0.0);
        assert_eq!(s.max_us, 0.0);
    }

    #[test]
    fn tails_separate_from_the_mean() {
        let mut l = OpLatency::new();
        // 980 fast ops at ~10 µs, 20 slow ones at 5 ms: rank 989, the p99,
        // is a slow one.
        for i in 0..1000u64 {
            let ns = if i % 50 == 49 { 5_000_000.0 } else { 10_000.0 };
            l.record(ns);
        }
        let s = LatencySummary::from_ns(&l);
        assert_eq!(s.ops, 1000);
        assert!(
            s.p50_us < 50.0,
            "median stays at the fast mode: {}",
            s.p50_us
        );
        assert!(
            s.p99_us > 1_000.0,
            "p99 must surface the slow tail: {}",
            s.p99_us
        );
        assert!((s.max_us - 5_000.0).abs() < 1e-6);
        assert!(s.mean_us > s.p50_us, "skew pulls the mean above the median");
    }
}
