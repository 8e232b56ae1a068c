//! Counters and streaming statistics.

use causal_types::MsgKind;
use serde::{Deserialize, Serialize};

/// Message counts and meta-data byte totals, broken down by message kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MessageStats {
    counts: [u64; 3],
    meta_bytes: [u64; 3],
}

impl MessageStats {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one message of `kind` carrying `bytes` of meta-data.
    #[inline]
    pub fn record(&mut self, kind: MsgKind, bytes: u64) {
        self.counts[kind.index()] += 1;
        self.meta_bytes[kind.index()] += bytes;
    }

    /// Number of messages of `kind`.
    pub fn count(&self, kind: MsgKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total meta-data bytes of `kind`.
    pub fn bytes(&self, kind: MsgKind) -> u64 {
        self.meta_bytes[kind.index()]
    }

    /// Total message count across kinds (the paper's `m_c`).
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total meta-data bytes across kinds (the paper's `m_s`, control
    /// overhead only).
    pub fn total_bytes(&self) -> u64 {
        self.meta_bytes.iter().sum()
    }

    /// Average meta-data bytes per message of `kind`; `None` when no such
    /// message was recorded.
    pub fn avg_bytes(&self, kind: MsgKind) -> Option<f64> {
        let c = self.count(kind);
        (c > 0).then(|| self.bytes(kind) as f64 / c as f64)
    }

    /// Fold another accumulator into this one (multi-run aggregation).
    pub fn merge(&mut self, other: &MessageStats) {
        for i in 0..3 {
            self.counts[i] += other.counts[i];
            self.meta_bytes[i] += other.meta_bytes[i];
        }
    }
}

/// Streaming summary statistics (Welford's algorithm): count, mean,
/// variance, min, max. Constant memory, numerically stable.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct StatAccum {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StatAccum {
    fn default() -> Self {
        Self::new()
    }
}

impl StatAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        StatAccum {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Fold another accumulator's samples into this one, exactly and in
    /// constant time (Chan et al.'s pairwise update of the moments): the
    /// result is what recording both sample sets into one accumulator
    /// gives. An empty side is the identity.
    pub fn merge(&mut self, other: &StatAccum) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        self.count += other.count;
        self.mean += delta * nb / n;
        self.m2 += other.m2 + delta * delta * na * nb / n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 for < 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn message_stats_accumulate_per_kind() {
        let mut s = MessageStats::new();
        s.record(MsgKind::Sm, 100);
        s.record(MsgKind::Sm, 200);
        s.record(MsgKind::Fm, 33);
        assert_eq!(s.count(MsgKind::Sm), 2);
        assert_eq!(s.bytes(MsgKind::Sm), 300);
        assert_eq!(s.avg_bytes(MsgKind::Sm), Some(150.0));
        assert_eq!(s.avg_bytes(MsgKind::Rm), None);
        assert_eq!(s.total_count(), 3);
        assert_eq!(s.total_bytes(), 333);
    }

    #[test]
    fn message_stats_merge() {
        let mut a = MessageStats::new();
        a.record(MsgKind::Sm, 10);
        let mut b = MessageStats::new();
        b.record(MsgKind::Sm, 20);
        b.record(MsgKind::Rm, 5);
        a.merge(&b);
        assert_eq!(a.count(MsgKind::Sm), 2);
        assert_eq!(a.bytes(MsgKind::Sm), 30);
        assert_eq!(a.count(MsgKind::Rm), 1);
    }

    #[test]
    fn stat_accum_basics() {
        let mut s = StatAccum::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for x in [2.0, 4.0, 6.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(6.0));
        // Population std dev of {2,4,6} = sqrt(8/3).
        assert!((s.std_dev() - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        assert_eq!(StatAccum::default(), StatAccum::new());
        let mut s = StatAccum::default();
        s.record(3.0);
        assert_eq!((s.min(), s.max()), (Some(3.0), Some(3.0)));
    }

    #[test]
    fn merge_with_an_empty_side_is_the_identity() {
        let mut full = StatAccum::new();
        for x in [2.0, 4.0, 9.0] {
            full.record(x);
        }
        let mut left = full;
        left.merge(&StatAccum::new());
        assert_eq!(left, full);
        let mut right = StatAccum::new();
        right.merge(&full);
        assert_eq!(right, full);
        let mut neither = StatAccum::new();
        neither.merge(&StatAccum::new());
        assert_eq!(neither, StatAccum::new());
    }

    proptest! {
        #[test]
        fn prop_merge_equals_recording_both_sample_sets(
            xs in proptest::collection::vec(-1e6f64..1e6, 0..100),
            ys in proptest::collection::vec(-1e6f64..1e6, 0..100),
        ) {
            let record_all = |samples: &[f64]| {
                let mut s = StatAccum::new();
                samples.iter().for_each(|&x| s.record(x));
                s
            };
            let mut merged = record_all(&xs);
            merged.merge(&record_all(&ys));
            let one = record_all(&[xs.as_slice(), ys.as_slice()].concat());
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
            prop_assert_eq!(merged.count(), one.count());
            prop_assert!(close(merged.mean(), one.mean()));
            prop_assert!(close(merged.std_dev(), one.std_dev()));
            prop_assert_eq!(merged.min(), one.min());
            prop_assert_eq!(merged.max(), one.max());
        }

        #[test]
        fn prop_welford_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = StatAccum::new();
            for &x in &xs {
                s.record(x);
            }
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.std_dev() - var.sqrt()).abs() < 1e-5 * (1.0 + var.sqrt()));
        }
    }
}
