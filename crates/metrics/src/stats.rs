//! Message counters.

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
        self.record_n(kind, bytes, 1);
    }

    /// Record `k` messages of `kind` carrying `bytes` each — the copies of
    /// one multicast. Equal to `k` calls of [`MessageStats::record`].
    #[inline]
    pub fn record_n(&mut self, kind: MsgKind, bytes: u64, k: u64) {
        self.counts[kind.index()] += k;
        self.meta_bytes[kind.index()] += bytes * k;
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

/// Each power of two from 32 up is split into `2^SUB_BITS` linear
/// sub-buckets, so a bucket is at most 1/16 of its lower bound wide. Five
/// bits would halve that and double each histogram's memory: a run keeps
/// two per site, and at n = 40 five bits grew a small run's peak RSS by
/// 7–9 %.
const SUB_BITS: u32 = 4;

/// A mergeable log-linear histogram of non-negative whole samples
/// (nanoseconds, entry counts, clock lags).
///
/// Values below 32 get a bucket each; above that, every power of two gets
/// 16 equal sub-buckets. `count`, `sum`, `min` and `max` are exact, a
/// quantile is off by less than one sub-bucket width (≤ 1/16 of the value;
/// ≤ 1/32 from the bucket's midpoint), and [`Histogram::merge`] is exact:
/// merged shards equal one histogram fed every sample.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Samples per bucket, grown to the highest bucket used: an unused
    /// histogram allocates nothing.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// The bucket of `v`: `v` itself below 32; above, the power of two as
/// `shift` and the top `SUB_BITS + 1` bits of `v`.
fn bucket(v: u64) -> usize {
    let shift = (63 - SUB_BITS) - (v | (1 << SUB_BITS)).leading_zeros();
    (((shift as u64) << SUB_BITS) + (v >> shift)) as usize
}

/// The smallest value of bucket `i`, and the bucket's width.
fn bounds(i: usize) -> (u64, u64) {
    let shift = (i >> SUB_BITS).saturating_sub(1) as u32;
    let lo = (i as u64 - ((shift as u64) << SUB_BITS)) << shift;
    (lo, 1 << shift)
}

/// Extend `counts` to `len` buckets, allocating no more than that.
fn grow(counts: &mut Vec<u64>, len: usize) {
    if counts.len() < len {
        counts.reserve_exact(len - counts.len());
        counts.resize(len, 0);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. Samples are whole units: a fraction is dropped,
    /// and a negative value counts as 0.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.record_n(x, 1);
    }

    /// Record the sample `x` `k` times (one per copy of a multicast).
    /// Equal to `k` calls of [`Histogram::record`]; `k = 0` is a no-op.
    #[inline]
    pub fn record_n(&mut self, x: f64, k: u64) {
        if k == 0 {
            return;
        }
        let v = x as u64;
        let i = bucket(v);
        grow(&mut self.counts, i + 1);
        self.counts[i] += k;
        self.count += k;
        self.sum += u128::from(v) * u128::from(k);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram's samples into this one, bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        grow(&mut self.counts, other.counts.len());
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
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
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min as f64)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max as f64)
    }

    /// The `q`-quantile, `q ∈ [0, 1]` (`None` when empty): the sample of
    /// rank `round(q·(count − 1))`. Ranks 0 and `count − 1` are `min` and
    /// `max`, exactly; any other rank reads as its bucket's midpoint,
    /// clamped to `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let last = self.count.checked_sub(1)?;
        let rank = (q.clamp(0.0, 1.0) * last as f64).round() as u64;
        if rank == 0 {
            return self.min();
        }
        if rank == last {
            return self.max();
        }
        let mut seen = 0;
        let i = self.counts.iter().position(|&c| {
            seen += c;
            seen > rank
        })?;
        let (lo, width) = bounds(i);
        let mid = lo as f64 + (width - 1) as f64 / 2.0;
        Some(mid.clamp(self.min as f64, self.max as f64))
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

    fn fed(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        samples.iter().for_each(|&v| h.record(v as f64));
        h
    }

    /// The width of the bucket holding `v`.
    fn width(v: u64) -> u64 {
        bounds(bucket(v)).1
    }

    /// Whole samples spread over every magnitude up to 2^53 (exact in f64).
    fn samples(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec((any::<u64>(), 11u32..64).prop_map(|(x, s)| x >> s), len)
    }

    #[test]
    fn buckets_are_exact_below_32_and_16_to_a_power_of_two_above() {
        let buckets: Vec<_> = (0..32).map(bucket).collect();
        assert_eq!(buckets, (0..32).collect::<Vec<_>>());
        assert_eq!(
            (bucket(32), bucket(33), bucket(63), bucket(64)),
            (32, 32, 47, 48),
            "width 2 from 32, 4 from 64"
        );
        assert_eq!((bucket(1 << 40), bucket(u64::MAX)), (592, 975));
        for v in [
            0,
            31,
            32,
            33,
            63,
            64,
            65,
            127,
            128,
            1 << 40,
            (1 << 40) + 12_345,
            u64::MAX,
        ] {
            let (lo, w) = bounds(bucket(v));
            assert!(
                lo <= v && v - lo < w,
                "{v} in a bucket from {lo}, width {w}"
            );
            assert!(w == 1 || w as f64 <= v as f64 / 16.0, "{v}: width {w}");
        }
    }

    #[test]
    fn edge_values_are_exact_in_every_summary() {
        let edges = [0, 63, 64, 65, 1 << 40];
        let h = fed(&edges);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum, edges.iter().map(|&v| u128::from(v)).sum::<u128>());
        assert_eq!(h.mean(), ((1u64 << 40) + 192) as f64 / 5.0);
        assert_eq!((h.min(), h.max()), (Some(0.0), Some((1u64 << 40) as f64)));
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some((1u64 << 40) as f64));
        for (rank, &v) in edges.iter().enumerate() {
            let got = h.quantile(rank as f64 / 4.0).unwrap();
            assert!(
                (got - v as f64).abs() < width(v) as f64,
                "rank {rank}: {got} vs {v}"
            );
            assert_eq!(fed(&[v]).quantile(0.5), Some(v as f64), "{v} alone");
        }
        // 64 and 65 share a bucket: a middle rank reads its midpoint.
        assert_eq!(h.quantile(0.5), Some(65.5));
    }

    #[test]
    fn record_n_of_zero_copies_is_a_no_op() {
        let mut h = fed(&[3, 70]);
        let before = h.clone();
        h.record_n(9_000.0, 0);
        assert_eq!(h, before);
        let mut empty = Histogram::new();
        empty.record_n(5.0, 0);
        assert_eq!(empty, Histogram::new());
        assert_eq!(
            empty.counts.capacity(),
            0,
            "nothing recorded, nothing allocated"
        );
        let mut s = MessageStats::new();
        s.record_n(MsgKind::Sm, 100, 0);
        assert_eq!(s, MessageStats::new());
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        let h = Histogram::default();
        assert_eq!(h, Histogram::new());
        assert_eq!(h.counts.capacity(), 0);
        assert_eq!((h.count(), h.mean()), (0, 0.0));
        assert_eq!((h.min(), h.max(), h.quantile(0.5)), (None, None, None));
    }

    #[test]
    fn merge_with_an_empty_side_is_the_identity() {
        let full = fed(&[2, 4, 9_000]);
        let mut left = full.clone();
        left.merge(&Histogram::new());
        assert_eq!(left, full);
        let mut right = Histogram::new();
        right.merge(&full);
        assert_eq!(right, full);
        let mut neither = Histogram::new();
        neither.merge(&Histogram::new());
        assert_eq!(neither, Histogram::new());
    }

    proptest! {
        #[test]
        fn prop_merge_equals_recording_both_sample_sets(xs in samples(0..100), ys in samples(0..100)) {
            let mut merged = fed(&xs);
            merged.merge(&fed(&ys));
            prop_assert_eq!(merged, fed(&[xs, ys].concat()));
        }

        #[test]
        fn prop_quantiles_are_within_one_sub_bucket_of_the_exact_rank(
            xs in samples(1..300),
            q in 0.0f64..=1.0,
        ) {
            let h = fed(&xs);
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            for q in [q, 0.0, 0.5, 0.99, 1.0] {
                let exact = sorted[(q * (xs.len() - 1) as f64).round() as usize];
                let got = h.quantile(q).unwrap();
                prop_assert!(
                    (got - exact as f64).abs() < width(exact) as f64,
                    "q {q}: {got} vs exact {exact}"
                );
                prop_assert!(sorted[0] as f64 <= got && got <= sorted[xs.len() - 1] as f64);
            }
        }

        #[test]
        fn prop_merged_shards_equal_one_histogram_fed_every_sample(
            xs in samples(0..200),
            cuts in proptest::collection::vec(0usize..200, 0..6),
        ) {
            let mut cuts: Vec<_> = cuts.into_iter().map(|c| c.min(xs.len())).collect();
            cuts.push(xs.len());
            cuts.sort_unstable();
            let mut merged = Histogram::new();
            let mut from = 0;
            for to in cuts {
                merged.merge(&fed(&xs[from..to]));
                from = to;
            }
            prop_assert_eq!(merged, fed(&xs));
        }

        #[test]
        fn prop_record_n_equals_k_records(
            xs in samples(0..40),
            ks in proptest::collection::vec(0u64..6, 40),
        ) {
            let mut once = Histogram::new();
            let mut each = Histogram::new();
            for (&v, &k) in xs.iter().zip(&ks) {
                once.record_n(v as f64, k);
                (0..k).for_each(|_| each.record(v as f64));
            }
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(once.quantile(q), each.quantile(q));
            }
            prop_assert_eq!((once.count(), once.sum), (each.count(), each.sum));
            prop_assert_eq!((once.min(), once.max()), (each.min(), each.max()));
            prop_assert_eq!(once, each);
        }

        #[test]
        fn prop_message_stats_record_n_equals_k_records(
            sends in proptest::collection::vec((0usize..3, 0u64..10_000, 0u64..6), 0..40),
        ) {
            let (mut once, mut each) = (MessageStats::new(), MessageStats::new());
            for &(kind, bytes, k) in &sends {
                let kind = MsgKind::ALL[kind];
                once.record_n(kind, bytes, k);
                (0..k).for_each(|_| each.record(kind, bytes));
            }
            prop_assert_eq!(once, each);
        }

        #[test]
        fn prop_count_sum_min_max_are_exact_and_end_ranks_are_min_and_max(
            xs in samples(1..200),
        ) {
            let h = fed(&xs);
            prop_assert_eq!(h.count(), xs.len() as u64);
            prop_assert_eq!(h.sum, xs.iter().map(|&v| u128::from(v)).sum::<u128>());
            let (lo, hi) = (*xs.iter().min().unwrap(), *xs.iter().max().unwrap());
            prop_assert_eq!((h.min(), h.max()), (Some(lo as f64), Some(hi as f64)));
            prop_assert_eq!(h.quantile(0.0), Some(lo as f64));
            prop_assert_eq!(h.quantile(1.0), Some(hi as f64));
        }
    }
}
