//! Reliable FIFO channels with pluggable latency, partition windows, and
//! the fault plan's two rates: one drop and one duplication probability for
//! every frame on every channel.

use causal_types::{Error, Result, SimDuration, SimTime, SiteId};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How long a message spends in transit on the `from → to` channel.
///
/// Whatever the model, the [`ChannelMatrix`] enforces FIFO per ordered site
/// pair (a later send never overtakes an earlier one on the same channel),
/// matching TCP's in-order delivery in the paper's testbed.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Fixed one-way latency.
    Constant {
        /// One-way latency in microseconds.
        micros: u64,
    },
    /// Uniform in `[min, max]` microseconds, independently per message.
    Uniform {
        /// Minimum one-way latency, microseconds.
        min_micros: u64,
        /// Maximum one-way latency, microseconds.
        max_micros: u64,
    },
    /// Wide-area ring topology: latency grows with ring distance between
    /// the sites (`base + per_hop · dist`), plus uniform jitter up to
    /// `jitter_micros`. Models geographically dispersed replicas.
    GeoRing {
        /// Latency floor, microseconds.
        base_micros: u64,
        /// Extra latency per ring hop, microseconds.
        per_hop_micros: u64,
        /// Uniform jitter bound, microseconds.
        jitter_micros: u64,
    },
}

impl LatencyModel {
    /// The default experimental setting: a wide-area-ish uniform latency of
    /// 20–80 ms, well below the paper's 5–2005 ms inter-operation delays
    /// (so most updates arrive before the next operation, as over real TCP
    /// in the paper's LAN testbed, while still leaving room for reordering
    /// across senders).
    pub fn default_wan() -> Self {
        LatencyModel::Uniform {
            min_micros: 20_000,
            max_micros: 80_000,
        }
    }

    /// `Err` when a uniform model's minimum exceeds its maximum (an empty
    /// range to sample from).
    pub fn check(&self) -> Result<()> {
        match *self {
            LatencyModel::Uniform {
                min_micros,
                max_micros,
            } if min_micros > max_micros => Err(Error::InvalidConfig(format!(
                "the latency's minimum exceeds its maximum ({min_micros} > {max_micros} µs)"
            ))),
            _ => Ok(()),
        }
    }

    fn sample(&self, n: usize, from: SiteId, to: SiteId, rng: &mut StdRng) -> SimDuration {
        match *self {
            LatencyModel::Constant { micros } => SimDuration::from_micros(micros),
            LatencyModel::Uniform {
                min_micros,
                max_micros,
            } => SimDuration::from_micros(rng.gen_range(min_micros..=max_micros)),
            LatencyModel::GeoRing {
                base_micros,
                per_hop_micros,
                jitter_micros,
            } => {
                let d = {
                    let raw = (to.index() + n - from.index()) % n;
                    raw.min(n - raw) as u64
                };
                let jitter = if jitter_micros == 0 {
                    0
                } else {
                    rng.gen_range(0..=jitter_micros)
                };
                SimDuration::from_micros(base_micros + per_hop_micros * d + jitter)
            }
        }
    }
}

/// A temporary network partition: during `[start, end)` no message crosses
/// the cut between `side_a` and its complement. Crossing messages are not
/// lost — TCP keeps retransmitting — they are delivered after the partition
/// heals (transit latency counted from the heal instant).
///
/// This is the CAP scenario of the paper's introduction: causal consistency
/// keeps both sides fully available for reads and writes while the
/// partition lasts, at the price of delayed convergence.
#[derive(Clone, Debug)]
pub struct PartitionWindow {
    /// Partition onset (messages *sent* at or after this instant are held).
    pub start: SimTime,
    /// Heal instant.
    pub end: SimTime,
    /// One side of the cut; the other side is its complement.
    pub side_a: causal_clocks::DestSet,
}

impl PartitionWindow {
    /// `true` when a message sent at `at` from `from` to `to` is severed by
    /// this window.
    fn cuts(&self, from: SiteId, to: SiteId, at: SimTime) -> bool {
        at >= self.start && at < self.end && self.side_a.contains(from) != self.side_a.contains(to)
    }
}

/// A lossy-network fault plan: every frame on every channel is dropped with
/// probability `drop` and, when delivered, arrives a second time with
/// probability `dup`.
///
/// The plan acts on transport *frames* (see `crate::transport`), never on
/// protocol messages directly: a dropped frame is retransmitted until
/// acknowledged and a duplicated frame is deduplicated by the receiver's
/// sequence window, so the protocol layer above still observes exactly-once
/// FIFO delivery. Sampling is driven by a dedicated fault RNG derived from
/// the run seed, keeping runs bit-reproducible and leaving the latency
/// stream untouched (an empty plan consumes no randomness at all).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probability that a frame is dropped in transit.
    pub drop: f64,
    /// Probability that a delivered frame arrives a second time.
    pub dup: f64,
}

impl FaultPlan {
    /// A plan with these rates.
    pub fn uniform(drop: f64, dup: f64) -> Self {
        FaultPlan { drop, dup }
    }

    /// `Err` unless `0 <= drop < 1` and `0 <= dup <= 1` (NaN fails both).
    /// Dropping every frame would retransmit forever and deliver nothing.
    pub fn check(&self) -> Result<()> {
        if (0.0..1.0).contains(&self.drop) && (0.0..=1.0).contains(&self.dup) {
            return Ok(());
        }
        Err(Error::InvalidConfig(format!(
            "the fault rates drop={} dup={} are out of range: want \
             0 <= drop < 1 (dropping every frame never delivers), 0 <= dup <= 1",
            self.drop, self.dup
        )))
    }

    /// `true` when the plan can never drop or duplicate anything — the
    /// transport layer is bypassed entirely in that case.
    pub fn is_noop(&self) -> bool {
        self.drop == 0.0 && self.dup == 0.0
    }

    /// Sample the drop decision for one frame departure.
    pub fn should_drop(&self, rng: &mut StdRng) -> bool {
        self.drop > 0.0 && rng.gen_bool(self.drop)
    }

    /// Sample the duplication decision for one delivered frame.
    pub fn should_dup(&self, rng: &mut StdRng) -> bool {
        self.dup > 0.0 && rng.gen_bool(self.dup)
    }
}

/// Per-ordered-pair FIFO state: remembers the last scheduled delivery time
/// so a later send is never delivered earlier.
pub struct ChannelMatrix {
    n: usize,
    model: LatencyModel,
    last_delivery: Vec<SimTime>,
    partitions: Vec<PartitionWindow>,
}

impl ChannelMatrix {
    /// Channels between `n` sites under `model`.
    pub fn new(n: usize, model: LatencyModel) -> Self {
        ChannelMatrix {
            n,
            model,
            last_delivery: vec![SimTime::ZERO; n * n],
            partitions: Vec::new(),
        }
    }

    /// Add partition windows (fault injection).
    pub fn with_partitions(mut self, partitions: Vec<PartitionWindow>) -> Self {
        self.partitions = partitions;
        self
    }

    /// Compute the delivery time for a message sent `from → to` at `now`.
    /// Monotone per channel: FIFO is enforced by clamping to one nanosecond
    /// after the previous delivery on the same channel. Messages severed by
    /// an active partition window begin transit at the heal instant.
    pub fn delivery_time(
        &mut self,
        from: SiteId,
        to: SiteId,
        now: SimTime,
        rng: &mut StdRng,
    ) -> SimTime {
        let idx = from.index() * self.n + to.index();
        // Iterate to a fixpoint: pushing the departure past one window's
        // heal can land it inside another window that appears *earlier* in
        // the list, so a single in-order pass is not enough.
        let mut depart = now;
        loop {
            let pushed = self
                .partitions
                .iter()
                .filter(|w| w.cuts(from, to, depart))
                .map(|w| w.end)
                .max();
            match pushed {
                Some(end) => depart = end,
                None => break,
            }
        }
        let transit = self.model.sample(self.n, from, to, rng);
        let naive = depart + transit;
        let fifo_floor = self.last_delivery[idx].saturating_add(SimDuration::from_nanos(1));
        let at = naive.max(fifo_floor);
        self.last_delivery[idx] = at;
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_latency_is_exact() {
        let mut m = ChannelMatrix::new(2, LatencyModel::Constant { micros: 1000 });
        let mut rng = StdRng::seed_from_u64(0);
        let t = m.delivery_time(SiteId(0), SiteId(1), SimTime::ZERO, &mut rng);
        assert_eq!(t, SimTime::from_millis(1));
    }

    #[test]
    fn fifo_is_enforced_even_with_jitter() {
        let mut m = ChannelMatrix::new(
            2,
            LatencyModel::Uniform {
                min_micros: 1,
                max_micros: 100_000,
            },
        );
        let mut rng = StdRng::seed_from_u64(7);
        let mut last = SimTime::ZERO;
        // 200 sends at the same instant must deliver strictly in order.
        for _ in 0..200 {
            let t = m.delivery_time(SiteId(0), SiteId(1), SimTime::ZERO, &mut rng);
            assert!(t > last, "FIFO violated");
            last = t;
        }
    }

    #[test]
    fn channels_are_independent() {
        let mut m = ChannelMatrix::new(3, LatencyModel::Constant { micros: 10 });
        let mut rng = StdRng::seed_from_u64(0);
        let t01 = m.delivery_time(SiteId(0), SiteId(1), SimTime::ZERO, &mut rng);
        // The reverse direction and other pairs have their own FIFO state.
        let t10 = m.delivery_time(SiteId(1), SiteId(0), SimTime::ZERO, &mut rng);
        let t02 = m.delivery_time(SiteId(0), SiteId(2), SimTime::ZERO, &mut rng);
        assert_eq!(t01, t10);
        assert_eq!(t01, t02);
    }

    #[test]
    fn geo_ring_latency_grows_with_distance() {
        let model = LatencyModel::GeoRing {
            base_micros: 100,
            per_hop_micros: 1000,
            jitter_micros: 0,
        };
        let mut m = ChannelMatrix::new(10, model);
        let mut rng = StdRng::seed_from_u64(0);
        let near = m.delivery_time(SiteId(0), SiteId(1), SimTime::ZERO, &mut rng);
        let far = m.delivery_time(SiteId(0), SiteId(5), SimTime::ZERO, &mut rng);
        assert!(far > near);
        // Ring wraps: distance 9 == distance 1.
        let wrap = m.delivery_time(SiteId(0), SiteId(9), SimTime::ZERO, &mut rng);
        assert_eq!(wrap, near);
    }

    #[test]
    fn uniform_latency_within_bounds() {
        let mut m = ChannelMatrix::new(2, LatencyModel::default_wan());
        let mut rng = StdRng::seed_from_u64(3);
        // Chain the sends: each departs at the previous delivery instant, so
        // the FIFO floor never masks the freshly sampled transit and every
        // sample is checked against the model's bounds.
        let mut prev = SimTime::ZERO;
        for _ in 0..100 {
            let t = m.delivery_time(SiteId(0), SiteId(1), prev, &mut rng);
            assert!(t >= prev + SimDuration::from_millis(20));
            assert!(t <= prev + SimDuration::from_millis(80));
            prev = t;
        }
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use causal_clocks::DestSet;
    use rand::SeedableRng;

    fn window(start_ms: u64, end_ms: u64, side: &[usize]) -> PartitionWindow {
        PartitionWindow {
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            side_a: DestSet::from_sites(side.iter().map(|&i| SiteId::from(i))),
        }
    }

    #[test]
    fn crossing_messages_wait_for_heal() {
        let mut m = ChannelMatrix::new(4, LatencyModel::Constant { micros: 1000 })
            .with_partitions(vec![window(100, 200, &[0, 1])]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        // Sent during the window across the cut: delivered after heal.
        let t = m.delivery_time(SiteId(0), SiteId(2), SimTime::from_millis(150), &mut rng);
        assert_eq!(t, SimTime::from_millis(201));
        // Same-side messages are unaffected.
        let t = m.delivery_time(SiteId(0), SiteId(1), SimTime::from_millis(150), &mut rng);
        assert_eq!(t, SimTime::from_millis(151));
        // Sent before the window: unaffected.
        let mut m2 = ChannelMatrix::new(4, LatencyModel::Constant { micros: 1000 })
            .with_partitions(vec![window(100, 200, &[0, 1])]);
        let t = m2.delivery_time(SiteId(0), SiteId(2), SimTime::from_millis(50), &mut rng);
        assert_eq!(t, SimTime::from_millis(51));
        // Sent after heal: unaffected.
        let t = m2.delivery_time(SiteId(0), SiteId(2), SimTime::from_millis(250), &mut rng);
        assert_eq!(t, SimTime::from_millis(251));
    }

    #[test]
    fn fifo_survives_partition_boundary() {
        // A message sent just before the cut and one sent during it must
        // still deliver in order.
        let mut m = ChannelMatrix::new(2, LatencyModel::Constant { micros: 500_000 })
            .with_partitions(vec![window(100, 30_000, &[0])]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let t1 = m.delivery_time(SiteId(0), SiteId(1), SimTime::from_millis(99), &mut rng);
        let t2 = m.delivery_time(SiteId(0), SiteId(1), SimTime::from_millis(150), &mut rng);
        assert!(t2 > t1);
        assert!(t2 >= SimTime::from_millis(30_000), "t2 held until heal");
    }

    #[test]
    fn chained_windows_apply_sequentially() {
        // A message caught by window 1's heal can immediately be caught by
        // window 2 if it is still active at that departure time.
        let mut m = ChannelMatrix::new(2, LatencyModel::Constant { micros: 1000 })
            .with_partitions(vec![window(100, 200, &[0]), window(150, 300, &[0])]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let t = m.delivery_time(SiteId(0), SiteId(1), SimTime::from_millis(120), &mut rng);
        assert_eq!(t, SimTime::from_millis(301), "held by both windows in turn");
    }

    #[test]
    fn chained_windows_apply_in_any_listed_order() {
        // Same scenario with the windows listed in reverse: the heal of the
        // later-listed window lands inside the earlier-listed one, which a
        // single in-order pass would miss. The fixpoint must still find the
        // final heal instant.
        let mut m = ChannelMatrix::new(2, LatencyModel::Constant { micros: 1000 })
            .with_partitions(vec![window(150, 300, &[0]), window(100, 200, &[0])]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let t = m.delivery_time(SiteId(0), SiteId(1), SimTime::from_millis(120), &mut rng);
        assert_eq!(t, SimTime::from_millis(301), "window order must not matter");
    }
}

#[cfg(test)]
mod fault_plan_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn empty_plan_is_noop() {
        assert!(FaultPlan::default().is_noop());
        assert!(FaultPlan::uniform(0.0, 0.0).is_noop());
        assert!(!FaultPlan::uniform(0.1, 0.0).is_noop());
        assert!(!FaultPlan::uniform(0.0, 0.1).is_noop());
    }

    #[test]
    fn sampled_drop_rate_tracks_the_probability() {
        let plan = FaultPlan::uniform(0.3, 0.0);
        let mut rng = StdRng::seed_from_u64(42);
        let hits = (0..10_000).filter(|_| plan.should_drop(&mut rng)).count();
        assert!((2_500..3_500).contains(&hits), "drop rate skewed: {hits}");
    }
}
