//! Per-destination update batching.
//!
//! A [`DestBatcher`] keeps one FIFO *lane* per destination site. Instead of
//! sending every update message the moment it is produced, the sender
//! parks it in the destination's lane and flushes the whole lane as one
//! frame when a flush policy triggers: the lane reaches `max_items`
//! updates, its estimated payload reaches `max_bytes`, or a virtual-time
//! window expires (the window timer is owned by the caller — the batcher
//! only reports, via [`Offer::First`], when a lane goes from empty to
//! non-empty so a timer should be armed).
//!
//! The batcher is deliberately generic and passive: it never inspects the
//! queued items beyond the byte estimate the caller supplies, and it never
//! reorders a lane — updates leave in exactly the order they entered, which
//! is what makes unbatch-on-deliver preserve per-update causal semantics.
//!
//! Epochs make window timers safe to fire late: every drain of a lane bumps
//! its epoch, and [`DestBatcher::on_timer`] ignores timers carrying a stale
//! epoch (the items they were armed for already left in an earlier
//! count/byte-triggered flush).

use causal_types::SiteId;
use std::collections::BTreeMap;

/// When to flush a destination lane.
///
/// A lane flushes as soon as *either* bound is reached; the caller-managed
/// window timer bounds the latency of lanes that never fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchPolicy {
    /// Flush once a lane holds this many updates.
    pub max_items: usize,
    /// Flush once a lane's estimated bytes reach this bound.
    pub max_bytes: u64,
}

impl BatchPolicy {
    /// The lanes of a windowed plan, on either harness: a generous update
    /// count and no byte bound, so the flush window does the bounding.
    pub const WINDOWED: BatchPolicy = BatchPolicy::by_count(64);

    /// A policy bounded only by `max_items`.
    pub const fn by_count(max_items: usize) -> Self {
        BatchPolicy {
            max_items,
            max_bytes: u64::MAX,
        }
    }
}

/// Outcome of [`DestBatcher::offer`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Offer<T> {
    /// The item opened a previously-empty lane: arm a window timer for
    /// this destination carrying `epoch`.
    First {
        /// Epoch to attach to the timer; stale timers are ignored.
        epoch: u64,
    },
    /// The item joined a non-empty lane; an earlier timer is already
    /// armed.
    Queued,
    /// The item tripped a count/byte bound: the whole lane (this item
    /// included) flushes now, in arrival order.
    Flush(Vec<T>),
}

struct Lane<T> {
    items: Vec<T>,
    bytes: u64,
    epoch: u64,
}

impl<T> Lane<T> {
    fn new() -> Self {
        Lane {
            items: Vec::new(),
            bytes: 0,
            epoch: 0,
        }
    }

    fn drain(&mut self) -> Vec<T> {
        self.bytes = 0;
        self.epoch += 1;
        std::mem::take(&mut self.items)
    }
}

/// One FIFO lane of pending updates per destination site.
///
/// Deterministic by construction: lanes live in a `BTreeMap`, so
/// [`DestBatcher::flush_all`] and iteration order depend only on the
/// destination ids, never on hash seeds — a requirement for bit-exact
/// parallel/sequential sweep equivalence.
pub struct DestBatcher<T> {
    policy: BatchPolicy,
    lanes: BTreeMap<SiteId, Lane<T>>,
}

impl<T> DestBatcher<T> {
    /// An empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(
            policy.max_items >= 1,
            "max_items must admit at least one update"
        );
        DestBatcher {
            policy,
            lanes: BTreeMap::new(),
        }
    }

    /// Queue `item` (estimated at `bytes` on the wire) for `dest`.
    ///
    /// Returns [`Offer::Flush`] with the drained lane when the item trips a
    /// policy bound, [`Offer::First`] when the lane was empty (caller arms
    /// the window timer), [`Offer::Queued`] otherwise.
    pub fn offer(&mut self, dest: SiteId, item: T, bytes: u64) -> Offer<T> {
        let lane = self.lanes.entry(dest).or_insert_with(Lane::new);
        lane.items.push(item);
        lane.bytes = lane.bytes.saturating_add(bytes);
        if lane.items.len() >= self.policy.max_items || lane.bytes >= self.policy.max_bytes {
            Offer::Flush(lane.drain())
        } else if lane.items.len() == 1 {
            Offer::First { epoch: lane.epoch }
        } else {
            Offer::Queued
        }
    }

    /// A window timer armed with `epoch` fired for `dest`: drain the lane,
    /// unless the epoch is stale (the lane already flushed and possibly
    /// refilled since the timer was armed) or the lane is empty.
    pub fn on_timer(&mut self, dest: SiteId, epoch: u64) -> Option<Vec<T>> {
        let lane = self.lanes.get_mut(&dest)?;
        if lane.epoch != epoch || lane.items.is_empty() {
            return None;
        }
        Some(lane.drain())
    }

    /// Unconditionally drain the lane for `dest` (no epoch check). Used
    /// when a non-batchable message is about to depart on the same channel:
    /// flushing first preserves per-channel FIFO order, which the
    /// protocols' metadata-pruning rules rely on.
    pub fn flush_dest(&mut self, dest: SiteId) -> Option<Vec<T>> {
        let lane = self.lanes.get_mut(&dest)?;
        if lane.items.is_empty() {
            return None;
        }
        Some(lane.drain())
    }

    /// Drain every non-empty lane, in ascending destination order. Used at
    /// barriers that must not leave updates parked (view changes, crashes
    /// of the *receiving* site, end of run).
    pub fn flush_all(&mut self) -> Vec<(SiteId, Vec<T>)> {
        let mut out = Vec::new();
        for (&dest, lane) in self.lanes.iter_mut() {
            if !lane.items.is_empty() {
                out.push((dest, lane.drain()));
            }
        }
        out
    }

    /// Drop everything queued for `dest` without delivering it (the
    /// destination crashed; its lane contents die with the sender's intent
    /// to transmit).
    pub fn clear_dest(&mut self, dest: SiteId) -> usize {
        match self.lanes.get_mut(&dest) {
            Some(lane) => lane.drain().len(),
            None => 0,
        }
    }

    /// Number of updates currently parked across all lanes.
    pub fn pending(&self) -> usize {
        self.lanes.values().map(|l| l.items.len()).sum()
    }

    /// `true` when no lane holds an update.
    pub fn is_empty(&self) -> bool {
        self.lanes.values().all(|l| l.items.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(max_items: usize) -> DestBatcher<u32> {
        DestBatcher::new(BatchPolicy::by_count(max_items))
    }

    #[test]
    fn count_bound_flushes_in_arrival_order() {
        let mut q = b(3);
        assert_eq!(q.offer(SiteId(1), 10, 1), Offer::First { epoch: 0 });
        assert_eq!(q.offer(SiteId(1), 11, 1), Offer::Queued);
        assert_eq!(q.offer(SiteId(1), 12, 1), Offer::Flush(vec![10, 11, 12]));
        assert!(q.is_empty());
        // The next item re-opens the lane under a new epoch.
        assert_eq!(q.offer(SiteId(1), 13, 1), Offer::First { epoch: 1 });
    }

    #[test]
    fn byte_bound_flushes_before_count() {
        let mut q = DestBatcher::new(BatchPolicy {
            max_items: 100,
            max_bytes: 10,
        });
        assert_eq!(q.offer(SiteId(0), 1, 4), Offer::First { epoch: 0 });
        assert_eq!(q.offer(SiteId(0), 2, 4), Offer::Queued);
        assert_eq!(q.offer(SiteId(0), 3, 4), Offer::Flush(vec![1, 2, 3]));
    }

    #[test]
    fn lanes_are_independent_per_destination() {
        let mut q = b(2);
        assert_eq!(q.offer(SiteId(1), 10, 1), Offer::First { epoch: 0 });
        assert_eq!(q.offer(SiteId(2), 20, 1), Offer::First { epoch: 0 });
        assert_eq!(q.offer(SiteId(2), 21, 1), Offer::Flush(vec![20, 21]));
        assert_eq!(q.pending(), 1); // site 1's lane untouched
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut q = b(2);
        let Offer::First { epoch } = q.offer(SiteId(1), 10, 1) else {
            panic!("expected First")
        };
        // Count flush drains the lane and bumps the epoch...
        assert_eq!(q.offer(SiteId(1), 11, 1), Offer::Flush(vec![10, 11]));
        // ...and refills with a fresh item before the old timer fires.
        assert_eq!(q.offer(SiteId(1), 12, 1), Offer::First { epoch: 1 });
        assert_eq!(q.on_timer(SiteId(1), epoch), None, "stale epoch");
        assert_eq!(q.on_timer(SiteId(1), 1), Some(vec![12]));
        assert_eq!(q.on_timer(SiteId(1), 1), None, "empty lane");
        assert_eq!(q.on_timer(SiteId(7), 0), None, "unknown lane");
    }

    #[test]
    fn flush_dest_drains_one_lane_and_stales_its_timer() {
        let mut q = b(10);
        let Offer::First { epoch } = q.offer(SiteId(4), 40, 1) else {
            panic!("expected First")
        };
        q.offer(SiteId(4), 41, 1);
        q.offer(SiteId(6), 60, 1);
        assert_eq!(q.flush_dest(SiteId(4)), Some(vec![40, 41]));
        assert_eq!(q.on_timer(SiteId(4), epoch), None, "timer went stale");
        assert_eq!(q.flush_dest(SiteId(4)), None, "already empty");
        assert_eq!(q.pending(), 1, "other lanes untouched");
    }

    #[test]
    fn flush_all_drains_in_destination_order() {
        let mut q = b(10);
        q.offer(SiteId(5), 50, 1);
        q.offer(SiteId(1), 10, 1);
        q.offer(SiteId(5), 51, 1);
        q.offer(SiteId(3), 30, 1);
        let flushed = q.flush_all();
        assert_eq!(
            flushed,
            vec![
                (SiteId(1), vec![10]),
                (SiteId(3), vec![30]),
                (SiteId(5), vec![50, 51]),
            ]
        );
        assert!(q.is_empty());
        assert!(q.flush_all().is_empty());
    }

    #[test]
    fn clear_dest_drops_and_bumps_epoch() {
        let mut q = b(10);
        let Offer::First { epoch } = q.offer(SiteId(2), 7, 1) else {
            panic!("expected First")
        };
        assert_eq!(q.clear_dest(SiteId(2)), 1);
        assert!(q.is_empty());
        assert_eq!(
            q.on_timer(SiteId(2), epoch),
            None,
            "cleared lane's timer is stale"
        );
        assert_eq!(q.clear_dest(SiteId(9)), 0);
    }
}
