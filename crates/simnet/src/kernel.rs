//! The discrete-event kernel: a virtual clock and an event heap.

use causal_proto::{Frame, Msg};
use causal_types::{SimTime, SiteId, VarId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event in the simulation.
#[derive(Clone, Debug)]
pub enum SimEvent {
    /// The application process at `site` is due to issue its next scheduled
    /// operation.
    OpReady {
        /// The site whose application subsystem fires.
        site: SiteId,
    },
    /// A message completes its channel transit and is handed to the
    /// receiver's message-receipt subsystem.
    Deliver {
        /// Sending site.
        from: SiteId,
        /// Receiving site.
        to: SiteId,
        /// The message.
        msg: Msg,
        /// Whether the traffic is attributed to a post-warm-up operation.
        measured: bool,
        /// When the message entered the channel (for transit statistics).
        sent_at: SimTime,
    },
    /// A transport frame completes its channel transit (lossy-network runs
    /// only; on the lossless path messages ride [`SimEvent::Deliver`]
    /// directly and the transport is bypassed).
    DeliverFrame {
        /// Sending site.
        from: SiteId,
        /// Receiving site.
        to: SiteId,
        /// The frame (boxed: frames are much larger than the other
        /// variants and would bloat every queued event).
        frame: Box<Frame>,
        /// Post-warm-up attribution of the wrapped message, if any.
        measured: bool,
        /// When the frame entered the channel.
        sent_at: SimTime,
    },
    /// A retransmission timer fires: if `seq` on the `from → to` channel is
    /// still unacked in epoch `epoch`, resend it with backoff.
    RetransmitCheck {
        /// Sending site that armed the timer.
        from: SiteId,
        /// Receiving site of the guarded channel.
        to: SiteId,
        /// Channel epoch the timer was armed in.
        epoch: u32,
        /// Guarded sequence number.
        seq: u64,
        /// Retransmission attempt count (drives exponential backoff).
        attempt: u32,
    },
    /// `site` fail-stops, losing all volatile state.
    Crash {
        /// The crashing site.
        site: SiteId,
    },
    /// `site` restarts from its durable ledger and begins the sync
    /// handshake.
    Recover {
        /// The recovering site.
        site: SiteId,
    },
    /// The fetch deadline of `site`'s outstanding remote read expires: if
    /// the read is still blocked on attempt `attempt`, fail over to the
    /// next candidate replica (or abandon the read as degraded).
    FetchDeadline {
        /// The fetching site.
        site: SiteId,
        /// The fetched variable (guards against a stale timer after the
        /// read completed and another began).
        var: VarId,
        /// Failover attempt the timer was armed for.
        attempt: u32,
    },
    /// The sync deadline of `site`'s recovery (incarnation `inc`) expires:
    /// if the site is still collecting `SyncResp`s, finish recovery in
    /// degraded mode with whatever arrived (correlated crashes can leave an
    /// expected responder dead past our whole sync window).
    SyncTimeout {
        /// The recovering site.
        site: SiteId,
        /// Incarnation the timer was armed for.
        inc: u32,
    },
    /// Periodic durability tick: checkpoint every live site's protocol
    /// state into its durable store and truncate its WAL.
    CheckpointTick,
    /// Periodic causal-stability tick: heartbeat-gossip delivery watermarks
    /// between live sites, advance the stable frontier, and garbage-collect
    /// everything behind it (KS logs, `LastWriteOn` slots, WAL segments).
    StabilityTick,
    /// Churn event `idx` of the run's plan reaches its scheduled time: the
    /// view change is proposed and the system starts quiescing (new
    /// operations hold, in-flight deliveries drain).
    ViewPropose {
        /// Index into the churn plan's event list.
        idx: usize,
    },
    /// Periodic poll while view change `idx` quiesces: install the view
    /// once the wire is drained, or force the install at the view deadline.
    ViewQuiesceCheck {
        /// Index into the churn plan's event list.
        idx: usize,
    },
    /// The batching window of sender `from`'s lane toward `to` expires:
    /// flush the lane as one batch frame, unless `epoch` is stale (the lane
    /// already flushed on a count/byte trigger and the timer outlived it).
    BatchFlush {
        /// The sender whose lane flushes.
        from: SiteId,
        /// The destination the lane feeds.
        to: SiteId,
        /// Lane epoch the timer was armed in.
        epoch: u64,
    },
}

/// A deterministic event heap ordered by `(time, insertion sequence)`.
///
/// The heap sifts 24-byte keys; the events themselves sit still in a slab
/// until popped.
#[derive(Default)]
pub struct EventHeap {
    /// `BinaryHeap` is a max-heap: `Reverse` makes the earliest `(at, seq)`
    /// pop first, and `seq` breaks ties in insertion order. The last field
    /// is the event's slot in `slab` (never compared: `seq` is unique).
    heap: BinaryHeap<(Reverse<SimTime>, Reverse<u64>, u32)>,
    slab: Vec<Option<SimEvent>>,
    /// Vacant `slab` slots.
    free: Vec<u32>,
    seq: u64,
    now: SimTime,
}

impl EventHeap {
    /// An empty heap at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` at absolute time `at`. Scheduling in the past is a
    /// logic error.
    pub fn push(&mut self, at: SimTime, ev: SimEvent) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("under 2^32 queued events")
        });
        self.slab[slot as usize] = Some(ev);
        self.heap.push((Reverse(at), Reverse(self.seq), slot));
        self.seq += 1;
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, SimEvent)> {
        let (Reverse(at), _, slot) = self.heap.pop()?;
        debug_assert!(at >= self.now, "clock must be monotone");
        self.now = at;
        let ev = self.slab[slot as usize]
            .take()
            .expect("a key names a full slot");
        self.free.push(slot);
        Some((at, ev))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Iterate over the queued events in unspecified order. Used by the
    /// membership layer's quiescence scan ("is any data frame still in
    /// flight?"), which only needs existence, not ordering.
    pub fn events(&self) -> impl Iterator<Item = &SimEvent> + '_ {
        self.slab.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(site: u16) -> SimEvent {
        SimEvent::OpReady { site: SiteId(site) }
    }

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.push(SimTime::from_millis(30), op(3));
        h.push(SimTime::from_millis(10), op(1));
        h.push(SimTime::from_millis(20), op(2));
        let order: Vec<u64> = std::iter::from_fn(|| h.pop().map(|(t, _)| t.as_millis())).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut h = EventHeap::new();
        let t = SimTime::from_millis(5);
        h.push(t, op(0));
        h.push(t, op(1));
        h.push(t, op(2));
        let sites: Vec<u16> = std::iter::from_fn(|| {
            h.pop().map(|(_, e)| match e {
                SimEvent::OpReady { site } => site.0,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(sites, vec![0, 1, 2]);
    }

    #[test]
    fn events_iterates_everything_queued_without_draining() {
        let mut h = EventHeap::new();
        h.push(SimTime::from_millis(3), op(0));
        h.push(SimTime::from_millis(1), op(1));
        h.push(SimTime::from_millis(2), SimEvent::ViewPropose { idx: 7 });
        let mut sites = 0;
        let mut proposals = 0;
        for ev in h.events() {
            match ev {
                SimEvent::OpReady { .. } => sites += 1,
                SimEvent::ViewPropose { idx } => {
                    assert_eq!(*idx, 7);
                    proposals += 1;
                }
                _ => unreachable!(),
            }
        }
        assert_eq!((sites, proposals), (2, 1));
        assert_eq!(h.len(), 3, "the scan must not consume events");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut h = EventHeap::new();
        assert_eq!(h.now(), SimTime::ZERO);
        h.push(SimTime::from_millis(7), op(0));
        h.pop();
        assert_eq!(h.now(), SimTime::from_millis(7));
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
    }
}

#[cfg(test)]
mod size_regression {
    use super::*;

    /// A queued event is written into the [`EventHeap`]'s slab once and read
    /// out once (the heap sifts keys, not events), and is passed by value
    /// between the kernel and the simulator on either side of that, so
    /// `SimEvent` should stay a few cache lines at most. The dominant
    /// variant is `Deliver`, whose inline `Msg` is a couple of words because
    /// the piggybacked clocks/logs sit behind `Arc`s; boxing it (as
    /// `DeliverFrame` does with the much larger `Frame`) would add a heap
    /// allocation per delivered message on the hot path. If this grows,
    /// find what fattened `Msg` — or box the new payload.
    #[test]
    fn sim_event_stays_small() {
        let sz = std::mem::size_of::<SimEvent>();
        assert!(sz <= 96, "SimEvent grew to {sz} bytes; re-evaluate boxing");
        let msg = std::mem::size_of::<causal_proto::Msg>();
        assert!(
            msg <= 80,
            "Msg grew to {msg} bytes; piggybacks must stay Arc-shared"
        );
    }
}
