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

/// Low bits of a heap key that name the event's slab slot: up to 2^24
/// events queued at once (a paper-scale run peaks at a few hundred).
const SLOT_BITS: u32 = 24;
/// Bits of the insertion sequence above the slot: 2^40 pushes per run.
const SEQ_BITS: u32 = 64 - SLOT_BITS;

/// The heap key of the `seq`-th event pushed, due at `at` and held in slab
/// slot `slot`: `at` in the high word, then `seq`, then `slot`, so one
/// `u128` comparison orders by `(at, seq)` and `slot` (below a unique
/// `seq`) never decides. Panics past either bound, in every build.
fn pack(at: SimTime, seq: u64, slot: u32) -> u128 {
    assert!(
        seq < 1 << SEQ_BITS,
        "under 2^{SEQ_BITS} events pushed per run"
    );
    assert!(slot < 1 << SLOT_BITS, "under 2^{SLOT_BITS} queued events");
    u128::from(at.as_nanos()) << 64 | u128::from(seq << SLOT_BITS | u64::from(slot))
}

/// The due time and slab slot of a key [`pack`] built.
fn unpack(key: u128) -> (SimTime, u32) {
    let slot = key as u32 & ((1 << SLOT_BITS) - 1);
    (SimTime((key >> 64) as u64), slot)
}

/// A deterministic event heap ordered by `(time, insertion sequence)`.
///
/// The heap sifts one packed `u128` key per event (`pack`); the events
/// themselves sit still in a slab until popped.
#[derive(Default)]
pub struct EventHeap {
    /// `BinaryHeap` is a max-heap: `Reverse` makes the smallest key — the
    /// earliest `(at, seq)` — pop first.
    heap: BinaryHeap<Reverse<u128>>,
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
            // Past `u32`, past `pack`'s slot bound too: it panics there.
            u32::try_from(self.slab.len() - 1).unwrap_or(u32::MAX)
        });
        let key = pack(at, self.seq, slot);
        self.slab[slot as usize] = Some(ev);
        self.heap.push(Reverse(key));
        self.seq += 1;
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, SimEvent)> {
        let (at, slot) = unpack(self.heap.pop()?.0);
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
    use causal_types::SimDuration;

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
    fn a_key_packs_the_largest_seq_and_slot_and_orders_by_time_then_seq() {
        let (seq, slot) = ((1u64 << SEQ_BITS) - 1, (1u32 << SLOT_BITS) - 1);
        let at = SimTime(u64::MAX);
        assert_eq!(unpack(pack(at, seq, slot)), (at, slot));
        assert_eq!(unpack(pack(SimTime::ZERO, 0, 0)), (SimTime::ZERO, 0));
        // Time decides first, then seq; the slot never does.
        assert!(pack(SimTime(1), seq, slot) < pack(SimTime(2), 0, 0));
        assert!(pack(SimTime(5), 3, slot) < pack(SimTime(5), 4, 0));
    }

    #[test]
    #[should_panic(expected = "events pushed per run")]
    fn a_seq_one_past_the_bound_panics() {
        pack(SimTime::ZERO, 1 << SEQ_BITS, 0);
    }

    #[test]
    #[should_panic(expected = "queued events")]
    fn a_slot_one_past_the_bound_panics() {
        pack(SimTime::ZERO, 0, 1 << SLOT_BITS);
    }

    /// The heap this one replaced: tuple keys, compared field by field.
    #[derive(Default)]
    struct TupleHeap {
        heap: BinaryHeap<(Reverse<SimTime>, Reverse<u64>, usize)>,
        seq: u64,
    }

    impl TupleHeap {
        fn push(&mut self, at: SimTime, id: usize) {
            self.heap.push((Reverse(at), Reverse(self.seq), id));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, usize)> {
            self.heap.pop().map(|(Reverse(at), _, id)| (at, id))
        }
    }

    proptest::proptest! {
        /// Random interleavings of pushes (`0..4`: that many nanoseconds
        /// from now, so many timestamps tie) and pops (`4`) pop the same
        /// `(at, event)` sequence as the tuple heap.
        #[test]
        fn prop_pops_in_the_tuple_heaps_order(
            ops in proptest::collection::vec(0u64..5, 0..300),
        ) {
            let (mut packed, mut oracle) = (EventHeap::new(), TupleHeap::default());
            let pop = |h: &mut EventHeap| {
                h.pop().map(|(at, ev)| match ev {
                    SimEvent::ViewPropose { idx } => (at, idx),
                    _ => unreachable!(),
                })
            };
            for (idx, op) in ops.iter().enumerate() {
                if *op == 4 {
                    proptest::prop_assert_eq!(pop(&mut packed), oracle.pop());
                } else {
                    let at = packed.now() + SimDuration::from_nanos(*op);
                    packed.push(at, SimEvent::ViewPropose { idx });
                    oracle.push(at, idx);
                }
            }
            while let Some(want) = oracle.pop() {
                proptest::prop_assert_eq!(pop(&mut packed), Some(want));
            }
            proptest::prop_assert!(packed.is_empty());
        }
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
