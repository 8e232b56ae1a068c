//! Shared buffering machinery for the activation predicate.
//!
//! When an SM arrives and its activation predicate is false, the paper's
//! system model parks it ("a new thread will be invoked to determine when to
//! locally apply the update access ... halted until the activation predicate
//! A becomes true"). We model the parked threads as per-sender FIFO queues:
//!
//! * per-sender FIFO is required for correctness — multicasts from one
//!   sender reach a destination in write-clock order over FIFO channels, and
//!   the protocols rely on applying them in that order;
//! * only queue *heads* are predicate candidates; applying one update can
//!   enable others, so the drain loop iterates to a fixpoint;
//! * an arrival whose predicate already holds while nothing is parked is
//!   that loop's only candidate, so [`PendingQueues::offer`] applies it
//!   without queueing it.

use causal_types::{SiteId, VarId};
use std::collections::VecDeque;

/// A protocol-level trace event: what the activation predicate and log
/// maintenance decided, with enough identity to explain *why*. The driver
/// drains these via `ProtocolSite::take_trace` and maps them onto its own
/// trace stream (protocols have no access to simulated time, so events are
/// timestamped at drain).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoTraceEvent {
    /// An arriving update failed the activation predicate and was parked:
    /// the write `(origin, clock)` on `var` waits for `dep_site` to reach
    /// `dep_clock` (the first unsatisfied dependency found).
    Buffered {
        /// The parked write's origin site.
        origin: SiteId,
        /// The parked write's clock at its origin.
        clock: u64,
        /// Variable the parked write targets.
        var: VarId,
        /// Origin of the first unsatisfied dependency.
        dep_site: SiteId,
        /// Required clock (or per-site write count) from `dep_site`.
        dep_clock: u64,
    },
    /// Opt-Track log maintenance pruned entries (conditions 1/2 + PURGE).
    LogPruned {
        /// Entries removed.
        removed: usize,
        /// Entries remaining afterwards.
        remaining: usize,
    },
}

/// A tiny opt-in event buffer each protocol embeds. Disabled (and
/// allocation-free) by default; the driver switches it on per run.
#[derive(Clone, Debug, Default)]
pub struct ProtoTrace {
    buf: Option<Vec<ProtoTraceEvent>>,
}

impl ProtoTrace {
    /// Whether events should be recorded.
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Turn recording on or off (off discards anything buffered).
    pub fn set_enabled(&mut self, on: bool) {
        if on {
            if self.buf.is_none() {
                self.buf = Some(Vec::new());
            }
        } else {
            self.buf = None;
        }
    }

    /// Record one event (no-op when disabled).
    pub fn emit(&mut self, ev: ProtoTraceEvent) {
        if let Some(buf) = &mut self.buf {
            buf.push(ev);
        }
    }

    /// Drain everything recorded since the last take.
    pub fn take(&mut self) -> Vec<ProtoTraceEvent> {
        match &mut self.buf {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }
}

/// Per-sender FIFO queues of parked updates of type `M`.
#[derive(Clone, Debug)]
pub struct PendingQueues<M> {
    queues: Vec<VecDeque<M>>,
    /// Σ queue lengths, kept by [`push`](Self::push), the pop inside
    /// [`drain`](Self::drain) and [`clear_sender`](Self::clear_sender).
    parked: usize,
}

impl<M> PendingQueues<M> {
    /// Empty queues for an `n`-site system.
    pub fn new(n: usize) -> Self {
        PendingQueues {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            parked: 0,
        }
    }

    /// Park an update from `sender`.
    pub fn push(&mut self, sender: SiteId, m: M) {
        self.queues[sender.index()].push_back(m);
        self.parked += 1;
    }

    /// Total parked updates.
    pub fn len(&self) -> usize {
        debug_assert_eq!(
            self.parked,
            self.queues.iter().map(VecDeque::len).sum::<usize>(),
            "parked counter drifted"
        );
        self.parked
    }

    /// `true` when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.parked == 0
    }

    /// Discard everything parked from `sender`, returning the count.
    ///
    /// Used when `sender` crashes with state loss: its parked updates are
    /// counted as received by the recovery fast-forward, so leaving them
    /// queued would double-apply them (crash recovery; see
    /// `ProtocolSite::note_peer_recovery`).
    pub fn clear_sender(&mut self, sender: SiteId) -> usize {
        let q = &mut self.queues[sender.index()];
        let dropped = q.len();
        q.clear();
        self.parked -= dropped;
        dropped
    }

    /// Deliver `m` from `sender`, whose activation predicate the caller
    /// evaluated at receipt as `ready_now`. With nothing parked, a ready
    /// arrival is the drain's only candidate, so it applies on the spot;
    /// otherwise it parks behind its sender's queue and the heads drain as
    /// ever. A ready arrival still parks when anything else is parked, and
    /// a blocked one still drains: the paths that move the predicate's
    /// inputs without draining (sync install, ledger restore) can leave a
    /// ready head behind, and that head applies in scan order, before or
    /// after the arrival exactly as its sender index says.
    ///
    /// Returns the number of updates applied.
    pub fn offer<S, R, A>(
        &mut self,
        state: &mut S,
        sender: SiteId,
        m: M,
        ready_now: bool,
        ready: R,
        mut apply: A,
    ) -> usize
    where
        R: FnMut(&S, SiteId, &M) -> bool,
        A: FnMut(&mut S, SiteId, M),
    {
        if ready_now && self.parked == 0 {
            apply(state, sender, m);
            return 1;
        }
        self.push(sender, m);
        self.drain(state, ready, apply)
    }

    /// Repeatedly scan queue heads, applying every update whose predicate
    /// holds, until a full pass makes no progress. `ready` decides the
    /// activation predicate for a head from a given sender; `apply` performs
    /// the application (and thereby can enable further heads).
    ///
    /// Returns the number of updates applied.
    pub fn drain<S, R, A>(&mut self, state: &mut S, mut ready: R, mut apply: A) -> usize
    where
        R: FnMut(&S, SiteId, &M) -> bool,
        A: FnMut(&mut S, SiteId, M),
    {
        let mut applied = 0;
        while self.parked > 0 {
            let before = applied;
            for (qi, queue) in self.queues.iter_mut().enumerate() {
                let sender = SiteId::from(qi);
                while queue.front().is_some_and(|head| ready(state, sender, head)) {
                    let m = queue.pop_front().expect("head exists");
                    self.parked -= 1;
                    apply(state, sender, m);
                    applied += 1;
                }
            }
            if applied == before {
                break;
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trace_buffer_is_opt_in() {
        let mut t = ProtoTrace::default();
        assert!(!t.enabled());
        t.emit(ProtoTraceEvent::LogPruned {
            removed: 1,
            remaining: 0,
        });
        assert!(t.take().is_empty(), "disabled trace records nothing");

        t.set_enabled(true);
        t.emit(ProtoTraceEvent::Buffered {
            origin: SiteId(1),
            clock: 3,
            var: VarId(0),
            dep_site: SiteId(0),
            dep_clock: 2,
        });
        let evs = t.take();
        assert_eq!(evs.len(), 1);
        assert!(t.take().is_empty(), "take drains");
        assert!(t.enabled(), "take keeps recording on");

        t.emit(ProtoTraceEvent::LogPruned {
            removed: 2,
            remaining: 5,
        });
        t.set_enabled(false);
        assert!(t.take().is_empty(), "disabling discards the buffer");
    }

    #[test]
    fn drains_in_fifo_order_per_sender() {
        let mut q: PendingQueues<u32> = PendingQueues::new(2);
        q.push(SiteId(0), 1);
        q.push(SiteId(0), 2);
        q.push(SiteId(1), 10);
        let mut applied: Vec<(u16, u32)> = vec![];
        let n = q.drain(&mut applied, |_, _, _| true, |out, s, m| out.push((s.0, m)));
        assert_eq!(n, 3);
        // Sender 0's messages stay in order.
        let s0: Vec<u32> = applied
            .iter()
            .filter(|(s, _)| *s == 0)
            .map(|&(_, m)| m)
            .collect();
        assert_eq!(s0, vec![1, 2]);
    }

    #[test]
    fn blocked_head_blocks_successors_from_same_sender() {
        let mut q: PendingQueues<u32> = PendingQueues::new(1);
        q.push(SiteId(0), 5); // never ready
        q.push(SiteId(0), 6); // would be ready, but behind 5
        let mut applied: Vec<u32> = vec![];
        let n = q.drain(&mut applied, |_, _, &m| m == 6, |out, _, m| out.push(m));
        assert_eq!(n, 0);
        assert!(applied.is_empty());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn applying_one_update_can_unblock_another_sender() {
        // Sender 0's head enables sender 1's head through shared state.
        let mut q: PendingQueues<u32> = PendingQueues::new(2);
        q.push(SiteId(0), 1);
        q.push(SiteId(1), 2);
        let mut state = 0u32; // the "applied so far" witness
        let n = q.drain(
            &mut state,
            |s, _, &m| m == *s + 1, // m applies only right after m-1
            |s, _, m| *s = m,
        );
        assert_eq!(n, 2);
        assert_eq!(state, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn len_counts_across_senders() {
        let mut q: PendingQueues<()> = PendingQueues::new(3);
        assert!(q.is_empty());
        q.push(SiteId(0), ());
        q.push(SiteId(2), ());
        assert_eq!(q.len(), 2);
    }

    /// The queues as they were before the offer path: every delivery is a
    /// `push` followed by this full-scan `drain`, and `len` sums the
    /// queues. Kept as the executable specification [`PendingQueues`] is
    /// compared against.
    struct FullScan<M> {
        queues: Vec<VecDeque<M>>,
    }

    impl<M> FullScan<M> {
        fn push(&mut self, sender: SiteId, m: M) {
            self.queues[sender.index()].push_back(m);
        }

        fn len(&self) -> usize {
            self.queues.iter().map(|q| q.len()).sum()
        }

        fn clear_sender(&mut self, sender: SiteId) -> usize {
            let q = &mut self.queues[sender.index()];
            let dropped = q.len();
            q.clear();
            dropped
        }

        fn drain<S, R, A>(&mut self, state: &mut S, mut ready: R, mut apply: A) -> usize
        where
            R: FnMut(&S, SiteId, &M) -> bool,
            A: FnMut(&mut S, SiteId, M),
        {
            let n = self.queues.len();
            let mut applied = 0;
            loop {
                let mut progressed = false;
                for qi in 0..n {
                    let sender = SiteId::from(qi);
                    while let Some(head) = self.queues[qi].front() {
                        if ready(state, sender, head) {
                            let m = self.queues[qi].pop_front().expect("head exists");
                            apply(state, sender, m);
                            applied += 1;
                            progressed = true;
                        } else {
                            break;
                        }
                    }
                }
                if !progressed {
                    return applied;
                }
            }
        }
    }

    /// An update that may apply once `applied[site] >= count` for each of
    /// its `deps`; `seq` is its position in its sender's stream.
    #[derive(Clone, Debug, PartialEq)]
    struct Upd {
        seq: u64,
        deps: Vec<(usize, u64)>,
    }

    /// What the predicate reads and an apply moves: updates applied per
    /// sender, and the apply order.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Applied {
        count: Vec<u64>,
        order: Vec<(usize, u64)>,
    }

    fn upd_ready(st: &Applied, _: SiteId, m: &Upd) -> bool {
        m.deps.iter().all(|&(site, count)| st.count[site] >= count)
    }

    fn upd_apply(st: &mut Applied, sender: SiteId, m: Upd) {
        st.count[sender.index()] += 1;
        st.order.push((sender.index(), m.seq));
    }

    #[derive(Clone, Debug)]
    enum Step {
        /// The next update of `sender` arrives needing `deps`.
        Arrive {
            sender: usize,
            deps: Vec<(usize, u64)>,
        },
        /// `applied[site]` moves with no drain after it: what a sync
        /// install or a ledger restore does to the predicate's inputs.
        Advance { site: usize, by: u64 },
        /// A drain with no arrival: the own-write and fast-forward path.
        Drain,
        /// Everything parked from `sender` is dropped.
        Clear { sender: usize },
    }

    /// Run `steps` through the offer path and through push + full-scan
    /// drain side by side; after every step the return count, the apply
    /// order, the queues and the parked counter must agree. Returns the
    /// apply order.
    fn run_both(n: usize, steps: &[Step]) -> Vec<(usize, u64)> {
        let mut new: PendingQueues<Upd> = PendingQueues::new(n);
        let mut old = FullScan {
            queues: vec![VecDeque::new(); n],
        };
        let fresh = Applied {
            count: vec![0; n],
            order: Vec::new(),
        };
        let (mut st_new, mut st_old) = (fresh.clone(), fresh);
        let mut sent = vec![0u64; n];
        for (i, step) in steps.iter().enumerate() {
            let (got, want) = match step {
                Step::Arrive { sender, deps } => {
                    sent[*sender] += 1;
                    let (seq, deps) = (sent[*sender], deps.clone());
                    let (m, from) = (Upd { seq, deps }, SiteId::from(*sender));
                    let ready_now = upd_ready(&st_new, from, &m);
                    old.push(from, m.clone());
                    (
                        new.offer(&mut st_new, from, m, ready_now, upd_ready, upd_apply),
                        old.drain(&mut st_old, upd_ready, upd_apply),
                    )
                }
                Step::Advance { site, by } => {
                    st_new.count[*site] += by;
                    st_old.count[*site] += by;
                    (0, 0)
                }
                Step::Drain => (
                    new.drain(&mut st_new, upd_ready, upd_apply),
                    old.drain(&mut st_old, upd_ready, upd_apply),
                ),
                Step::Clear { sender } => (
                    new.clear_sender(SiteId::from(*sender)),
                    old.clear_sender(SiteId::from(*sender)),
                ),
            };
            assert_eq!(got, want, "count returned by step {i} {step:?}");
            assert_eq!(st_new, st_old, "applies after step {i} {step:?}");
            assert_eq!(new.queues, old.queues, "queues after step {i} {step:?}");
            assert_eq!(new.len(), old.len(), "parked counter after step {i}");
            assert_eq!(new.is_empty(), old.len() == 0);
        }
        st_new.order
    }

    fn arrive(sender: usize, deps: &[(usize, u64)]) -> Step {
        let deps = deps.to_vec();
        Step::Arrive { sender, deps }
    }

    #[test]
    fn a_ready_arrival_applies_alone_while_other_heads_stay_parked() {
        let order = run_both(
            3,
            &[
                arrive(0, &[(2, 5)]), // parks for good
                arrive(1, &[]),       // ready, with sender 0's head parked
                arrive(2, &[(0, 1)]), // parks behind sender 0
                arrive(1, &[(1, 1)]), // ready again
            ],
        );
        assert_eq!(order, [(1, 1), (1, 2)]);
    }

    #[test]
    fn an_arrival_releases_heads_below_and_above_its_sender() {
        let order = run_both(
            3,
            &[
                arrive(0, &[(1, 1)]),
                arrive(2, &[(1, 1)]),
                arrive(2, &[(0, 1)]),
                arrive(1, &[]),
            ],
        );
        // The scan starts at sender 0 whoever arrived. Nothing is ready
        // until the arrival applies, so the first pass takes it and sender
        // 2's head; the second takes sender 0's and what that releases.
        assert_eq!(order, [(1, 1), (2, 1), (0, 1), (2, 2)]);
    }

    #[test]
    fn a_head_made_ready_without_a_drain_applies_in_scan_order_at_the_next_arrival() {
        let parked_then_advanced = [
            arrive(0, &[(1, 3)]),
            arrive(2, &[(1, 3)]),
            Step::Advance { site: 1, by: 3 },
        ];
        // A ready arrival from the middle sender does not jump the ready
        // head below it...
        let mut steps = parked_then_advanced.to_vec();
        steps.push(arrive(1, &[]));
        assert_eq!(run_both(3, &steps), [(0, 1), (1, 1), (2, 1)]);
        // ...and an arrival that stays blocked still drains the others.
        let mut steps = parked_then_advanced.to_vec();
        steps.push(arrive(1, &[(2, 9)]));
        assert_eq!(run_both(3, &steps), [(0, 1), (2, 1)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The offer path is push + full-scan drain, step for step, on
        /// arbitrary schedules. A dependency is drawn relative to what is
        /// applied when its update arrives: already met, met by the next
        /// apply of that sender, or one further out.
        #[test]
        fn offer_is_push_then_full_scan_drain(
            n in 1usize..6,
            picks in proptest::collection::vec(
                (
                    0u8..16,
                    0usize..6,
                    proptest::collection::vec((0usize..6, 0u64..4), 0..3),
                ),
                1..60,
            ),
        ) {
            // Mirror of `run_both`'s applied counts, to draw dependencies
            // from: only arrivals that apply at once are counted, which is
            // close enough to keep every distance in play.
            let mut steps = Vec::new();
            let mut seen = vec![0u64; n];
            for (kind, site, deps) in picks {
                let site = site % n;
                steps.push(match kind {
                    0 => Step::Advance { site, by: 1 },
                    1 => Step::Drain,
                    2 => Step::Clear { sender: site },
                    _ => {
                        let deps: Vec<_> = deps
                            .into_iter()
                            .map(|(on, ahead)| (on % n, (seen[on % n] + ahead).saturating_sub(1)))
                            .collect();
                        if deps.iter().all(|&(on, count)| seen[on] >= count) {
                            seen[site] += 1;
                        }
                        Step::Arrive { sender: site, deps }
                    }
                });
            }
            run_both(n, &steps);
        }
    }
}
