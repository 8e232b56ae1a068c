//! One site of the live deployment, as a poll-driven harness around a
//! [`SiteDriver`].
//!
//! The driver owns the site's ordering state — protocol state machine,
//! per-destination lanes, the parked RemoteFetch (DESIGN.md, "Driver and
//! harnesses"). A [`Node`] adds what is real about this deployment: the
//! wall clock, the transport that feeds its worker's inbox and carries its
//! sends, the recorded history and metrics, and an [`OpDriver`] that
//! decides *when the next operation happens* — either replaying a
//! pre-generated workload schedule (so a simulator run with the same seed
//! predicts this node's traffic message for message) or running the
//! closed-loop clients of the `serve` load generator.
//!
//! The sharded scheduler in [`crate::runner`] multiplexes K sites onto
//! each worker, calling `Node::on_wire` for every frame the worker's inbox
//! held for the site and `Node::poll` to issue due operations; a node must
//! therefore never block. While the driver's fetch slot is occupied the
//! site issues no new operations (one sequential process, exactly the
//! paper's model) but keeps serving incoming messages, which is what
//! unblocks the fetch in the first place.
//!
//! Per-frame bookkeeping is the worker's, once per pass: `on_wire` gets
//! the instant its worker took the inbox — the delivery time a fetch's RTT
//! and an update's apply dwell are measured to — and counts the cascade
//! sends it makes, while the worker counts the delivered frames done in
//! one step after the batch. An operation's own latency is stamped
//! exactly, at issue and at completion.
//!
//! Measured-traffic attribution mirrors the simulator exactly: an
//! operation is measured iff its schedule index is past the warm-up
//! window, every frame carries its `measured` bit across the wire, and a
//! server answering a fetch attributes the RM to the *fetcher's* window —
//! that is what makes real-cluster counters comparable against simnet's
//! predictions run for run.

use crate::loadgen::ClosedLoop;
use crate::runner::{locked, Addressed, OwnLine, Quiesce, Routes};
use causal_checker::History;
use causal_clocks::BatchPolicy;
use causal_metrics::RunMetrics;
use causal_proto::{Msg, Output, SiteDriver};
use causal_types::{OpKind, ScheduledOp, SiteId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a node's outgoing messages reach their destination. The node logic
/// is transport-agnostic: in-process runs use [`ChannelTransport`] (the
/// workers' inboxes, nothing in between), the TCP runner in [`crate::tcp`]
/// moves the same frames over multiplexed loopback sockets — the paper's
/// actual transport.
pub trait Transport: Send + Sync {
    /// Deliver one copy of `msg` (tagged with its warm-up attribution)
    /// from `from` to every site in `to` — non-empty, no site twice —
    /// reliably and in FIFO order per ordered pair. A unicast is the
    /// one-destination case. Copies for another worker's sites may sit in
    /// the transport until the sending worker's [`Transport::flush`].
    ///
    /// Returns how many of the destinations are unreachable — those copies
    /// never entered the network. The transport records the failures in
    /// its connection-error counter; the caller counts them done, so
    /// quiescence detection cannot hang on a message that will never
    /// arrive. (A copy the transport loses *after* `send` returned, it
    /// counts done itself.)
    fn send(&self, from: SiteId, to: &[SiteId], msg: &Msg, measured: bool) -> usize;

    /// `worker`'s pass begins: move whatever peers have shipped toward it
    /// into its inbox. Only `worker`'s own thread calls this.
    ///
    /// Returns whether the transport is left *unsettled* — it knows of
    /// work that no wake-up will announce, so the worker must come back
    /// shortly instead of parking until woken. A transport whose
    /// hand-overs land in the inboxes directly has nothing to pump.
    fn pump(&self, _worker: usize) -> bool {
        false
    }

    /// `worker`'s pass is over: ship whatever its sites' sends queued —
    /// once per pass, so no send pays a syscall or a cross-thread wake
    /// inside an operation's latency window. Only `worker`'s own thread
    /// calls this. Returns whether the transport is left unsettled, as
    /// [`Transport::pump`] does.
    fn flush(&self, _worker: usize) -> bool {
        false
    }
}

/// The in-process transport: nothing but the workers' inboxes. A copy for
/// a shard-mate of the sender goes straight into the sending worker's own
/// inbox; a copy for another worker's site is *staged* — per (sending
/// worker → peer worker), in send order — and handed over when the sending
/// worker's pass ends: one lock, one append and one wake per peer and
/// pass, however many frames (the shape [`crate::tcp`] has: queue in
/// `send`, ship in `flush`).
pub struct ChannelTransport {
    routes: Arc<Routes>,
    quiesce: Arc<Quiesce>,
    conn_errors: Arc<AtomicU64>,
    /// `stages[a][b]`: what worker `a`'s sites sent toward worker `b`'s
    /// since `a`'s last flush. Only `a`'s thread locks `stages[a]`.
    stages: Vec<OwnLine<Mutex<Vec<Vec<Addressed>>>>>,
}

impl ChannelTransport {
    /// A channel fabric over `routes`, counting refused copies (the
    /// destination's worker already gone) into `conn_errors`.
    pub(crate) fn new(
        routes: Arc<Routes>,
        quiesce: Arc<Quiesce>,
        conn_errors: Arc<AtomicU64>,
    ) -> Self {
        let w = routes.workers();
        let stage = || OwnLine(Mutex::new((0..w).map(|_| Vec::new()).collect()));
        ChannelTransport {
            stages: (0..w).map(|_| stage()).collect(),
            routes,
            quiesce,
            conn_errors,
        }
    }
}

impl Transport for ChannelTransport {
    fn send(&self, from: SiteId, to: &[SiteId], msg: &Msg, measured: bool) -> usize {
        let wa = self.routes.owner(from.index());
        // One copy per destination: a refcount bump of the piggyback.
        let copy = |d: &SiteId| (*d, Wire::msg(from, msg, measured));
        let owner = |d: &SiteId| self.routes.owner(d.index());
        // Same shard: the worker executing this very send takes the copy
        // with its next pass — no wake.
        let own = to.iter().filter(|d| owner(d) == wa);
        let refused = self.routes.push_own(wa, own.map(copy));
        locked(&self.stages[wa].0, |stage| {
            for d in to.iter().filter(|d| owner(d) != wa) {
                stage[owner(d)].push(copy(d));
            }
        });
        if refused > 0 {
            // A late frame lost the race against shutdown: drop it cleanly
            // instead of poisoning the run.
            self.conn_errors
                .fetch_add(refused as u64, Ordering::Relaxed);
        }
        refused
    }

    fn flush(&self, worker: usize) -> bool {
        locked(&self.stages[worker].0, |stage| {
            for (peer, staged) in stage.iter_mut().enumerate() {
                if staged.is_empty() {
                    continue;
                }
                // `send` has long returned: a copy the peer's closed inbox
                // refuses is counted lost, and done, here.
                let refused = self.routes.hand_over(peer, staged) as u64;
                if refused > 0 {
                    self.conn_errors.fetch_add(refused, Ordering::Relaxed);
                    self.quiesce.frames_done(worker, refused);
                }
            }
        });
        false
    }
}

/// What travels between sites.
pub enum Wire {
    /// A protocol message from a peer.
    Msg {
        /// The sending site.
        from: SiteId,
        /// The payload.
        msg: Msg,
        /// Warm-up attribution of the frame (batch frames additionally
        /// carry a per-update bit inside [`causal_proto::BatchedSm`]).
        measured: bool,
    },
    /// Coordinator broadcast: drain and exit.
    Stop,
}

impl Wire {
    /// A copy of `msg` from `from` (a refcount bump of its piggyback).
    pub(crate) fn msg(from: SiteId, msg: &Msg, measured: bool) -> Wire {
        Wire::Msg {
            from,
            msg: msg.clone(),
            measured,
        }
    }
}

/// What a site hands back to the coordinator when it stops.
pub struct NodeOutcome {
    /// The site's recorded execution fragment (own ops + own applies).
    pub history: History,
    /// Messages this site *sent*, with meta-data byte totals.
    pub metrics: RunMetrics,
    /// Updates still parked at shutdown (must be 0).
    pub final_pending: usize,
}

/// What drives a node's operation stream.
pub enum OpDriver {
    /// Replay a pre-generated schedule at a wall-clock scale — the
    /// simulator's workload, so equal seeds produce identical operation
    /// sequences on both instruments.
    Replay {
        /// The site's pre-generated operations, sorted by issue time.
        schedule: Vec<ScheduledOp>,
        /// Operations at indices `< warmup` are warm-up (unmeasured).
        warmup: usize,
        /// Virtual-to-wall-clock scale (e.g. 0.01 replays a 2 s gap in
        /// 20 ms).
        time_scale: f64,
        /// Next schedule index to issue.
        next: usize,
    },
    /// Closed-loop load-generator clients (see [`crate::loadgen`]); every
    /// operation is measured.
    Closed(ClosedLoop),
}

impl OpDriver {
    /// A replay driver starting at the schedule's beginning.
    pub fn replay(schedule: Vec<ScheduledOp>, warmup: usize, time_scale: f64) -> Self {
        OpDriver::Replay {
            schedule,
            warmup,
            time_scale,
            next: 0,
        }
    }

    /// When the next operation is due, as an offset from the run start;
    /// `None` once the driver is exhausted.
    fn next_due(&self) -> Option<Duration> {
        match self {
            OpDriver::Replay {
                schedule,
                time_scale,
                next,
                ..
            } => schedule.get(*next).map(|op| {
                let virt = op.at.as_nanos() as f64 * time_scale;
                Duration::from_nanos(virt as u64)
            }),
            OpDriver::Closed(loop_) => loop_.next_due(),
        }
    }

    /// Take the due operation. Returns the op, its measured attribution,
    /// and — for closed-loop drivers — the issuing client's index.
    fn pop(&mut self) -> (OpKind, bool, Option<usize>) {
        match self {
            OpDriver::Replay {
                schedule,
                warmup,
                next,
                ..
            } => {
                let op = schedule[*next];
                let measured = *next >= *warmup;
                *next += 1;
                (op.kind, measured, None)
            }
            OpDriver::Closed(loop_) => {
                let (kind, client) = loop_.pop();
                (kind, true, Some(client))
            }
        }
    }

    /// An operation issued by `client` completed at `now_off`; schedule
    /// the client's next operation past its think time.
    fn completed(&mut self, client: usize, now_off: Duration) {
        if let OpDriver::Closed(loop_) = self {
            loop_.completed(client, now_off);
        }
    }
}

/// Wall-clock flush policy for per-destination update batching on the live
/// transports — the runtime counterpart of the simulator's `BatchPlan`.
#[derive(Clone, Copy, Debug)]
pub struct BatchWindow {
    /// The count and byte bounds every lane flushes at.
    pub lanes: BatchPolicy,
    /// Flush a lane this long after its first (oldest) parked update.
    pub window: Duration,
}

impl BatchWindow {
    /// A plan bounded by the flush window and [`BatchPolicy::WINDOWED`],
    /// as the simulator's windowed plan is.
    pub fn windowed(window: Duration) -> Self {
        assert!(window > Duration::ZERO, "flush window must be positive");
        BatchWindow {
            lanes: BatchPolicy::WINDOWED,
            window,
        }
    }
}

/// One site's full state: its driver, operation source, armed lane
/// timers, and the recorded history/metrics. Owned by a scheduler worker
/// and driven through `Node::poll` / `Node::on_wire`.
pub struct Node {
    site: SiteId,
    driver: SiteDriver,
    ops: OpDriver,
    payload_len: u32,
    transport: Arc<dyn Transport>,
    quiesce: Arc<Quiesce>,
    /// The worker that runs this site — whose tallies its frames count on.
    worker: usize,
    /// Lane flush window; `None` when batching is off.
    window: Option<Duration>,
    /// Armed lane timers `(expiry, destination, lane epoch)`; the driver
    /// ignores one whose epoch went stale.
    timers: Vec<(Instant, SiteId, u64)>,
    /// The driver's output buffer and the destination list of the send
    /// being shipped, both reused across steps.
    out: Vec<Output>,
    dsts: Vec<SiteId>,
    history: History,
    metrics: RunMetrics,
    start: Instant,
    /// The read in progress: its closed-loop client, if any, and its issue
    /// instant. Outlives one step only while the driver's fetch slot is
    /// occupied.
    reading: Option<(Option<usize>, Instant)>,
    done_fired: bool,
}

impl Node {
    /// A fresh node around `driver`, whose lanes (if any) flush after
    /// `window`. `start` is the run's shared zero instant (schedule offsets
    /// and client due times are relative to it).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        driver: SiteDriver,
        ops: OpDriver,
        n: usize,
        payload_len: u32,
        transport: Arc<dyn Transport>,
        quiesce: Arc<Quiesce>,
        worker: usize,
        window: Option<Duration>,
        start: Instant,
    ) -> Self {
        Node {
            site: driver.site().site(),
            driver,
            ops,
            payload_len,
            transport,
            quiesce,
            worker,
            window,
            timers: Vec::new(),
            out: Vec::new(),
            dsts: Vec::new(),
            history: History::new(n),
            metrics: RunMetrics::new(),
            start,
            reading: None,
            done_fired: false,
        }
    }

    /// Record how many frames the batch its worker just delivered held for
    /// this site.
    pub(crate) fn note_mailbox_depth(&mut self, depth: usize) {
        self.metrics.mailbox_depth_peak = self.metrics.mailbox_depth_peak.max(depth as u64);
    }

    /// Fire due batch timers and issue every due operation. Returns
    /// whether any work was done and the next instant this node needs a
    /// timed wake-up for (`None` = it is purely message-driven now).
    pub(crate) fn poll(&mut self) -> (bool, Option<Instant>) {
        let mut progressed = self.fire_due_timers();
        loop {
            if self.driver.fetch().is_some() {
                // Parked in the paper's synchronous RemoteFetch: the site
                // is one sequential process, so no new operations until
                // the RM lands — but lane timers stay armed.
                return (progressed, self.next_timer_at());
            }
            match self.ops.next_due() {
                Some(off) => {
                    let due = self.start + off;
                    if due <= Instant::now() {
                        self.issue_next();
                        progressed = true;
                    } else {
                        return (progressed, Some(self.nearest_wake(due)));
                    }
                }
                None => {
                    if !self.done_fired {
                        // Driver exhausted (and no fetch outstanding).
                        // Flush parked lanes *before* reporting
                        // completion: every remaining update must be on
                        // the wire (and counted sent) by the time the
                        // coordinator can observe this site as finished —
                        // cascades never produce new SMs, so lanes stay
                        // empty from here on.
                        self.timers.clear();
                        self.driver.flush_lanes(&mut self.out);
                        self.apply_outputs();
                        self.done_fired = true;
                        progressed = true;
                        self.quiesce.site_finished();
                    }
                    return (progressed, self.next_timer_at());
                }
            }
        }
    }

    /// Feed one inbox frame, taken from the inbox at `taken`. Returns
    /// `false` on `Stop` — the node is done and must be collected with
    /// [`Node::finish`]. A delivered frame's cascade sends are counted sent
    /// here; the worker counts the frame itself done, once per pass for
    /// every frame it delivered.
    pub(crate) fn on_wire(&mut self, wire: Wire, taken: Instant) -> bool {
        match wire {
            Wire::Msg {
                from,
                msg,
                measured,
            } => {
                let now = self.now_ns(taken);
                SiteDriver::unbatch(msg, measured, |msg, measured| {
                    self.deliver(now, from, msg, measured)
                });
                true
            }
            Wire::Stop => {
                // A shutdown racing an outstanding fetch degrades that one
                // read instead of taking the run down.
                if self.driver.abort_fetch().is_some() {
                    self.metrics.degraded_reads += 1;
                }
                false
            }
        }
    }

    /// Surrender the node's recorded outcome.
    pub(crate) fn finish(self) -> NodeOutcome {
        NodeOutcome {
            history: self.history,
            metrics: self.metrics,
            final_pending: self.driver.site().pending_len(),
        }
    }

    /// Driver time: nanoseconds since the run's zero instant.
    fn now_ns(&self, at: Instant) -> u64 {
        (at - self.start).as_nanos() as u64
    }

    /// Issue the due operation. A remote read leaves the driver's fetch
    /// slot occupied instead of blocking the worker.
    fn issue_next(&mut self) {
        let (kind, measured, client) = self.ops.pop();
        let t0 = Instant::now();
        let now = self.now_ns(t0);
        match kind {
            OpKind::Write { var, data } => {
                if measured {
                    self.metrics.record_op(true, false);
                }
                let len = self.payload_len;
                let (wid, _) = self
                    .driver
                    .write(now, var, data, len, measured, &mut self.out);
                self.history.record_write(self.site, wid, var);
                self.apply_outputs();
                self.op_completed(client, t0);
            }
            OpKind::Read { var } => {
                self.reading = Some((client, t0));
                self.driver.read(now, var, measured, &mut self.out);
                self.apply_outputs();
            }
        }
    }

    /// Time a completed operation, and report it back to its closed-loop
    /// client (replay operations have none).
    fn op_completed(&mut self, client: Option<usize>, t0: Instant) {
        // One clock read serves the due-time offset and the latency.
        let now = Instant::now();
        self.metrics
            .op_latency_ns
            .record((now - t0).as_nanos() as f64);
        if let Some(c) = client {
            self.ops.completed(c, now - self.start);
        }
    }

    fn deliver(&mut self, now: u64, from: SiteId, msg: Msg, measured: bool) {
        if !self.driver.accepts(&msg) {
            self.metrics.dup_drops += 1;
            return;
        }
        let d = self
            .driver
            .on_message(now, from, msg, measured, &mut self.out);
        self.apply_outputs();
        self.metrics
            .record_delivery(self.site.index(), d.buffered, d.pending);
    }

    /// Turn what the driver produced into transport sends, armed timers,
    /// metrics and history records, in order.
    fn apply_outputs(&mut self) {
        let me = self.site.index();
        let mut out = std::mem::take(&mut self.out);
        for o in out.drain(..) {
            match o {
                Output::Send {
                    dsts,
                    msg,
                    measured,
                    bytes,
                    saved,
                } => {
                    if let Msg::Batch(b) = &msg {
                        self.metrics.record_batch_flush(b.len() as u64, saved);
                    }
                    // The paper's counters are per logical message,
                    // whatever the transport makes of the list.
                    self.dsts.clear();
                    self.dsts.extend(dsts.iter());
                    let k = self.dsts.len() as u64;
                    self.metrics
                        .record_sends(me, msg.kind(), bytes, measured, k);
                    let entries = &mut self.metrics.sm_entries;
                    msg.sms()
                        .for_each(|sm| entries.record_n(sm.meta.entry_count() as f64, k));
                    // One frame per destination, counted sent before the
                    // transport sees it and done at once for the copies a
                    // dead peer refused (the transport counted those as
                    // connection errors).
                    self.quiesce.frames_sent(self.worker, k);
                    let refused = self.transport.send(self.site, &self.dsts, &msg, measured);
                    if refused > 0 {
                        self.quiesce.frames_done(self.worker, refused as u64);
                    }
                }
                Output::ArmLaneTimer { to, epoch } => {
                    let window = self.window.expect("lanes imply a window");
                    self.timers.push((Instant::now() + window, to, epoch));
                }
                Output::Applied {
                    write, dwell_ns, ..
                } => {
                    self.metrics.record_apply(me, dwell_ns);
                    self.history.record_apply(self.site, write);
                }
                Output::ReadDone {
                    var,
                    value,
                    served_by,
                    rtt_ns,
                    measured,
                } => {
                    let writer = value.map(|v| v.writer);
                    self.history.record_read(self.site, var, writer, served_by);
                    if let Some(rtt_ns) = rtt_ns {
                        self.metrics.record_fetch_rtt(me, rtt_ns as f64);
                    }
                    if measured {
                        self.metrics.record_op(false, rtt_ns.is_some());
                    }
                    let (client, t0) = self.reading.take().expect("a read was in progress");
                    self.op_completed(client, t0);
                }
            }
        }
        self.out = out;
    }

    /// Flush every lane whose window timer has expired. Returns whether
    /// anything left.
    fn fire_due_timers(&mut self) -> bool {
        if self.timers.is_empty() {
            return false;
        }
        let now = Instant::now();
        let mut fired = false;
        while let Some(i) = self.timers.iter().position(|(at, _, _)| *at <= now) {
            let (_, to, epoch) = self.timers.swap_remove(i);
            self.driver.on_lane_timer(to, epoch, &mut self.out);
            fired |= !self.out.is_empty();
            self.apply_outputs();
        }
        fired
    }

    /// The earliest armed batch-window timer.
    fn next_timer_at(&self) -> Option<Instant> {
        self.timers.iter().map(|(at, _, _)| *at).min()
    }

    /// The next instant the scheduler must wake this node at: the due
    /// operation or an earlier batch-window expiry.
    fn nearest_wake(&self, due: Instant) -> Instant {
        self.next_timer_at().map_or(due, |t| t.min(due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_memory::{Placement, PlacementKind};
    use causal_proto::{
        build_site, Effect, Fm, ProtocolConfig, ProtocolKind, Replication, Rm, RmMeta,
    };
    use causal_types::{MsgKind, SimTime, SizeModel, VarId};
    use parking_lot::Mutex;

    /// Swallows every send, remembering destination and kind in order.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<(SiteId, MsgKind)>>);

    impl Transport for Recorder {
        fn send(&self, _: SiteId, to: &[SiteId], msg: &Msg, _: bool) -> usize {
            self.0.lock().extend(to.iter().map(|d| (*d, msg.kind())));
            0
        }
    }

    /// Site 0 of two under `repl`, replaying `schedule` at once.
    fn node0(
        kind: ProtocolKind,
        repl: Arc<dyn Replication>,
        schedule: Vec<ScheduledOp>,
        batch: Option<BatchWindow>,
    ) -> (Node, Arc<Recorder>, Arc<Quiesce>) {
        let wire = Arc::new(Recorder::default());
        let quiesce = Arc::new(Quiesce::new(1, 1));
        let cfg = ProtocolConfig::default();
        let lanes = batch.map(|b| b.lanes);
        let driver = SiteDriver::new(kind, SiteId(0), repl, cfg, SizeModel::default(), lanes);
        let node = Node::new(
            driver,
            OpDriver::replay(schedule, 0, 1.0),
            2,
            0,
            wire.clone(),
            quiesce.clone(),
            0,
            batch.map(|b| b.window),
            Instant::now(),
        );
        (node, wire, quiesce)
    }

    #[test]
    fn an_rm_nobody_is_waiting_for_is_counted_not_delivered() {
        let repl = Arc::new(causal_proto::replication::FullReplication::new(2));
        let (mut node, _, quiesce) = node0(ProtocolKind::FullTrack, repl, Vec::new(), None);
        let stray = Msg::Rm(Rm {
            var: VarId(3),
            value: None,
            meta: RmMeta::FullTrack(None),
        });
        quiesce.frames_sent(0, 1);
        let wire = Wire::Msg {
            from: SiteId(1),
            msg: stray,
            measured: true,
        };
        assert!(
            node.on_wire(wire, Instant::now()),
            "the worker keeps running"
        );
        assert_eq!(
            quiesce.in_flight(),
            1,
            "its worker, not the node, counts the frame done"
        );
        let out = node.finish();
        assert_eq!(out.metrics.dup_drops, 1);
        assert_eq!(out.metrics.per_site.total_buffered(), 0);
    }

    #[test]
    fn with_lanes_on_a_fetch_leaves_at_once_and_the_parked_update_after_it() {
        // x1 lives on site 1 only. Site 0 writes it — the SM parks in the
        // lane toward 1 — then reads it back remotely. The FM carries no
        // metadata and touches no lane (the driver's rule, the same under
        // the simulator), so it overtakes the parked update and the server
        // answers from before the write: an own-write race the checker
        // counts apart from causal violations, more frequent the longer
        // the window. The update itself leaves when its lane drains.
        let repl: Arc<dyn Replication> =
            Arc::new(Placement::new(PlacementKind::Even, 2, 1).expect("valid"));
        let x1 = VarId(1);
        let at = SimTime::ZERO;
        let schedule = vec![
            ScheduledOp {
                at,
                kind: OpKind::Write { var: x1, data: 7 },
            },
            ScheduledOp {
                at,
                kind: OpKind::Read { var: x1 },
            },
        ];
        let window = BatchWindow::windowed(Duration::from_secs(3600));
        let (mut node, wire, quiesce) =
            node0(ProtocolKind::OptTrack, repl.clone(), schedule, Some(window));
        node.poll();
        assert_eq!(*wire.0.lock(), [(SiteId(1), MsgKind::Fm)]);
        let mut server = build_site(
            ProtocolKind::OptTrack,
            SiteId(1),
            repl,
            ProtocolConfig::default(),
        );
        let mut answer = server.on_message(SiteId(0), Msg::Fm(Fm { var: x1 }));
        let Some(Effect::Send { msg, .. }) = answer.pop() else {
            panic!("the server answers the fetch")
        };
        quiesce.frames_sent(0, 1);
        let answer = Wire::Msg {
            from: SiteId(1),
            msg,
            measured: true,
        };
        node.on_wire(answer, Instant::now());
        // The schedule is exhausted: the lane drains before the site
        // reports itself finished.
        node.poll();
        assert_eq!(
            *wire.0.lock(),
            [(SiteId(1), MsgKind::Fm), (SiteId(1), MsgKind::Sm)]
        );
        let out = node.finish();
        assert_eq!(
            out.history.total_ops(),
            2,
            "the write and the read both returned"
        );
        assert_eq!(out.metrics.dup_drops, 0);
    }

    /// A channel fabric of `n` sites over `workers` workers that the test
    /// drives itself, with its refused-copy counter.
    fn channel(n: usize, workers: usize) -> (ChannelTransport, Arc<Routes>, Arc<Quiesce>) {
        let (routes, quiesce) = crate::runner::test_fabric(n, workers);
        let fabric = ChannelTransport::new(routes.clone(), quiesce.clone(), Arc::default());
        (fabric, routes, quiesce)
    }

    fn fm(var: u32) -> Msg {
        Msg::Fm(Fm { var: VarId(var) })
    }

    /// `(destination, variable)` of every FM worker `w`'s inbox holds, in
    /// arrival order.
    fn inbox(routes: &Routes, w: usize) -> Vec<(usize, u32)> {
        let var = |wire| match wire {
            Wire::Msg {
                msg: Msg::Fm(Fm { var }),
                ..
            } => var.0,
            _ => panic!("expected an FM"),
        };
        let taken = routes.taken(w).into_iter();
        taken
            .map(|(site, wire)| (site.index(), var(wire)))
            .collect()
    }

    #[test]
    fn hand_over_keeps_pair_fifo_with_own_shard_and_cross_worker_copies_interleaved() {
        // 4 sites over 2 workers: {0, 2} on worker 0, {1, 3} on worker 1.
        // Site 0 alternates unicasts and a multicast toward its shard-mate
        // and the other worker's sites; every receiver must see its frames
        // in send order whichever way they travelled.
        let (fabric, routes, _) = channel(4, 2);
        let sends: [&[usize]; 5] = [&[1], &[2], &[3, 2, 1], &[2], &[1]];
        for (var, to) in sends.iter().enumerate() {
            let to: Vec<SiteId> = to.iter().map(|d| SiteId::from(*d)).collect();
            assert_eq!(fabric.send(SiteId(0), &to, &fm(var as u32), false), 0);
        }
        assert_eq!(
            inbox(&routes, 0),
            [(2, 1), (2, 2), (2, 3)],
            "own-shard copies arrive with the send"
        );
        assert!(inbox(&routes, 1).is_empty(), "cross-worker copies wait");
        assert!(!fabric.flush(0));
        assert_eq!(inbox(&routes, 1), [(1, 0), (3, 2), (1, 2), (1, 4)]);
        assert!(inbox(&routes, 0).is_empty() && inbox(&routes, 1).is_empty());
    }

    #[test]
    fn hand_over_to_a_closed_inbox_is_refused_at_flush_and_counted_once() {
        let (fabric, routes, quiesce) = channel(2, 2);
        let errors = || fabric.conn_errors.load(Ordering::Relaxed);
        quiesce.frames_sent(0, 3);
        for var in 0..3 {
            // The copy is only staged: `send` cannot know yet.
            assert_eq!(fabric.send(SiteId(0), &[SiteId(1)], &fm(var), false), 0);
        }
        routes.close(1);
        assert_eq!((errors(), quiesce.in_flight()), (0, 3));
        fabric.flush(0);
        assert_eq!((errors(), quiesce.in_flight()), (3, 0), "lost, and done");
        assert!(!routes.take_wake(1, Duration::ZERO), "nobody to wake");
        fabric.flush(0);
        assert_eq!((errors(), quiesce.in_flight()), (3, 0), "once");
        // A worker that has left refuses its own sites' copies at `send`,
        // where the caller counts them done.
        routes.close(0);
        assert_eq!(fabric.send(SiteId(0), &[SiteId(0)], &fm(9), false), 1);
        assert_eq!((errors(), quiesce.in_flight()), (4, 0));
    }

    #[test]
    fn an_idle_hand_over_takes_no_foreign_lock_and_wakes_nobody() {
        // Worker 0 flushes with nothing staged while the test holds both
        // other inboxes' locks: a flush that touched either would never
        // report back.
        let (fabric, routes, _) = channel(3, 3);
        fabric.send(SiteId(0), &[SiteId(0)], &fm(0), false);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            routes.with_inbox_locked(1, || {
                routes.with_inbox_locked(2, || {
                    s.spawn(|| done_tx.send(fabric.flush(0)).expect("the test waits"));
                    let flushed = done_rx.recv_timeout(Duration::from_secs(10));
                    assert_eq!(flushed, Ok(false), "an idle flush waits for nobody");
                })
            })
        });
        assert!((0..3).all(|w| !routes.take_wake(w, Duration::ZERO)));
    }
}
