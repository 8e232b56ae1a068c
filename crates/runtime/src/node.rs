//! One site of the live deployment, as a poll-driven state machine.
//!
//! A [`Node`] is one site: it owns the protocol state machine, a mailbox
//! fed by the transport, and an [`OpDriver`] that decides *when the next
//! operation happens* — either replaying a pre-generated workload schedule
//! (so a simulator run with the same seed predicts this node's traffic
//! message for message) or running the closed-loop clients of the `serve`
//! load generator.
//!
//! Nodes no longer own a thread. The sharded scheduler in
//! [`crate::runner`] multiplexes K sites onto each worker, calling
//! [`Node::on_wire`] for every mailbox frame and [`Node::poll`] to issue
//! due operations; a node must therefore never block. The paper's
//! synchronous RemoteFetch is expressed as a parked [`FetchWait`] state:
//! the site issues no new operations while a fetch is outstanding (one
//! sequential process, exactly the paper's model) but keeps serving
//! incoming messages, which is what unblocks the fetch in the first place.
//!
//! Measured-traffic attribution mirrors the simulator exactly: an
//! operation is measured iff its schedule index is past the warm-up
//! window, every frame carries its `measured` bit across the wire, and a
//! server answering a fetch attributes the RM to the *fetcher's* window —
//! that is what makes real-cluster counters comparable against simnet's
//! predictions run for run.

use crate::loadgen::ClosedLoop;
use crate::runner::{Quiesce, Routes};
use causal_checker::History;
use causal_metrics::RunMetrics;
use causal_multicast::{DestBatcher, Offer};
use causal_proto::{BatchedSm, Effect, Msg, ProtocolSite, ReadResult, Sm, SmBatch};
use causal_types::WriteId;
use causal_types::{MetaSized, OpKind, ScheduledOp, SiteId, SizeModel, VarId, VersionedValue};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a node's outgoing messages reach their destination. The node logic
/// is transport-agnostic: in-process runs use [`ChannelTransport`]
/// (crossbeam channels), the TCP runner in [`crate::tcp`] moves the same
/// frames over multiplexed loopback sockets — the paper's actual
/// transport.
pub trait Transport: Send + Sync {
    /// Deliver one copy of `msg` (tagged with its warm-up attribution)
    /// from `from` to the mailbox of every site in `to` — non-empty, no
    /// site twice — reliably and in FIFO order per ordered pair. A unicast
    /// is the one-destination case.
    ///
    /// Returns how many of the destinations are unreachable — those copies
    /// never entered the network. The transport records the failures in
    /// its connection-error counter; the caller un-counts them from the
    /// in-flight tally so quiescence detection cannot hang on a message
    /// that will never arrive.
    fn send(&self, from: SiteId, to: &[SiteId], msg: &Msg, measured: bool) -> usize;

    /// `from`'s scheduling step is over: start moving whatever its sends
    /// queued. A transport that hands frames to I/O threads kicks them
    /// here, once per step, so no send pays a cross-thread wake.
    fn flush(&self, _from: SiteId) {}
}

/// Crossbeam-channel transport: one unbounded mailbox per site, with the
/// destination's worker woken through the shared routing table.
pub struct ChannelTransport {
    routes: Arc<Routes>,
    conn_errors: Arc<AtomicU64>,
}

impl ChannelTransport {
    /// A channel fabric over `routes`, counting refused sends (peer
    /// mailbox already gone) into `conn_errors`.
    pub(crate) fn new(routes: Arc<Routes>, conn_errors: Arc<AtomicU64>) -> Self {
        ChannelTransport {
            routes,
            conn_errors,
        }
    }
}

impl Transport for ChannelTransport {
    fn send(&self, from: SiteId, to: &[SiteId], msg: &Msg, measured: bool) -> usize {
        // A same-shard destination is drained by the worker executing this
        // very send; only the other workers need a wake.
        let sender = self.routes.owner(from.index());
        let refused = self.routes.fan_out(from, to, msg, measured, Some(sender));
        // A late frame lost the race against shutdown: drop it cleanly
        // instead of poisoning the run.
        self.conn_errors
            .fetch_add(refused as u64, Ordering::Relaxed);
        refused
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

    /// An operation issued by `client` completed after `latency_ns`;
    /// schedule the client's next operation past its think time.
    fn completed(&mut self, client: usize, now_off: Duration, latency_ns: f64) {
        if let OpDriver::Closed(loop_) = self {
            loop_.completed(client, now_off, latency_ns);
        }
    }
}

/// Wall-clock flush policy for per-destination update batching on the live
/// transports — the runtime counterpart of the simulator's `BatchPlan`.
#[derive(Clone, Copy, Debug)]
pub struct BatchWindow {
    /// Flush a lane once it holds this many updates.
    pub max_sms: usize,
    /// Flush a lane once its updates' unbatched wire bytes reach this.
    pub max_bytes: u64,
    /// Flush a lane this long after its first (oldest) parked update.
    pub window: Duration,
}

impl BatchWindow {
    /// A plan bounded by the flush window and a generous update count —
    /// the same defaults the simulator's windowed plan uses.
    pub fn windowed(window: Duration) -> Self {
        assert!(window > Duration::ZERO, "flush window must be positive");
        BatchWindow {
            max_sms: 64,
            max_bytes: u64::MAX,
            window,
        }
    }
}

/// One parked update: the exact message the receiver will eventually see,
/// with the bookkeeping to account for it as if it had been sent alone.
struct PendingSm {
    sm: Sm,
    measured: bool,
    full_bytes: u64,
}

/// A node's batching state: per-destination lanes plus the wall-clock
/// window timers (epoch-tagged, so a timer that fires after its lane
/// already flushed is ignored — exactly the simulator's discipline).
pub struct Lanes {
    batcher: DestBatcher<PendingSm>,
    window: Duration,
    timers: Vec<(Instant, SiteId, u64)>,
}

impl Lanes {
    /// Fresh, empty lanes under `plan`.
    pub fn new(plan: BatchWindow) -> Self {
        Lanes {
            batcher: DestBatcher::new(causal_multicast::BatchPolicy {
                max_items: plan.max_sms,
                max_bytes: plan.max_bytes,
            }),
            window: plan.window,
            timers: Vec::new(),
        }
    }
}

/// Expand a batch frame into its per-update messages (original
/// piggybacks, original order, per-update warm-up attribution); a plain
/// message passes through untouched. The receiving protocol sees exactly
/// the deliveries it would have seen without batching.
fn unbatch(msg: Msg, measured: bool) -> Vec<(Msg, bool)> {
    match msg {
        Msg::Batch(b) => b
            .sms
            .iter()
            .map(|bs| (Msg::Sm(bs.sm.clone()), bs.measured))
            .collect(),
        m => vec![(m, measured)],
    }
}

/// The paper's synchronous RemoteFetch, parked: the FM is on the wire and
/// the site issues nothing new until the RM's `FetchDone` lands.
struct FetchWait {
    /// The variable being fetched (sanity-checked against `FetchDone`).
    var: VarId,
    /// The replica serving the fetch (the read is recorded against it).
    target: SiteId,
    /// Warm-up attribution of the read operation.
    measured: bool,
    /// Issuing closed-loop client, if any.
    client: Option<usize>,
    /// Operation issue instant (client completion latency).
    t0: Instant,
    /// FM send instant (fetch RTT).
    issued: Instant,
}

/// One site's full state: protocol instance, driver, batching lanes, and
/// the recorded history/metrics. Owned by a scheduler worker and driven
/// through [`Node::poll`] / [`Node::on_wire`].
pub struct Node {
    site: SiteId,
    proto: Box<dyn ProtocolSite>,
    driver: OpDriver,
    payload_len: u32,
    transport: Arc<dyn Transport>,
    quiesce: Arc<Quiesce>,
    size_model: SizeModel,
    batch: Option<Lanes>,
    receipt: HashMap<WriteId, Instant>,
    history: History,
    metrics: RunMetrics,
    start: Instant,
    fetch: Option<FetchWait>,
    done_fired: bool,
    /// Sends were handed to the transport since its last flush.
    unflushed: bool,
}

impl Node {
    /// A fresh node. `start` is the run's shared zero instant (schedule
    /// offsets and client due times are relative to it).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        site: SiteId,
        proto: Box<dyn ProtocolSite>,
        driver: OpDriver,
        n: usize,
        payload_len: u32,
        transport: Arc<dyn Transport>,
        quiesce: Arc<Quiesce>,
        size_model: SizeModel,
        batch: Option<BatchWindow>,
        start: Instant,
    ) -> Self {
        Node {
            site,
            proto,
            driver,
            payload_len,
            transport,
            quiesce,
            size_model,
            batch: batch.map(Lanes::new),
            receipt: HashMap::new(),
            history: History::new(n),
            metrics: RunMetrics::new(),
            start,
            fetch: None,
            done_fired: false,
            unflushed: false,
        }
    }

    /// Record the mailbox backlog the scheduler found when it picked this
    /// site up.
    pub(crate) fn note_mailbox_depth(&mut self, depth: usize) {
        self.metrics.mailbox_depth_peak = self.metrics.mailbox_depth_peak.max(depth as u64);
    }

    /// Fire due batch timers and issue every due operation. Returns
    /// whether any work was done and the next instant this node needs a
    /// timed wake-up for (`None` = it is purely message-driven now).
    pub(crate) fn poll(&mut self) -> (bool, Option<Instant>) {
        let mut progressed = self.fire_due_timers();
        self.flush_sends();
        loop {
            if self.fetch.is_some() {
                // Parked in the paper's synchronous RemoteFetch: the site
                // is one sequential process, so no new operations until
                // the RM lands — but lane timers stay armed.
                return (progressed, self.next_timer_at());
            }
            match self.driver.next_due() {
                Some(off) => {
                    let due = self.start + off;
                    if due <= Instant::now() {
                        self.issue_next();
                        self.flush_sends();
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
                        // the wire (and in the in-flight tally) by the
                        // time the coordinator can observe this site as
                        // finished — cascades never produce new SMs, so
                        // lanes stay empty from here on.
                        self.flush_all_lanes();
                        self.flush_sends();
                        self.done_fired = true;
                        progressed = true;
                        self.quiesce.site_finished();
                    }
                    return (progressed, self.next_timer_at());
                }
            }
        }
    }

    /// Feed one mailbox frame. Returns `false` on `Stop` — the node is
    /// done and must be collected with [`Node::finish`].
    pub(crate) fn on_wire(&mut self, wire: Wire) -> bool {
        match wire {
            Wire::Msg {
                from,
                msg,
                measured,
            } => {
                self.deliver(from, msg, measured);
                self.flush_sends();
                true
            }
            Wire::Stop => {
                if self.fetch.take().is_some() {
                    // The old runtime panicked here and took the whole run
                    // down; a racing shutdown now degrades this one read.
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
            final_pending: self.proto.pending_len(),
        }
    }

    /// Issue the driver's due operation. A remote read parks the node in
    /// [`FetchWait`] instead of blocking the worker.
    fn issue_next(&mut self) {
        let (kind, measured, client) = self.driver.pop();
        let t0 = Instant::now();
        match kind {
            OpKind::Write { var, data } => {
                if measured {
                    self.metrics.record_op(true, false);
                }
                let (wid, effects) = self.proto.write(var, data, self.payload_len);
                self.history.record_write(self.site, wid, var);
                self.handle_effects(effects, measured);
                self.op_completed(client, t0);
            }
            OpKind::Read { var } => match self.proto.read(var) {
                ReadResult::Local(v) => {
                    if measured {
                        self.metrics.record_op(false, false);
                    }
                    self.history
                        .record_read(self.site, var, v.map(|x| x.writer), self.site);
                    self.op_completed(client, t0);
                }
                ReadResult::Fetch { target, msg } => {
                    // FIFO: the fetch must not overtake this site's own
                    // parked updates toward the server (it must observe
                    // its own in-flight writes).
                    if let Some(items) = self
                        .batch
                        .as_mut()
                        .and_then(|l| l.batcher.flush_dest(target))
                    {
                        self.flush_lane(target, items);
                    }
                    self.ship(&[target], msg, measured);
                    self.fetch = Some(FetchWait {
                        var,
                        target,
                        measured,
                        client,
                        t0,
                        issued: Instant::now(),
                    });
                }
            },
        }
    }

    /// Report a locally-completed operation back to its closed-loop
    /// client (replay drivers ignore this).
    fn op_completed(&mut self, client: Option<usize>, t0: Instant) {
        if let Some(c) = client {
            self.driver
                .completed(c, self.start.elapsed(), t0.elapsed().as_nanos() as f64);
        }
    }

    /// Hand `msg` to the transport for every site in `to`, keeping the
    /// global in-flight tally (one per destination) consistent even when a
    /// peer is already gone.
    fn send(&mut self, to: &[SiteId], msg: &Msg, measured: bool) {
        self.unflushed = true;
        self.quiesce.frames_sent(to.len() as u64);
        let refused = self.transport.send(self.site, to, msg, measured);
        if refused > 0 {
            // Those copies never entered the network; the transport
            // counted the connection errors.
            self.quiesce.frames_done(refused as u64);
        }
    }

    /// Tell the transport this step's sends are complete (see
    /// [`Transport::flush`]). Runs after the step's own work — for a
    /// client operation, after its completion was reported.
    fn flush_sends(&mut self) {
        if std::mem::take(&mut self.unflushed) {
            self.transport.flush(self.site);
        }
    }

    fn deliver(&mut self, from: SiteId, msg: Msg, measured: bool) {
        for (msg, measured) in unbatch(msg, measured) {
            if let Msg::Sm(sm) = &msg {
                self.receipt.insert(sm.value.writer, Instant::now());
            }
            self.metrics.per_site.site_mut(self.site.index()).delivers += 1;
            let effects = self.proto.on_message(from, msg);
            let mut rest = Vec::with_capacity(effects.len());
            for e in effects {
                if let Effect::FetchDone { var, value } = e {
                    self.complete_fetch(var, value);
                } else {
                    rest.push(e);
                }
            }
            // Cascade sends must be counted before this message is
            // released, or the coordinator could observe a spurious
            // in-flight zero.
            self.handle_effects(rest, measured);
            let pending = self.proto.pending_len();
            self.metrics.max_pending = self.metrics.max_pending.max(pending);
            self.metrics.pending_samples.record(pending as f64);
        }
        self.quiesce.frames_done(1);
    }

    /// The RM landed: un-park the fetch, record the read against the
    /// serving replica (as the simulator does), and hand the completion
    /// back to the issuing client.
    fn complete_fetch(&mut self, var: VarId, value: Option<VersionedValue>) {
        let fw = self
            .fetch
            .take()
            .expect("FetchDone without an outstanding fetch");
        assert_eq!(var, fw.var, "fetch completion for the wrong variable");
        self.history
            .record_read(self.site, var, value.map(|x| x.writer), fw.target);
        self.metrics
            .record_fetch_rtt(self.site.index(), fw.issued.elapsed().as_nanos() as f64);
        if fw.measured {
            self.metrics.record_op(false, true);
        }
        self.op_completed(fw.client, fw.t0);
    }

    fn handle_effects(&mut self, effects: Vec<Effect>, measured: bool) {
        let mut effects = effects.into_iter().peekable();
        let mut dsts = Vec::new();
        while let Some(e) = effects.next() {
            match e {
                Effect::Send { to, msg } if self.batch.is_some() => {
                    self.dispatch(to, msg, measured)
                }
                Effect::Send { to, msg } => {
                    // A write's fan-out is a run of sends carrying one SM:
                    // the transport gets the whole destination list, so
                    // the body crosses each connection once.
                    dsts.clear();
                    dsts.push(to);
                    if let Msg::Sm(sm) = &msg {
                        while let Some(Effect::Send {
                            to,
                            msg: Msg::Sm(next),
                        }) = effects.peek()
                        {
                            if !sm.same_multicast(next) || dsts.contains(to) {
                                break;
                            }
                            dsts.push(*to);
                            effects.next();
                        }
                    }
                    self.ship(&dsts, msg, measured);
                }
                Effect::Applied { var: _, write } => {
                    self.metrics.applies += 1;
                    self.metrics.per_site.site_mut(self.site.index()).applies += 1;
                    if let Some(t0) = self.receipt.remove(&write) {
                        self.metrics
                            .record_apply_latency(t0.elapsed().as_nanos() as f64);
                    }
                    self.history.record_apply(self.site, write);
                }
                Effect::FetchDone { .. } => {
                    // Intercepted in `deliver` before effects reach here.
                    debug_assert!(false, "FetchDone outside a delivery");
                }
            }
        }
    }

    /// Route one outgoing message through the batching lanes: park an SM
    /// in its destination lane (flushing on count/byte bounds); flush the
    /// lane ahead of any non-SM frame to the same destination (per-channel
    /// FIFO), then ship that frame.
    fn dispatch(&mut self, to: SiteId, msg: Msg, measured: bool) {
        let lanes = self.batch.as_mut().expect("dispatch runs with lanes on");
        let size = msg.meta_size(&self.size_model);
        match msg {
            Msg::Sm(sm) => {
                let pending = PendingSm {
                    sm,
                    measured,
                    full_bytes: size,
                };
                let flush = match lanes.batcher.offer(to, pending, size) {
                    Offer::First { epoch } => {
                        let at = Instant::now() + lanes.window;
                        lanes.timers.push((at, to, epoch));
                        None
                    }
                    Offer::Queued => None,
                    Offer::Flush(items) => Some(items),
                };
                if let Some(items) = flush {
                    self.flush_lane(to, items);
                }
            }
            msg => {
                // Non-SM (an RM reply): flush the lane toward the same
                // destination first, so no frame overtakes a parked update
                // on its channel.
                if let Some(items) = lanes.batcher.flush_dest(to) {
                    self.flush_lane(to, items);
                }
                self.ship(&[to], msg, measured);
            }
        }
    }

    /// Account `msg` once per destination — the paper's counters are per
    /// logical message, whatever the transport makes of the list — and
    /// ship it to every site in `to`.
    fn ship(&mut self, to: &[SiteId], msg: Msg, measured: bool) {
        let size = msg.meta_size(&self.size_model);
        for _ in to {
            if let Msg::Sm(sm) = &msg {
                self.metrics.sm_entries.record(sm.meta.entry_count() as f64);
            }
            self.metrics.record_msg(msg.kind(), size, measured);
        }
        self.metrics.per_site.site_mut(self.site.index()).sends += to.len() as u64;
        self.send(to, &msg, measured);
    }

    /// Ship one drained destination lane: a single parked update goes out
    /// as a plain SM with exact unbatched accounting; two or more become
    /// one batch frame charged the merged-piggyback size, with the saving
    /// recorded in the batching counters — the simulator's `flush_lane`,
    /// transplanted to wall clocks.
    fn flush_lane(&mut self, to: SiteId, items: Vec<PendingSm>) {
        debug_assert!(!items.is_empty(), "a drained lane is never empty");
        for p in &items {
            self.metrics
                .sm_entries
                .record(p.sm.meta.entry_count() as f64);
        }
        let (msg, frame_bytes, measured) = if items.len() == 1 {
            let p = items.into_iter().next().expect("len checked");
            (Msg::Sm(p.sm), p.full_bytes, p.measured)
        } else {
            let unbatched: u64 = items.iter().map(|p| p.full_bytes).sum();
            let measured = items.iter().any(|p| p.measured);
            let batch = SmBatch {
                sms: items
                    .into_iter()
                    .map(|p| BatchedSm {
                        sm: p.sm,
                        measured: p.measured,
                    })
                    .collect(),
            };
            let count = batch.len() as u64;
            let msg = Msg::Batch(Arc::new(batch));
            let bytes = msg.meta_size(&self.size_model);
            self.metrics.batch_flushes += 1;
            self.metrics.batched_sms += count;
            self.metrics.batch_bytes_saved += unbatched.saturating_sub(bytes);
            (msg, bytes, measured)
        };
        self.metrics.record_msg(msg.kind(), frame_bytes, measured);
        self.metrics.per_site.site_mut(self.site.index()).sends += 1;
        self.send(&[to], &msg, measured);
    }

    /// Flush every lane whose window timer has expired (stale epochs are
    /// ignored: those updates already left in a count/byte flush).
    /// Returns whether anything fired.
    fn fire_due_timers(&mut self) -> bool {
        let mut fired_any = false;
        loop {
            let fired = match self.batch.as_mut() {
                None => return fired_any,
                Some(lanes) => {
                    let now = Instant::now();
                    match lanes.timers.iter().position(|(at, _, _)| *at <= now) {
                        None => return fired_any,
                        Some(i) => {
                            let (_, dest, epoch) = lanes.timers.swap_remove(i);
                            lanes
                                .batcher
                                .on_timer(dest, epoch)
                                .map(|items| (dest, items))
                        }
                    }
                }
            };
            if let Some((dest, items)) = fired {
                fired_any = true;
                self.flush_lane(dest, items);
            }
        }
    }

    /// Drain every lane (end of schedule — no barrier may leave updates
    /// parked).
    fn flush_all_lanes(&mut self) {
        let drained = match self.batch.as_mut() {
            Some(lanes) => {
                lanes.timers.clear();
                lanes.batcher.flush_all()
            }
            None => return,
        };
        for (dest, items) in drained {
            self.flush_lane(dest, items);
        }
    }

    /// The earliest armed batch-window timer.
    fn next_timer_at(&self) -> Option<Instant> {
        self.batch
            .as_ref()
            .and_then(|l| l.timers.iter().map(|(at, _, _)| *at).min())
    }

    /// The next instant the scheduler must wake this node at: the due
    /// operation or an earlier batch-window expiry.
    fn nearest_wake(&self, due: Instant) -> Instant {
        match self.next_timer_at() {
            Some(t) if t < due => t,
            _ => due,
        }
    }
}
