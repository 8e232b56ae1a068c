//! The full-system simulation: one [`SiteDriver`] per site, and around
//! them a harness that owns everything the driver does not — virtual time
//! and the event heap, the channels (plain, or the reliable transport over
//! a lossy network), the execution history, the trace, the WAL and the
//! stability tracker. This file is the event loop and the operation, send
//! and delivery paths; crash recovery, membership changes and the periodic
//! ticks live in the submodules.

mod churn;
mod config;
mod recovery;
mod ticks;

pub use config::{BatchPlan, CrashWindow, DurabilityPlan, PauseWindow, SimConfig, SimResult};

use crate::channel::ChannelMatrix;
use crate::kernel::{EventHeap, SimEvent};
use crate::stability::StabilityState;
use crate::transport::TransportCmd;
use causal_checker::History;
use causal_memory::DynamicPlacement;
use causal_metrics::RunMetrics;
use causal_obs::{EventKind, NoopTracer, TraceEvent, Tracer};
use causal_proto::{
    Effect, Frame, Msg, Output, ProtoTraceEvent, ProtocolConfig, Replication, SiteDriver, WalRecord,
};
use causal_types::{OpKind, SimTime, SiteId, VarId};
use causal_workload::{generate, Schedule};
use churn::ChurnState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recovery::{Chaos, SiteStatus};
use std::sync::Arc;

/// Run one simulation to quiescence.
pub fn run(cfg: &SimConfig) -> SimResult {
    run_traced(cfg, &mut NoopTracer)
}

/// Run one simulation to quiescence, emitting structured trace events into
/// `tracer`. With a disabled tracer ([`NoopTracer`]) this is exactly
/// [`run`]: every emission site is gated on `tracer.enabled()` and the
/// protocol-side trace buffers are never allocated.
pub fn run_traced(cfg: &SimConfig, tracer: &mut dyn Tracer) -> SimResult {
    let mut sim = Sim::new(cfg, tracer);
    while let Some((now, ev)) = sim.heap.pop() {
        sim.now = now;
        sim.step(ev);
    }
    sim.finish()
}

/// One run's state. Event handlers are methods; `now` is the timestamp of
/// the event being handled.
struct Sim<'a> {
    cfg: &'a SimConfig,
    tracer: &'a mut dyn Tracer,
    n: usize,
    schedule: Schedule,
    sites: Vec<SiteDriver>,
    /// Next schedule index of each site's application process.
    next_op: Vec<usize>,
    now: SimTime,
    heap: EventHeap,
    channels: ChannelMatrix,
    /// Latency-sampling stream, derived from the workload seed so a
    /// (seed, config) pair fully determines the run.
    lat_rng: StdRng,
    metrics: RunMetrics,
    history: Option<History>,
    /// The drivers' output buffer, drained after every driver call.
    out: Vec<Output>,
    chaos: Option<Chaos>,
    churn: Option<ChurnState>,
    stability: Option<StabilityState>,
    /// Periodic ticks (checkpoint, stability) sitting in `heap`.
    ticks_armed: usize,
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a SimConfig, tracer: &'a mut dyn Tracer) -> Self {
        let n = cfg.workload.n;
        cfg.validate();
        let schedule = cfg
            .schedule_override
            .clone()
            .unwrap_or_else(|| generate(&cfg.workload));
        assert_eq!(
            schedule.per_site.len(),
            n,
            "override schedule shape mismatch"
        );

        // A churn plan swaps the static placement for a shared dynamic
        // view: every site holds the same `Arc`, so an installed view
        // change is visible to all of them at once.
        let plan = cfg.churn.as_ref().filter(|p| !p.is_empty());
        let members = plan.map_or_else(|| vec![true; n], |p| p.initial_members(n));
        let churn = plan.map(|plan| {
            plan.validate(n, cfg.workload.q)
                .expect("invalid churn plan (validate before running)");
            let dynp = Arc::new(DynamicPlacement::new((*cfg.placement).clone(), &members));
            // Variables homed solely on not-yet-joined sites start
            // orphaned; re-home them onto view-1 members so every read and
            // write has a replica from the first event on.
            dynp.rehome_orphans(cfg.workload.q);
            ChurnState::new(plan.clone(), dynp, n)
        });
        let repl: Arc<dyn Replication> = match &churn {
            Some(ch) => ch.dynp.clone(),
            None => cfg.placement.clone(),
        };
        let (proto_cfg, model) = (ProtocolConfig { prune: cfg.prune }, cfg.size_model);
        let lanes = cfg.batching.map(|plan| plan.lanes);
        let sites = SiteId::all(n)
            .map(|s| {
                let mut d = SiteDriver::new(cfg.protocol, s, repl.clone(), proto_cfg, model, lanes);
                d.site_mut().set_tracing(tracer.enabled());
                d
            })
            .collect();

        let mut metrics = RunMetrics::new();
        metrics.per_site.ensure(n);
        let mut sim = Sim {
            cfg,
            tracer,
            n,
            schedule,
            sites,
            next_op: vec![0; n],
            now: SimTime::ZERO,
            heap: EventHeap::new(),
            channels: ChannelMatrix::new(n, cfg.latency).with_partitions(cfg.partitions.clone()),
            lat_rng: StdRng::seed_from_u64(cfg.workload.seed ^ 0xC0FF_EE00_D15E_A5E5),
            metrics,
            history: cfg.record_history.then(|| History::new(n)),
            out: Vec::new(),
            chaos: cfg.chaos().then(|| Chaos::new(cfg, &members)),
            churn,
            // Without a plan nothing allocates or schedules and the run is
            // byte-identical to a stability-free build.
            stability: cfg
                .stability
                .as_ref()
                .map(|plan| StabilityState::new(n, plan.clone(), &members)),
            ticks_armed: 0,
        };

        if let Some(plan) = &cfg.stability {
            sim.arm_tick(plan.heartbeat_every, SimEvent::StabilityTick);
        }
        if let Some(ch) = &sim.churn {
            for (idx, ev) in ch.plan.events.iter().enumerate() {
                sim.heap.push(ev.at, SimEvent::ViewPropose { idx });
            }
        }
        for c in &cfg.crashes {
            sim.heap.push(c.start, SimEvent::Crash { site: c.site });
            sim.heap.push(c.end, SimEvent::Recover { site: c.site });
        }
        if let Some(every) = cfg.durability.checkpoint_every {
            sim.arm_tick(every, SimEvent::CheckpointTick);
        }
        // Arm the first operation of every process in the initial view; a
        // joiner's application starts when its view change installs.
        for s in SiteId::all(n).filter(|s| members[s.index()]) {
            if let Some(op) = sim.schedule.per_site[s.index()].first() {
                sim.heap.push(op.at, SimEvent::OpReady { site: s });
            }
        }
        sim
    }

    fn step(&mut self, ev: SimEvent) {
        // A paused site defers everything — operations and deliveries — to
        // its resume instant; heap insertion order preserves the original
        // arrival order among deferred events. Crash and recovery events
        // are the fault injector's own and never defer.
        let event_site = match &ev {
            SimEvent::OpReady { site } | SimEvent::FetchDeadline { site, .. } => Some(*site),
            SimEvent::Deliver { to, .. } | SimEvent::DeliverFrame { to, .. } => Some(*to),
            SimEvent::RetransmitCheck { from, .. } | SimEvent::BatchFlush { from, .. } => {
                Some(*from)
            }
            SimEvent::Crash { .. }
            | SimEvent::Recover { .. }
            | SimEvent::SyncTimeout { .. }
            | SimEvent::CheckpointTick
            | SimEvent::StabilityTick
            | SimEvent::ViewPropose { .. }
            | SimEvent::ViewQuiesceCheck { .. } => None,
        };
        if let Some(site) = event_site {
            let pauses = self.cfg.pauses.iter();
            if let Some(resume) = pauses.filter_map(|p| p.resumes(site, self.now)).max() {
                self.heap.push(resume, ev);
                return;
            }
        }
        match ev {
            SimEvent::OpReady { site } => self.on_op_ready(site),
            SimEvent::Deliver {
                from,
                to,
                msg,
                measured,
                sent_at,
            } => self.on_deliver(from, to, msg, measured, sent_at),
            SimEvent::DeliverFrame {
                from,
                to,
                frame,
                measured,
                sent_at,
            } => self.on_deliver_frame(from, to, frame, measured, sent_at),
            SimEvent::RetransmitCheck {
                from,
                to,
                epoch,
                seq,
                attempt,
            } => self.on_retransmit_check(from, to, epoch, seq, attempt),
            SimEvent::BatchFlush { from, to, epoch } => self.on_lane_timer(from, to, epoch),
            SimEvent::FetchDeadline { site, var, attempt } => {
                self.on_fetch_deadline(site, var, attempt)
            }
            SimEvent::Crash { site } => self.on_crash(site),
            SimEvent::Recover { site } => self.on_recover(site),
            SimEvent::SyncTimeout { site, inc } => self.on_sync_timeout(site, inc),
            SimEvent::CheckpointTick => self.on_checkpoint_tick(),
            SimEvent::StabilityTick => self.on_stability_tick(),
            SimEvent::ViewPropose { idx } => self.on_view_propose(idx),
            SimEvent::ViewQuiesceCheck { idx } => self.on_view_quiesce_check(idx),
        }
    }

    fn finish(mut self) -> SimResult {
        if let Some(stores) = self.chaos.as_ref().and_then(|c| c.stores.as_ref()) {
            for st in stores {
                self.metrics.wal_appends += st.appends;
                self.metrics.wal_bytes += st.append_bytes;
                self.metrics.checkpoints += st.checkpoints;
                self.metrics.checkpoint_bytes += st.checkpoint_bytes;
                self.metrics.wal_truncated += st.truncated;
                self.metrics.wal_segments_sealed += st.segments_sealed;
                self.metrics.wal_deleted_bytes += st.deleted_bytes;
            }
        }
        if let Some(stab) = self.stability.as_ref() {
            let m = &mut self.metrics;
            m.gossip_rows += stab.gossip_rows;
            m.gossip_bytes += stab.gossip_bytes;
            m.buffered_overdue += stab.buffered_overdue;
            m.gc_log_entries += stab.gc_log_entries;
            m.gc_slots += stab.gc_slots;
            m.gc_stalled_ticks += stab.gc_stalled_ticks;
            m.backpressure_events += stab.backpressure_events;
            m.retained_meta_peak = m.retained_meta_peak.max(stab.retained_meta_peak);
            m.unstable_peak = m.unstable_peak.max(stab.unstable_peak);
        }
        let sites = self.sites.iter().map(SiteDriver::site);
        SimResult {
            final_pending: sites.clone().map(|s| s.pending_len()).sum(),
            final_local_meta: sites
                .map(|s| s.local_meta_size(&self.cfg.size_model))
                .collect(),
            metrics: self.metrics,
            history: self.history,
            duration: self.heap.now(),
        }
    }

    /// Emit one trace event at `now`.
    #[inline]
    fn emit(&mut self, site: SiteId, kind: EventKind) {
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::at(self.now, site, kind));
        }
    }

    /// Drain the protocol-side trace buffer of `site` into the tracer. The
    /// protocols have no notion of simulated time, so their events are
    /// timestamped here, at the instant that triggered them.
    fn drain_proto(&mut self, site: SiteId) {
        if !self.tracer.enabled() {
            return;
        }
        for ev in self.sites[site.index()].site_mut().take_trace() {
            let kind = match ev {
                ProtoTraceEvent::Buffered {
                    origin,
                    clock,
                    var,
                    dep_site,
                    dep_clock,
                } => EventKind::Buffer {
                    origin,
                    clock,
                    var,
                    dep_site,
                    dep_clock,
                },
                ProtoTraceEvent::LogPruned { removed, remaining } => EventKind::LogPrune {
                    removed: removed as u64,
                    remaining: remaining as u64,
                },
            };
            self.tracer.emit(TraceEvent::at(self.now, site, kind));
        }
    }

    fn status(&self, site: SiteId) -> SiteStatus {
        self.chaos
            .as_ref()
            .map_or(SiteStatus::Up, |c| c.status[site.index()])
    }

    /// Arm the next scheduled operation of `site`, honoring the schedule
    /// time (an op never fires before its planned instant, and a blocking
    /// fetch pushes it later).
    fn schedule_next(&mut self, site: SiteId) {
        if let Some(op) = self.schedule.per_site[site.index()].get(self.next_op[site.index()]) {
            self.heap
                .push(op.at.max(self.now), SimEvent::OpReady { site });
        }
    }

    fn on_op_ready(&mut self, site: SiteId) {
        let i = site.index();
        match self.status(site) {
            SiteStatus::Up => {}
            // A departed site never issues again.
            SiteStatus::Out => return,
            // Crashed or syncing: the application resumes after recovery
            // completes.
            SiteStatus::Down | SiteStatus::Syncing => {
                let c = self.chaos.as_mut().expect("only chaos takes a site down");
                return c.held[i].push(SimEvent::OpReady { site });
            }
        }
        // Quiesce: while a view change drains, no new operation starts;
        // held operations replay at install.
        if let Some(ch) = self.churn.as_mut().filter(|ch| ch.pending.is_some()) {
            return ch.view_held.push(SimEvent::OpReady { site });
        }
        let op = self.schedule.per_site[i][self.next_op[i]];
        // Soft-cap backpressure: while retained metadata exceeds the
        // stability plan's cap, the next *write* defers one heartbeat at a
        // time (bounded — see `MAX_WRITE_DEFERRALS`) instead of growing
        // the unstable window further. Reads always proceed.
        if let Some(stab) = self.stability.as_mut() {
            if matches!(op.kind, OpKind::Write { .. }) && stab.defer_write(site) {
                let retry = self.now + stab.plan.heartbeat_every;
                return self.heap.push(retry, SimEvent::OpReady { site });
            }
        }
        debug_assert!(
            self.sites[i].fetch().is_none(),
            "op issued while fetch outstanding"
        );
        let measured = self.next_op[i] >= self.schedule.warmup_events;
        self.next_op[i] += 1;
        let now = self.now.as_nanos();
        match op.kind {
            OpKind::Write { var, data } => {
                let payload_len = self.cfg.workload.payload_len;
                // WAL fiction: the record is durable before the transition
                // is externally visible.
                self.journal(
                    site,
                    WalRecord::OwnWrite {
                        var,
                        data,
                        payload_len,
                    },
                );
                let (wid, dests) =
                    self.sites[i].write(now, var, data, payload_len, measured, &mut self.out);
                // Registered before the outputs run, so the own-apply
                // among them settles against an existing registration.
                if let Some(stab) = self.stability.as_mut() {
                    stab.on_write(site, wid, dests);
                }
                let clock = wid.clock;
                self.emit(site, EventKind::Write { var, clock });
                if measured {
                    self.metrics.record_op(true, false);
                }
                if let Some(h) = self.history.as_mut() {
                    h.record_write(site, wid, var);
                }
                self.apply_outputs(site);
                self.schedule_next(site);
            }
            OpKind::Read { var } => {
                self.sites[i].read(now, var, measured, &mut self.out);
                self.after_read(site, var);
            }
        }
    }

    /// The driver just ran `site`'s read of `var`: a local read completes
    /// among the outputs; a fetch is journaled (so a WAL replay restores
    /// the protocol's fetch slot) and shipped.
    fn after_read(&mut self, site: SiteId, var: VarId) {
        if self.sites[site.index()].fetch().is_some() {
            self.journal(site, WalRecord::FetchIssued { var });
            self.fetch_issued(site);
        } else {
            self.apply_outputs(site);
        }
    }

    /// The driver just (re)issued `site`'s fetch: ship what it queued,
    /// trace the attempt and arm its deadline.
    fn fetch_issued(&mut self, site: SiteId) {
        self.apply_outputs(site);
        let f = *self.sites[site.index()].fetch().expect("fetch just issued");
        let (var, attempt) = (f.var, f.attempt);
        self.emit(
            site,
            EventKind::FetchIssue {
                var,
                target: f.target,
                attempt,
            },
        );
        if let (Some(_), Some(deadline)) = (&self.chaos, self.cfg.durability.fetch_deadline) {
            self.heap.push(
                self.now + deadline,
                SimEvent::FetchDeadline { site, var, attempt },
            );
        }
    }

    /// Re-address `site`'s blocked fetch to `next` as a counted failover.
    fn fail_over(&mut self, site: SiteId, next: SiteId) {
        let d = &mut self.sites[site.index()];
        let var = d.fetch().expect("failover of a blocked fetch").var;
        let attempt = d.retarget_fetch(self.now.as_nanos(), next, &mut self.out);
        self.metrics.fetch_failovers += 1;
        self.emit(site, EventKind::FetchFailover { var, attempt });
        self.fetch_issued(site);
    }

    /// Degraded read: give up rather than hang. The protocol releases its
    /// fetch slot (journaled, so a WAL replay does not resurrect it); no
    /// history record is written since the operation returned no value.
    fn degrade_read(&mut self, site: SiteId, var: VarId) {
        self.journal(site, WalRecord::FetchAborted { var });
        self.sites[site.index()].abort_fetch();
        self.metrics.degraded_reads += 1;
        self.emit(site, EventKind::DegradedRead { var });
        self.schedule_next(site);
    }

    fn on_fetch_deadline(&mut self, site: SiteId, var: VarId, attempt: u32) {
        // Stale timer: the read completed, or a failover / crash-recovery
        // re-issue already bumped the attempt. And a reader that itself
        // crashed while blocked re-issues (and re-arms) at its recovery.
        let fetch = self.sites[site.index()].fetch();
        let live = fetch.is_some_and(|f| f.var == var && f.attempt == attempt);
        if !live || self.status(site) != SiteStatus::Up {
            return;
        }
        // View-aware failover: under churn the candidate walk must skip
        // departed members and honor installed migrations.
        let candidates = match self.churn.as_ref() {
            Some(ch) => ch.dynp.fetch_candidates(var, site),
            None => self.cfg.placement.fetch_candidates(var, site),
        };
        if attempt + 1 >= 2 * candidates.len() as u32 {
            self.degrade_read(site, var);
        } else {
            // The next candidate replica in ring-preference order, cycling.
            self.fail_over(site, candidates[(attempt as usize + 1) % candidates.len()]);
        }
    }

    fn on_lane_timer(&mut self, from: SiteId, to: SiteId, epoch: u64) {
        self.sites[from.index()].on_lane_timer(to, epoch, &mut self.out);
        self.apply_outputs(from);
    }

    /// Turn what `site`'s driver produced into channel traffic, heap
    /// events, metrics, history records and trace events, in order.
    fn apply_outputs(&mut self, site: SiteId) {
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
                    // Every destination but the last gets a clone (a
                    // refcount bump of the shared piggyback); the last
                    // takes the message itself.
                    let mut dsts = dsts.iter().peekable();
                    while let Some(to) = dsts.next() {
                        self.metrics
                            .record_send(site.index(), msg.kind(), bytes, measured);
                        let entries = &mut self.metrics.sm_entries;
                        msg.sms()
                            .for_each(|sm| entries.record(sm.meta.entry_count() as f64));
                        self.trace_send(site, to, &msg, bytes);
                        if dsts.peek().is_none() {
                            self.transmit(site, to, msg, measured);
                            break;
                        }
                        self.transmit(site, to, msg.clone(), measured);
                    }
                }
                Output::ArmLaneTimer { to, epoch } => {
                    let window = self.cfg.batching.expect("lanes imply a plan").window;
                    let from = site;
                    self.heap
                        .push(self.now + window, SimEvent::BatchFlush { from, to, epoch });
                }
                Output::Applied {
                    var,
                    write,
                    dwell_ns,
                } => {
                    self.metrics.record_apply(site.index(), dwell_ns);
                    if let Some(stab) = self.stability.as_mut() {
                        stab.applied(site, write);
                    }
                    // After a crash a site re-applies redelivered updates
                    // it already recorded before losing state; the history
                    // (and the trace) keep each apply once.
                    let seen = self.chaos.as_mut().map(|c| &mut c.applied_seen);
                    if seen.is_none_or(|s| s.insert((site, write))) {
                        if let Some(h) = self.history.as_mut() {
                            h.record_apply(site, write);
                        }
                        self.emit(
                            site,
                            EventKind::Apply {
                                origin: write.site,
                                clock: write.clock,
                                var,
                                dwell_ns: dwell_ns.unwrap_or(0),
                            },
                        );
                    }
                }
                Output::ReadDone {
                    var,
                    value,
                    served_by,
                    rtt_ns,
                    measured,
                } => {
                    let writer = value.map(|v| v.writer);
                    match rtt_ns {
                        Some(rtt_ns) => {
                            self.metrics.record_fetch_rtt(site.index(), rtt_ns as f64);
                            self.emit(
                                site,
                                EventKind::FetchDone {
                                    var,
                                    served_by,
                                    rtt_ns,
                                    writer,
                                },
                            );
                        }
                        None => {
                            self.journal(site, WalRecord::LocalRead { var });
                            self.emit(site, EventKind::ReadLocal { var, writer });
                        }
                    }
                    if measured {
                        self.metrics.record_op(false, rtt_ns.is_some());
                    }
                    if let Some(h) = self.history.as_mut() {
                        h.record_read(site, var, writer, served_by);
                    }
                    // The application subsystem resumes: its next op fires
                    // at the later of its planned time and this return.
                    self.schedule_next(site);
                }
            }
        }
        self.out = out;
    }

    /// One `Send` trace event per update the message carries (an RM counts
    /// as one, without a writer), the frame's bytes amortized over them
    /// with the remainder on the first, so per-site byte sums over a trace
    /// match the metrics. An FM is traced as the fetch attempt it belongs
    /// to instead.
    fn trace_send(&mut self, from: SiteId, to: SiteId, msg: &Msg, bytes: u64) {
        if !self.tracer.enabled() || matches!(msg, Msg::Fm(_)) {
            return;
        }
        let mut writers: Vec<_> = msg.sms().map(|sm| Some(sm.value.writer)).collect();
        if writers.is_empty() {
            writers.push(None);
        }
        let share = bytes / writers.len() as u64;
        let mut bytes = bytes - share * (writers.len() as u64 - 1);
        let kind = msg.kind();
        for writer in writers {
            self.emit(
                from,
                EventKind::Send {
                    to,
                    kind,
                    bytes,
                    writer,
                },
            );
            bytes = share;
        }
    }

    /// Put `msg` on the `from → to` channel: through the reliable
    /// transport when the run is chaotic, otherwise straight onto the
    /// lossless FIFO channel.
    fn transmit(&mut self, from: SiteId, to: SiteId, msg: Msg, measured: bool) {
        match self.chaos.as_mut() {
            Some(c) => {
                let cmds = c.transport.send(from, to, msg, measured);
                self.dispatch_cmds(from, cmds);
            }
            None => {
                let at = self
                    .channels
                    .delivery_time(from, to, self.now, &mut self.lat_rng);
                let sent_at = self.now;
                self.heap.push(
                    at,
                    SimEvent::Deliver {
                        from,
                        to,
                        msg,
                        measured,
                        sent_at,
                    },
                );
            }
        }
    }

    /// Put a transport or sync frame on the wire, no questions asked.
    fn send_frame(&mut self, from: SiteId, to: SiteId, frame: Frame, measured: bool) {
        let at = self
            .channels
            .delivery_time(from, to, self.now, &mut self.lat_rng);
        self.heap.push(
            at,
            SimEvent::DeliverFrame {
                from,
                to,
                frame: Box::new(frame),
                measured,
                sent_at: self.now,
            },
        );
    }

    /// Interpret transport commands: put frames on the (lossy) wire, arm
    /// retransmission timers, and collect in-order handoffs for the caller
    /// to feed into the receiving protocol site.
    fn dispatch_cmds(&mut self, origin: SiteId, cmds: Vec<TransportCmd>) -> Vec<(Msg, bool)> {
        let mut handoffs = Vec::new();
        for cmd in cmds {
            match cmd {
                TransportCmd::Emit {
                    to,
                    frame,
                    measured,
                    retransmit,
                } => {
                    let overhead = frame.overhead(&self.cfg.size_model);
                    match &frame {
                        Frame::Ack { .. } => {
                            self.metrics.ack_count += 1;
                            self.metrics.ack_bytes += overhead;
                        }
                        Frame::Data { seq, .. } => {
                            self.metrics.envelope_bytes += overhead;
                            if retransmit {
                                self.metrics.retransmissions += 1;
                                self.metrics.per_site.site_mut(origin.index()).retransmits += 1;
                                self.emit(origin, EventKind::Retransmit { to, seq: *seq });
                            }
                        }
                        sync => unreachable!("transport never emits sync frames: {sync:?}"),
                    }
                    let c = self.chaos.as_mut().expect("transport implies chaos mode");
                    if c.faults.should_drop(origin, to, self.now, &mut c.fault_rng) {
                        self.metrics.fault_drops += 1;
                        continue;
                    }
                    if c.faults.should_dup(origin, to, &mut c.fault_rng) {
                        self.metrics.fault_dups += 1;
                        self.send_frame(origin, to, frame.clone(), measured);
                    }
                    self.send_frame(origin, to, frame, measured);
                }
                TransportCmd::Arm {
                    to,
                    stream_gen,
                    seq,
                    attempt,
                    after,
                } => {
                    // `attempt == 1` is the initial RTO timer armed with
                    // every send; only re-arms after a retransmission are
                    // backoffs.
                    if attempt > 1 {
                        self.emit(
                            origin,
                            EventKind::Backoff {
                                to,
                                seq,
                                attempt,
                                after_ns: after.as_nanos(),
                            },
                        );
                    }
                    self.heap.push(
                        self.now + after,
                        SimEvent::RetransmitCheck {
                            from: origin,
                            to,
                            epoch: stream_gen,
                            seq,
                            attempt,
                        },
                    );
                }
                TransportCmd::Handoff { msg, measured } => handoffs.push((msg, measured)),
            }
        }
        handoffs
    }

    fn on_retransmit_check(
        &mut self,
        from: SiteId,
        to: SiteId,
        epoch: u32,
        seq: u64,
        attempt: u32,
    ) {
        let c = self.chaos.as_mut().expect("timers require chaos mode");
        let cmds = c.transport.retransmit_check(from, to, epoch, seq, attempt);
        self.dispatch_cmds(from, cmds);
    }

    fn on_deliver(&mut self, from: SiteId, to: SiteId, msg: Msg, measured: bool, sent_at: SimTime) {
        self.metrics
            .transit_ns
            .record((self.now - sent_at).as_nanos() as f64);
        SiteDriver::unbatch(msg, measured, |msg, measured| {
            self.deliver_one(from, to, msg, measured)
        });
    }

    fn on_deliver_frame(
        &mut self,
        from: SiteId,
        to: SiteId,
        frame: Box<Frame>,
        measured: bool,
        sent_at: SimTime,
    ) {
        // Liveness gate: a down site loses arriving traffic; a syncing
        // site buffers data until its state is rebuilt but must process
        // the sync handshake itself.
        let c = self.chaos.as_mut().expect("frames require chaos mode");
        match c.status[to.index()] {
            SiteStatus::Down | SiteStatus::Out => {
                self.metrics.crash_drops += 1;
                return;
            }
            SiteStatus::Syncing if !frame.is_sync() => {
                return c.held[to.index()].push(SimEvent::DeliverFrame {
                    from,
                    to,
                    frame,
                    measured,
                    sent_at,
                });
            }
            _ => {}
        }
        match *frame {
            Frame::SyncReq {
                inc,
                ledger,
                applied,
            } => self.handle_sync_req(to, from, inc, &ledger, applied),
            Frame::SyncResp { inc, ack, state } => self.handle_sync_resp(to, from, inc, ack, state),
            data_or_ack => {
                if matches!(data_or_ack, Frame::Data { .. }) {
                    self.metrics
                        .transit_ns
                        .record((self.now - sent_at).as_nanos() as f64);
                }
                let cmds = c
                    .transport
                    .on_frame(to, from, data_or_ack, measured, &mut self.metrics);
                for (msg, measured) in self.dispatch_cmds(to, cmds) {
                    SiteDriver::unbatch(msg, measured, |msg, measured| {
                        self.deliver_one(from, to, msg, measured)
                    });
                }
            }
        }
    }

    /// Hand one unbatched message to `to`'s driver, with the bookkeeping
    /// every delivery gets.
    fn deliver_one(&mut self, from: SiteId, to: SiteId, msg: Msg, measured: bool) {
        let i = to.index();
        if !self.sites[i].accepts(&msg) {
            self.metrics.dup_drops += 1;
            return;
        }
        // WAL mode: a replayed site has already counted the transport's
        // redelivered updates, and every delivery it does take is
        // journaled before the protocol sees it.
        if let Some(stores) = self.chaos.as_mut().and_then(|c| c.stores.as_mut()) {
            if stores[i].already_seen(&msg) {
                self.metrics.dup_drops += 1;
                return;
            }
            let msg = msg.clone();
            self.journal(to, WalRecord::Recv { from, msg });
        }
        let writer = match &msg {
            Msg::Sm(sm) => Some(sm.value.writer),
            _ => None,
        };
        // Every app message piggybacks the sender's delivery row; an
        // arriving update also arms the stuck-buffer watchdog (its apply
        // disarms it).
        if let Some(stab) = self.stability.as_mut() {
            stab.on_deliver(from, to);
            if let Some(w) = writer {
                stab.note_receipt(to, w, self.now);
            }
        }
        let kind = msg.kind();
        self.emit(to, EventKind::Deliver { from, kind, writer });
        let now = self.now.as_nanos();
        let d = self.sites[i].on_message(now, from, msg, measured, &mut self.out);
        self.apply_outputs(to);
        self.metrics.record_delivery(i, d.buffered, d.pending);
        self.drain_proto(to);
    }

    /// Run the effects of a recovery or membership fast-forward at `site`
    /// (parked updates draining; unmeasured).
    fn absorb(&mut self, site: SiteId, effects: Vec<Effect>) {
        let now = self.now.as_nanos();
        self.sites[site.index()].route(now, effects, false, &mut self.out);
        self.apply_outputs(site);
        self.drain_proto(site);
    }

    /// Append `rec` to `site`'s write-ahead log, when the run has one.
    fn journal(&mut self, site: SiteId, rec: WalRecord) {
        if let Some(stores) = self.chaos.as_mut().and_then(|c| c.stores.as_mut()) {
            let bytes = stores[site.index()].append(rec, &self.cfg.size_model);
            self.emit(site, EventKind::WalAppend { bytes });
        }
    }
}
