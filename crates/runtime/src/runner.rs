//! The sharded M:N scheduler and run coordinator.
//!
//! A run spawns a fixed pool of `W` worker threads (not one thread per
//! site) and nothing else: site `i` is owned by worker `i mod W`, and each
//! worker runs one event loop — pump the transport (move what peers wrote
//! toward it into its mailboxes), drain its sites' mailboxes and issue
//! their due operations in fair round-robin, flush the transport (ship
//! what the pass's sends queued). `W = n` gives every site its own
//! worker; `W = 0` auto-sizes to the machine's available parallelism.
//!
//! Workers never spin. A worker parks on its wake latch (a saturating
//! one-shot token) until either a peer enqueues a frame for one of its
//! sites — or writes to one of its sockets — or the earliest timed event
//! — a scheduled operation or a batch window expiry — comes due. Senders
//! always publish *then* wake, and a parked worker re-scans after every
//! wake, so no frame can be stranded in a mailbox or a socket while its
//! owner sleeps. A pass that did work ends with one `yield_now`: a peer
//! that shares this worker's CPU runs on what the pass just shipped now,
//! not after this worker has run itself dry (see `worker_loop`).
//!
//! Quiescence is an exact condition — every driver exhausted and the
//! global in-flight frame tally at zero, which is stable once true (see
//! `Quiesce::wait_quiescent`) — and the coordinator parks on a condvar
//! that the last decrement notifies; there is no settle window and no
//! sleep-poll.

use crate::node::{BatchWindow, ChannelTransport, Node, NodeOutcome, OpDriver, Transport, Wire};
use crate::serve::ServeTransport;
use crate::tcp::MuxTransport;
use causal_checker::History;
use causal_memory::Placement;
use causal_metrics::RunMetrics;
use causal_proto::{build_site, Msg, ProtocolConfig, ProtocolKind, Replication};
use causal_types::{Result, SiteId, SizeModel};
use causal_workload::{generate, WorkloadParams};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a threaded run.
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Which protocol every site runs.
    pub protocol: ProtocolKind,
    /// Replica placement.
    pub placement: Arc<Placement>,
    /// The operation workload (schedules are generated exactly as for the
    /// simulator, so the same seed drives both).
    pub workload: WorkloadParams,
    /// Virtual-to-wall-clock scale. The paper's gaps are 5–2005 ms; a scale
    /// of `0.01` replays them as 0.05–20 ms, keeping runs fast while real
    /// thread interleaving still occurs.
    pub time_scale: f64,
    /// Byte accounting for the metrics.
    pub size_model: SizeModel,
    /// Per-destination update batching on the send path; `None` ships
    /// every SM as its own frame (required for sim-vs-real parity runs:
    /// wall-clock windows group updates differently than virtual-time
    /// ones, so message counts only line up unbatched).
    pub batch: Option<BatchWindow>,
    /// Scheduler worker threads. `0` auto-sizes to the machine's available
    /// parallelism; `n` gives every site its own worker. Always clamped to
    /// `[1, n]`.
    pub workers: usize,
}

impl RuntimeConfig {
    /// A fast live-run preset: `events` operations per process, time scale
    /// 0.005, no batching, auto-sized worker pool.
    pub fn fast(protocol: ProtocolKind, n: usize, w_rate: f64, seed: u64, events: usize) -> Self {
        let placement = if protocol.supports_partial() {
            Arc::new(Placement::paper_partial(n).expect("valid n"))
        } else {
            Arc::new(Placement::full(n).expect("valid n"))
        };
        let mut workload = WorkloadParams::paper(n, w_rate, seed);
        workload.events_per_process = events;
        RuntimeConfig {
            protocol,
            placement,
            workload,
            time_scale: 0.005,
            size_model: SizeModel::java_like(),
            batch: None,
            workers: 0,
        }
    }
}

/// What a threaded run produced.
pub struct RunOutcome {
    /// The combined execution history (feed to `causal_checker::check`).
    pub history: History,
    /// Aggregated metrics across sites. Replay runs attribute traffic to
    /// the measured window exactly as the simulator does (operations past
    /// the 15 % warm-up, with each frame's attribution carried on the
    /// wire); `metrics.all` always covers everything.
    pub metrics: RunMetrics,
    /// Parked updates at shutdown, summed over sites (must be 0).
    pub final_pending: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Resolve a configured worker count against a system size: `0` means one
/// worker per available core, and the result is always in `[1, n]` (more
/// workers than sites would only idle).
fn resolve_workers(configured: usize, n: usize) -> usize {
    let w = if configured == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        configured
    };
    w.clamp(1, n.max(1))
}

/// Run a closure on a possibly-poisoned std mutex (a panicking worker
/// must not cascade into every other thread's teardown).
pub(crate) fn locked<T, R>(m: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {
    let mut guard = m.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// A saturating one-shot wake latch: `notify` sets the token (idempotent),
/// `wait_until` parks until the token is set or a deadline passes and
/// consumes it. The M:N scheduler's replacement for both the old 50 µs
/// sleep-poll quiescence loops and per-site blocking `recv`s.
#[derive(Clone)]
pub(crate) struct WakeLatch(Arc<WakeInner>);

struct WakeInner {
    token: Mutex<bool>,
    cv: Condvar,
}

impl WakeLatch {
    pub(crate) fn new() -> Self {
        WakeLatch(Arc::new(WakeInner {
            token: Mutex::new(false),
            cv: Condvar::new(),
        }))
    }

    /// Set the token and wake the parked owner, if any. Saturating: an
    /// already-signalled latch stays signalled — and costs no futex call,
    /// because only the false→true flip notifies. The one consumer clears
    /// the token under the same mutex, so a token found set has either
    /// been notified for already or will be seen by the owner before it
    /// can park.
    pub(crate) fn notify(&self) {
        if !locked(&self.0.token, |t| std::mem::replace(t, true)) {
            self.0.cv.notify_one();
        }
    }

    /// Park until the token is set (consuming it — returns `true`) or
    /// `deadline` passes (returns `false`); `None` waits indefinitely.
    pub(crate) fn wait_until(&self, deadline: Option<Instant>) -> bool {
        let mut token = self.0.token.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *token {
                *token = false;
                return true;
            }
            match deadline {
                None => {
                    token = self.0.cv.wait(token).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if d <= now {
                        return false;
                    }
                    token = self
                        .0
                        .cv
                        .wait_timeout(token, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }
}

/// The sending side of one site's mailbox, with a depth gauge the
/// scheduler samples (the vendored channel stub has no `len`).
pub(crate) struct Mailbox {
    tx: Sender<Wire>,
    depth: Arc<AtomicUsize>,
}

impl Mailbox {
    /// Enqueue a frame. Returns `false` when the receiving worker has
    /// already exited.
    fn push(&self, wire: Wire) -> bool {
        self.depth.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(wire).is_ok() {
            true
        } else {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            false
        }
    }
}

/// The receiving side of one site's mailbox (owned by the site's worker).
pub(crate) struct MailboxRx {
    rx: Receiver<Wire>,
    depth: Arc<AtomicUsize>,
}

impl MailboxRx {
    fn try_recv(&self) -> Option<Wire> {
        match self.rx.try_recv() {
            Ok(w) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Some(w)
            }
            Err(_) => None,
        }
    }

    /// Current backlog (approximate under concurrent pushes — a gauge).
    fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn try_recv_test(&self) -> Option<Wire> {
        self.try_recv()
    }
}

fn mailbox() -> (Mailbox, MailboxRx) {
    let (tx, rx) = unbounded::<Wire>();
    let depth = Arc::new(AtomicUsize::new(0));
    (
        Mailbox {
            tx,
            depth: depth.clone(),
        },
        MailboxRx { rx, depth },
    )
}

/// The run-wide quiescence tracker: an in-flight frame tally, a
/// finished-drivers count, and a condvar the coordinator parks on.
///
/// A frame is in flight from the moment its sender commits to shipping it
/// (before it can touch a queue or socket) until the receiving node has
/// processed it — including any cascade sends, which are counted before
/// the triggering frame is released, so the tally can only read zero when
/// the system is genuinely silent.
pub(crate) struct Quiesce {
    sites: usize,
    in_flight: AtomicI64,
    finished: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Quiesce {
    pub(crate) fn new(sites: usize) -> Self {
        Quiesce {
            sites,
            in_flight: AtomicI64::new(0),
            finished: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// `k` frames are about to enter the network.
    pub(crate) fn frames_sent(&self, k: u64) {
        let k = i64::try_from(k).expect("frame batch fits i64");
        self.in_flight.fetch_add(k, Ordering::SeqCst);
    }

    /// `k` frames left the system — fully processed by their receiver, or
    /// positively lost (refused send, dead connection).
    pub(crate) fn frames_done(&self, k: u64) {
        let k = i64::try_from(k).expect("frame batch fits i64");
        let prev = self.in_flight.fetch_sub(k, Ordering::SeqCst);
        debug_assert!(prev >= k, "in-flight tally went negative");
        if prev == k && self.finished.load(Ordering::SeqCst) == self.sites {
            self.notify();
        }
    }

    /// Current in-flight frame tally (tests only).
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// One site's driver issued its last operation.
    pub(crate) fn site_finished(&self) {
        self.finished.fetch_add(1, Ordering::SeqCst);
        self.notify();
    }

    /// Wake the coordinator to re-check the quiescence condition. Taking
    /// the lock orders the notify against a coordinator that has checked
    /// the counters but not yet parked — no lost wake-ups.
    fn notify(&self) {
        locked(&self.lock, |()| ());
        self.cv.notify_all();
    }

    /// Park until every driver has finished and the in-flight tally reads
    /// zero. The condition is exact and, once true, stays true: a finished
    /// site issues no operation and holds no parked lane, so from then on
    /// only a delivery can send — and its cascade is counted before the
    /// delivered frame is released, which keeps the tally above zero until
    /// the last frame of the last cascade is done. `finished` is read
    /// first: a site counts its final sends before it reports finished, so
    /// a zero read after `finished == sites` has every send behind it.
    /// Event-driven via [`Quiesce::notify`]; the timeout is a safety
    /// heartbeat against a lost notify, not a poll interval.
    pub(crate) fn wait_quiescent(&self) {
        const HEARTBEAT: Duration = Duration::from_millis(250);
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while self.finished.load(Ordering::SeqCst) != self.sites
            || self.in_flight.load(Ordering::SeqCst) != 0
        {
            guard = self
                .cv
                .wait_timeout(guard, HEARTBEAT)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// The run's routing table: every site's mailbox, its owning worker, and
/// each worker's wake latch. Shared by the transports and the coordinator
/// — anything that needs to hand a frame to a site.
pub(crate) struct Routes {
    mailboxes: Vec<Mailbox>,
    /// `owner[site]` = index of the worker that drains the site.
    owner: Vec<usize>,
    wakes: Vec<WakeLatch>,
}

impl Routes {
    /// Number of scheduler workers.
    pub(crate) fn workers(&self) -> usize {
        self.wakes.len()
    }

    /// Number of sites.
    pub(crate) fn sites(&self) -> usize {
        self.mailboxes.len()
    }

    /// The worker that owns `site`.
    pub(crate) fn owner(&self, site: usize) -> usize {
        self.owner[site]
    }

    /// Enqueue a frame for `site` and wake its owner. Returns `false` when
    /// the site's mailbox is already gone (worker exited).
    pub(crate) fn deliver(&self, site: usize, wire: Wire) -> bool {
        let ok = self.mailboxes[site].push(wire);
        if ok {
            self.wake(self.owner[site]);
        }
        ok
    }

    /// Wake `worker` — the caller has already published what it should
    /// find.
    pub(crate) fn wake(&self, worker: usize) {
        self.wakes[worker].notify();
    }

    /// Enqueue a copy of `msg` (a refcount bump of its piggyback) for every
    /// site in `dsts`, then wake each distinct owner once — except
    /// `sender`, the worker executing the send, whose pass continues
    /// anyway. Returns how many of the mailboxes were already gone.
    pub(crate) fn fan_out(
        &self,
        from: SiteId,
        dsts: &[SiteId],
        msg: &Msg,
        measured: bool,
        sender: Option<usize>,
    ) -> usize {
        let mut refused = 0;
        for d in dsts {
            let wire = Wire::Msg {
                from,
                msg: msg.clone(),
                measured,
            };
            refused += usize::from(!self.mailboxes[d.index()].push(wire));
        }
        // One bit per worker (`W ≤ MAX_WORKERS`): the sender counts as
        // woken from the start.
        let mut woken = sender.map_or(0u128, |w| 1 << w);
        for d in dsts {
            let w = self.owner[d.index()];
            if woken & (1 << w) == 0 {
                woken |= 1 << w;
                self.wakes[w].notify();
            }
        }
        refused
    }
}

/// A spawned-but-not-yet-collected run: the fabric plus the worker pool.
struct Cluster {
    routes: Arc<Routes>,
    quiesce: Arc<Quiesce>,
    /// The worker pool — every thread the run spawned.
    handles: Vec<JoinHandle<Vec<NodeOutcome>>>,
}

/// The communication fabric of a run, built before any node exists so
/// transports can capture it: mailboxes + routing on the sending side,
/// the matching receivers held here until [`Fabric::spawn`] hands them to
/// the workers.
struct Fabric {
    routes: Arc<Routes>,
    quiesce: Arc<Quiesce>,
    rxs: Vec<MailboxRx>,
}

/// The widest pool a fabric supports: [`Routes::fan_out`] keeps its
/// woken-owner set in one `u128`. Site ids stop at 128 too
/// (`causal_clocks::dests::MAX_SITES`), so no valid `n` is refused.
const MAX_WORKERS: usize = u128::BITS as usize;

/// Build the fabric for `n` sites sharded over `workers` workers
/// (`workers` must already be resolved via [`resolve_workers`]).
fn build_fabric(n: usize, workers: usize) -> Fabric {
    assert!((1..=n).contains(&workers), "workers must be in [1, n]");
    assert!(workers <= MAX_WORKERS, "at most {MAX_WORKERS} workers");
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| mailbox()).unzip();
    let wakes = (0..workers).map(|_| WakeLatch::new()).collect();
    let owner = (0..n).map(|i| i % workers).collect();
    Fabric {
        routes: Arc::new(Routes {
            mailboxes: txs,
            owner,
            wakes,
        }),
        quiesce: Arc::new(Quiesce::new(n)),
        rxs,
    }
}

/// A fabric whose receive sides stay in the caller's hands — unit-test
/// instrumentation for the transport layers.
#[cfg(test)]
pub(crate) fn test_fabric(n: usize, workers: usize) -> (Arc<Routes>, Vec<MailboxRx>) {
    let fabric = build_fabric(n, workers);
    (fabric.routes, fabric.rxs)
}

#[cfg(test)]
impl Routes {
    /// Consume worker `w`'s wake token without blocking past `timeout`
    /// (tests only).
    pub(crate) fn take_wake(&self, w: usize, timeout: Duration) -> bool {
        self.wakes[w].wait_until(Some(Instant::now() + timeout))
    }
}

impl Fabric {
    /// Spawn the worker pool — the only threads a run has. `make_node` is
    /// called once per site index, on the coordinator thread, to build the
    /// site's [`Node`]; the node is then moved to its owning worker, which
    /// also pumps and flushes `transport` once per pass.
    pub(crate) fn spawn(
        self,
        transport: &Arc<dyn Transport>,
        mut make_node: impl FnMut(usize) -> Node,
    ) -> Cluster {
        let Fabric {
            routes,
            quiesce,
            rxs,
        } = self;
        let workers = routes.workers();
        let mut per_worker: Vec<Vec<SiteSlot>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            per_worker[i % workers].push(SiteSlot {
                node: make_node(i),
                rx,
                stopped: false,
            });
        }
        let mut handles = Vec::with_capacity(workers);
        for (w, slots) in per_worker.into_iter().enumerate() {
            let (wake, transport) = (routes.wakes[w].clone(), transport.clone());
            handles.push(std::thread::spawn(move || {
                worker_loop(w, slots, &wake, &*transport)
            }));
        }
        Cluster {
            routes,
            quiesce,
            handles,
        }
    }
}

/// One site as seen by its worker: the node, its mailbox receiver, and
/// whether it has taken its `Stop`.
struct SiteSlot {
    node: Node,
    rx: MailboxRx,
    stopped: bool,
}

/// The earlier of two optional deadlines.
fn earlier(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// How many mailbox frames one site may drain per scheduler pass before
/// the worker moves on to its next site. Bounds per-site burst latency
/// under K:1 sharding without starving a busy neighbour.
const DRAIN_BUDGET: usize = 64;

/// How long a worker parks when a pass did nothing but the transport is
/// not settled — an unwritten tail the peer's socket would not take, or
/// bytes a peer announced that the kernel has not handed over yet. Nobody
/// will wake it for either, so it comes back by itself.
const UNSETTLED_PARK: Duration = Duration::from_micros(50);

/// Worker `me`'s event loop. One pass: pump the transport, round-robin
/// over owned sites — drain (bounded), then issue due operations — and
/// flush the transport; park until woken or the earliest timed event when
/// the pass made no progress, yield the CPU once when it did. Exits once
/// every owned site has taken its `Stop`.
///
/// The yield is for two workers on one CPU — more workers than cores, or a
/// pool the kernel left where `main` spawned it. Without it the running
/// worker keeps its time slice through the ~6 passes it takes until every
/// one of its sites waits on the peer, sleeps, and the peer does the same:
/// ~0.6 ms stretches, ~850 futex sleeps a second each. The 2-vCPU test
/// host does not pull such a pair apart — whole 2 s saturated
/// `serve-tcp-read` deployments ran on one vCPU, 140k ops/s instead of
/// 240k, in bursts lasting minutes — and it does separate two threads
/// that are both always runnable, which is what the pair becomes once each
/// pass ends in a yield (docs/RUNTIME.md, "Scheduling loop"). A worker
/// alone on its CPU pays one `sched_yield` that returns at once.
fn worker_loop(
    me: usize,
    mut slots: Vec<SiteSlot>,
    wake: &WakeLatch,
    transport: &dyn Transport,
) -> Vec<NodeOutcome> {
    let mut live = slots.len();
    while live > 0 {
        let mut progressed = false;
        let mut next_wake: Option<Instant> = None;
        // What peers wrote lands in the mailboxes the drain below reads.
        let mut unsettled = transport.pump(me);
        for slot in &mut slots {
            if slot.stopped {
                continue;
            }
            let backlog = slot.rx.len();
            if backlog > 0 {
                slot.node.note_mailbox_depth(backlog);
            }
            let mut budget = DRAIN_BUDGET;
            while budget > 0 {
                match slot.rx.try_recv() {
                    Some(wire) => {
                        progressed = true;
                        budget -= 1;
                        if !slot.node.on_wire(wire) {
                            slot.stopped = true;
                            live -= 1;
                            break;
                        }
                    }
                    None => break,
                }
            }
            if slot.stopped {
                continue;
            }
            if budget == 0 {
                // Budget exhausted with backlog likely remaining: force
                // another pass so the leftover cannot wait on a stale
                // wake token.
                progressed = true;
            }
            let (did, wake_at) = slot.node.poll();
            progressed |= did;
            next_wake = earlier(next_wake, wake_at);
        }
        // One encode-and-write per peer for everything this pass sent.
        unsettled |= transport.flush(me);
        if progressed {
            std::thread::yield_now();
        } else if live > 0 {
            // Park. Senders publish — a mailbox push, or a socket write
            // and its byte count — before they notify and the latch
            // saturates, so anything published after the pump and drain
            // above leaves the token set and the wait returns at once.
            let retry = unsettled.then(|| Instant::now() + UNSETTLED_PARK);
            wake.wait_until(earlier(next_wake, retry));
        }
    }
    slots.into_iter().map(|s| s.node.finish()).collect()
}

/// Wait for quiescence (every driver exhausted and the in-flight tally
/// at zero), broadcast `Stop`, join the worker pool, and merge the
/// per-site outcomes; the pool size lands in `metrics.threads_spawned`.
fn drive(cluster: Cluster) -> (History, RunMetrics, usize) {
    let n = cluster.routes.sites();
    cluster.quiesce.wait_quiescent();
    for site in 0..n {
        let _ = cluster.routes.deliver(site, Wire::Stop);
    }

    let mut history = History::new(n);
    let mut metrics = RunMetrics::new();
    let mut final_pending = 0;
    metrics.threads_spawned = cluster.handles.len() as u64;
    for h in cluster.handles {
        for out in h.join().expect("worker thread panicked") {
            history.absorb(out.history);
            metrics.merge(&out.metrics);
            final_pending += out.final_pending;
        }
    }
    (history, metrics, final_pending)
}

/// Deploy one cluster and run it to quiescence: build the fabric, pick
/// the transport, spawn the worker pool with one [`Node`] per site —
/// `ops(i)` is site `i`'s operation driver — drive it, and fold the
/// transport's gauges in *after* the join, so late teardown races are
/// included. `elapsed` runs from before the fabric exists to quiescence.
#[allow(clippy::too_many_arguments)]
pub(crate) fn deploy(
    protocol: ProtocolKind,
    placement: Arc<Placement>,
    transport: ServeTransport,
    workers: usize,
    payload_len: u32,
    size_model: SizeModel,
    batch: Option<BatchWindow>,
    ops: impl Fn(usize) -> OpDriver,
) -> Result<RunOutcome> {
    let n = placement.n();
    let repl: Arc<dyn Replication> = placement;
    let start = Instant::now();

    let fabric = build_fabric(n, resolve_workers(workers, n));
    let channel_errors = Arc::new(AtomicU64::new(0));
    let mesh = match transport {
        ServeTransport::Tcp => Some(Arc::new(MuxTransport::connect(
            &fabric.routes,
            &fabric.quiesce,
        )?)),
        ServeTransport::Channel => None,
    };
    let transport: Arc<dyn Transport> = match &mesh {
        Some(m) => m.clone(),
        None => Arc::new(ChannelTransport::new(
            fabric.routes.clone(),
            channel_errors.clone(),
        )),
    };

    let quiesce = fabric.quiesce.clone();
    let cluster = fabric.spawn(&transport, |i| {
        let site = SiteId::from(i);
        Node::new(
            site,
            build_site(protocol, site, repl.clone(), ProtocolConfig::default()),
            ops(i),
            n,
            payload_len,
            transport.clone(),
            quiesce.clone(),
            size_model,
            batch,
            start,
        )
    });

    let (history, mut metrics, final_pending) = drive(cluster);
    let elapsed = start.elapsed();
    if let Some(m) = mesh {
        m.fold_gauges(&mut metrics);
    }
    metrics.transport_conn_errors += channel_errors.load(Ordering::Relaxed);
    Ok(RunOutcome {
        history,
        metrics,
        final_pending,
        elapsed,
    })
}

/// Replay `cfg`'s workload (the simulator's schedule for the same seed)
/// on a deployment over `transport`.
pub(crate) fn replay(cfg: &RuntimeConfig, transport: ServeTransport) -> Result<RunOutcome> {
    assert_eq!(cfg.placement.n(), cfg.workload.n);
    let schedule = generate(&cfg.workload);
    deploy(
        cfg.protocol,
        cfg.placement.clone(),
        transport,
        cfg.workers,
        cfg.workload.payload_len,
        cfg.size_model,
        cfg.batch,
        |i| {
            OpDriver::replay(
                schedule.per_site[i].clone(),
                schedule.warmup_events,
                cfg.time_scale,
            )
        },
    )
}

/// Run the workload on the sharded worker pool over in-process channels.
/// Blocks until quiescent.
pub fn run_threaded(cfg: &RuntimeConfig) -> RunOutcome {
    replay(cfg, ServeTransport::Channel).expect("the channel fabric opens no socket")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lost wake-up parks `wait_until` forever; the deadline turns that
    /// into a failed assertion.
    fn wait(latch: &WakeLatch) {
        let deadline = Instant::now() + Duration::from_secs(10);
        assert!(latch.wait_until(Some(deadline)), "lost wake-up");
    }

    #[test]
    fn wake_latch_loses_no_wake_up_to_a_free_running_notifier() {
        // The scheduler's pattern: the producer publishes then notifies,
        // the consumer scans then parks. The producer never waits, so most
        // of its notifies find the token already set (the no-futex path)
        // and some race the consumer's scan-then-park.
        const N: u64 = 200_000;
        let latch = WakeLatch::new();
        let published = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 1..=N {
                    published.store(i, Ordering::SeqCst);
                    latch.notify();
                }
            });
            while published.load(Ordering::SeqCst) < N {
                wait(&latch);
            }
        });
    }

    #[test]
    fn wake_latch_hands_off_every_round_of_a_ping_pong() {
        // Strict alternation: each side parks until the other's notify, so
        // every round is a real false→true flip against a parked (or
        // about-to-park) waiter.
        const ROUNDS: usize = 20_000;
        let (ping, pong) = (WakeLatch::new(), WakeLatch::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    wait(&ping);
                    pong.notify();
                }
            });
            for _ in 0..ROUNDS {
                ping.notify();
                wait(&pong);
            }
        });
    }

    #[test]
    fn fan_out_wakes_each_distinct_owner_once_and_never_the_sender() {
        // 40 sites over 4 workers: a 39-destination multicast from site 0
        // leaves one copy per mailbox and one token per other worker.
        let (routes, mailboxes) = test_fabric(40, 4);
        let dsts: Vec<SiteId> = (1..40usize).map(SiteId::from).collect();
        let msg = Msg::Fm(causal_proto::Fm {
            var: causal_types::VarId(0),
        });
        assert_eq!(routes.fan_out(SiteId(0), &dsts, &msg, true, Some(0)), 0);
        for (i, m) in mailboxes.iter().enumerate() {
            let copies = std::iter::from_fn(|| m.try_recv_test()).count();
            assert_eq!(copies, usize::from(i != 0), "site {i}");
        }
        assert!(
            !routes.take_wake(0, Duration::ZERO),
            "the sender is running"
        );
        for w in 1..4 {
            assert!(routes.take_wake(w, Duration::ZERO), "worker {w}");
        }
        // Nobody executing the send (a pump rerouting): every owner.
        routes.fan_out(SiteId(0), &dsts[..4], &msg, true, None);
        assert!((0..4).all(|w| routes.take_wake(w, Duration::ZERO)));
    }

    #[test]
    fn wake_latch_saturates_and_is_consumed_once() {
        let latch = WakeLatch::new();
        latch.notify();
        latch.notify();
        assert!(latch.wait_until(Some(Instant::now())));
        assert!(
            !latch.wait_until(Some(Instant::now())),
            "one token, not two"
        );
    }
}
