//! The sharded M:N scheduler and run coordinator.
//!
//! A run spawns a fixed pool of `W` worker threads (not one thread per
//! site) and nothing else: site `i` is owned by worker `i mod W`, and each
//! worker runs one event loop — pump the transport (move what peers wrote
//! toward it into its inbox), take the inbox (one swap under the worker's
//! own mutex), deliver what it held in arrival order, issue every owned
//! site's due operations, flush the transport (hand each peer worker what
//! the pass's sends staged for it). `W = n` gives every site its own
//! worker; `W = 0` auto-sizes to the machine's available parallelism.
//!
//! A pass also does once what a frame would otherwise do each: it reads
//! the clock when it takes the inbox, and every frame of the batch is
//! delivered at that instant; and it counts the frames it delivered done
//! with one add to its tally, after the last delivery's cascade sends were
//! counted sent (see `Worker::deliver`).
//!
//! Frames cross workers once per pass, not once per frame: every worker
//! has *one* inbox, a mutex-guarded `Vec` of `(destination, frame)`. A
//! send toward a shard-mate appends to the sender's own inbox and wakes
//! nobody; a send toward another worker is staged by the transport and
//! handed over — one lock, one append, one wake per peer — when the pass
//! ends (docs/RUNTIME.md, "Inbox and hand-over").
//!
//! Workers never spin. A worker parks on its wake latch (a saturating
//! one-shot token) until either a peer hands frames over to its inbox —
//! or writes to one of its sockets — or the earliest timed event — a
//! scheduled operation or a batch window expiry — comes due. Senders
//! always publish *then* wake, and a parked worker takes its inbox again
//! after every wake, so no frame can be stranded in an inbox or a socket
//! while its owner sleeps. A pass that did work ends with one `yield_now`:
//! a peer that shares this worker's CPU runs on what the pass just shipped
//! now, not after this worker has run itself dry (see `worker_loop`).
//!
//! Quiescence is an exact condition — every driver exhausted and the
//! workers' sent and done frame tallies summing to the same number, which
//! is stable once true (see `Quiesce::quiescent`) — and the coordinator
//! parks on a condvar that a finishing site and a worker about to park
//! notify; there is no settle window and no sleep-poll.

use crate::node::{BatchWindow, ChannelTransport, Node, NodeOutcome, OpDriver, Transport, Wire};
use crate::serve::{ServeReport, ServeTransport};
use crate::tcp::MuxTransport;
use causal_checker::History;
use causal_memory::Placement;
use causal_metrics::{LatencySummary, RunMetrics};
use causal_proto::{ProtocolConfig, ProtocolKind, Replication, SiteDriver};
use causal_types::{Error, Result, SiteId, SizeModel};
use causal_workload::{generate, WorkloadParams};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
            workers: 0,
        }
    }
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

/// A value alone on its cache lines (128 bytes: x86-64 prefetches lines
/// in adjacent pairs), so that what one worker writes on every frame
/// shares no line with what another does.
#[repr(align(128))]
pub(crate) struct OwnLine<T>(pub(crate) T);

/// What travels through an inbox: a frame and the site it is for.
pub(crate) type Addressed = (SiteId, Wire);

/// One worker's inbox: every frame for a site the worker owns, in arrival
/// order. The owner swaps `q` out once per pass; its own sends append
/// single frames, a peer's hand-over appends a pass's worth at once.
#[derive(Default)]
struct Inbox {
    q: Vec<Addressed>,
    /// The owner has left its loop: whatever arrives now is refused.
    closed: bool,
}

/// One worker's frame tallies. Both only grow, and in a run only the
/// worker's own thread adds to them.
#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    done: AtomicU64,
}

/// The run-wide quiescence tracker: per-worker sent and done frame
/// tallies, a finished-drivers count, and a condvar the coordinator parks
/// on.
///
/// A frame is counted *sent* on its sender's worker the moment the sender
/// commits to shipping it (before it can touch a queue or socket) and
/// *done* on its receiver's worker once the receiving node has processed
/// it — including any cascade sends, which are counted sent before the
/// triggering frame is counted done. A frame the fabric positively loses
/// is counted done by whoever lost it. No worker ever writes another's
/// line; the coordinator sums them (see [`Quiesce::quiescent`]).
pub(crate) struct Quiesce {
    sites: usize,
    tallies: Vec<OwnLine<Tally>>,
    finished: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Quiesce {
    pub(crate) fn new(sites: usize, workers: usize) -> Self {
        Quiesce {
            sites,
            tallies: (0..workers).map(|_| OwnLine(Tally::default())).collect(),
            finished: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// `k` frames are about to enter the network from a site of `worker`.
    /// `Release`, paired with the `Acquire` loads of
    /// [`Quiesce::quiescent`] — as is [`Quiesce::frames_done`].
    pub(crate) fn frames_sent(&self, worker: usize, k: u64) {
        self.tallies[worker].0.sent.fetch_add(k, Ordering::Release);
    }

    /// `k` frames left the system on `worker` — fully processed by their
    /// receiver (cascade sends already counted), or positively lost
    /// (refused send, dead connection, closed inbox).
    pub(crate) fn frames_done(&self, worker: usize, k: u64) {
        self.tallies[worker].0.done.fetch_add(k, Ordering::Release);
    }

    /// The sum of one of the two tallies over every worker.
    fn scan(&self, cell: fn(&Tally) -> &AtomicU64) -> u64 {
        let cells = self.tallies.iter().map(|t| cell(&t.0));
        cells.map(|c| c.load(Ordering::Acquire)).sum()
    }

    /// One site's driver issued its last operation.
    pub(crate) fn site_finished(&self) {
        self.finished.fetch_add(1, Ordering::SeqCst);
        self.notify();
    }

    /// A worker is about to park. Once every driver has finished, the
    /// frame it just counted done may have been the last one, and no
    /// shared counter says so — have the coordinator look.
    pub(crate) fn idle(&self) {
        if self.finished.load(Ordering::SeqCst) == self.sites {
            self.notify();
        }
    }

    /// Wake the coordinator to re-check the quiescence condition. Taking
    /// the lock orders the notify against a coordinator that has checked
    /// the tallies but not yet parked — no lost wake-ups.
    fn notify(&self) {
        locked(&self.lock, |()| ());
        self.cv.notify_all();
    }

    /// Whether every driver has finished and every frame ever sent is
    /// done. Three reads in this order: `finished`, then every `done`
    /// cell, then every `sent` cell.
    ///
    /// Exact: a frame is counted sent before it is published and done only
    /// after its cascade is counted sent, and both tallies only grow, so
    /// for the instant `t` between the two scans `done_read ≤ done(t) ≤
    /// sent(t) ≤ sent_read` — equal sums mean nothing was in flight at
    /// `t`. In happens-before terms: a `done` the scan observed (`Acquire`
    /// on its `Release`) makes that frame's own `sent` and its cascade's
    /// visible to the later `sent` scan, and `finished == sites` (read
    /// first) does the same for every send an operation made, so with
    /// equal sums the frames seen sent are exactly the frames seen done, and
    /// that set holds every operation's sends and every cascade of its
    /// members: nothing else will ever be sent. Stable: a finished site
    /// issues no operation and holds no parked lane, so from then on only
    /// a delivery can send.
    ///
    /// One *net* cell per worker (sent − done) would be wrong however it
    /// is scanned: A sends X, the scan reads A = +1, B processes X
    /// (B = −1), A sends Y, the scan reads B = −1 and sums zero while Y
    /// travels.
    pub(crate) fn quiescent(&self) -> bool {
        if self.finished.load(Ordering::SeqCst) != self.sites {
            return false;
        }
        let done = self.scan(|t| &t.done);
        let sent = self.scan(|t| &t.sent);
        debug_assert!(done <= sent, "more frames done than sent");
        done == sent
    }

    /// Park until [`Quiesce::quiescent`]. Event-driven via
    /// [`Quiesce::site_finished`] and [`Quiesce::idle`]; the timeout is a
    /// safety heartbeat against a lost notify, not a poll interval.
    pub(crate) fn wait_quiescent(&self) {
        const HEARTBEAT: Duration = Duration::from_millis(250);
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while !self.quiescent() {
            guard = self
                .cv
                .wait_timeout(guard, HEARTBEAT)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

#[cfg(test)]
impl Quiesce {
    /// Worker `w`'s `(sent, done)`.
    fn tally(&self, w: usize) -> (u64, u64) {
        let cell = |c: &AtomicU64| c.load(Ordering::Acquire);
        (cell(&self.tallies[w].0.sent), cell(&self.tallies[w].0.done))
    }

    /// Frames sent and not yet done (exact while nothing moves).
    pub(crate) fn in_flight(&self) -> u64 {
        let done = self.scan(|t| &t.done);
        self.scan(|t| &t.sent) - done
    }
}

/// The run's routing table: every worker's inbox and wake latch, and each
/// site's owning worker. Shared by the transports and the coordinator —
/// anything that needs to hand a frame to a site.
pub(crate) struct Routes {
    inboxes: Vec<OwnLine<Mutex<Inbox>>>,
    /// `owner[site]` = index of the worker that runs the site.
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
        self.owner.len()
    }

    /// The worker that owns `site`.
    pub(crate) fn owner(&self, site: usize) -> usize {
        self.owner[site]
    }

    /// Wake `worker` — the caller has already published what it should
    /// find.
    pub(crate) fn wake(&self, worker: usize) {
        self.wakes[worker].notify();
    }

    /// Append `copies` — frames for sites `worker` owns — to `worker`'s
    /// inbox, called by `worker`'s own thread: one lock that only a peer's
    /// hand-over contends for, and no wake, because the thread that takes
    /// the inbox is the one running. Returns how many were refused (the
    /// inbox is closed).
    pub(crate) fn push_own(&self, worker: usize, copies: impl Iterator<Item = Addressed>) -> usize {
        locked(&self.inboxes[worker].0, |inbox| {
            if inbox.closed {
                return copies.count();
            }
            inbox.q.extend(copies);
            0
        })
    }

    /// Hand everything in `stage` — frames for sites `worker` owns, in
    /// send order — over to `worker`'s inbox and wake it: one lock, one
    /// append, one wake, however many frames. `stage` is left empty (and
    /// keeps its allocation). Returns how many frames were refused: all of
    /// them when `worker` has already left, none otherwise.
    pub(crate) fn hand_over(&self, worker: usize, stage: &mut Vec<Addressed>) -> usize {
        let refused = locked(&self.inboxes[worker].0, |inbox| {
            if inbox.closed {
                let refused = stage.len();
                stage.clear();
                return refused;
            }
            inbox.q.append(stage);
            0
        });
        if refused == 0 {
            self.wake(worker);
        }
        refused
    }

    /// Push one frame for `site` and wake its owner at once — the two
    /// paths that have no pass to ride on: the coordinator's `Stop` and a
    /// wrong-shard frame's re-route. Returns `false` when the owner has
    /// already left.
    pub(crate) fn deliver(&self, site: SiteId, wire: Wire) -> bool {
        self.hand_over(self.owner[site.index()], &mut vec![(site, wire)]) == 0
    }

    /// Swap everything `worker`'s inbox holds into `batch` (empty; its
    /// allocation becomes the inbox's). Called by `worker`'s own thread,
    /// and the lock is released before the first frame is delivered — a
    /// delivery sends into this very inbox.
    pub(crate) fn take(&self, worker: usize, batch: &mut Vec<Addressed>) {
        debug_assert!(batch.is_empty(), "the last batch was delivered");
        locked(&self.inboxes[worker].0, |inbox| {
            std::mem::swap(&mut inbox.q, batch);
        });
    }

    /// `worker` has left its loop: drop what it will never deliver and
    /// refuse whatever arrives from now on.
    pub(crate) fn close(&self, worker: usize) {
        locked(&self.inboxes[worker].0, |inbox| {
            inbox.closed = true;
            inbox.q = Vec::new();
        });
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
/// transports can capture it: the inboxes and routing, and the quiescence
/// tallies.
struct Fabric {
    routes: Arc<Routes>,
    quiesce: Arc<Quiesce>,
}

/// Build the fabric for `n` sites sharded over `workers` workers
/// (`workers` must already be resolved via [`resolve_workers`]).
fn build_fabric(n: usize, workers: usize) -> Fabric {
    assert!((1..=n).contains(&workers), "workers must be in [1, n]");
    let inboxes = (0..workers).map(|_| OwnLine(Mutex::default())).collect();
    let wakes = (0..workers).map(|_| WakeLatch::new()).collect();
    let owner = (0..n).map(|i| i % workers).collect();
    Fabric {
        routes: Arc::new(Routes {
            inboxes,
            owner,
            wakes,
        }),
        quiesce: Arc::new(Quiesce::new(n, workers)),
    }
}

/// A fabric nobody runs: the test plays the workers — unit-test
/// instrumentation for the transport layers.
#[cfg(test)]
pub(crate) fn test_fabric(n: usize, workers: usize) -> (Arc<Routes>, Arc<Quiesce>) {
    let fabric = build_fabric(n, workers);
    (fabric.routes, fabric.quiesce)
}

#[cfg(test)]
impl Routes {
    /// Consume worker `w`'s wake token without blocking past `timeout`
    /// (tests only).
    pub(crate) fn take_wake(&self, w: usize, timeout: Duration) -> bool {
        self.wakes[w].wait_until(Some(Instant::now() + timeout))
    }

    /// Everything worker `w`'s inbox holds, in arrival order (tests only).
    pub(crate) fn taken(&self, w: usize) -> Vec<Addressed> {
        let mut batch = Vec::new();
        self.take(w, &mut batch);
        batch
    }

    /// Run `f` while holding worker `w`'s inbox lock (tests only).
    pub(crate) fn with_inbox_locked<R>(&self, w: usize, f: impl FnOnce() -> R) -> R {
        locked(&self.inboxes[w].0, |_| f())
    }
}

impl Fabric {
    /// Spawn the worker pool — the only threads a run has. `make_node` is
    /// called once per site index and its owning worker, on the
    /// coordinator thread, to build the site's [`Node`]; the node is then
    /// moved to that worker, which also pumps and flushes `transport` once
    /// per pass.
    pub(crate) fn spawn(
        self,
        transport: &Arc<dyn Transport>,
        mut make_node: impl FnMut(usize, usize) -> Node,
    ) -> Cluster {
        let Fabric { routes, quiesce } = self;
        let workers = routes.workers();
        let mut per_worker: Vec<Vec<SiteSlot>> = (0..workers).map(|_| Vec::new()).collect();
        for i in 0..routes.sites() {
            let w = routes.owner(i);
            per_worker[w].push(SiteSlot::new(make_node(i, w)));
        }
        let mut handles = Vec::with_capacity(workers);
        for (w, slots) in per_worker.into_iter().enumerate() {
            let (routes, quiesce, transport) = (routes.clone(), quiesce.clone(), transport.clone());
            handles.push(std::thread::spawn(move || {
                worker_loop(Worker::new(w, slots, &routes, &*transport, &quiesce))
            }));
        }
        Cluster {
            routes,
            quiesce,
            handles,
        }
    }
}

/// One site as seen by its worker: the node, how many frames the batch
/// being delivered held for it, and whether it has taken its `Stop`.
struct SiteSlot {
    node: Node,
    taken: usize,
    stopped: bool,
}

impl SiteSlot {
    fn new(node: Node) -> Self {
        SiteSlot {
            node,
            taken: 0,
            stopped: false,
        }
    }
}

/// The earlier of two optional deadlines.
fn earlier(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// How long a worker parks when a pass did nothing but the transport is
/// not settled — an unwritten tail the peer's socket would not take, or
/// bytes a peer announced that the kernel has not handed over yet. Nobody
/// will wake it for either, so it comes back by itself.
const UNSETTLED_PARK: Duration = Duration::from_micros(50);

/// A worker's event loop: pass after pass — park until woken or the
/// earliest timed event when a pass made no progress, yield the CPU once
/// when it did — until every owned site has taken its `Stop`.
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
fn worker_loop(mut worker: Worker<'_>) -> Vec<NodeOutcome> {
    while worker.live > 0 {
        let pass = worker.pass();
        if pass.progressed {
            std::thread::yield_now();
        } else if worker.live > 0 {
            // Park. Senders publish — an append under the inbox mutex, or
            // a socket write and its byte count — before they notify and
            // the latch saturates, so anything published after the pass's
            // pump and take leaves the token set and the wait returns at
            // once. The frame this worker counted done last may have been
            // the run's last: the coordinator is told to look.
            worker.quiesce.idle();
            let retry = pass.unsettled.then(|| Instant::now() + UNSETTLED_PARK);
            let wake = &worker.routes.wakes[worker.me];
            wake.wait_until(earlier(pass.next_wake, retry));
        }
    }
    worker.routes.close(worker.me);
    worker.slots.into_iter().map(|s| s.node.finish()).collect()
}

/// A scheduler worker: the sites it owns (site `i` of worker `me` sits at
/// `slots[i / W]`) and the batch it swaps its inbox into.
struct Worker<'a> {
    me: usize,
    slots: Vec<SiteSlot>,
    /// Owned sites that have not taken their `Stop`.
    live: usize,
    /// The taken inbox; empty between passes, its allocation reused.
    batch: Vec<Addressed>,
    routes: &'a Routes,
    transport: &'a dyn Transport,
    /// The run's tallies: the worker counts its delivered frames done.
    quiesce: &'a Quiesce,
}

/// What one pass of a worker came to.
struct Pass {
    /// A frame was delivered, an operation issued or a lane flushed.
    progressed: bool,
    /// The earliest timed event of any owned site.
    next_wake: Option<Instant>,
    /// The transport knows of work no wake-up will announce.
    unsettled: bool,
}

impl<'a> Worker<'a> {
    fn new(
        me: usize,
        slots: Vec<SiteSlot>,
        routes: &'a Routes,
        transport: &'a dyn Transport,
        quiesce: &'a Quiesce,
    ) -> Self {
        Worker {
            me,
            live: slots.len(),
            slots,
            batch: Vec::new(),
            routes,
            transport,
            quiesce,
        }
    }

    /// One pass: pump the transport, take the inbox, deliver what it held
    /// in arrival order, issue every live site's due operations, flush the
    /// transport. The pass is bounded by what had arrived when it took the
    /// inbox: a frame one of its deliveries sends to a shard-mate lands in
    /// the inbox behind the swap and waits for the next pass — which the
    /// worker starts without parking, because a pass that delivered
    /// anything progressed.
    fn pass(&mut self) -> Pass {
        // What peers wrote lands in the inbox the take below empties.
        let mut unsettled = self.transport.pump(self.me);
        self.routes.take(self.me, &mut self.batch);
        let mut progressed = !self.batch.is_empty();
        if progressed {
            self.deliver();
        }
        let mut next_wake = None;
        for slot in self.slots.iter_mut().filter(|s| !s.stopped) {
            slot.node
                .note_mailbox_depth(std::mem::take(&mut slot.taken));
            let (did, wake_at) = slot.node.poll();
            progressed |= did;
            next_wake = earlier(next_wake, wake_at);
        }
        // One hand-over, or one encode-and-write, per peer for everything
        // this pass sent.
        unsettled |= self.transport.flush(self.me);
        Pass {
            progressed,
            next_wake,
            unsettled,
        }
    }

    /// Deliver the taken batch in arrival order, stamped and tallied once:
    /// every frame is delivered at the instant the batch was taken (its
    /// fetch RTT and apply dwell are read there), and the frames delivered
    /// are counted done in one add after the last delivery, when every
    /// cascade send of the batch has been counted sent — so the
    /// coordinator cannot find the tallies equal too early.
    fn deliver(&mut self) {
        let now = Instant::now();
        let stride = self.routes.workers();
        let mut delivered = 0;
        for (site, wire) in self.batch.drain(..) {
            let slot = &mut self.slots[site.index() / stride];
            if slot.stopped {
                continue;
            }
            slot.taken += 1;
            if slot.node.on_wire(wire, now) {
                delivered += 1;
            } else {
                slot.stopped = true;
                self.live -= 1;
            }
        }
        if delivered > 0 {
            self.quiesce.frames_done(self.me, delivered);
        }
    }
}

/// Wait for quiescence (every driver exhausted and every frame sent
/// done), broadcast `Stop`, join the worker pool, and fold the per-site
/// outcomes into one report, `elapsed` counted from `start`; the pool
/// size lands in `metrics.threads_spawned`.
fn drive(cluster: Cluster, start: Instant) -> ServeReport {
    let n = cluster.routes.sites();
    cluster.quiesce.wait_quiescent();
    for site in 0..n {
        let _ = cluster.routes.deliver(SiteId::from(site), Wire::Stop);
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
    let latency = &metrics.op_latency_ns;
    ServeReport {
        ops: latency.count(),
        elapsed: start.elapsed(),
        latency: LatencySummary::from_ns(latency),
        metrics,
        history,
        final_pending,
    }
}

/// Deploy one cluster and run it to quiescence: build the fabric, pick
/// the transport, spawn the worker pool with one [`Node`] per site —
/// `ops(i)` is site `i`'s operation driver — drive it, and fold the
/// transport's gauges in *after* the join, so late teardown races are
/// included. `elapsed` runs from before the fabric exists to quiescence;
/// `ops` and `latency` count every operation the drivers issued.
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
) -> Result<ServeReport> {
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
            fabric.quiesce.clone(),
            channel_errors.clone(),
        )),
    };

    let quiesce = fabric.quiesce.clone();
    let (cfg, lanes) = (ProtocolConfig::default(), batch.map(|b| b.lanes));
    let cluster = fabric.spawn(&transport, |i, worker| {
        let site = SiteId::from(i);
        Node::new(
            SiteDriver::new(protocol, site, repl.clone(), cfg, size_model, lanes),
            ops(i),
            n,
            payload_len,
            transport.clone(),
            quiesce.clone(),
            worker,
            batch.map(|b| b.window),
            start,
        )
    });

    let mut report = drive(cluster, start);
    if let Some(m) = mesh {
        m.fold_gauges(&mut report.metrics);
    }
    report.metrics.transport_conn_errors += channel_errors.load(Ordering::Relaxed);
    Ok(report)
}

/// Replay `cfg`'s workload (the simulator's schedule for the same seed)
/// on a deployment over `transport`, and block until quiescent. Every SM
/// ships as its own frame: wall-clock windows group updates differently
/// than virtual-time ones, so message counts line up with the simulator's
/// only unbatched. The report's traffic is attributed to the measured
/// window exactly as the simulator attributes it (operations past the
/// 15 % warm-up, each frame's attribution carried on the wire);
/// `metrics.all`, `ops` and `latency` cover every operation.
pub fn replay(cfg: &RuntimeConfig, transport: ServeTransport) -> Result<ServeReport> {
    let (sites, n) = (cfg.placement.n(), cfg.workload.n);
    if sites != n {
        let e = format!("the placement has {sites} sites, the workload {n}");
        return Err(Error::InvalidConfig(e));
    }
    let schedule = generate(&cfg.workload);
    deploy(
        cfg.protocol,
        cfg.placement.clone(),
        transport,
        cfg.workers,
        cfg.workload.payload_len,
        cfg.size_model,
        None,
        |i| {
            OpDriver::replay(
                schedule.per_site[i].clone(),
                schedule.warmup_events,
                cfg.time_scale,
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_proto::Msg;

    #[test]
    fn replay_refuses_a_workload_the_placement_does_not_fit() {
        let mut cfg = RuntimeConfig::fast(ProtocolKind::OptTrack, 6, 0.5, 1, 10);
        cfg.workload.n = 4;
        let err = replay(&cfg, ServeTransport::Channel)
            .err()
            .expect("refused");
        let Error::InvalidConfig(why) = &err else {
            panic!("{err}");
        };
        assert_eq!(why, "the placement has 6 sites, the workload 4");
    }

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

    fn fm() -> Msg {
        Msg::Fm(causal_proto::Fm {
            var: causal_types::VarId(0),
        })
    }

    #[test]
    fn fan_out_wakes_each_distinct_owner_once_and_never_the_sender() {
        // 40 sites over 4 workers: a 39-destination multicast from site 0
        // leaves one copy per destination in its owner's inbox, in send
        // order. Own-shard copies are there with the send and set no
        // token; each peer is woken once, by the hand-over, not by `send`.
        let (routes, quiesce) = test_fabric(40, 4);
        let fabric = ChannelTransport::new(routes.clone(), quiesce, Arc::default());
        let dsts: Vec<SiteId> = (1..40usize).rev().map(SiteId::from).collect();
        assert_eq!(fabric.send(SiteId(0), &dsts, &fm(), true), 0);
        let woken = |w| routes.take_wake(w, Duration::ZERO);
        assert!(!(0..4).any(woken), "a send wakes nobody");
        let inbox = |w: usize| {
            let copy = |(to, wire): Addressed| match wire {
                Wire::Msg {
                    from: SiteId(0),
                    msg,
                    measured: true,
                } if msg == fm() => to.index(),
                _ => panic!("site 0's measured FM"),
            };
            routes.taken(w).into_iter().map(copy).collect::<Vec<_>>()
        };
        let owned = |w: usize| (1..40).rev().filter(|i| i % 4 == w).collect::<Vec<_>>();
        assert_eq!(inbox(0), owned(0));
        assert!((1..4).all(|w| inbox(w).is_empty()), "the rest is staged");
        assert!(!fabric.flush(0));
        assert!(!woken(0), "the sender is running");
        for w in 1..4 {
            assert!(woken(w), "worker {w}");
            assert_eq!(inbox(w), owned(w), "worker {w}");
        }
        // The paths with no pass to ride on push one frame and wake at
        // once: the coordinator's `Stop` (and a pump's re-route).
        for site in 0..4 {
            assert!(routes.deliver(SiteId::from(site), Wire::Stop));
        }
        assert!((0..4).all(woken));
    }

    #[test]
    fn quiescence_scan_reads_zero_under_a_net_cell_sum_and_not_under_done_then_sent() {
        // The schedule that fools one net (sent − done) cell per worker:
        // A sends X; the scan reads A; B processes X; A sends Y; the scan
        // reads B. Y is in flight the whole time.
        let q = Quiesce::new(0, 2);
        let (a, b) = (0, 1);
        let net = |w| {
            let (sent, done) = q.tally(w);
            sent as i64 - done as i64
        };
        q.frames_sent(a, 1); // X
        let (net_a, (_, done_a)) = (net(a), q.tally(a));
        q.frames_done(b, 1); // X
        q.frames_sent(a, 1); // Y
        let (net_b, (_, done_b)) = (net(b), q.tally(b));
        assert_eq!(net_a + net_b, 0, "the negative control reads quiescent");
        // The same two reads as the `done` scan, then the `sent` scan —
        // which cannot start before the last `done` read.
        let sent = q.tally(a).0 + q.tally(b).0;
        assert_eq!((done_a + done_b, sent), (1, 2), "Y is seen in flight");
        assert!(!q.quiescent());
        q.frames_done(b, 1); // Y
        assert!(q.quiescent());
    }

    #[test]
    fn quiescence_is_never_seen_while_a_token_travels_and_is_seen_once_it_is_retired() {
        // Two workers ping-pong a token: every hop is counted sent by the
        // worker that passes it on — as the cascade of the hop it received,
        // before that one is counted done — so a frame is in flight at
        // every instant until the last hop is retired. A third thread
        // scans the whole time, and the coordinator's wait must end.
        const HOPS: u64 = 100_000;
        let q = Quiesce::new(2, 2);
        q.site_finished();
        q.site_finished();
        // Hop `h` travels toward worker `h % 2`; `ball` publishes it.
        let ball = AtomicU64::new(0);
        let retiring = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(60);
        q.frames_sent(1, 1);
        let worker = |me: u64| {
            for hop in (me..HOPS).step_by(2) {
                while ball.load(Ordering::Acquire) != hop {
                    assert!(Instant::now() < deadline, "hop {hop} never arrived");
                    std::thread::yield_now();
                }
                if hop + 1 < HOPS {
                    q.frames_sent(me as usize, 1);
                    q.frames_done(me as usize, 1);
                    ball.store(hop + 1, Ordering::Release);
                } else {
                    retiring.store(1, Ordering::SeqCst);
                    q.frames_done(me as usize, 1);
                    q.idle();
                }
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| worker(0));
            s.spawn(|| worker(1));
            s.spawn(|| {
                while !q.quiescent() {
                    assert!(Instant::now() < deadline, "never quiescent");
                }
                assert_eq!(retiring.load(Ordering::SeqCst), 1, "a spurious zero");
            });
            q.wait_quiescent();
            assert_eq!(retiring.load(Ordering::SeqCst), 1, "a spurious zero");
        });
        assert_eq!(q.in_flight(), 0);
    }

    /// A node of a two-site Opt-Track cluster (variable `i` lives on site
    /// `i` only) with nothing to issue.
    fn idle_node(i: usize, fabric: &Arc<dyn Transport>, q: &Arc<Quiesce>) -> Node {
        use causal_memory::PlacementKind;
        let site = SiteId::from(i);
        let repl = Arc::new(Placement::new(PlacementKind::Even, 2, 1).expect("valid"));
        let (kind, cfg) = (ProtocolKind::OptTrack, ProtocolConfig::default());
        Node::new(
            SiteDriver::new(kind, site, repl, cfg, SizeModel::default(), None),
            OpDriver::replay(Vec::new(), 0, 1.0),
            2,
            0,
            fabric.clone(),
            q.clone(),
            0,
            None,
            Instant::now(),
        )
    }

    #[test]
    fn a_frame_sent_during_a_delivery_waits_for_the_next_pass() {
        // One worker, two sites. Site 0 answers a fetch of its variable
        // from its shard-mate: the RM is appended to the inbox the pass has already
        // taken, so this pass does not deliver it, reports progress, and
        // the next one does.
        let (routes, quiesce) = test_fabric(2, 1);
        let fabric: Arc<dyn Transport> = Arc::new(ChannelTransport::new(
            routes.clone(),
            quiesce.clone(),
            Arc::default(),
        ));
        let slots = (0..2).map(|i| SiteSlot::new(idle_node(i, &fabric, &quiesce)));
        let mut worker = Worker::new(0, slots.collect(), &routes, &*fabric, &quiesce);
        assert!(worker.pass().progressed, "both sites report finished");
        assert!(!worker.pass().progressed, "and have nothing else to do");

        quiesce.frames_sent(0, 1);
        let fetch = (SiteId(0), Wire::msg(SiteId(1), &fm(), true));
        assert_eq!(routes.push_own(0, std::iter::once(fetch)), 0);
        assert!(worker.pass().progressed);
        assert_eq!(quiesce.in_flight(), 1, "the FM is done, its RM is not");
        assert!(!quiesce.quiescent());
        assert!(worker.pass().progressed, "the RM's pass");
        assert!(quiesce.quiescent());
        assert!(!worker.pass().progressed);
        let mut outcomes = worker.slots.into_iter().map(|s| s.node.finish());
        let (server, fetcher) = (outcomes.next().unwrap(), outcomes.next().unwrap());
        assert_eq!(server.metrics.mailbox_depth_peak, 1);
        // Nobody at site 1 was waiting for the answer.
        assert_eq!(
            (server.metrics.dup_drops, fetcher.metrics.dup_drops),
            (0, 1)
        );
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
