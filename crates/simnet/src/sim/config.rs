//! What a run is configured with and what it produces.

use crate::channel::{FaultPlan, LatencyModel, PartitionWindow};
use crate::stability::StabilityPlan;
use causal_checker::History;
use causal_clocks::PruneConfig;
use causal_memory::Placement;
use causal_metrics::RunMetrics;
use causal_proto::{ProtocolKind, Replication};
use causal_types::{SimDuration, SimTime, SiteId, SizeModel};
use causal_workload::{ChurnPlan, WorkloadParams};
use std::sync::Arc;

/// A site pause (fail-stop with recovery): during `[start, end)` the site
/// neither issues operations nor processes incoming messages; everything
/// addressed to it is buffered and handled at resume, in arrival order.
/// State survives (the paper's motivation §I: independent hardware
/// maintenance without systematic disasters).
#[derive(Clone, Debug)]
pub struct PauseWindow {
    /// The paused site.
    pub site: SiteId,
    /// Pause onset.
    pub start: SimTime,
    /// Resume instant.
    pub end: SimTime,
}

impl PauseWindow {
    /// If `site` is paused at `now`, the instant it resumes.
    pub(super) fn resumes(&self, site: SiteId, now: SimTime) -> Option<SimTime> {
        (self.site == site && now >= self.start && now < self.end).then_some(self.end)
    }
}

/// A fail-stop crash **with state loss**: at `start` the site loses all
/// volatile state — clocks, logs, parked updates, replica values,
/// `LastWriteOn` metadata — keeping only its durable own-write ledger. At
/// `end` it restarts, announces a new incarnation, and rebuilds its causal
/// knowledge through a state-sync handshake with every live replica.
///
/// Unlike [`PauseWindow`], messages arriving while the site is down are
/// *lost* (the reliable transport's senders retransmit them), so crash
/// windows require chaos mode and are orchestrated together with the
/// [`FaultPlan`]. Windows of one *site* must not overlap (asserted at
/// runtime). Windows of different sites may overlap — a correlated
/// failure — which a [`DurabilityPlan`] WAL recovery survives with full
/// state, and which otherwise completes in degraded mode once the sync
/// deadline expires.
#[derive(Clone, Debug)]
pub struct CrashWindow {
    /// The crashing site.
    pub site: SiteId,
    /// Crash instant (fail-stop, state loss).
    pub start: SimTime,
    /// Restart instant (recovery + sync handshake begins).
    pub end: SimTime,
}

/// Durability and graceful-degradation switches of one run.
///
/// `Default` is all-off: the own-write ledger is the only durable state,
/// recovery is a full peer rebuild, and a blocked remote read waits for its
/// predesignated replica indefinitely. Enabling `wal` gives every site a
/// [`causal_proto::DurableStore`] and implies chaos mode (the reliable
/// transport), since crash recovery is its only consumer.
#[derive(Clone, Debug, Default)]
pub struct DurabilityPlan {
    /// Per-site write-ahead log: recovery replays checkpoint + log locally
    /// and asks peers only for the delta past its replayed high-water
    /// marks, which makes overlapping crashes and a crash inside a
    /// partition recoverable.
    pub wal: bool,
    /// Periodic checkpoint interval (requires `wal` and must be positive).
    /// `None` never checkpoints: replay re-drives the whole log.
    pub checkpoint_every: Option<SimDuration>,
    /// Deadline after which a blocked remote read fails over to the next
    /// candidate replica, and after `2·p` expired attempts is abandoned as
    /// a degraded read. `None` blocks indefinitely.
    pub fetch_deadline: Option<SimDuration>,
    /// Sites whose crash also destroys the durable medium
    /// ([`causal_proto::DurableStore::wipe`]): their recovery falls back to
    /// the full peer rebuild.
    pub lose_media: Vec<SiteId>,
    /// Sites whose WAL loads fail-soft at every recovery: the crash tore
    /// the final log record, so replay truncates it
    /// ([`causal_proto::DurableStore::tear_tail`]), rolls the redelivery
    /// marks back to the checkpoint floor, and reconciles the replayed state against the
    /// durable own-write ledger so no `WriteId` is ever reused. Requires
    /// `wal`.
    pub torn_tail: Vec<SiteId>,
}

/// Per-destination update batching: a sender parks consecutive SM updates
/// addressed to the same destination in a FIFO lane and ships the whole
/// lane as one [`causal_proto::Msg::Batch`] frame when a flush policy fires —
/// the lane reaches `max_sms` updates, its unbatched bytes reach `max_bytes`, or the
/// virtual-time `window` since the lane opened expires.
///
/// Batching changes only *when and how* updates travel, never what the
/// receiver sees: frames are unbatched on delivery back into the exact
/// per-SM messages (original piggybacks, original order), so every
/// protocol's delivery predicate and the consistency checker observe the
/// same execution. The payoff is byte accounting — one merged piggyback per
/// frame instead of one per update (see `SmBatch::batch_meta_size`).
#[derive(Clone, Copy, Debug)]
pub struct BatchPlan {
    /// Flush a lane once it holds this many updates.
    pub max_sms: usize,
    /// Flush a lane once its updates' unbatched wire bytes reach this.
    pub max_bytes: u64,
    /// Flush a lane this long after its first (oldest) parked update.
    pub window: SimDuration,
}

impl BatchPlan {
    /// A plan bounded by the flush window and a generous update count,
    /// the configuration the `repro batching` sweep explores.
    pub fn windowed(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "flush window must be positive");
        BatchPlan {
            max_sms: 64,
            max_bytes: u64::MAX,
            window,
        }
    }
}

/// Configuration of one simulation run.
#[derive(Clone)]
pub struct SimConfig {
    /// Which protocol every site runs.
    pub protocol: ProtocolKind,
    /// Replica placement (partial or full).
    pub placement: Arc<Placement>,
    /// The operation workload.
    pub workload: WorkloadParams,
    /// Channel latency model.
    pub latency: LatencyModel,
    /// Byte-accounting calibration.
    pub size_model: SizeModel,
    /// Opt-Track pruning switches (ignored by the other protocols).
    pub prune: PruneConfig,
    /// Record a [`History`] for post-run consistency checking. Adds memory
    /// proportional to the operation count; off for large sweeps.
    pub record_history: bool,
    /// Injected network partitions (empty by default).
    pub partitions: Vec<PartitionWindow>,
    /// Replay this exact schedule instead of generating one from
    /// `workload` (trace-driven runs; see `causal_workload::csv`). Its
    /// shape must match `workload.n`.
    pub schedule_override: Option<causal_workload::Schedule>,
    /// Injected site pauses (empty by default).
    pub pauses: Vec<PauseWindow>,
    /// Lossy-network fault plan. When it is a no-op and `crashes` is empty
    /// the reliable transport is bypassed entirely and the run takes the
    /// exact lossless path (bit-identical metrics).
    pub faults: FaultPlan,
    /// Injected fail-stop crashes with state loss (empty by default).
    pub crashes: Vec<CrashWindow>,
    /// Durability and graceful-degradation switches (all-off by default).
    pub durability: DurabilityPlan,
    /// Scheduled membership and placement changes — joins bootstrapped by
    /// state transfer, graceful and fail-stop leaves, variable migrations —
    /// executed as epoch'd two-phase view changes while the workload runs.
    /// `None` keeps the placement static. A churn plan implies chaos mode
    /// (the reliable transport).
    pub churn: Option<ChurnPlan>,
    /// Causal-stability tracking and stable-frontier garbage collection.
    /// `None` (the default) disables the subsystem entirely — no stability
    /// tick is ever scheduled, keeping such runs byte-identical to builds
    /// that predate it.
    pub stability: Option<StabilityPlan>,
    /// Per-destination update batching. `None` (the default) sends every
    /// SM as its own frame, byte-identical to builds that predate the
    /// batcher; `Some` parks updates in per-destination lanes and ships
    /// them as merged-piggyback [`causal_proto::Msg::Batch`] frames.
    pub batching: Option<BatchPlan>,
}

impl SimConfig {
    /// The paper's partial-replication setting (`p = 0.3·n`, even
    /// placement) for the given protocol.
    pub fn paper_partial(protocol: ProtocolKind, n: usize, w_rate: f64, seed: u64) -> Self {
        assert!(
            protocol.supports_partial(),
            "{protocol} is full-replication only"
        );
        SimConfig {
            protocol,
            placement: Arc::new(Placement::paper_partial(n).expect("valid n")),
            workload: WorkloadParams::paper(n, w_rate, seed),
            latency: LatencyModel::default_wan(),
            size_model: SizeModel::java_like(),
            prune: PruneConfig::default(),
            record_history: false,
            partitions: Vec::new(),
            schedule_override: None,
            pauses: Vec::new(),
            faults: FaultPlan::default(),
            crashes: Vec::new(),
            durability: DurabilityPlan::default(),
            churn: None,
            stability: None,
            batching: None,
        }
    }

    /// The paper's full-replication setting (`p = n`) for the given
    /// protocol. Any of the five protocols can run fully replicated.
    pub fn paper_full(protocol: ProtocolKind, n: usize, w_rate: f64, seed: u64) -> Self {
        SimConfig {
            protocol,
            placement: Arc::new(Placement::full(n).expect("valid n")),
            workload: WorkloadParams::paper(n, w_rate, seed),
            latency: LatencyModel::default_wan(),
            size_model: SizeModel::java_like(),
            prune: PruneConfig::default(),
            record_history: false,
            partitions: Vec::new(),
            schedule_override: None,
            pauses: Vec::new(),
            faults: FaultPlan::default(),
            crashes: Vec::new(),
            durability: DurabilityPlan::default(),
            churn: None,
            stability: None,
            batching: None,
        }
    }

    /// Shrink to a fast test-sized run (60 events per process).
    pub fn small(mut self) -> Self {
        self.workload.events_per_process = 60;
        self
    }

    /// Enable history recording (for the consistency checker).
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// Inject a lossy-network fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Inject fail-stop crash windows.
    pub fn with_crashes(mut self, crashes: Vec<CrashWindow>) -> Self {
        self.crashes = crashes;
        self
    }

    /// Install a durability plan (WAL, checkpoints, fetch deadlines).
    pub fn with_durability(mut self, durability: DurabilityPlan) -> Self {
        self.durability = durability;
        self
    }

    /// Install a churn plan (membership and placement changes).
    pub fn with_churn(mut self, churn: ChurnPlan) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Install a causal-stability plan (watermark gossip, stable-frontier
    /// GC, overdue watchdog, soft-cap backpressure).
    pub fn with_stability(mut self, stability: StabilityPlan) -> Self {
        self.stability = Some(stability);
        self
    }

    /// Enable per-destination update batching under `plan`.
    pub fn with_batching(mut self, plan: BatchPlan) -> Self {
        self.batching = Some(plan);
        self
    }

    /// Panic on a configuration no run can honor.
    pub(super) fn validate(&self) {
        let n = self.workload.n;
        assert_eq!(
            self.placement.n(),
            n,
            "placement and workload disagree on n"
        );
        // Windows of one site must not overlap; windows of different sites
        // may (a correlated failure), which WAL recovery survives and which
        // otherwise completes degraded.
        let mut sorted: Vec<&CrashWindow> = self.crashes.iter().collect();
        sorted.sort_by_key(|c| (c.site, c.start));
        for w in sorted.windows(2) {
            assert!(
                w[0].site != w[1].site || w[0].end <= w[1].start,
                "crash windows on s{} overlap: {:?} vs {:?}",
                w[0].site,
                w[0],
                w[1]
            );
        }
        for c in &self.crashes {
            assert!(c.start < c.end, "empty crash window: {c:?}");
            assert!(c.site.index() < n, "crash site out of range: {c:?}");
        }
        let d = &self.durability;
        if let Some(every) = d.checkpoint_every {
            assert!(d.wal, "checkpoint interval requires the WAL");
            assert!(
                every > SimDuration::ZERO,
                "checkpoint interval must be positive"
            );
        }
        assert!(
            d.lose_media.is_empty() || d.wal,
            "media loss requires the WAL"
        );
        for s in &d.lose_media {
            assert!(s.index() < n, "lose-media site out of range: s{s}");
        }
        assert!(
            d.torn_tail.is_empty() || d.wal,
            "torn-tail injection requires the WAL"
        );
        for s in &d.torn_tail {
            assert!(s.index() < n, "torn-tail site out of range: s{s}");
        }
    }

    /// `true` when this run needs the reliable transport (lossy network,
    /// crash injection, WAL-backed durability, or membership churn).
    pub fn chaos(&self) -> bool {
        !self.faults.is_noop()
            || !self.crashes.is_empty()
            || self.durability.wal
            || self.churn.as_ref().is_some_and(|p| !p.is_empty())
    }
}

/// Everything a run produces.
pub struct SimResult {
    /// Counters and byte totals.
    pub metrics: RunMetrics,
    /// The recorded execution, when requested.
    pub history: Option<History>,
    /// Virtual time at which the system went quiescent.
    pub duration: SimTime,
    /// Updates still parked at the end — **must** be zero; nonzero means an
    /// activation predicate can never fire (a protocol bug).
    pub final_pending: usize,
    /// Per-site causality-metadata storage footprint at quiescence, bytes
    /// (clocks + logs + LastWriteOn structures, under the run's size
    /// model). The paper notes Full-Track "incurs the same storage cost"
    /// as its piggybacks; this measures it.
    pub final_local_meta: Vec<u64>,
}
