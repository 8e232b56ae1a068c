//! What a run is configured with and what it produces.

use crate::channel::{FaultPlan, LatencyModel, PartitionWindow};
use crate::stability::StabilityPlan;
use causal_checker::History;
use causal_clocks::{BatchPolicy, PruneConfig};
use causal_memory::Placement;
use causal_metrics::RunMetrics;
use causal_obs::TraceEvent;
use causal_proto::{ProtocolKind, Replication};
use causal_types::{Error, Result, SimDuration, SimTime, SiteId, SizeModel};
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
/// [`FaultPlan`]. Windows of one *site* must not overlap
/// ([`SimConfig::check`] refuses them). Windows of different sites may overlap — a correlated
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
    /// a degraded read. `None` blocks indefinitely. Must be positive, and
    /// needs the reliable transport ([`SimConfig::chaos`]): the deadline is
    /// armed only there, so without faults, crashes, a WAL or churn a read
    /// would wait on its replica whatever the deadline says.
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
/// a `lanes` bound trips, or the virtual-time `window` since the lane
/// opened expires.
///
/// Batching changes only *when and how* updates travel, never what the
/// receiver sees: frames are unbatched on delivery back into the exact
/// per-SM messages (original piggybacks, original order), so every
/// protocol's delivery predicate and the consistency checker observe the
/// same execution. The payoff is byte accounting — one merged piggyback per
/// frame instead of one per update (see `SmBatch::batch_meta_size`).
#[derive(Clone, Copy, Debug)]
pub struct BatchPlan {
    /// The count and byte bounds every lane flushes at.
    pub lanes: BatchPolicy,
    /// Flush a lane this long after its first (oldest) parked update.
    pub window: SimDuration,
}

impl BatchPlan {
    /// A plan bounded by the flush window (which must be positive) and
    /// [`BatchPolicy::WINDOWED`], the configuration the `repro batching`
    /// sweep explores.
    pub fn windowed(window: SimDuration) -> Self {
        BatchPlan {
            lanes: BatchPolicy::WINDOWED,
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
    /// Record the structured event trace ([`SimResult::trace`]). Adds
    /// memory proportional to the event count; off unless a trace is
    /// written or verified.
    pub record_trace: bool,
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
    /// placement) for the given protocol, which must support partial
    /// replication.
    pub fn paper_partial(protocol: ProtocolKind, n: usize, w_rate: f64, seed: u64) -> Self {
        SimConfig {
            protocol,
            placement: Arc::new(Placement::paper_partial(n).expect("valid n")),
            workload: WorkloadParams::paper(n, w_rate, seed),
            latency: LatencyModel::default_wan(),
            size_model: SizeModel::java_like(),
            prune: PruneConfig::default(),
            record_history: false,
            record_trace: false,
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
            record_trace: false,
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

    /// Enable trace recording (for a JSONL trace).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Inject a lossy-network fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
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

    /// Every rule a run relies on, stated once: `Err` names the first one
    /// this config breaks. [`crate::run`] panics on it; a front door
    /// reports it before running anything.
    pub fn check(&self) -> Result<()> {
        let n = self.workload.n;
        let bad = |what: String| Err(Error::InvalidConfig(what));
        self.workload.validate()?;
        self.faults.check()?;
        self.latency.check()?;
        if self.placement.n() != n {
            return bad(format!(
                "the placement has {} sites, the workload {n}",
                self.placement.n()
            ));
        }
        if !self.protocol.supports_partial() && self.placement.p() < n {
            return bad(format!("{} is full-replication only", self.protocol));
        }
        let shape = self
            .schedule_override
            .as_ref()
            .map_or(n, |s| s.per_site.len());
        if shape != n {
            return bad(format!(
                "the override schedule has {shape} sites, the workload {n}"
            ));
        }
        let d = &self.durability;
        let sites = self.crashes.iter().map(|c| c.site);
        if let Some(s) = sites
            .chain(d.lose_media.iter().chain(&d.torn_tail).copied())
            .find(|s| s.index() >= n)
        {
            return bad(format!("crashing site {s} is out of range (n={n})"));
        }
        let ms = |c: &CrashWindow| (c.start.as_millis(), c.end.as_millis());
        if let Some(c) = self.crashes.iter().find(|c| c.start >= c.end) {
            let (s, e) = ms(c);
            return bad(format!("the crash window {s}:{e} of {} is empty", c.site));
        }
        // Windows of one site must not overlap; windows of different sites
        // may (a correlated failure), which WAL recovery survives and which
        // otherwise completes degraded.
        let mut sorted: Vec<&CrashWindow> = self.crashes.iter().collect();
        sorted.sort_by_key(|c| (c.site, c.start));
        if let Some(w) = sorted
            .windows(2)
            .find(|w| w[0].site == w[1].site && w[1].start < w[0].end)
        {
            let ((s0, e0), (s1, e1)) = (ms(w[0]), ms(w[1]));
            return bad(format!(
                "the crash windows {s0}:{e0} and {s1}:{e1} of {} overlap: \
                 a site cannot crash while already down",
                w[0].site
            ));
        }
        let periods = [
            (d.checkpoint_every, "checkpoint interval"),
            (d.fetch_deadline, "fetch deadline"),
            (
                self.stability.as_ref().map(|s| s.heartbeat_every),
                "stability heartbeat",
            ),
            (self.batching.map(|b| b.window), "batching window"),
        ];
        if let Some((_, what)) = periods.iter().find(|(t, _)| *t == Some(SimDuration::ZERO)) {
            return bad(format!("the {what} must be positive"));
        }
        let needs_wal = [
            (d.checkpoint_every.is_some(), "a checkpoint interval"),
            (!d.lose_media.is_empty(), "media loss"),
            (!d.torn_tail.is_empty(), "a torn tail"),
        ];
        if let Some((_, what)) = needs_wal.iter().find(|(on, _)| *on && !d.wal) {
            return bad(format!("{what} needs the WAL"));
        }
        if d.fetch_deadline.is_some() && !self.chaos() {
            return bad("a fetch deadline needs the reliable transport \
                        (faults, crashes, a WAL or churn)"
                .into());
        }
        match &self.churn {
            Some(plan) => plan.validate(n, self.workload.q),
            None => Ok(()),
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
    /// The structured event trace in emission order, when requested.
    pub trace: Option<Vec<TraceEvent>>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use causal_types::MAX_VARS;

    fn crash(site: u16, start: u64, end: u64) -> CrashWindow {
        CrashWindow {
            site: SiteId(site),
            start: SimTime::from_millis(start),
            end: SimTime::from_millis(end),
        }
    }

    #[test]
    fn each_rule_refuses_in_its_own_words() {
        /// The words a refusal must contain, and how to break the rule.
        type Case = (&'static str, fn(&mut SimConfig));
        let cases: [Case; 20] = [
            ("the placement has 10 sites, the workload 6", |c| {
                c.workload.n = 6
            }),
            ("q must be positive", |c| c.workload.q = 0),
            ("q must be at most 65536", |c| c.workload.q = MAX_VARS + 1),
            ("optP is full-replication only", |c| {
                c.protocol = ProtocolKind::OptP
            }),
            ("the override schedule has 3 sites, the workload 10", |c| {
                let mut w = c.workload;
                w.n = 3;
                c.schedule_override = Some(causal_workload::generate(&w));
            }),
            ("want 0 <= drop < 1", |c| {
                c.faults = FaultPlan::uniform(1.0, 0.0)
            }),
            ("0 <= dup <= 1", |c| {
                c.faults = FaultPlan::uniform(0.1, f64::NAN)
            }),
            ("minimum exceeds", |c| {
                c.latency = LatencyModel::Uniform {
                    min_micros: 5,
                    max_micros: 1,
                }
            }),
            ("crashing site s12 is out of range (n=10)", |c| {
                c.crashes = vec![crash(12, 100, 200)]
            }),
            ("crashing site s10 is out of range", |c| {
                c.durability.lose_media = vec![SiteId(10)]
            }),
            ("the crash window 900:900 of s2 is empty", |c| {
                c.crashes = vec![crash(2, 900, 900)]
            }),
            ("windows 500:1500 and 1000:2000 of s1 overlap", |c| {
                c.crashes = vec![
                    crash(1, 1_000, 2_000),
                    crash(0, 0, 9_000),
                    crash(1, 500, 1_500),
                ]
            }),
            ("the checkpoint interval must be positive", |c| {
                c.durability.wal = true;
                c.durability.checkpoint_every = Some(SimDuration::ZERO);
            }),
            ("the fetch deadline must be positive", |c| {
                c.faults = FaultPlan::uniform(0.01, 0.0);
                c.durability.fetch_deadline = Some(SimDuration::ZERO);
            }),
            ("the stability heartbeat must be positive", |c| {
                c.stability = Some(StabilityPlan {
                    heartbeat_every: SimDuration::ZERO,
                    ..StabilityPlan::default()
                })
            }),
            ("the batching window must be positive", |c| {
                c.batching = Some(BatchPlan::windowed(SimDuration::ZERO))
            }),
            ("a checkpoint interval needs the WAL", |c| {
                c.durability.checkpoint_every = Some(SimDuration::from_millis(100))
            }),
            ("media loss needs the WAL", |c| {
                c.durability.lose_media = vec![SiteId(1)]
            }),
            ("a torn tail needs the WAL", |c| {
                c.durability.torn_tail = vec![SiteId(1)]
            }),
            ("a fetch deadline needs the reliable transport", |c| {
                c.durability.fetch_deadline = Some(SimDuration::from_millis(10))
            }),
        ];
        let base = SimConfig::paper_partial(ProtocolKind::OptTrack, 10, 0.5, 1).small();
        base.check().expect("the base config runs");
        for (words, breaks) in cases {
            let mut cfg = base.clone();
            breaks(&mut cfg);
            let err = cfg.check().expect_err(words).to_string();
            assert!(err.contains(words), "want {words:?}, got {err:?}");
        }
        let mut churned = base.clone();
        churned.churn = Some(ChurnPlan::parse("join:12@5s").unwrap());
        let err = churned.check().expect_err("churn").to_string();
        assert!(err.contains("churn plan"), "{err}");
    }

    #[test]
    fn the_paper_configs_and_a_deadline_under_chaos_pass() {
        for n in [5, 10, 20, 40] {
            for kind in [ProtocolKind::HbTrack].into_iter().chain(ProtocolKind::ALL) {
                SimConfig::paper_full(kind, n, 0.5, 1).check().unwrap();
                if kind.supports_partial() {
                    SimConfig::paper_partial(kind, n, 0.5, 1).check().unwrap();
                }
            }
        }
        let mut cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 10, 0.5, 1);
        cfg.durability.fetch_deadline = Some(SimDuration::from_millis(150));
        for chaos in [
            |c: &mut SimConfig| c.faults = FaultPlan::uniform(0.01, 0.0),
            |c: &mut SimConfig| c.crashes = vec![crash(1, 500, 900), crash(2, 600, 800)],
            |c: &mut SimConfig| c.durability.wal = true,
        ] {
            let mut c = cfg.clone();
            chaos(&mut c);
            c.check().unwrap();
        }
    }
}
