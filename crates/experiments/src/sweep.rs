//! Multi-seed simulation sweeps: a work-queue of per-seed run units with
//! in-memory and persistent caching and an optional parallel worker pool.
//!
//! Each `(protocol, n, w_rate)` cell expands into one run unit per seed;
//! the protocol fixes the placement ([`paper_cfg`]). Units execute on [`crate::pool::run_indexed`] — sequentially for
//! `jobs = 1`, on scoped worker threads otherwise — and are folded back
//! into [`CellStats`] **in seed order** with the exact floating-point
//! operation sequence of the sequential code, so every figure and CSV is
//! byte-identical whatever the job count. A [`crate::cache::DiskCache`]
//! can additionally persist finished cells across invocations.

use crate::cache::{CacheKey, DiskCache};
use crate::harness::paper_cfg;
use crate::pool;
use causal_metrics::MessageStats;
use causal_proto::ProtocolKind;
use causal_simnet::run;
use causal_types::{MsgKind, SizeModel};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

/// Run scale: paper-size or reduced for smoke tests and CI.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// 600 events per process, 3 seeds per cell — the paper's setting
    /// ("multiple runs were performed ... only the mean is represented").
    Paper,
    /// 120 events per process, 2 seeds — an order of magnitude faster,
    /// same qualitative shape.
    Quick,
}

impl Scale {
    /// Events per process at this scale.
    pub fn events(self) -> usize {
        match self {
            Scale::Paper => 600,
            Scale::Quick => 120,
        }
    }

    /// Seeds averaged per parameter cell.
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Paper => 3,
            Scale::Quick => 2,
        }
    }
}

/// Seed-averaged measurements of one `(protocol, n, w_rate)` cell.
#[derive(Clone, Debug)]
pub struct CellStats {
    /// Mean measured (post-warm-up) message count per run.
    pub total_count: f64,
    /// Mean measured meta-data bytes per run, all message kinds.
    pub total_bytes: f64,
    /// Mean per-message meta bytes, by kind (`None` if no such messages).
    pub avg_bytes: [Option<f64>; 3],
    /// Mean measured byte total per kind.
    pub kind_bytes: [f64; 3],
    /// Mean piggybacked-structure entry count per SM.
    pub sm_entries: f64,
    /// Mean measured writes / reads per run.
    pub writes: f64,
    /// Mean measured reads per run.
    pub reads: f64,
    /// Mean receipt→apply latency over received updates, milliseconds.
    pub apply_latency_ms: f64,
    /// Largest pending-buffer population seen in any run.
    pub max_pending: usize,
    /// Mean per-site causality-metadata storage at quiescence, bytes.
    pub local_meta_mean: f64,
}

impl CellStats {
    /// Average meta bytes per message of `kind`, defaulting to 0.
    pub fn avg(&self, kind: MsgKind) -> f64 {
        self.avg_bytes[kind.index()].unwrap_or(0.0)
    }

    /// Every field as raw bits, for bitwise identity checks (parallel vs
    /// sequential, cold vs warm cache).
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut v = vec![self.total_count.to_bits(), self.total_bytes.to_bits()];
        for a in self.avg_bytes {
            v.push(a.map_or(u64::MAX, f64::to_bits));
            v.push(a.is_some() as u64);
        }
        for k in self.kind_bytes {
            v.push(k.to_bits());
        }
        v.extend([
            self.sm_entries.to_bits(),
            self.writes.to_bits(),
            self.reads.to_bits(),
            self.apply_latency_ms.to_bits(),
            self.max_pending as u64,
            self.local_meta_mean.to_bits(),
        ]);
        v
    }

    fn zero() -> Self {
        CellStats {
            total_count: 0.0,
            total_bytes: 0.0,
            avg_bytes: [None; 3],
            kind_bytes: [0.0; 3],
            sm_entries: 0.0,
            writes: 0.0,
            reads: 0.0,
            apply_latency_ms: 0.0,
            max_pending: 0,
            local_meta_mean: 0.0,
        }
    }
}

/// The raw yield of one `(protocol, n, w_rate, seed)` run unit —
/// exactly the quantities the sequential per-seed loop accumulated, so
/// folding a slice of these in seed order reproduces its arithmetic.
#[derive(Clone, Debug)]
pub struct SeedRun {
    measured: MessageStats,
    sm_entries_mean: f64,
    writes: f64,
    reads: f64,
    apply_latency_ms: f64,
    max_pending: usize,
    local_meta_mean: f64,
}

type Key = (ProtocolKind, usize, u64 /* w_rate in per-mille */);

/// A cell's full parameters, kept alongside the [`Key`] because re-running
/// needs the original `w_rate` as the exact f64 the caller passed.
type CellParams = (ProtocolKind, usize, f64);

/// A cached sweep runner: each `(protocol, n, w_rate)` cell is
/// simulated once per seed and reused across figures — within one
/// invocation via a memory cache, across invocations via an optional
/// persistent [`DiskCache`].
pub struct Sweep {
    scale: Scale,
    cache: HashMap<Key, CellStats>,
    /// Base seed; cell seeds derive from it deterministically.
    pub base_seed: u64,
    jobs: usize,
    disk: Option<DiskCache>,
    /// In planning mode, `cell` records its parameters here (first-seen
    /// order, deduplicated) instead of simulating.
    plan: Option<(Vec<CellParams>, HashSet<Key>)>,
    dummy: CellStats,
}

impl Sweep {
    /// New sweep at the given scale: one job, no persistent cache.
    pub fn new(scale: Scale) -> Self {
        Sweep {
            scale,
            cache: HashMap::new(),
            base_seed: 0xCA05_A11B,
            jobs: 1,
            disk: None,
            plan: None,
            dummy: CellStats::zero(),
        }
    }

    /// The scale this sweep runs at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Set the worker-thread count for run-unit execution (≥ 1).
    pub fn set_jobs(&mut self, jobs: usize) {
        assert!(jobs >= 1, "jobs must be at least 1");
        self.jobs = jobs;
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Attach (or detach, with `None`) a persistent cell cache rooted at
    /// `dir`.
    pub fn set_disk_cache(&mut self, dir: Option<PathBuf>) {
        self.disk = dir.map(DiskCache::new);
    }

    /// The paper's `n` grid.
    pub const N_GRID: [usize; 5] = [5, 10, 20, 30, 40];
    /// The paper's extended `n` grid for Table III / Figs. 6–8.
    pub const N_GRID_FULL: [usize; 6] = [5, 10, 20, 30, 35, 40];
    /// The paper's write-rate grid.
    pub const W_GRID: [f64; 3] = [0.2, 0.5, 0.8];

    fn key_of(protocol: ProtocolKind, n: usize, w_rate: f64) -> Key {
        (protocol, n, (w_rate * 1000.0).round() as u64)
    }

    fn cache_key(&self, protocol: ProtocolKind, n: usize, w_rate: f64) -> CacheKey {
        CacheKey {
            protocol: protocol.to_string(),
            mode: if protocol.supports_partial() {
                "partial"
            } else {
                "full"
            },
            n,
            w_per_mille: (w_rate * 1000.0).round() as u64,
            events: self.scale.events(),
            seeds: self.scale.seeds(),
            base_seed: self.base_seed,
            // The paper presets pin the calibration; fingerprint it so a
            // calibration change can never resurrect stale cells.
            size_model: format!("{:?}", SizeModel::java_like()),
        }
    }

    /// Simulate (or fetch) one cell. In planning mode this only records
    /// the request and returns zeroed placeholder stats.
    pub fn cell(&mut self, protocol: ProtocolKind, n: usize, w_rate: f64) -> &CellStats {
        let key = Self::key_of(protocol, n, w_rate);
        if let Some((order, seen)) = &mut self.plan {
            if !self.cache.contains_key(&key) && seen.insert(key) {
                order.push((protocol, n, w_rate));
            }
            return &self.dummy;
        }
        self.execute(vec![(protocol, n, w_rate)]);
        &self.cache[&key]
    }

    /// Enter planning mode: subsequent [`Sweep::cell`] calls record their
    /// parameters (returning placeholder stats) instead of simulating, so
    /// a cheap dry pass over the figure generators discovers every cell a
    /// selection needs.
    pub fn plan_begin(&mut self) {
        self.plan = Some((Vec::new(), HashSet::new()));
    }

    /// `true` while in planning mode.
    pub fn planning(&self) -> bool {
        self.plan.is_some()
    }

    /// Leave planning mode and execute every recorded cell.
    pub fn plan_execute(&mut self) {
        if let Some((order, _)) = self.plan.take() {
            self.execute(order);
        }
    }

    /// Fill the memory cache with `cells`: cached cells are skipped,
    /// disk-cached cells load directly, and the rest expand into per-seed
    /// run units on the worker pool, aggregate in deterministic `(cell,
    /// seed)` order and are stored on disk.
    fn execute(&mut self, cells: Vec<CellParams>) {
        let mut to_run: Vec<CellParams> = Vec::new();
        for params in cells {
            let (protocol, n, w_rate) = params;
            let key = Self::key_of(protocol, n, w_rate);
            if self.cache.contains_key(&key) {
                continue;
            }
            let ckey = self.cache_key(protocol, n, w_rate);
            if let Some(stats) = self.disk.as_ref().and_then(|d| d.load(&ckey)) {
                self.cache.insert(key, stats);
            } else {
                to_run.push(params);
            }
        }
        let seeds = self.scale.seeds();
        let (scale, base_seed) = (self.scale, self.base_seed);
        let units: Vec<(CellParams, u64)> = to_run
            .iter()
            .flat_map(|&p| (0..seeds).map(move |s| (p, s)))
            .collect();
        let runs = pool::run_indexed(self.jobs, units.len(), |i| {
            let (params, s) = units[i];
            Self::run_seed(scale, base_seed, params, s)
        });
        for (&(protocol, n, w_rate), runs) in to_run.iter().zip(runs.chunks(seeds as usize)) {
            let stats = Self::aggregate(runs);
            if let Some(d) = self.disk.as_ref() {
                d.store(&self.cache_key(protocol, n, w_rate), &stats);
            }
            self.cache.insert(Self::key_of(protocol, n, w_rate), stats);
        }
    }

    /// Execute one run unit.
    fn run_seed(scale: Scale, base_seed: u64, params: CellParams, s: u64) -> SeedRun {
        let (protocol, n, w_rate) = params;
        // Seed depends on (n, w_rate) but NOT on the protocol: Table IV
        // compares protocols on identical schedules.
        let seed = base_seed
            .wrapping_add(s)
            .wrapping_add((n as u64) << 16)
            .wrapping_add(((w_rate * 1000.0) as u64) << 32);
        let mut cfg = paper_cfg(protocol, n, w_rate, seed);
        cfg.workload.events_per_process = scale.events();
        let r = run(&cfg);
        assert_eq!(r.final_pending, 0, "simulation must reach quiescence");
        SeedRun {
            measured: r.metrics.measured,
            sm_entries_mean: r.metrics.sm_entries.mean(),
            writes: r.metrics.writes as f64,
            reads: r.metrics.reads as f64,
            apply_latency_ms: r.metrics.apply_latency_ns.mean() / 1e6,
            max_pending: r.metrics.max_pending,
            local_meta_mean: r.final_local_meta.iter().sum::<u64>() as f64
                / r.final_local_meta.len().max(1) as f64,
        }
    }

    /// Fold per-seed results, in seed order, with the same operation
    /// sequence the sequential loop used.
    fn aggregate(runs: &[SeedRun]) -> CellStats {
        let mut agg = MessageStats::new();
        let mut sm_entries = 0.0;
        let mut writes = 0.0;
        let mut reads = 0.0;
        let mut apply_latency = 0.0;
        let mut max_pending = 0usize;
        let mut local_meta = 0.0;
        for r in runs {
            agg.merge(&r.measured);
            sm_entries += r.sm_entries_mean;
            writes += r.writes;
            reads += r.reads;
            apply_latency += r.apply_latency_ms;
            max_pending = max_pending.max(r.max_pending);
            local_meta += r.local_meta_mean;
        }
        let sf = runs.len() as f64;
        CellStats {
            total_count: agg.total_count() as f64 / sf,
            total_bytes: agg.total_bytes() as f64 / sf,
            avg_bytes: [
                agg.avg_bytes(MsgKind::Sm),
                agg.avg_bytes(MsgKind::Fm),
                agg.avg_bytes(MsgKind::Rm),
            ],
            kind_bytes: [
                agg.bytes(MsgKind::Sm) as f64 / sf,
                agg.bytes(MsgKind::Fm) as f64 / sf,
                agg.bytes(MsgKind::Rm) as f64 / sf,
            ],
            sm_entries: sm_entries / sf,
            writes: writes / sf,
            reads: reads / sf,
            apply_latency_ms: apply_latency / sf,
            max_pending,
            local_meta_mean: local_meta / sf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_is_cached() {
        let mut sw = Sweep::new(Scale::Quick);
        let a = sw.cell(ProtocolKind::OptP, 5, 0.5).total_count;
        let b = sw.cell(ProtocolKind::OptP, 5, 0.5).total_count;
        assert_eq!(a, b);
        assert_eq!(sw.cache.len(), 1);
    }

    #[test]
    fn avg_bytes_indexing_matches_kind() {
        let mut sw = Sweep::new(Scale::Quick);
        let c = sw.cell(ProtocolKind::OptTrack, 5, 0.5).clone();
        assert!(c.avg(MsgKind::Sm) > 0.0);
        assert!(c.avg(MsgKind::Fm) > 0.0);
        assert!(c.avg(MsgKind::Rm) > c.avg(MsgKind::Fm));
    }

    #[test]
    fn schedules_match_across_protocols_same_cell() {
        // The seed derivation ignores the protocol: write/read counts of
        // Opt-Track (partial) and Opt-Track-CRP (full) cells coincide.
        let mut sw = Sweep::new(Scale::Quick);
        let a = sw.cell(ProtocolKind::OptTrack, 5, 0.5).writes;
        let b = sw.cell(ProtocolKind::OptTrackCrp, 5, 0.5).writes;
        assert_eq!(a, b, "Table IV replays identical schedules");
    }

    /// The acceptance property of the parallel engine: `jobs = 4` produces
    /// bit-for-bit the `jobs = 1` stats, both through direct `cell` calls
    /// and through the plan/execute path.
    #[test]
    fn parallel_cells_bitwise_match_sequential() {
        let mut seq = Sweep::new(Scale::Quick);
        let mut par = Sweep::new(Scale::Quick);
        par.set_jobs(4);
        par.plan_begin();
        for p in ProtocolKind::ALL {
            let _ = par.cell(p, 10, 0.5);
        }
        assert!(par.planning());
        par.plan_execute();
        assert!(!par.planning());
        for p in ProtocolKind::ALL {
            let s = seq.cell(p, 10, 0.5).fingerprint();
            let q = par.cell(p, 10, 0.5).fingerprint();
            assert_eq!(s, q, "{p}: parallel stats must be bit-identical");
        }
    }

    /// Cold run == warm (disk-cache) rerun == uncached run, bit for bit.
    #[test]
    fn disk_cache_roundtrip_is_bit_exact() {
        let dir = std::env::temp_dir().join(format!("causal-sweep-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cold = Sweep::new(Scale::Quick);
        cold.set_disk_cache(Some(dir.clone()));
        let a = cold.cell(ProtocolKind::OptTrack, 5, 0.2).fingerprint();

        let mut warm = Sweep::new(Scale::Quick);
        warm.set_disk_cache(Some(dir.clone()));
        let b = warm.cell(ProtocolKind::OptTrack, 5, 0.2).fingerprint();

        let mut uncached = Sweep::new(Scale::Quick);
        let c = uncached.cell(ProtocolKind::OptTrack, 5, 0.2).fingerprint();

        assert_eq!(a, b, "warm load must reproduce the cold run bit-for-bit");
        assert_eq!(a, c, "cached and uncached runs must agree bit-for-bit");
        assert!(
            std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0) > 0,
            "cache directory must contain the stored cell"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planning_records_without_running() {
        let mut sw = Sweep::new(Scale::Quick);
        sw.plan_begin();
        let zero = sw.cell(ProtocolKind::OptP, 5, 0.5).total_count;
        assert_eq!(zero, 0.0, "planning returns placeholder stats");
        let dup = sw.cell(ProtocolKind::OptP, 5, 0.5).total_count;
        assert_eq!(dup, 0.0);
        let (order, _) = sw.plan.as_ref().unwrap();
        assert_eq!(order.len(), 1, "duplicate requests plan once");
        sw.plan_execute();
        assert_eq!(sw.cache.len(), 1, "execution fills the cell");
        assert!(sw.cell(ProtocolKind::OptP, 5, 0.5).total_count > 0.0);
    }
}
