//! Multi-seed simulation cells: what every table and figure of the
//! paper is read from.
//!
//! Each artifact declares its `(protocol, n, w_rate)` cells
//! ([`crate::artifacts::ARTIFACTS`]); [`Ctx::new`] runs the union of the
//! selected artifacts' cells once. Each cell expands into one run unit per
//! seed; the protocol fixes the placement ([`paper_cfg`]). Units run on
//! the extension harness's loop, [`run_units`], and are folded back into
//! [`CellStats`] **in seed order** with the exact floating-point operation
//! sequence of a sequential per-seed loop, so every figure and CSV is
//! byte-identical whatever the job count. Nothing persists between
//! invocations.

use crate::harness::{paper_cfg, run_units, slug};
use causal_metrics::MessageStats;
use causal_proto::ProtocolKind;
use causal_simnet::SimResult;
use causal_types::MsgKind;
use std::collections::HashMap;
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
}

/// A simulation cell: `(protocol, n, w_rate)`.
pub type Cell = (ProtocolKind, usize, f64);

type Key = (ProtocolKind, usize, u64 /* w_rate in per-mille */);

fn key_of((protocol, n, w_rate): Cell) -> Key {
    (protocol, n, (w_rate * 1000.0).round() as u64)
}

/// The paper's `n` grid.
pub const N_GRID: [usize; 5] = [5, 10, 20, 30, 40];
/// The paper's extended `n` grid for Table III / Figs. 6–8.
pub const N_GRID_FULL: [usize; 6] = [5, 10, 20, 30, 35, 40];
/// The paper's write-rate grid.
pub const W_GRID: [f64; 3] = [0.2, 0.5, 0.8];

/// Every combination of `protocols`, `ns` and `ws`.
pub fn grid(protocols: &[ProtocolKind], ns: &[usize], ws: &[f64]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &p in protocols {
        for &n in ns {
            cells.extend(ws.iter().map(|&w| (p, n, w)));
        }
    }
    cells
}

/// The seed every run of a sweep derives its own from.
pub(crate) const BASE_SEED: u64 = 0xCA05_A11B;

/// What an artifact is made from: the run's settings, and the stats of
/// every cell the selected artifacts declared, simulated in one pass.
pub struct Ctx {
    /// The scale every run uses.
    pub scale: Scale,
    /// Worker threads for run units.
    pub jobs: usize,
    /// Where the sweeps that trace write one JSONL trace per run.
    pub trace_dir: Option<PathBuf>,
    cells: HashMap<Key, CellStats>,
}

impl Ctx {
    /// Simulate `cells` (duplicates once) as per-seed run units on `jobs`
    /// workers, folding each cell's runs in seed order.
    pub fn new(scale: Scale, jobs: usize, trace_dir: Option<PathBuf>, cells: &[Cell]) -> Ctx {
        let mut unique: Vec<Cell> = Vec::new();
        for &c in cells {
            if !unique.iter().any(|&u| key_of(u) == key_of(c)) {
                unique.push(c);
            }
        }
        let (seeds, events) = (scale.seeds(), scale.events());
        let units: Vec<(Cell, u64)> = unique
            .iter()
            .flat_map(|&c| (0..seeds).map(move |s| (c, s)))
            .collect();
        let cfg = |&((protocol, n, w_rate), s): &(Cell, u64)| {
            // Seed depends on (n, w_rate) but NOT on the protocol: Table IV
            // compares protocols on identical schedules.
            let seed = BASE_SEED
                .wrapping_add(s)
                .wrapping_add((n as u64) << 16)
                .wrapping_add(((w_rate * 1000.0) as u64) << 32);
            let mut cfg = paper_cfg(protocol, n, w_rate, seed);
            cfg.workload.events_per_process = events;
            cfg
        };
        let tag = |&((protocol, n, w_rate), s): &(Cell, u64)| {
            format!("{}-n{n}-w{w_rate}-s{s}", slug(protocol))
        };
        let runs = run_units(jobs, &units, cfg, tag, None);
        let cells = unique
            .into_iter()
            .zip(runs.chunks(seeds as usize))
            .map(|(c, runs)| (key_of(c), aggregate(runs)))
            .collect();
        Ctx {
            scale,
            jobs,
            trace_dir,
            cells,
        }
    }

    /// The stats of a declared cell. Panics on a cell that was not
    /// declared.
    pub fn cell(&self, protocol: ProtocolKind, n: usize, w_rate: f64) -> &CellStats {
        self.cells
            .get(&key_of((protocol, n, w_rate)))
            .unwrap_or_else(|| panic!("undeclared cell ({protocol}, n = {n}, w = {w_rate})"))
    }
}

/// Fold per-seed results, in seed order, with the same operation sequence
/// the sequential loop used.
fn aggregate(runs: &[SimResult]) -> CellStats {
    let mut agg = MessageStats::new();
    let mut sm_entries = 0.0;
    let mut writes = 0.0;
    let mut reads = 0.0;
    let mut apply_latency = 0.0;
    let mut max_pending = 0usize;
    let mut local_meta = 0.0;
    for r in runs {
        let m = &r.metrics;
        agg.merge(&m.measured);
        sm_entries += m.sm_entries.mean();
        writes += m.writes as f64;
        reads += m.reads as f64;
        apply_latency += m.apply_latency_ns.mean() / 1e6;
        max_pending = max_pending.max(m.max_pending);
        local_meta +=
            r.final_local_meta.iter().sum::<u64>() as f64 / r.final_local_meta.len().max(1) as f64;
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

#[cfg(test)]
impl CellStats {
    /// Every field as raw bits, for bitwise identity checks across job
    /// counts.
    pub(crate) fn fingerprint(&self) -> Vec<u64> {
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
}

#[cfg(test)]
impl Ctx {
    /// The same settings with only `cells`, which must be among this
    /// context's.
    pub(crate) fn only(&self, cells: &[Cell]) -> Ctx {
        let cells = cells
            .iter()
            .map(|&(p, n, w)| (key_of((p, n, w)), self.cell(p, n, w).clone()));
        Ctx {
            scale: self.scale,
            jobs: self.jobs,
            trace_dir: None,
            cells: cells.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(cells: &[Cell]) -> Ctx {
        Ctx::new(Scale::Quick, 1, None, cells)
    }

    #[test]
    fn cell_is_cached() {
        // A cell declared twice runs once.
        let c = ctx(&[(ProtocolKind::OptP, 5, 0.5), (ProtocolKind::OptP, 5, 0.5)]);
        assert_eq!(c.cells.len(), 1);
        assert!(c.cell(ProtocolKind::OptP, 5, 0.5).total_count > 0.0);
    }

    #[test]
    #[should_panic(expected = "undeclared cell")]
    fn an_undeclared_cell_panics() {
        ctx(&[]).cell(ProtocolKind::OptP, 5, 0.5);
    }

    #[test]
    fn avg_bytes_indexing_matches_kind() {
        let c = ctx(&[(ProtocolKind::OptTrack, 5, 0.5)]);
        let c = c.cell(ProtocolKind::OptTrack, 5, 0.5);
        assert!(c.avg(MsgKind::Sm) > 0.0);
        assert!(c.avg(MsgKind::Fm) > 0.0);
        assert!(c.avg(MsgKind::Rm) > c.avg(MsgKind::Fm));
    }

    #[test]
    fn schedules_match_across_protocols_same_cell() {
        // The seed derivation ignores the protocol: write/read counts of
        // Opt-Track (partial) and Opt-Track-CRP (full) cells coincide.
        let c = ctx(&grid(
            &[ProtocolKind::OptTrack, ProtocolKind::OptTrackCrp],
            &[5],
            &[0.5],
        ));
        let a = c.cell(ProtocolKind::OptTrack, 5, 0.5).writes;
        let b = c.cell(ProtocolKind::OptTrackCrp, 5, 0.5).writes;
        assert_eq!(a, b, "Table IV replays identical schedules");
    }
}
