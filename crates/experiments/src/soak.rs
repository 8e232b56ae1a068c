//! Bounded-memory soak: stable-frontier GC under sustained load.
//!
//! The stability subsystem (watermark gossip → Last-Stable-Vector →
//! stable-frontier GC) exists to keep long-running deployments at a
//! memory footprint proportional to the *unstable window* — the writes
//! not yet applied everywhere — instead of the whole execution. This
//! sweep is the proof: every protocol runs a dense multi-thousand to
//! multi-million event schedule with the WAL on and periodic
//! checkpointing off, so the **only** thing standing between a run and
//! O(total writes) retention is the frontier-driven collector.
//!
//! Four scenarios per protocol, one seed each (soak runs are long;
//! breadth comes from the scenarios):
//!
//! - `zipf`: Zipf(0.99) variable choice, w = 0.5 — the classic skewed
//!   key-value shape. Run twice, GC-on and GC-off: the pair is the
//!   bounded-memory assertion (GC-on peak retention must not exceed —
//!   and at real scale must be well below — the GC-off baseline).
//! - `hotspot`: 90 % of accesses hit the hottest 5 % of variables — the
//!   worst case for `LastWriteOn` slot churn.
//! - `read-heavy`: w = 0.1 — frontiers advance fastest when writes are
//!   scarce; retention should be near the floor.
//! - `crashed`: one site fail-stops a quarter of the way in and restarts
//!   later. While it is down the frontier must stall (GC pauses, the
//!   `stall` column counts ticks) and after recovery it must resume —
//!   the graceful-degradation contract.
//!
//! Like the chaos and churn sweeps this is a correctness net first:
//! every run must drain, and at smoke scale (events ≤ 200k, where the
//! history fits) every run is checked for causal violations with GC on.

use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_simnet::{CrashWindow, DurabilityPlan, SimConfig, StabilityPlan};
use causal_types::{SimDuration, SimTime, SiteId};
use causal_workload::{VarDistribution, WorkloadParams};

use crate::harness::{paper_cfg, run_units, PROTOCOLS};
use crate::Scale;

/// Sites per soak run.
const N: usize = 8;

/// One seed per cell; soak breadth comes from scenarios, not seeds.
const SEED: u64 = 701;

/// Runs with at most this many events per process record history and go
/// through the causal-consistency checker; above it the history itself
/// would dominate the memory the soak is trying to measure.
const CHECKED_EPP: usize = 25_000;

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    Zipf,
    Hotspot,
    ReadHeavy,
    Crashed,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Zipf => "zipf",
            Scenario::Hotspot => "hotspot",
            Scenario::ReadHeavy => "read-heavy",
            Scenario::Crashed => "crashed",
        }
    }
}

fn soak_cfg(
    kind: ProtocolKind,
    scenario: Scenario,
    gc: bool,
    events_per_process: usize,
) -> SimConfig {
    let w = if scenario == Scenario::ReadHeavy {
        0.1
    } else {
        0.5
    };
    let mut cfg = paper_cfg(kind, N, w, SEED);
    cfg.workload = WorkloadParams::soak(N, w, SEED);
    cfg.workload.events_per_process = events_per_process;
    cfg.workload.var_dist = match scenario {
        Scenario::Zipf => VarDistribution::Zipf { theta: 0.99 },
        Scenario::Hotspot => VarDistribution::Hotspot {
            hot_frac: 0.05,
            hot_prob: 0.9,
        },
        Scenario::ReadHeavy | Scenario::Crashed => VarDistribution::Uniform,
    };
    // WAL on, periodic checkpoints OFF: the stable-frontier checkpoint is
    // the only WAL truncation, so the GC-off baseline exposes the true
    // O(total writes) retention the collector is supposed to prevent.
    cfg = cfg.with_durability(DurabilityPlan {
        wal: true,
        ..DurabilityPlan::default()
    });
    let plan = StabilityPlan::default().with_overdue_after(SimDuration::from_millis(10_000));
    cfg = cfg.with_stability(if gc { plan } else { plan.without_gc() });
    if scenario == Scenario::Crashed {
        // Fail-stop site 1 a quarter into the expected span (mean
        // inter-event delay is 5.5 ms), back up before the halfway mark.
        let span_ms = (events_per_process as u64).saturating_mul(11) / 2;
        cfg.crashes = vec![CrashWindow {
            site: SiteId(1),
            start: SimTime::from_millis(span_ms / 4),
            end: SimTime::from_millis(span_ms * 45 / 100),
        }];
    }
    if events_per_process <= CHECKED_EPP {
        cfg = cfg.with_history();
    }
    cfg
}

/// Peak resident-set size of this process, kilobytes (`VmHWM`), when the
/// platform exposes it. Reported on stderr — never in the table, which
/// must stay byte-identical across `--jobs` settings while RSS is not.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Bounded-memory soak at the preset scale: 100k events total at
/// [`Scale::Quick`] (the CI smoke), 1M at [`Scale::Paper`].
pub fn soak_sweep(scale: Scale, jobs: usize) -> Table {
    let total = match scale {
        Scale::Paper => 1_000_000,
        Scale::Quick => 100_000,
    };
    soak_sweep_events(total, jobs)
}

/// Bounded-memory soak with an explicit total event budget (split over
/// `N` sites). Rows fan out over `jobs` worker threads and fold in input
/// order, so the table is byte-identical to a sequential run; the peak
/// RSS goes to stderr for the same reason. Panics when any run hangs,
/// leaks past its GC-off baseline, fails to pause-and-resume GC around a
/// crash, or (at checked scales) violates causal consistency.
pub fn soak_sweep_events(total_events: usize, jobs: usize) -> Table {
    let epp = (total_events / N).max(1);
    let mut t = Table::new(
        format!(
            "Soak sweep: stable-frontier GC under sustained load \
             (n={N}, {} events/site, zipf 0.99 / hotspot 5%@90% / w=0.1 / \
             crash site 1, WAL on, stable checkpoints only)",
            epp
        ),
        &[
            "protocol",
            "scenario",
            "gc",
            "lag p99",
            "unstable pk",
            "retained pk KB",
            "meta KB",
            "gc log",
            "gc slots",
            "stall",
            "wal seal",
            "wal del KB",
            "virtual s",
        ],
    );
    let units: Vec<(ProtocolKind, Scenario, bool)> = PROTOCOLS
        .iter()
        .flat_map(|&kind| {
            [
                (kind, Scenario::Zipf, true),
                (kind, Scenario::Zipf, false),
                (kind, Scenario::Hotspot, true),
                (kind, Scenario::ReadHeavy, true),
                (kind, Scenario::Crashed, true),
            ]
        })
        .collect();
    let tag = |&(kind, scenario, gc): &(ProtocolKind, Scenario, bool)| {
        format!("{kind}/{}/gc={gc}", scenario.name())
    };
    let results = run_units(
        jobs,
        &units,
        |&(kind, scenario, gc)| soak_cfg(kind, scenario, gc, epp),
        tag,
        None,
    );
    // The GC-off zipf baseline each GC-on zipf row is asserted against.
    let baseline_peak: Vec<u64> = units
        .iter()
        .zip(&results)
        .filter(|((_, sc, gc), _)| *sc == Scenario::Zipf && !gc)
        .map(|(_, r)| r.metrics.retained_meta_peak)
        .collect();
    assert_eq!(baseline_peak.len(), PROTOCOLS.len());
    for (u, (unit, r)) in units.iter().zip(&results).enumerate() {
        let (kind, scenario, gc) = *unit;
        let tag = tag(unit);
        let m = &r.metrics;
        if gc {
            // The tentpole claim: retention with the collector on is
            // bounded by the unstable window, never the run length. The
            // GC-off twin retains every WAL record, so it is a hard upper
            // bound at any scale — and at real soak scale the collector
            // must beat it by a wide margin.
            if scenario == Scenario::Zipf {
                let off = baseline_peak[u / 5];
                assert!(
                    m.retained_meta_peak <= off,
                    "{tag}: GC-on peak {} exceeds GC-off baseline {off}",
                    m.retained_meta_peak
                );
                if epp >= 10_000 {
                    assert!(
                        (m.retained_meta_peak as f64) < 0.8 * off as f64,
                        "{tag}: GC-on peak {} not well below GC-off baseline {off}",
                        m.retained_meta_peak
                    );
                    assert!(
                        m.wal_deleted_bytes > 0,
                        "{tag}: stable checkpoints never reclaimed WAL segments"
                    );
                }
            }
            if scenario == Scenario::Crashed {
                assert!(
                    m.gc_stalled_ticks > 0,
                    "{tag}: frontier must stall while a member is down"
                );
                assert!(
                    m.gc_log_entries + m.gc_slots + m.wal_deleted_bytes > 0,
                    "{tag}: GC must resume after the crashed site recovers"
                );
            }
        } else {
            assert_eq!(m.wal_deleted_bytes, 0, "{tag}: GC-off must retain the WAL");
        }
        t.push_row(vec![
            kind.to_string(),
            scenario.name().to_string(),
            if gc { "on" } else { "off" }.to_string(),
            match m.stability_lag.quantile(0.99) {
                Some(p99) => format!("{p99:.0}"),
                None => "-".to_string(),
            },
            m.unstable_peak.to_string(),
            format!("{:.1}", m.retained_meta_peak as f64 / 1000.0),
            format!(
                "{:.1}",
                r.final_local_meta.iter().sum::<u64>() as f64 / 1000.0
            ),
            m.gc_log_entries.to_string(),
            m.gc_slots.to_string(),
            m.gc_stalled_ticks.to_string(),
            m.wal_segments_sealed.to_string(),
            format!("{:.1}", m.wal_deleted_bytes as f64 / 1000.0),
            format!("{:.1}", r.duration.as_secs_f64()),
        ]);
    }
    if let Some(kb) = peak_rss_kb() {
        eprintln!("soak: peak RSS {:.1} MB (VmHWM)", kb as f64 / 1024.0);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_sweep_covers_every_protocol_and_scenario() {
        let t = soak_sweep_events(8 * 600, 1);
        assert_eq!(t.len(), PROTOCOLS.len() * 5);
        let csv = t.to_csv();
        for kind in PROTOCOLS {
            assert!(csv.contains(&kind.to_string()), "{kind} missing");
        }
        for scenario in ["zipf", "hotspot", "read-heavy", "crashed"] {
            assert!(csv.contains(scenario), "{scenario} missing");
        }
        // Exactly one GC-off baseline row per protocol.
        let off = csv.lines().filter(|l| l.contains(",off,")).count();
        assert_eq!(off, PROTOCOLS.len());
    }

    /// The acceptance property: `--jobs N` must reproduce `--jobs 1`
    /// byte for byte.
    #[test]
    fn parallel_soak_sweep_is_byte_identical_to_sequential() {
        let seq = soak_sweep_events(8 * 400, 1);
        let par = soak_sweep_events(8 * 400, 4);
        assert_eq!(seq.to_csv(), par.to_csv(), "tables diverge across jobs");
        assert_eq!(seq.render(), par.render());
    }
}
