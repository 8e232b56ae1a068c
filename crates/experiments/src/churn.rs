//! Churn sweep: dynamic-membership cost and availability for every
//! protocol.
//!
//! The paper's protocols assume a fixed site set; the membership layer
//! grafts epoch'd view changes on top (joins bootstrapped by state
//! transfer, graceful and fail-stop leaves, live placement migration).
//! This sweep measures what that costs: how much state a join ships, what
//! fraction of scheduled operations still execute under churn
//! (availability), how often reads degrade, and how long a two-phase view
//! change takes to quiesce and install. Every run must reach quiescence
//! and pass the causal-consistency checker across every epoch — like the
//! chaos sweep, this is a correctness net first and a cost table second.
//!
//! Three scenarios per protocol:
//!
//! - `scripted` (one row per seed): one of everything — a join, a live
//!   migration, a graceful leave and a fail-stop leave — while the
//!   workload runs.
//! - `poisson`: membership events drawn from a Poisson process, so the
//!   view changes land at arbitrary workload phases.
//! - `donor-crash`: every bootstrap donor dies right after the join's
//!   sync requests go out; the joiner must time out into a *degraded*
//!   transfer (no hang, no panic) and the run must still drain.

use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_simnet::{CrashWindow, SimConfig};
use causal_types::{SimTime, SiteId};
use causal_workload::ChurnPlan;

use crate::harness::{ms_cell, paper_cfg, run_units, PROTOCOLS};
use crate::Scale;

/// Seeds per scripted cell: the acceptance bar is zero checker violations
/// across at least three seeds, regardless of scale.
const SEEDS: u64 = 3;

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    Scripted,
    Poisson,
    DonorCrash,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Scripted => "scripted",
            Scenario::Poisson => "poisson",
            Scenario::DonorCrash => "donor-crash",
        }
    }
}

fn base_cfg(kind: ProtocolKind, n: usize, seed: u64) -> SimConfig {
    paper_cfg(kind, n, 0.5, seed).with_history()
}

fn churn_cfg(kind: ProtocolKind, scenario: Scenario, events: usize, seed: u64) -> SimConfig {
    match scenario {
        // n = 8: site 7 joins by state transfer, a variable migrates onto
        // it, site 2 drains out gracefully, site 4 fail-stops.
        Scenario::Scripted => {
            let plan =
                ChurnPlan::parse("join:7@5s;migrate:3:0->7@20s;leave:2@40s;crash-leave:4@60s")
                    .expect("valid scripted spec");
            let mut cfg = base_cfg(kind, 8, seed).with_churn(plan);
            cfg.workload.events_per_process = events;
            cfg
        }
        Scenario::Poisson => {
            let mut cfg = base_cfg(kind, 6, seed);
            let plan =
                ChurnPlan::poisson(seed, 6, cfg.workload.q, 0.1, SimTime::from_millis(40_000));
            cfg = cfg.with_churn(plan);
            cfg.workload.events_per_process = events;
            cfg
        }
        // n = 3, site 2 joins at 80 s onto a quiet wire; both donors die
        // 1 ms after the sync requests leave and stay down past the whole
        // sync window.
        Scenario::DonorCrash => {
            let plan = ChurnPlan::parse("join:2@80s").expect("valid spec");
            let mut cfg = base_cfg(kind, 3, seed).with_churn(plan);
            cfg.workload.events_per_process = 20;
            cfg.crashes = (0..2)
                .map(|s| CrashWindow {
                    site: SiteId(s),
                    start: SimTime::from_millis(80_001),
                    end: SimTime::from_millis(95_000),
                })
                .collect();
            cfg
        }
    }
}

/// Membership cost and availability under churn, for every protocol. Rows
/// fan out over `jobs` worker threads and fold in input order, so the
/// table is byte-identical to a sequential run. Panics when any run hangs,
/// panics, or violates causal consistency — including the donor-crash
/// scenario, which must end in degraded quiescence.
pub fn churn_sweep(scale: Scale, jobs: usize) -> Table {
    let mut t = Table::new(
        format!(
            "Churn sweep: epoch'd view changes under a running workload \
             (scripted n=8, poisson n=6, donor-crash n=3, w=0.5, {SEEDS} seeds)"
        ),
        &[
            "protocol",
            "scenario",
            "seed",
            "views",
            "forced",
            "avail %",
            "xfer KB",
            "degr xfer",
            "degr reads",
            "view ms",
            "meta KB",
            "virtual s",
        ],
    );
    let events = scale.events().min(150);
    let units: Vec<(ProtocolKind, Scenario, u64)> = PROTOCOLS
        .iter()
        .flat_map(|&kind| {
            (0..SEEDS)
                .map(move |s| (kind, Scenario::Scripted, 301 + s))
                .chain([(kind, Scenario::Poisson, 308)])
                .chain([(kind, Scenario::DonorCrash, 306)])
        })
        .collect();
    let results = run_units(
        jobs,
        &units,
        |&(kind, scenario, seed)| churn_cfg(kind, scenario, events, seed),
        |&(kind, scenario, seed)| format!("{kind}/{}/{seed}", scenario.name()),
        None,
    );
    for (&(kind, scenario, seed), r) in units.iter().zip(&results) {
        let h = r.history.as_ref().expect("recorded");
        let m = &r.metrics;
        if scenario == Scenario::DonorCrash {
            assert!(
                m.degraded_recoveries >= 1 && m.churn_transfers_degraded >= 1,
                "{kind}/donor-crash/{seed}: donor crash must end in a degraded transfer"
            );
        }
        // Availability: the fraction of scheduled operations that actually
        // executed. Leavers stop mid-schedule; joiners defer but catch up.
        let n_sites = h.ops().len();
        let scheduled = match scenario {
            Scenario::DonorCrash => 20 * n_sites,
            _ => events * n_sites,
        };
        let executed: usize = h.ops().iter().map(Vec::len).sum();
        let reads = m.reads.max(1);
        t.push_row(vec![
            kind.to_string(),
            scenario.name().to_string(),
            seed.to_string(),
            m.view_changes.to_string(),
            m.views_forced.to_string(),
            format!("{:.1}", 100.0 * executed as f64 / scheduled as f64),
            format!("{:.1}", m.churn_transfer_bytes as f64 / 1000.0),
            m.churn_transfers_degraded.to_string(),
            format!("{:.4}", m.degraded_reads as f64 / reads as f64),
            ms_cell((m.view_change_ns.count() > 0).then(|| m.view_change_ns.mean())),
            format!(
                "{:.1}",
                r.final_local_meta.iter().sum::<u64>() as f64 / 1000.0
            ),
            format!("{:.1}", r.duration.as_secs_f64()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_sweep_covers_every_protocol_and_scenario() {
        let t = churn_sweep(Scale::Quick, 1);
        assert_eq!(t.len(), PROTOCOLS.len() * (SEEDS as usize + 2));
        let csv = t.to_csv();
        for kind in PROTOCOLS {
            assert!(csv.contains(&kind.to_string()), "{kind} missing");
        }
        // Every scripted row installs all four view changes.
        for line in csv.lines().skip(1).filter(|l| l.contains(",scripted,")) {
            let views: u64 = line.split(',').nth(3).unwrap().parse().unwrap();
            assert_eq!(views, 4, "scripted row must install 4 views: {line}");
        }
    }

    /// The acceptance property: `--jobs N` must reproduce `--jobs 1`
    /// byte for byte.
    #[test]
    fn parallel_churn_sweep_is_byte_identical_to_sequential() {
        let seq = churn_sweep(Scale::Quick, 1);
        let par = churn_sweep(Scale::Quick, 4);
        assert_eq!(seq.to_csv(), par.to_csv(), "tables diverge across jobs");
        assert_eq!(seq.render(), par.render());
    }
}
