//! Chaos sweeps: protocol behavior and transport overhead on lossy
//! networks with crash/recovery.
//!
//! The paper measures the protocols over TCP — a lossless substrate. These
//! sweeps ask the robustness question the paper leaves open: what does each
//! protocol's traffic cost look like when the channel guarantees must be
//! *paid for* (retransmissions, acks, duplicate suppression), and how
//! expensive is rebuilding a site's causal state after a fail-stop crash
//! with state loss? Every run still passes the causal-consistency checker —
//! the sweep is also a large randomized correctness net for the transport.
//!
//! The grid's runs are independent, so they fan out across `jobs` worker
//! threads ([`crate::harness`]); results fold in input order, keeping the
//! table — and any `--trace-dir` JSONL traces — byte-identical to a
//! sequential run.

use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_simnet::{CrashWindow, FaultPlan, SimConfig};
use causal_types::{SimTime, SiteId};
use std::path::Path;

use crate::harness::{ms_cell, paper_cfg, run_units, slug};
use crate::Scale;

/// The loss-rate grid: drop probability per transport frame; duplication
/// rides along at one quarter of the drop rate.
pub const LOSS_GRID: [f64; 4] = [0.0, 0.05, 0.15, 0.30];

fn chaos_cfg(kind: ProtocolKind, n: usize, loss: f64, events: usize, seed: u64) -> SimConfig {
    let mut cfg = paper_cfg(kind, n, 0.5, seed).with_history();
    cfg.workload.events_per_process = events;
    cfg.faults = FaultPlan::uniform(loss, loss / 4.0);
    // Crashes join the sweep once the network is already hostile, so the
    // recovery column reflects loss-degraded sync latency.
    if loss >= 0.15 {
        cfg.crashes = vec![CrashWindow {
            site: SiteId(1),
            start: SimTime::from_millis(500),
            end: SimTime::from_millis(1_200),
        }];
    }
    cfg
}

/// Transport overhead vs. loss rate: for each of the paper's four
/// protocols and each loss level, the retransmission fraction, duplicate
/// drops, ack traffic, the protocol-payload vs. transport-overhead byte
/// split, and the per-site registry's p99 tails (apply dwell, fetch RTT)
/// with the buffered-update total. Runs fan out over `jobs` threads; with a
/// `trace_dir`, each run's structured trace lands there as
/// `chaos-<protocol>-<loss>.jsonl`. Panics if any run fails to quiesce or
/// violates causal consistency — chaos runs are correctness tests first.
pub fn chaos_overhead(scale: Scale, n: usize, jobs: usize, trace_dir: Option<&Path>) -> Table {
    let mut t = Table::new(
        format!("Chaos sweep: transport overhead vs. loss rate (n={n}, w=0.5, one crash at 15% loss and above)"),
        &[
            "protocol", "loss", "retrans", "dup drops", "fault drops", "acks",
            "ack KB", "envelope KB", "sync KB", "recovery ms", "virtual s",
            "apply p99 ms", "rtt p99 ms", "buffered",
        ],
    );
    let events = scale.events().min(200);
    let units: Vec<(ProtocolKind, f64)> = ProtocolKind::ALL
        .iter()
        .flat_map(|&kind| LOSS_GRID.iter().map(move |&loss| (kind, loss)))
        .collect();
    let results = run_units(
        jobs,
        &units,
        |&(kind, loss)| chaos_cfg(kind, n, loss, events, 0xC4A0_5EED),
        |&(kind, loss)| format!("chaos-{}-{loss:.2}", slug(kind)),
        trace_dir,
    );
    for (&(kind, loss), r) in units.iter().zip(&results) {
        let m = &r.metrics;
        t.push_row(vec![
            kind.to_string(),
            format!("{loss:.2}"),
            m.retransmissions.to_string(),
            m.dup_drops.to_string(),
            m.fault_drops.to_string(),
            m.ack_count.to_string(),
            format!("{:.1}", m.ack_bytes as f64 / 1000.0),
            format!("{:.1}", m.envelope_bytes as f64 / 1000.0),
            format!("{:.1}", m.sync_bytes as f64 / 1000.0),
            ms_cell((m.recovery_ns.count() > 0).then(|| m.recovery_ns.mean())),
            format!("{:.1}", r.duration.as_secs_f64()),
            ms_cell(m.apply_latency_ns.quantile(0.99)),
            ms_cell(m.fetch_rtt_ns.quantile(0.99)),
            m.per_site.total_buffered().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_runs_clean_at_quick_scale() {
        let t = chaos_overhead(Scale::Quick, 5, 1, None);
        assert_eq!(t.len(), ProtocolKind::ALL.len() * LOSS_GRID.len());
        let csv = t.to_csv();
        // The zero-loss rows are pass-through: no retransmissions.
        for line in csv.lines().skip(1).step_by(LOSS_GRID.len()) {
            let retrans: u64 = line.split(',').nth(2).unwrap().parse().unwrap();
            assert_eq!(retrans, 0, "loss 0.00 must be pass-through: {line}");
        }
    }

    #[test]
    fn parallel_chaos_sweep_is_byte_identical_to_sequential() {
        let dir = std::env::temp_dir().join(format!("causal-chaos-par-{}", std::process::id()));
        let seq_dir = dir.join("seq");
        let par_dir = dir.join("par");
        std::fs::create_dir_all(&seq_dir).unwrap();
        std::fs::create_dir_all(&par_dir).unwrap();
        let seq = chaos_overhead(Scale::Quick, 5, 1, Some(&seq_dir));
        let par = chaos_overhead(Scale::Quick, 5, 4, Some(&par_dir));
        assert_eq!(seq.to_csv(), par.to_csv(), "tables diverge across jobs");
        let mut names: Vec<_> = std::fs::read_dir(&seq_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names.len(), ProtocolKind::ALL.len() * LOSS_GRID.len());
        for name in names {
            let a = std::fs::read(seq_dir.join(&name)).unwrap();
            let b = std::fs::read(par_dir.join(&name)).unwrap();
            assert!(!a.is_empty(), "{name:?}: empty trace");
            assert_eq!(a, b, "{name:?}: traces diverge across jobs");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
