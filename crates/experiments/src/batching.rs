//! Batching sweep: bytes/op under per-destination update batching.
//!
//! The paper's Table III bytes are per-update piggyback costs with one SM
//! frame per update per destination. Per-destination batching amortizes the
//! piggyback: a flush window of `W` virtual seconds lets a sender merge
//! every update addressed to the same site into one [`causal_proto::SmBatch`]
//! frame carrying a single merged piggyback, so at high write rates the
//! metadata cost per operation collapses. This sweep quantifies that:
//! every protocol × write rate × flush window, reporting SM bytes per
//! post-warm-up operation and the ratio against the unbatched baseline of
//! the same seed.
//!
//! Like the chaos and churn sweeps, it is a correctness net first: every
//! run (batched or not) must drain to quiescence and pass the independent
//! causal-consistency checker — batching changes framing, never semantics.
//! The `window = off` rows double as the unbatched baseline and must report
//! all-zero batching counters.

use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_simnet::{BatchPlan, SimConfig, SimResult};
use causal_types::{MsgKind, SimDuration, SizeModel};

use crate::harness::{paper_cfg, run_units, PROTOCOLS};
use crate::Scale;

/// Write rates of Figs. 2–4 / 6–8.
const W_RATES: [f64; 3] = [0.2, 0.5, 0.8];

/// Flush windows in virtual seconds; `None` is the unbatched baseline.
const WINDOWS: [Option<u64>; 4] = [None, Some(5), Some(30), Some(120)];

/// System size: the paper's largest point.
const N: usize = 20;

fn window_name(w: Option<u64>) -> String {
    match w {
        None => "off".to_string(),
        Some(s) => format!("{s}s"),
    }
}

fn batching_cfg(
    kind: ProtocolKind,
    w_rate: f64,
    window: Option<u64>,
    events: usize,
    seed: u64,
) -> SimConfig {
    let mut cfg = paper_cfg(kind, N, w_rate, seed).with_history();
    cfg.workload.events_per_process = events;
    // Bytes/op comparisons need the calibrated flat-wire cost model; the
    // java_like model's per-message object overhead would mask the
    // piggyback amortization that batching actually buys.
    cfg.size_model = SizeModel::wire();
    cfg.batching = window.map(|s| BatchPlan::windowed(SimDuration::from_millis(s * 1000)));
    cfg
}

/// SM bytes per post-warm-up operation.
fn bytes_per_op(r: &SimResult) -> f64 {
    let ops = (r.metrics.writes + r.metrics.reads).max(1);
    r.metrics.measured.bytes(MsgKind::Sm) as f64 / ops as f64
}

/// Bytes/op for every protocol × write rate × flush window at n = 20,
/// against the unbatched baseline of the same seed. Runs fan out over
/// `jobs` workers and fold in input order (byte-identical to `--jobs 1`).
///
/// Panics when any run fails its correctness net: non-quiescence, checker
/// violations, nonzero batching counters with batching off — or when the
/// headline acceptance property fails: ≥ 10× bytes/op reduction for
/// Full-Track (partial replication) at w = 0.8 under the largest window.
pub fn batching_sweep(scale: Scale, jobs: usize) -> Table {
    let mut t = Table::new(
        format!(
            "Batching sweep: SM bytes per operation, n = {N}, wire size model, \
             windows {{off, 5 s, 30 s, 120 s}}"
        ),
        &[
            "protocol",
            "w",
            "window",
            "sm frames",
            "sms/batch",
            "bytes/op",
            "reduction",
        ],
    );
    let events = scale.events();
    let seed = 801;
    let units: Vec<(ProtocolKind, f64, Option<u64>)> = PROTOCOLS
        .iter()
        .flat_map(|&kind| {
            W_RATES
                .iter()
                .flat_map(move |&w| WINDOWS.iter().map(move |&win| (kind, w, win)))
        })
        .collect();
    let tag = |&(kind, w, win): &(ProtocolKind, f64, Option<u64>)| {
        format!("{kind}/w={w}/{}", window_name(win))
    };
    let results = run_units(
        jobs,
        &units,
        |&(kind, w, win)| batching_cfg(kind, w, win, events, seed),
        tag,
        None,
    );

    let mut baseline = f64::NAN; // bytes/op of this (protocol, w)'s `off` row
    for (unit, r) in units.iter().zip(&results) {
        let (kind, w, win) = *unit;
        let tag = tag(unit);
        let m = &r.metrics;
        if win.is_none() {
            assert_eq!(
                (m.batch_flushes, m.batched_sms, m.batch_bytes_saved),
                (0, 0, 0),
                "{tag}: batching off must report zero batch counters"
            );
            baseline = bytes_per_op(r);
        }
        let bpo = bytes_per_op(r);
        let reduction = baseline / bpo;
        if kind == ProtocolKind::FullTrack && w == 0.8 && win == Some(120) {
            assert!(
                reduction >= 10.0,
                "{tag}: acceptance requires ≥10× bytes/op reduction, got {reduction:.1}×"
            );
        }
        let frames = m.measured.count(MsgKind::Sm);
        let sms_per_batch = if m.batch_flushes > 0 {
            format!("{:.1}", m.batched_sms as f64 / m.batch_flushes as f64)
        } else {
            "-".to_string()
        };
        t.push_row(vec![
            kind.to_string(),
            format!("{w}"),
            window_name(win),
            frames.to_string(),
            sms_per_batch,
            format!("{bpo:.1}"),
            format!("{reduction:.1}x"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_sweep_covers_the_grid_and_reports_reductions() {
        let t = batching_sweep(Scale::Quick, 1);
        assert_eq!(t.len(), PROTOCOLS.len() * W_RATES.len() * WINDOWS.len());
        let csv = t.to_csv();
        for kind in PROTOCOLS {
            assert!(csv.contains(&kind.to_string()), "{kind} missing");
        }
        // Baseline rows report exactly 1.0× by construction.
        for line in csv.lines().skip(1).filter(|l| l.contains(",off,")) {
            assert!(
                line.ends_with(",1.0x"),
                "off row is its own baseline: {line}"
            );
        }
        // Windowed rows must never report a bytes/op increase.
        for line in csv.lines().skip(1).filter(|l| !l.contains(",off,")) {
            let red: f64 = line
                .rsplit(',')
                .next()
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!(red >= 1.0, "batching must never cost bytes: {line}");
        }
    }

    /// The acceptance property: `--jobs N` must reproduce `--jobs 1`
    /// byte for byte.
    #[test]
    fn parallel_batching_sweep_is_byte_identical_to_sequential() {
        let seq = batching_sweep(Scale::Quick, 1);
        let par = batching_sweep(Scale::Quick, 4);
        assert_eq!(seq.to_csv(), par.to_csv(), "tables diverge across jobs");
    }
}
