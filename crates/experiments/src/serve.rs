//! Real-cluster serving sweep: throughput/latency benchmark plus
//! sim-vs-real cross-validation.
//!
//! Two parts, one `repro serve` invocation:
//!
//! 1. **Benchmark** — every protocol on both live fabrics (in-process
//!    channels and loopback TCP with `TCP_NODELAY`), under the closed-loop
//!    load generator; reports completed ops, ops/s and the mean/p50/p99
//!    completion-latency tails of the merged per-site histograms. Every
//!    run must drain to quiescence and pass the causal-consistency checker.
//!
//! 2. **Parity** — the closing step the paper's testbed never had: replay
//!    the simulator's exact workload (same parameters, same seed) on the
//!    real TCP cluster and assert the cluster's per-protocol message
//!    counts match simnet's prediction *exactly*, and its metadata bytes
//!    match within a stated tolerance.
//!
//! ## Why counts are exact and bytes are not
//!
//! The schedule, the replica placement, and the protocols' routing are all
//! deterministic in the seed, so the *set* of messages — SM fan-out per
//! write, one FM + one RM per remote read — is identical on both
//! instruments; any count mismatch is a bug, and the sweep asserts
//! equality. Metadata *bytes*, however, are content-dependent for the
//! log-exchange protocols (Opt-Track, HB-Track, Opt-Track-CRP): how much
//! log a message piggybacks depends on what its sender had applied at send
//! time, and real thread interleavings order deliveries differently than
//! virtual time does. The RM reply's piggyback is similarly
//! state-dependent (a server that has not yet applied anything for the
//! variable answers with a bare value). Those effects perturb totals by a
//! few percent at paper scale, so byte parity is asserted within
//! [`BYTES_TOLERANCE`]. Full-Track and optP carry fixed-width piggybacks
//! (matrix resp. vector clocks), leaving only the RM-⊥ effect — and optP,
//! which is fully replicated and never fetches, must match byte-for-byte;
//! the sweep asserts that stricter bound where it holds.

use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_runtime::{replay, serve, RuntimeConfig, ServeConfig, ServeReport, ServeTransport};
use causal_types::MsgKind;
use std::time::{Duration, Instant};

use crate::harness::{paper_cfg, PROTOCOLS};
use crate::Scale;

/// Relative tolerance for sim-vs-real metadata byte totals (see the module
/// docs for why bytes can differ at all). Protocols with fixed-width
/// piggybacks and no fetch path (optP) are held to exact equality instead.
pub const BYTES_TOLERANCE: f64 = 0.15;

/// System size for both parts: large enough that partial placement has
/// non-replica sites (remote reads actually happen), small enough that a
/// 2 × 5-protocol benchmark finishes in CI.
const N: usize = 6;

/// Relative difference `|a - b| / max(a, 1)`.
fn rel_delta(a: u64, b: u64) -> f64 {
    (a as f64 - b as f64).abs() / (a.max(1) as f64)
}

/// The columns of a [`serve_row`].
pub const SERVE_COLUMNS: [&str; 13] = [
    "protocol",
    "transport",
    "ops",
    "ops/s",
    "mean us",
    "p50 us",
    "p99 us",
    "sm frames",
    "sm KB",
    "tcp frames",
    "wr stalls",
    "batched",
    "conn errs",
];

/// Deploy one protocol × fabric cell and make its row of
/// [`SERVE_COLUMNS`]. Errs when the deployment fails, when updates are
/// left parked, and — with `check` — when the recorded history breaks
/// causal consistency.
pub fn serve_row(cfg: &ServeConfig, check: bool) -> Result<(ServeReport, Vec<String>), String> {
    let tag = format!("{}/{}", cfg.protocol, cfg.transport.label());
    let r = serve(cfg).map_err(|e| format!("{tag}: {e:?}"))?;
    if r.final_pending != 0 {
        return Err(format!("{tag}: {} updates left parked", r.final_pending));
    }
    if check {
        let t = Instant::now();
        let v = causal_checker::check(&r.history);
        if !v.protocol_clean() {
            return Err(format!("{tag}: causal violations: {:?}", v.examples));
        }
        eprintln!(
            "[serve] checked {} ops, {} applies in {:.3} s",
            r.history.total_ops(),
            r.history.total_applies(),
            t.elapsed().as_secs_f64()
        );
    }
    let (m, l) = (&r.metrics, &r.latency);
    let row = vec![
        cfg.protocol.to_string(),
        cfg.transport.label().to_string(),
        r.ops.to_string(),
        format!("{:.0}", r.ops_per_sec()),
        format!("{:.0}", l.mean_us),
        format!("{:.0}", l.p50_us),
        format!("{:.0}", l.p99_us),
        m.all.count(MsgKind::Sm).to_string(),
        format!("{:.1}", m.all.bytes(MsgKind::Sm) as f64 / 1024.0),
        m.transport_frames.to_string(),
        m.transport_write_stalls.to_string(),
        m.batched_sms.to_string(),
        m.transport_conn_errors.to_string(),
    ];
    Ok((r, row))
}

/// The serving benchmark: ops/s and latency tails for every protocol on
/// both fabrics. Panics when a run fails its correctness net (incomplete
/// client budget, parked updates, checker violation, connection errors on
/// a healthy mesh).
pub fn serve_bench(scale: Scale) -> Table {
    let (clients, ops, think_us) = match scale {
        Scale::Paper => (4, 120, 1500),
        Scale::Quick => (2, 40, 800),
    };
    let mut t = Table::new(
        format!(
            "Real-cluster serve: n = {N}, {clients} clients/site x {ops} ops, \
             think {think_us} us, w = 0.3, closed loop"
        ),
        &SERVE_COLUMNS,
    );
    for kind in PROTOCOLS {
        for transport in [ServeTransport::Channel, ServeTransport::Tcp] {
            let mut cfg = ServeConfig::quick(kind, N, transport, 4242);
            cfg.load.clients_per_site = clients;
            cfg.load.ops_per_client = ops;
            cfg.load.think = Duration::from_micros(think_us);
            let (r, row) = serve_row(&cfg, true).unwrap_or_else(|e| panic!("{e}"));
            let tag = format!("{kind}/{}", transport.label());
            let total = cfg.load.total_ops(N) as u64;
            assert_eq!(r.ops, total, "{tag}: every client op must complete");
            let conn_errors = r.metrics.transport_conn_errors;
            assert_eq!(conn_errors, 0, "{tag}: healthy mesh, no connection errors");
            t.push_row(row);
        }
    }
    t
}

/// Sim-vs-real parity: replay the simulator's workload on the real TCP
/// cluster and compare. Panics on any count mismatch, on byte deltas
/// beyond [`BYTES_TOLERANCE`], or on optP deviating from exact byte
/// equality.
pub fn serve_parity(scale: Scale) -> Table {
    let mut t = Table::new(
        format!(
            "Sim-vs-real parity: n = {N}, w = 0.3, {} events/process, seed 7 — \
             counts exact, bytes within {:.0} %",
            scale.events(),
            BYTES_TOLERANCE * 100.0
        ),
        &[
            "protocol",
            "kind",
            "sim count",
            "real count",
            "sim bytes",
            "real bytes",
            "delta",
        ],
    );
    for kind in PROTOCOLS {
        for row in parity(kind, N, scale.events()) {
            t.push_row(row);
        }
    }
    t
}

/// Replay the simulator's workload for `kind` at `n` sites (w = 0.3, seed
/// 7, `events` per process) on the real TCP cluster and compare, one row
/// per message kind. Panics on any count mismatch, on byte deltas beyond
/// [`BYTES_TOLERANCE`], or on optP deviating from exact byte equality.
pub fn parity(kind: ProtocolKind, n: usize, events: usize) -> Vec<Vec<String>> {
    let (w, seed) = (0.3, 7u64);
    let mut sim_cfg = paper_cfg(kind, n, w, seed);
    sim_cfg.workload.events_per_process = events;
    let sim = causal_simnet::run(&sim_cfg);

    let real_cfg = RuntimeConfig::fast(kind, n, w, seed, events);
    let real = replay(&real_cfg, ServeTransport::Tcp)
        .unwrap_or_else(|e| panic!("{kind}: tcp replay: {e:?}"));
    assert_eq!(real.final_pending, 0, "{kind}: replay must drain");

    // The operation tallies are schedule-determined: exact.
    assert_eq!(sim.metrics.writes, real.metrics.writes, "{kind}: writes");
    assert_eq!(sim.metrics.reads, real.metrics.reads, "{kind}: reads");
    assert_eq!(
        sim.metrics.remote_reads, real.metrics.remote_reads,
        "{kind}: remote reads"
    );

    let row = |mk: MsgKind| {
        let (sc, rc) = (
            sim.metrics.measured.count(mk),
            real.metrics.measured.count(mk),
        );
        let (sb, rb) = (
            sim.metrics.measured.bytes(mk),
            real.metrics.measured.bytes(mk),
        );
        assert_eq!(sc, rc, "{kind}: measured {mk:?} count must match exactly");
        assert_eq!(
            sim.metrics.all.count(mk),
            real.metrics.all.count(mk),
            "{kind}: total {mk:?} count must match exactly"
        );
        let delta = rel_delta(sb, rb);
        if kind == ProtocolKind::OptP {
            assert_eq!(sb, rb, "{kind}: fixed-width piggyback, bytes exact");
        } else {
            assert!(
                delta <= BYTES_TOLERANCE,
                "{kind}: {mk:?} bytes diverge {:.1} % (sim {sb}, real {rb})",
                delta * 100.0
            );
        }
        vec![
            kind.to_string(),
            format!("{mk:?}"),
            sc.to_string(),
            rc.to_string(),
            sb.to_string(),
            rb.to_string(),
            format!("{:.1}%", delta * 100.0),
        ]
    };
    MsgKind::ALL.map(row).to_vec()
}

/// The full `repro serve` job: parity first (it is the gate), then the
/// benchmark table as the artifact. The parity table is printed here so
/// both sections reach the console from one subcommand.
pub fn serve_sweep(scale: Scale) -> Table {
    let parity = serve_parity(scale);
    println!("{}", parity.render());
    serve_bench(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_covers_every_protocol_on_both_fabrics() {
        let t = serve_bench(Scale::Quick);
        assert_eq!(t.len(), PROTOCOLS.len() * 2);
        let csv = t.to_csv();
        for kind in PROTOCOLS {
            assert!(csv.contains(&kind.to_string()), "{kind} missing");
        }
        assert!(csv.contains(",channel,") && csv.contains(",tcp,"));
    }

    #[test]
    fn parity_holds_at_quick_scale() {
        // The asserts inside serve_parity are the test.
        let t = serve_parity(Scale::Quick);
        assert_eq!(t.len(), PROTOCOLS.len() * 3, "one row per message kind");
    }
}
