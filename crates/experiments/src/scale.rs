//! Scaling sweep: the sharded M:N runtime over TCP at pool sizes 1, 2, 4.
//!
//! `repro scale` runs the same duration-bounded closed-loop load over the
//! loopback-TCP mesh at `W ∈` [`POOL_SIZES`] for each system size and
//! reports threads spawned, completed ops, ops/s, latency tails, coalesced
//! write syscalls, write stalls and peak mailbox depth, one row per cell —
//! so whether a second or fourth worker buys throughput on this host, or
//! costs more in cross-worker hand-offs than its core returns, is read off
//! adjacent rows.
//!
//! The sweep is also a gate, not just a table:
//!
//! * every cell must drain, stay connection-error free, and pass the
//!   causal-consistency checker;
//! * a cell spawns exactly `W` threads — the workers, which drive their
//!   sockets themselves — whatever `n` and however many sockets;
//! * one sim-vs-real replay parity check (Opt-Track, n = 8, through
//!   [`crate::serve::parity`]) re-asserts that the scheduler does not
//!   perturb protocol behavior: message counts must match the simulator
//!   exactly.
//!
//! Throughput is printed, not gated: cells share one noisy host; with
//! `--out` the table is also written as `scale.csv`.

use causal_checker::check;
use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_runtime::{ServeConfig, ServeTransport};
use std::time::Duration;

use crate::{serve, Scale};

/// Pool sizes swept per system size. Fixed (not auto) so the expected
/// thread counts are host-independent.
pub const POOL_SIZES: [usize; 3] = [1, 2, 4];

/// The protocol under load: Opt-Track is the paper's headline
/// partial-replication algorithm and exercises every runtime path —
/// multicast updates, blocking remote fetches, and the reply fast path.
const PROTOCOL: ProtocolKind = ProtocolKind::OptTrack;

/// One gated cell, as its table row.
fn run_cell(scale: Scale, n: usize, workers: usize) -> Vec<String> {
    let mut cfg = ServeConfig::quick(PROTOCOL, n, ServeTransport::Tcp, 4242);
    cfg.workers = workers;
    cfg.load.clients_per_site = 2;
    cfg.load.ops_per_client = 1 << 30; // safety cap; the deadline bounds the run
    cfg.load.duration = Some(match scale {
        Scale::Paper => Duration::from_millis(2000),
        Scale::Quick => Duration::from_millis(250),
    });
    cfg.load.think = Duration::from_micros(200);
    let tag = format!("scale n={n} W={workers}");
    eprintln!("[scale] {tag} …");
    let r = causal_runtime::serve(&cfg).unwrap_or_else(|e| panic!("{tag}: serve failed: {e:?}"));
    assert!(r.ops > 0, "{tag}: the deadline must leave room for ops");
    assert_eq!(r.final_pending, 0, "{tag}: run must drain");
    assert_eq!(
        r.metrics.transport_conn_errors, 0,
        "{tag}: healthy mesh, no connection errors"
    );
    assert_eq!(
        r.metrics.threads_spawned, workers as u64,
        "{tag}: the workers are the only threads"
    );
    let v = check(&r.history);
    assert!(v.protocol_clean(), "{tag}: causal violations: {v:?}");
    vec![
        n.to_string(),
        workers.to_string(),
        r.metrics.threads_spawned.to_string(),
        r.ops.to_string(),
        format!("{:.0}", r.ops_per_sec()),
        format!("{:.0}", r.latency.p50_us),
        format!("{:.0}", r.latency.p99_us),
        r.metrics.syscall_writes.to_string(),
        r.metrics.transport_frames.to_string(),
        r.metrics.transport_write_stalls.to_string(),
        r.metrics.mailbox_depth_peak.to_string(),
    ]
}

/// The `repro scale` job: parity gate first, then the pool-size sweep.
pub fn scale_sweep(scale: Scale) -> Table {
    // Replay parity at n = 8: the sharded scheduler must reproduce the
    // simulator's message counts exactly (same workload, same seed).
    let events = match scale {
        Scale::Paper => 120,
        Scale::Quick => 40,
    };
    eprintln!("[scale] parity: {PROTOCOL} n=8 ({events} events/process) …");
    serve::parity(PROTOCOL, 8, events);

    let mut t = Table::new(
        format!(
            "Scaling: {PROTOCOL} over TCP, duration-bounded closed loop — \
             worker pools of {POOL_SIZES:?}"
        ),
        &[
            "n",
            "workers",
            "threads",
            "ops",
            "ops/s",
            "p50 us",
            "p99 us",
            "sys writes",
            "frames",
            "wr stalls",
            "mbox peak",
        ],
    );
    for n in [8, 16, 40] {
        for workers in POOL_SIZES {
            t.push_row(run_cell(scale, n, workers));
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_gates_and_reports() {
        // The asserts inside scale_sweep (threads == W, drains, checker,
        // parity) are the test.
        let t = scale_sweep(Scale::Quick);
        let csv = t.to_csv();
        for row in ["\n40,1,1,", "\n40,2,2,", "\n40,4,4,"] {
            assert!(csv.contains(row), "n=40 runs on W threads: {csv}");
        }
    }
}
