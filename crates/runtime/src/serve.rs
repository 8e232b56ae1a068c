//! Real-cluster serve mode: a benchmarked deployment of one protocol.
//!
//! `serve` is what the paper's testbed would have looked like with a
//! benchmark harness attached: every site is a live node scheduled on the
//! sharded worker pool, the transport is either the in-process channel
//! fabric or a real multiplexed loopback-TCP mesh, and the offered load
//! comes from closed-loop clients ([`crate::loadgen`]) instead of a
//! pre-generated schedule. The run reports what serving systems are
//! judged by — throughput and latency tails — next to the protocol-level
//! message and meta-data accounting the paper measures.
//!
//! Since client operations are generated at issue time from real completion
//! instants, a serve run is *not* schedule-replayable on the simulator;
//! sim-vs-real cross-validation uses replay mode ([`crate::replay`] with
//! the simulator's workload) instead, which reports in the same
//! [`ServeReport`].

use crate::loadgen::{ClosedLoop, LoadProfile};
use crate::node::{BatchWindow, OpDriver};
use crate::runner::deploy;
use causal_checker::History;
use causal_memory::Placement;
use causal_metrics::{LatencySummary, RunMetrics};
use causal_proto::ProtocolKind;
use causal_types::{Result, SiteId, SizeModel};
use std::sync::Arc;
use std::time::Duration;

/// Which fabric carries the mesh traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeTransport {
    /// In-process: nothing between the workers but their inboxes
    /// (single-box A/B baseline).
    Channel,
    /// Multiplexed loopback TCP with `TCP_NODELAY` — the paper's actual
    /// transport, one socket per worker pair.
    Tcp,
}

impl ServeTransport {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            ServeTransport::Channel => "channel",
            ServeTransport::Tcp => "tcp",
        }
    }
}

/// Configuration of a serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The protocol every site runs.
    pub protocol: ProtocolKind,
    /// Number of sites. Partial-capable protocols get the paper's
    /// 3-replica partial placement, the rest full replication.
    pub n: usize,
    /// The closed-loop client fleet.
    pub load: LoadProfile,
    /// The transport fabric.
    pub transport: ServeTransport,
    /// Per-destination update batching on the send path (`None` = off).
    pub batch: Option<BatchWindow>,
    /// Modeled payload length attached to written values (bytes).
    pub payload_len: u32,
    /// Byte accounting for the metrics.
    pub size_model: SizeModel,
    /// Scheduler worker threads (`0` = auto, `n` = one worker per site;
    /// clamped to `[1, n]`).
    pub workers: usize,
}

impl ServeConfig {
    /// A small smoke-sized run: `n` sites, 2 clients each issuing 40 ops
    /// with 1 ms mean think time, 30 % writes over 100 variables,
    /// auto-sized worker pool.
    pub fn quick(protocol: ProtocolKind, n: usize, transport: ServeTransport, seed: u64) -> Self {
        ServeConfig {
            protocol,
            n,
            load: LoadProfile {
                clients_per_site: 2,
                ops_per_client: 40,
                think: Duration::from_millis(1),
                w_rate: 0.3,
                q: 100,
                seed,
                duration: None,
            },
            transport,
            batch: None,
            payload_len: 0,
            size_model: SizeModel::java_like(),
            workers: 0,
        }
    }
}

/// What a deployment produced: a serving run or a replay.
pub struct ServeReport {
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock duration of the run (spawn to quiescence).
    pub elapsed: Duration,
    /// Completion-latency summary (mean / p50 / p99 / max).
    pub latency: LatencySummary,
    /// Protocol-level message and meta-byte accounting (all client ops are
    /// measured; there is no warm-up window under closed-loop load, and a
    /// replay's is the simulator's).
    pub metrics: RunMetrics,
    /// The combined execution history (feed to `causal_checker::check`).
    pub history: History,
    /// Parked updates at shutdown, summed over sites (must be 0).
    pub final_pending: usize,
}

impl ServeReport {
    /// Completed operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Deploy the cluster, run the client fleet to completion, and collect the
/// report. Blocks until quiescent.
pub fn serve(cfg: &ServeConfig) -> Result<ServeReport> {
    let placement = if cfg.protocol.supports_partial() {
        Placement::paper_partial(cfg.n)?
    } else {
        Placement::full(cfg.n)?
    };
    deploy(
        cfg.protocol,
        Arc::new(placement),
        cfg.transport,
        cfg.workers,
        cfg.payload_len,
        cfg.size_model,
        cfg.batch,
        |i| OpDriver::Closed(ClosedLoop::new(&cfg.load, SiteId::from(i))),
    )
}
