//! Serving-path correctness: every protocol, both transport fabrics,
//! closed-loop load — checker-clean histories, complete latency
//! accounting, clean shutdown, and exact channel-vs-TCP agreement where
//! determinism allows it.

use causal_checker::{check, OpRecord};
use causal_memory::Placement;
use causal_proto::{ProtocolKind, Replication};
use causal_runtime::{replay, serve, BatchWindow, RuntimeConfig, ServeConfig, ServeTransport};
use causal_types::{MsgKind, SiteId};
use std::time::Duration;

const ALL_PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::FullTrack,
    ProtocolKind::OptTrack,
    ProtocolKind::HbTrack,
    ProtocolKind::OptTrackCrp,
    ProtocolKind::OptP,
];

#[test]
fn serve_runs_every_protocol_on_the_channel_fabric() {
    for kind in ALL_PROTOCOLS {
        let cfg = ServeConfig::quick(kind, 5, ServeTransport::Channel, 11);
        let report = serve(&cfg).expect("serve runs");
        let expected = cfg.load.total_ops(5) as u64;
        assert_eq!(report.ops, expected, "{kind}: every client op completes");
        assert_eq!(report.latency.ops, expected, "{kind}: every op timed");
        assert_eq!(
            report.ops,
            report.history.total_ops() as u64,
            "{kind}: the report counts the operations the clients completed"
        );
        assert_eq!(report.final_pending, 0, "{kind}: no parked updates");
        assert!(report.ops_per_sec() > 0.0, "{kind}");
        let v = check(&report.history);
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
    }
}

#[test]
fn serve_runs_every_protocol_on_the_tcp_fabric() {
    for kind in ALL_PROTOCOLS {
        let mut cfg = ServeConfig::quick(kind, 4, ServeTransport::Tcp, 23);
        cfg.load.ops_per_client = 25;
        let report = serve(&cfg).expect("serve runs");
        let expected = cfg.load.total_ops(4) as u64;
        assert_eq!(report.ops, expected, "{kind}: every client op completes");
        assert_eq!(report.final_pending, 0, "{kind}: no parked updates");
        assert_eq!(
            report.metrics.transport_conn_errors, 0,
            "{kind}: a healthy run survives without connection errors"
        );
        let v = check(&report.history);
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
    }
}

#[test]
fn serve_with_batching_drains_every_lane() {
    // The update-heavy cells fill lanes, one per protocol over TCP, so every
    // piggyback's batch delta crosses a real socket. The other two, one per
    // fabric, hold Opt-Track's updates back for a 20 ms window while reads
    // race ahead, which violates causal delivery unless lanes pin the
    // sender's own obligations (`PruneConfig::pin_self`) on this harness too.
    let mut cells = Vec::new();
    for kind in ALL_PROTOCOLS {
        let mut heavy = ServeConfig::quick(kind, 5, ServeTransport::Tcp, 31);
        heavy.batch = Some(BatchWindow::windowed(Duration::from_millis(2)));
        heavy.load.w_rate = 0.8;
        cells.push((heavy, true));
    }
    for transport in [ServeTransport::Channel, ServeTransport::Tcp] {
        let mut long = ServeConfig::quick(ProtocolKind::OptTrack, 6, transport, 1);
        long.batch = Some(BatchWindow::windowed(Duration::from_millis(20)));
        long.load.ops_per_client = 60;
        long.load.think = Duration::from_micros(200);
        long.load.w_rate = 0.5;
        long.load.q = 20;
        cells.push((long, false));
    }
    for (cfg, heavy) in cells {
        let tag = format!("{} n={} {:?}", cfg.protocol, cfg.n, cfg.transport);
        let report = serve(&cfg).expect("serve runs");
        assert_eq!(report.ops, cfg.load.total_ops(cfg.n) as u64, "{tag}");
        assert_eq!(report.final_pending, 0, "{tag}: no update may stay parked");
        let v = check(&report.history);
        assert!(v.protocol_clean(), "{tag}: {v:?}");
        // Update batching must shrink frames, never lose or duplicate them:
        // every batched SM is one of the ordinary SM sends it replaced.
        let m = &report.metrics;
        assert!(
            !heavy || m.batch_flushes > 0,
            "{tag}: the heavy cell batches"
        );
        if m.batch_flushes > 0 {
            assert!(
                m.batched_sms >= 2 * m.batch_flushes,
                "{tag}: a batch has >= 2 SMs"
            );
        }
    }
}

#[test]
fn zero_think_shutdown_race_does_not_panic() {
    // Zero think time drives the fleet as hard as it can and maximizes the
    // chance a late frame races the Stop broadcast; the run must still
    // tear down cleanly with a complete history.
    for transport in [ServeTransport::Channel, ServeTransport::Tcp] {
        let mut cfg = ServeConfig::quick(ProtocolKind::FullTrack, 5, transport, 47);
        cfg.load.think = Duration::ZERO;
        cfg.load.ops_per_client = 60;
        cfg.load.w_rate = 0.6;
        let report = serve(&cfg).expect("serve runs");
        assert_eq!(report.ops, cfg.load.total_ops(5) as u64, "{transport:?}");
        assert_eq!(report.final_pending, 0, "{transport:?}");
        let v = check(&report.history);
        assert!(v.protocol_clean(), "{transport:?}: {:?}", v.examples);
    }
}

#[test]
fn optp_replay_counters_agree_byte_for_byte_across_transports_and_pool_sizes() {
    // optP is fully replicated (no FM/RM round trips) with a fixed-width
    // vector piggyback, so replaying one schedule must produce *identical*
    // message counts and meta bytes on both fabrics and at every scheduler
    // pool size — not just within a tolerance. W = 5 (= n) emulates the old
    // thread-per-site fabric, so this also pins new-fabric == old-fabric.
    let mut cfg = RuntimeConfig::fast(ProtocolKind::OptP, 5, 0.4, 13, 40);
    cfg.workers = 1;
    let baseline = replay(&cfg, ServeTransport::Channel).expect("channel replay");
    for workers in [1usize, 2, 4, 5] {
        cfg.workers = workers;
        let chan = replay(&cfg, ServeTransport::Channel).expect("channel replay");
        let tcp = replay(&cfg, ServeTransport::Tcp).expect("tcp run");
        for (label, out) in [("channel", &chan), ("tcp", &tcp)] {
            let tag = format!("W={workers}/{label}");
            for kind in [MsgKind::Sm, MsgKind::Fm, MsgKind::Rm] {
                assert_eq!(
                    baseline.metrics.all.count(kind),
                    out.metrics.all.count(kind),
                    "{tag}: {kind:?} count"
                );
                assert_eq!(
                    baseline.metrics.all.bytes(kind),
                    out.metrics.all.bytes(kind),
                    "{tag}: {kind:?} meta bytes"
                );
                assert_eq!(
                    baseline.metrics.measured.count(kind),
                    out.metrics.measured.count(kind),
                    "{tag}: {kind:?} measured count"
                );
                assert_eq!(
                    baseline.metrics.measured.bytes(kind),
                    out.metrics.measured.bytes(kind),
                    "{tag}: {kind:?} measured meta bytes"
                );
            }
            assert_eq!(baseline.metrics.writes, out.metrics.writes, "{tag}");
            assert_eq!(baseline.metrics.reads, out.metrics.reads, "{tag}");
            assert_eq!(
                baseline.metrics.remote_reads, out.metrics.remote_reads,
                "{tag}"
            );
        }
    }
}

#[test]
fn duration_bounded_serve_retires_clients_at_the_deadline() {
    // Time-bounded mode: clients stop issuing once their next op would
    // fall past the deadline, well before the per-client safety cap.
    let mut cfg = ServeConfig::quick(ProtocolKind::OptP, 4, ServeTransport::Channel, 71);
    cfg.load.ops_per_client = 1 << 20; // safety cap, not the bound
    cfg.load.duration = Some(Duration::from_millis(50));
    cfg.load.think = Duration::from_millis(1);
    let report = serve(&cfg).expect("serve runs");
    assert!(report.ops > 0, "the deadline leaves room for some ops");
    assert!(
        report.ops < cfg.load.total_ops(4) as u64,
        "the deadline, not the op budget, ended the run"
    );
    assert_eq!(report.latency.ops, report.ops, "every op timed");
    assert_eq!(report.final_pending, 0);
    let v = check(&report.history);
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

#[test]
fn replay_warmup_window_is_attributed_like_the_simulator() {
    // 40 events at the paper's 15% warm-up -> 6 warm-up ops per site; the
    // measured op tally must cover exactly the post-warm-up window while
    // `all` covers everything.
    let cfg = RuntimeConfig::fast(ProtocolKind::OptTrack, 6, 0.3, 4, 40);
    let out = replay(&cfg, ServeTransport::Channel).expect("channel replay");
    let measured_ops = out.metrics.writes + out.metrics.reads;
    assert_eq!(measured_ops, 6 * (40 - 6), "measured ops span the window");
    assert!(
        out.metrics.all.count(MsgKind::Sm) >= out.metrics.measured.count(MsgKind::Sm),
        "warm-up traffic counts toward `all` only"
    );
    assert!(
        out.metrics.measured.count(MsgKind::Sm) > 0,
        "the measured window is not empty"
    );
}

#[test]
fn stop_never_outruns_a_frame_across_200_tiny_deployments() {
    // Quiescence is the exact condition `finished == sites && in_flight ==
    // 0` with no settle window behind it, so a `Stop` that overtook a
    // frame would show up here as a missing apply: zero think time, a
    // write-heavy mix and a run that is over in a millisecond put the
    // `Stop` broadcast as close behind the last update as it can get.
    const N: usize = 4;
    let mut deployments = 0;
    for rep in 0..10u64 {
        for kind in ALL_PROTOCOLS {
            for transport in [ServeTransport::Channel, ServeTransport::Tcp] {
                for workers in [1, 2] {
                    let mut cfg = ServeConfig::quick(kind, N, transport, 100 + rep);
                    cfg.workers = workers;
                    cfg.load.ops_per_client = 6;
                    cfg.load.think = Duration::ZERO;
                    cfg.load.w_rate = 0.7;
                    cfg.load.q = 8;
                    let tag = format!("{kind} {transport:?} W={workers} rep {rep}");
                    let report = serve(&cfg).expect("serve runs");
                    assert_eq!(report.ops, cfg.load.total_ops(N) as u64, "{tag}");
                    assert_eq!(report.final_pending, 0, "{tag}");
                    assert_eq!(report.metrics.transport_conn_errors, 0, "{tag}");
                    // Completeness: every write reached every replica of
                    // its variable before the workers took their `Stop`.
                    let placement = if kind.supports_partial() {
                        Placement::paper_partial(N)
                    } else {
                        Placement::full(N)
                    }
                    .expect("valid n");
                    let owed: usize = SiteId::all(N)
                        .flat_map(|site| report.history.ops(site))
                        .map(|op| match op {
                            OpRecord::Write { var, .. } => placement.replicas(var).len(),
                            OpRecord::Read { .. } => 0,
                        })
                        .sum();
                    assert!(owed > 0, "{tag}: the mix has writes");
                    assert_eq!(report.history.total_applies(), owed, "{tag}");
                    let v = check(&report.history);
                    assert!(v.protocol_clean(), "{tag}: {:?}", v.examples);
                    deployments += 1;
                }
            }
        }
    }
    assert_eq!(deployments, 200);
}
