//! Real-TCP correctness: the paper's transport, end to end.
//!
//! Every protocol runs over a loopback TCP mesh with wire-encoded frames;
//! the recorded executions must pass the independent checker, and the
//! traffic must match the channel-based runtime exactly (transport choice
//! cannot change protocol behaviour).

use causal_checker::check;
use causal_proto::ProtocolKind;
use causal_runtime::{replay, RuntimeConfig, ServeTransport};
use causal_types::MsgKind;

#[test]
fn tcp_mesh_runs_all_protocols_causally() {
    for (kind, n) in [
        (ProtocolKind::OptTrack, 5),
        (ProtocolKind::FullTrack, 5),
        (ProtocolKind::OptTrackCrp, 5),
        (ProtocolKind::OptP, 5),
    ] {
        let cfg = RuntimeConfig::fast(kind, n, 0.5, 77, 30);
        let out = replay(&cfg, ServeTransport::Tcp).expect("tcp mesh");
        assert_eq!(out.final_pending, 0, "{kind}");
        let v = check(&out.history);
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
        assert!(out.metrics.all.count(MsgKind::Sm) > 0);
    }
}

#[test]
fn tcp_and_channel_transports_agree_on_traffic() {
    let cfg = RuntimeConfig::fast(ProtocolKind::OptTrack, 6, 0.5, 91, 40);
    let tcp = replay(&cfg, ServeTransport::Tcp).expect("tcp mesh");
    let chan = replay(&cfg, ServeTransport::Channel).expect("channel replay");
    // Every replayed operation is timed, warm-up included, on either
    // fabric.
    let scheduled = (cfg.workload.n * cfg.workload.events_per_process) as u64;
    for out in [&tcp, &chan] {
        assert_eq!(out.ops, scheduled, "every operation completes");
        assert_eq!(out.latency.ops, out.ops, "every operation is timed");
    }
    assert_eq!(tcp.ops, chan.ops, "fabrics agree on ops");
    for kind in [MsgKind::Sm, MsgKind::Fm, MsgKind::Rm] {
        assert_eq!(
            tcp.metrics.all.count(kind),
            chan.metrics.all.count(kind),
            "{kind} counts must be transport-independent"
        );
        // Byte totals are *approximately* equal: Opt-Track's log contents
        // depend on real-time interleavings, which legitimately differ
        // between transports (and across runs of the same transport).
        let (a, b) = (
            tcp.metrics.all.bytes(kind) as f64,
            chan.metrics.all.bytes(kind) as f64,
        );
        if b > 0.0 {
            assert!(
                (a - b).abs() / b < 0.15,
                "{kind} metadata bytes diverged too far: {a} vs {b}"
            );
        }
    }
}

#[test]
fn tcp_remote_fetch_round_trip() {
    // Partial replication at low write rate exercises FM/RM over sockets.
    let cfg = RuntimeConfig::fast(ProtocolKind::OptTrack, 6, 0.2, 55, 40);
    let out = replay(&cfg, ServeTransport::Tcp).expect("tcp mesh");
    assert_eq!(
        out.metrics.all.count(MsgKind::Fm),
        out.metrics.all.count(MsgKind::Rm)
    );
    assert!(out.metrics.all.count(MsgKind::Fm) > 0);
    let v = check(&out.history);
    assert!(v.protocol_clean(), "{:?}", v.examples);
}
