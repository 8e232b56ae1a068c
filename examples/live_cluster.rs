//! A live multi-threaded cluster run, checked for causal consistency.
//!
//! Spawns the scheduler's worker pool (running the same protocol objects
//! the simulator drives), replays a workload in scaled wall-clock time over
//! the in-process fabric — the workers' inboxes — then verifies the
//! recorded execution with the independent checker — the closest thing to
//! the paper's JDK-over-TCP testbed that fits in an example.
//!
//! ```text
//! cargo run --release --example live_cluster
//! ```

use causal_repro::prelude::*;

fn main() {
    for (protocol, n) in [
        (ProtocolKind::OptTrack, 8),
        (ProtocolKind::FullTrack, 8),
        (ProtocolKind::OptTrackCrp, 8),
        (ProtocolKind::OptP, 8),
    ] {
        let cfg = RuntimeConfig::fast(protocol, n, 0.5, 42, 60);
        let out = replay(&cfg, ServeTransport::Channel).expect("channel fabric");
        let v = check(&out.history);
        println!(
            "{protocol:<14} n={n}: {} ops, {} applies, {} msgs in {:?} — {}",
            out.history.total_ops(),
            out.history.total_applies(),
            out.metrics.all.total_count(),
            out.elapsed,
            if v.protocol_clean() {
                "causally consistent ✓"
            } else {
                "VIOLATIONS FOUND ✗"
            }
        );
        if !v.protocol_clean() {
            for ex in &v.examples {
                println!("    {ex}");
            }
            std::process::exit(1);
        }
        assert_eq!(out.final_pending, 0);
    }
    println!("\nall four protocols survived live concurrency with verified causal delivery");

    // Once more over the paper's actual transport: a real loopback TCP
    // mesh with wire-encoded frames.
    let cfg = RuntimeConfig::fast(ProtocolKind::OptTrack, 6, 0.5, 7, 40);
    let out = replay(&cfg, ServeTransport::Tcp).expect("tcp mesh");
    let v = check(&out.history);
    println!(
        "TCP mesh (Opt-Track, 6 sites): {} msgs over real sockets in {:?} — {}",
        out.metrics.all.total_count(),
        out.elapsed,
        if v.protocol_clean() {
            "causally consistent ✓"
        } else {
            "VIOLATIONS ✗"
        }
    );
    assert!(v.protocol_clean());
}
