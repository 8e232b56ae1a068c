//! Sharded-scheduler guarantees: a run is its `W` workers and no other
//! thread, whatever the cluster size or fabric, and every pool size —
//! `W = n`, one worker per site, included — yields checker-clean
//! executions.

use causal_checker::{check, History, OpRecord};
use causal_proto::ProtocolKind;
use causal_runtime::runner::shards;
use causal_runtime::{replay, serve, RuntimeConfig, ServeConfig, ServeTransport};
use causal_types::SiteId;

#[test]
fn forty_sites_run_on_a_bounded_thread_pool_over_tcp() {
    // The thread-per-site fabric needed ~n + 2n(n-1) threads at n = 40
    // (sites plus a reader/writer pair per directed socket) — about 3,160.
    // The sharded runtime does the same job on the worker pool alone: the
    // workers drive their sockets themselves, so the mesh adds no thread.
    let mut cfg = RuntimeConfig::fast(ProtocolKind::OptP, 40, 0.3, 7, 8);
    cfg.workers = 4;
    let out = replay(&cfg, ServeTransport::Tcp).expect("tcp run");
    assert_eq!(out.metrics.threads_spawned, 4);
    assert_eq!(out.metrics.transport_conn_errors, 0);
    assert_eq!(out.final_pending, 0);
    assert!(
        out.metrics.syscall_writes > 0
            && out.metrics.transport_frames >= out.metrics.syscall_writes,
        "flushes did coalesced writes: {} frames in {} writes",
        out.metrics.transport_frames,
        out.metrics.syscall_writes
    );
    let v = check(&out.history);
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

#[test]
fn channel_fabric_spawns_exactly_the_worker_pool() {
    let mut cfg = RuntimeConfig::fast(ProtocolKind::OptP, 40, 0.3, 7, 8);
    cfg.workers = 4;
    let out = replay(&cfg, ServeTransport::Channel).expect("channel replay");
    assert_eq!(out.metrics.threads_spawned, 4);
    assert_eq!(out.final_pending, 0);
    let v = check(&out.history);
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

#[test]
fn auto_sizing_never_exceeds_the_site_count() {
    // workers = 0 resolves to available parallelism clamped to [1, n]; on
    // any machine a 2-site run must use at most 2 workers.
    let mut cfg = RuntimeConfig::fast(ProtocolKind::OptP, 2, 0.3, 5, 10);
    cfg.workers = 0;
    let out = replay(&cfg, ServeTransport::Channel).expect("channel replay");
    assert!((1..=2).contains(&out.metrics.threads_spawned));
    assert_eq!(out.final_pending, 0);
}

#[test]
fn every_pool_size_is_checker_clean_for_a_fetching_protocol() {
    // Opt-Track's remote reads park the issuing site on a blocking fetch;
    // a scheduler bug (lost wakeup, premature quiesce, wrong-shard
    // delivery) shows up here as a hang, a parked update, or a causal
    // violation. W = 6 = n gives every site its own worker.
    for workers in [1usize, 2, 4, 6] {
        for transport in [ServeTransport::Channel, ServeTransport::Tcp] {
            let mut cfg = ServeConfig::quick(ProtocolKind::OptTrack, 6, transport, 29);
            cfg.load.ops_per_client = 25;
            cfg.workers = workers;
            let report = serve(&cfg).expect("serve runs");
            let tag = format!("W={workers}/{transport:?}");
            assert_eq!(report.ops, cfg.load.total_ops(6) as u64, "{tag}");
            assert_eq!(report.final_pending, 0, "{tag}");
            assert_eq!(report.metrics.transport_conn_errors, 0, "{tag}");
            let v = check(&report.history);
            assert!(v.protocol_clean(), "{tag}: {:?}", v.examples);
        }
    }
}

#[test]
fn every_protocol_is_checker_clean_on_every_pool_size_and_fabric() {
    // Full-replication protocols fan a write out to every site, so at
    // W = 2 and W = 4 each write leaves as one multi-routed frame per peer
    // worker; W = 1 has no sockets at all.
    for protocol in ProtocolKind::ALL.into_iter().chain([ProtocolKind::HbTrack]) {
        for workers in [1usize, 2, 4] {
            for transport in [ServeTransport::Channel, ServeTransport::Tcp] {
                let mut cfg = ServeConfig::quick(protocol, 8, transport, 31);
                cfg.load.ops_per_client = 15;
                cfg.load.w_rate = 0.6;
                cfg.workers = workers;
                let report = serve(&cfg).expect("serve runs");
                let tag = format!("{protocol}/W={workers}/{transport:?}");
                assert_eq!(report.ops, cfg.load.total_ops(8) as u64, "{tag}");
                assert_eq!(report.final_pending, 0, "{tag}");
                assert_eq!(report.metrics.transport_conn_errors, 0, "{tag}");
                let v = check(&report.history);
                assert!(v.protocol_clean(), "{tag}: {:?}", v.examples);
            }
        }
    }
}

/// Logical messages that crossed between the two workers of a `W = 2` run
/// of `n` sites (each site's worker read from the runtime's shard map),
/// recovered from the history: every remote apply is one SM, every
/// remotely served read one FM and one RM.
fn cross_worker_messages(h: &History, n: usize) -> u64 {
    let shards = shards(n, 2);
    let worker = |i: usize| shards.iter().position(|s| s.contains(SiteId::from(i)));
    let crosses = |a: usize, b: usize| worker(a) != worker(b);
    let sms = SiteId::all(n).map(|j| {
        let remote = h.applies(j).filter(|w| crosses(w.site.index(), j.index()));
        remote.count() as u64
    });
    let fetches = SiteId::all(n).map(|i| {
        let remote = h.ops(i).filter(
            |op| matches!(op, OpRecord::Read { served_by, .. } if crosses(served_by.index(), i.index())),
        );
        2 * remote.count() as u64
    });
    sms.sum::<u64>() + fetches.sum::<u64>()
}

#[test]
fn a_write_heavy_fan_out_crosses_the_socket_once_per_write() {
    // Opt-Track, n = 40, W = 2, w = 0.8: a write's ~11 SMs put ~6 on the
    // peer worker. They must share one frame, so physical frames stay far
    // below the logical messages that crossed.
    let mut cfg = ServeConfig::quick(ProtocolKind::OptTrack, 40, ServeTransport::Tcp, 11);
    cfg.load.ops_per_client = 20;
    cfg.load.w_rate = 0.8;
    cfg.workers = 2;
    let report = serve(&cfg).expect("serve runs");
    assert_eq!(report.final_pending, 0);
    assert_eq!(report.metrics.transport_conn_errors, 0);
    let v = check(&report.history);
    assert!(v.protocol_clean(), "{:?}", v.examples);

    let frames = report.metrics.transport_frames;
    let crossed = cross_worker_messages(&report.history, 40);
    assert!(frames > 0 && frames >= report.metrics.syscall_writes);
    assert!(
        frames as f64 <= 0.3 * crossed as f64,
        "{frames} frames for {crossed} cross-worker messages"
    );
}

#[test]
fn thread_per_site_emulation_spawns_one_worker_per_site() {
    let mut cfg = RuntimeConfig::fast(ProtocolKind::OptTrack, 5, 0.3, 3, 12);
    cfg.workers = 5;
    let out = replay(&cfg, ServeTransport::Channel).expect("channel replay");
    assert_eq!(out.metrics.threads_spawned, 5);
    let tcp = replay(&cfg, ServeTransport::Tcp).expect("tcp run");
    assert_eq!(tcp.metrics.threads_spawned, 5);
}

#[test]
fn mailbox_depth_gauge_observes_backlog_under_load() {
    // A single worker multiplexing every site guarantees frames queue up
    // behind the budgeted drain, so the peak-depth gauge must move.
    let mut cfg = RuntimeConfig::fast(ProtocolKind::OptP, 8, 0.8, 17, 30);
    cfg.workers = 1;
    cfg.time_scale = 0.0005; // compress gaps so sends pile up
    let out = replay(&cfg, ServeTransport::Channel).expect("channel replay");
    assert!(
        out.metrics.mailbox_depth_peak > 0,
        "peak mailbox depth should register under a 1-worker pileup"
    );
    assert_eq!(out.final_pending, 0);
}
