//! `serve` — deploy a live protocol cluster and benchmark it.
//!
//! The paper's testbed with a load generator attached: every site is a
//! real thread running the protocol state machine, the transport is either
//! in-process channels or a loopback-TCP mesh (`TCP_NODELAY` set), and
//! offered load comes from closed-loop clients with think time. The run
//! reports throughput (ops/s) and completion-latency tails (mean / p50 /
//! p99 from mergeable histograms) next to the paper's message and
//! meta-byte accounting.
//!
//! ```text
//! serve [--protocol full-track|opt-track|opt-track-crp|optp|hb-track|all]
//!       [--transport channel|tcp|both] [--n <sites>]
//!       [--clients <per-site>] [--ops <per-client>] [--duration <secs>]
//!       [--workers <threads>] [--think-us <us>]
//!       [--w <write-rate>] [--q <variables>] [--seed <u64>]
//!       [--payload <bytes>] [--batch-ms <ms>] [--check]
//! ```
//!
//! `--batch-ms 2` turns on per-destination update batching with a 2 ms
//! wall-clock flush window (the runtime counterpart of the simulator's
//! `BatchPlan`); the batching counters land in the output. `--check` runs
//! the causal-consistency checker on the recorded execution history and
//! fails loudly on any violation. `--duration 5` runs a time-bounded load
//! instead of an op-count-bounded one: clients issue until the deadline and
//! then retire (if `--ops` is not also given, the per-client budget is
//! lifted to a large safety cap). `--workers` sets the scheduler pool size
//! (0 = one worker per core, the default; `--workers <n>` gives every site
//! its own worker).

use causal_checker::check;
use causal_experiments::harness::{parse_protocol, PROTOCOLS};
use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_runtime::{serve, BatchWindow, ServeConfig, ServeTransport};
use causal_types::MsgKind;
use std::time::{Duration, Instant};

struct Args {
    protocols: Vec<ProtocolKind>,
    transports: Vec<ServeTransport>,
    n: usize,
    clients: usize,
    ops: Option<usize>,
    duration_s: Option<u64>,
    workers: usize,
    think_us: u64,
    w: f64,
    q: usize,
    seed: u64,
    payload: u32,
    batch_ms: Option<u64>,
    check: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: serve [--protocol full-track|opt-track|opt-track-crp|optp|hb-track|all] \
         [--transport channel|tcp|both] [--n <sites>] [--clients <per-site>] \
         [--ops <per-client>] [--duration <secs>] [--workers <threads>] [--think-us <us>] \
         [--w <write-rate>] [--q <variables>] \
         [--seed <u64>] [--payload <bytes>] [--batch-ms <ms>] [--check]"
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let mut a = Args {
        protocols: PROTOCOLS.to_vec(),
        transports: vec![ServeTransport::Channel, ServeTransport::Tcp],
        n: 6,
        clients: 2,
        ops: None,
        duration_s: None,
        workers: 0,
        think_us: 1000,
        w: 0.3,
        q: 100,
        seed: 1,
        payload: 0,
        batch_ms: None,
        check: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| die(&format!("missing value for {flag}")))
                .clone()
        };
        match flag.as_str() {
            "--protocol" => {
                a.protocols = match val().as_str() {
                    "all" => PROTOCOLS.to_vec(),
                    name => match parse_protocol(name) {
                        Some(kind) => vec![kind],
                        None => die(&format!("unknown protocol {name}")),
                    },
                }
            }
            "--transport" => {
                a.transports = match val().as_str() {
                    "channel" => vec![ServeTransport::Channel],
                    "tcp" => vec![ServeTransport::Tcp],
                    "both" => vec![ServeTransport::Channel, ServeTransport::Tcp],
                    other => die(&format!("unknown transport {other}")),
                }
            }
            "--n" => a.n = val().parse().unwrap_or_else(|_| die("bad --n")),
            "--clients" => a.clients = val().parse().unwrap_or_else(|_| die("bad --clients")),
            "--ops" => a.ops = Some(val().parse().unwrap_or_else(|_| die("bad --ops"))),
            "--duration" => {
                a.duration_s = Some(val().parse().unwrap_or_else(|_| die("bad --duration")))
            }
            "--workers" => a.workers = val().parse().unwrap_or_else(|_| die("bad --workers")),
            "--think-us" => a.think_us = val().parse().unwrap_or_else(|_| die("bad --think-us")),
            "--w" => a.w = val().parse().unwrap_or_else(|_| die("bad --w")),
            "--q" => a.q = val().parse().unwrap_or_else(|_| die("bad --q")),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| die("bad --seed")),
            "--payload" => a.payload = val().parse().unwrap_or_else(|_| die("bad --payload")),
            "--batch-ms" => {
                a.batch_ms = Some(val().parse().unwrap_or_else(|_| die("bad --batch-ms")))
            }
            "--check" => a.check = true,
            "--help" | "-h" => die(""),
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if !(0.0..=1.0).contains(&a.w) {
        die("--w must be in [0, 1]");
    }
    if a.n < 2 {
        die("--n must be at least 2");
    }
    a
}

/// Per-client op budget when `--duration` bounds the run instead of `--ops`:
/// effectively unbounded, but finite so the generator's arithmetic stays sane.
const DURATION_MODE_OPS_CAP: usize = 1 << 30;

fn main() {
    let a = parse();
    let ops_per_client = a.ops.unwrap_or(match a.duration_s {
        Some(_) => DURATION_MODE_OPS_CAP,
        None => 100,
    });
    let mut t = Table::new(
        format!(
            "serve: n = {}, {} clients/site x {}, think {} us, w = {}, q = {}{}",
            a.n,
            a.clients,
            match a.duration_s {
                Some(s) => format!("{s} s"),
                None => format!("{ops_per_client} ops"),
            },
            a.think_us,
            a.w,
            a.q,
            match a.batch_ms {
                Some(ms) => format!(", batch window {ms} ms"),
                None => String::new(),
            }
        ),
        &[
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
        ],
    );
    for &kind in &a.protocols {
        for &transport in &a.transports {
            let mut cfg = ServeConfig::quick(kind, a.n, transport, a.seed);
            cfg.load.clients_per_site = a.clients;
            cfg.load.ops_per_client = ops_per_client;
            cfg.load.duration = a.duration_s.map(Duration::from_secs);
            cfg.workers = a.workers;
            cfg.load.think = Duration::from_micros(a.think_us);
            cfg.load.w_rate = a.w;
            cfg.load.q = a.q;
            cfg.payload_len = a.payload;
            cfg.batch = a
                .batch_ms
                .map(|ms| BatchWindow::windowed(Duration::from_millis(ms)));
            eprintln!("[serve] {kind} over {} …", transport.label());
            let r = serve(&cfg).unwrap_or_else(|e| {
                eprintln!("error: {kind}/{}: {e:?}", transport.label());
                std::process::exit(1);
            });
            if r.final_pending != 0 {
                eprintln!("error: {kind}: {} updates left parked", r.final_pending);
                std::process::exit(1);
            }
            if a.check {
                let t = Instant::now();
                let v = check(&r.history);
                if !v.protocol_clean() {
                    eprintln!("error: {kind}: causal violations: {:?}", v.examples);
                    std::process::exit(1);
                }
                eprintln!(
                    "[serve] checked {} ops, {} applies in {:.3} s",
                    r.history.total_ops(),
                    r.history.total_applies(),
                    t.elapsed().as_secs_f64()
                );
            }
            let m = &r.metrics;
            t.push_row(vec![
                kind.to_string(),
                transport.label().to_string(),
                r.ops.to_string(),
                format!("{:.0}", r.ops_per_sec()),
                format!("{:.0}", r.latency.mean_us),
                format!("{:.0}", r.latency.p50_us),
                format!("{:.0}", r.latency.p99_us),
                m.all.count(MsgKind::Sm).to_string(),
                format!("{:.1}", m.all.bytes(MsgKind::Sm) as f64 / 1024.0),
                m.transport_frames.to_string(),
                m.transport_write_stalls.to_string(),
                m.batched_sms.to_string(),
                m.transport_conn_errors.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    if a.check {
        eprintln!("[serve] all histories causally consistent");
    }
}
