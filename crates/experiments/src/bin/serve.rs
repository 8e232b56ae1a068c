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
//! `serve --help` lists every flag with its value syntax.
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

use causal_experiments::cli::{self, positive, Flag};
use causal_experiments::flags;
use causal_experiments::harness::{parse_protocol, PROTOCOLS};
use causal_experiments::serve::{serve_row, SERVE_COLUMNS};
use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_runtime::{BatchWindow, ServeConfig, ServeTransport};
use std::time::Duration;

/// What `serve` deploys: one template config, which most flags write and
/// every protocol × transport pair clones, and what no config holds.
struct Args {
    cfg: ServeConfig,
    protocols: Vec<ProtocolKind>,
    transports: Vec<ServeTransport>,
    ops: Option<usize>,
    check: bool,
}

const FLAGS: &[Flag<Args>] = flags! {
    "--protocol" "<name>|all" "full-track | opt-track | opt-track-crp | optp | hb-track, or all of them" => |a, v| a.protocols = match v { "all" => PROTOCOLS.to_vec(), _ => vec![parse_protocol(v).ok_or("unknown protocol")?] };
    "--transport" "channel|tcp|both" "in-process channels, loopback TCP, or one run over each" => |a, v| a.transports = match v { "channel" => vec![ServeTransport::Channel], "tcp" => vec![ServeTransport::Tcp], "both" => vec![ServeTransport::Channel, ServeTransport::Tcp], _ => return Err("want channel, tcp or both".into()) };
    "--n" "<sites>" "system size, at least 2" => |a, v| a.cfg.n = match cli::sites(v)? { 1 => return Err("must be at least 2".into()), n => n };
    "--clients" "<per-site>" "closed-loop clients on each site" => |a, v| a.cfg.load.clients_per_site = positive(v)?;
    "--ops" "<per-client>" "operations each client issues" => |a, v| a.ops = Some(positive(v)?);
    "--duration" "<secs>" "issue until this deadline instead of an op budget" => |a, v| a.cfg.load.duration = Some(Duration::from_secs(positive(v)?));
    "--workers" "<threads>" "scheduler worker threads (0: one per core)" => |a, v| a.cfg.workers = v.parse()?;
    "--think-us" "<us>" "mean think time between a completion and the next issue" => |a, v| a.cfg.load.think = Duration::from_micros(v.parse()?);
    "--w" "<write-rate>" "fraction of operations that are writes, in [0, 1]" => |a, v| a.cfg.load.w_rate = match v.parse()? { w if (0.0..=1.0).contains(&w) => w, _ => return Err("must be in [0, 1]".into()) };
    "--q" "<variables>" "number of variables" => |a, v| a.cfg.load.q = cli::variables(v)?;
    "--seed" "<u64>" "load seed" => |a, v| a.cfg.load.seed = v.parse()?;
    "--payload" "<bytes>" "modelled payload length of each written value" => |a, v| a.cfg.payload_len = v.parse()?;
    "--batch-ms" "<ms>" "batch updates per destination, flushed after this window" => |a, v| a.cfg.batch = Some(BatchWindow::windowed(Duration::from_millis(positive(v)?)));
    "--check" "" "run the causal-consistency checker on each recorded history" => |a, _| a.check = true;
};

fn parse() -> Args {
    let mut a = Args {
        cfg: ServeConfig::quick(ProtocolKind::OptTrack, 6, ServeTransport::Channel, 1),
        protocols: PROTOCOLS.to_vec(),
        transports: vec![ServeTransport::Channel, ServeTransport::Tcp],
        ops: None,
        check: false,
    };
    cli::parse("serve [flags]".into(), &[], FLAGS, &mut a, |_| false);
    let load = &mut a.cfg.load;
    load.ops_per_client = a.ops.unwrap_or(match load.duration {
        Some(_) => DURATION_MODE_OPS_CAP,
        None => 100,
    });
    a
}

/// Per-client op budget when `--duration` bounds the run instead of `--ops`:
/// effectively unbounded, but finite so the generator's arithmetic stays sane.
const DURATION_MODE_OPS_CAP: usize = 1 << 30;

fn main() {
    let a = parse();
    let load = &a.cfg.load;
    let mut t = Table::new(
        format!(
            "serve: n = {}, {} clients/site x {}, think {} us, w = {}, q = {}{}",
            a.cfg.n,
            load.clients_per_site,
            match load.duration {
                Some(d) => format!("{} s", d.as_secs()),
                None => format!("{} ops", load.ops_per_client),
            },
            load.think.as_micros(),
            load.w_rate,
            load.q,
            match a.cfg.batch {
                Some(b) => format!(", batch window {} ms", b.window.as_millis()),
                None => String::new(),
            }
        ),
        &SERVE_COLUMNS,
    );
    for &kind in &a.protocols {
        for &transport in &a.transports {
            let cfg = ServeConfig {
                protocol: kind,
                transport,
                ..a.cfg.clone()
            };
            eprintln!("[serve] {kind} over {} …", transport.label());
            let (_, row) = serve_row(&cfg, a.check).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            t.push_row(row);
        }
    }
    println!("{}", t.render());
    if a.check {
        eprintln!("[serve] all histories causally consistent");
    }
}
