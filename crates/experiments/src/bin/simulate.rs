//! `simulate` — run one custom simulation and print its metrics.
//!
//! A user-facing front door to the simulator: pick a protocol, system size,
//! write rate, latency model and optional partition, and get the paper's
//! metrics (message counts and sizes per kind, apply latency, storage) plus
//! an optional consistency verification.
//!
//! `simulate --help` lists every flag with its value syntax. A value
//! that is wrong on its own (`--latency 5:1`) exits 2 naming its flag; a
//! combination the simulator cannot run (`--checkpoint-interval` without
//! `--wal`) exits 2 with the rule of `SimConfig::check` it breaks, before
//! anything runs.
//!
//! `--seeds 8` runs eight simulations (seeds `seed .. seed+7`) and prints
//! one summary line per seed plus seed-averaged message statistics;
//! `--jobs 4` spreads those runs over four worker threads. The per-seed
//! results are printed in seed order, so the output does not depend on
//! the job count.
//!
//! `--dump-schedule` writes the generated operation trace as CSV;
//! `--schedule` replays a previously dumped (or hand-written) trace.
//!
//! `--faults 0.2,0.05` makes every channel drop 20 % and duplicate 5 % of
//! transport frames; `--crash 3:500:900` fail-stops site 3 (with state
//! loss) from 500 ms to 900 ms. Either flag engages the reliable-delivery
//! transport and prints its counters (retransmissions, duplicate drops,
//! ack/sync traffic, recovery time). Crash windows of different sites may
//! overlap (a correlated failure); windows of one site must not.
//!
//! `--wal` gives every site a durable write-ahead log, so recovery replays
//! local state and asks peers only for the delta; `--checkpoint-interval
//! 250` snapshots each live site's protocol state every 250 ms of virtual
//! time and truncates its log. A trailing `:media` on `--crash` destroys
//! that site's durable medium too (recovery falls back to the full peer
//! rebuild). `--fetch-deadline 150` makes a blocked remote read fail over
//! to the next replica after 150 ms instead of waiting indefinitely, and
//! give up as a degraded read once the candidates are exhausted. The
//! deadline is armed by the reliable transport, so it needs faults,
//! crashes, `--wal` or churn.
//!
//! `--churn "join:5@2s;migrate:12:4->5@4s;leave:1@6s"` runs the simulation
//! under dynamic membership: each `;`-separated event proposes a view
//! change (`join:SITE@TIME`, `leave:SITE@TIME`, `crash-leave:SITE@TIME`,
//! `migrate:VAR:FROM->TO@TIME`) that quiesces and installs at an epoch
//! boundary. Sites that join later start outside the view and bootstrap by
//! state transfer. The plan is validated before the run (ids in range, a
//! join precedes its leave, migrations target members) and a bad plan
//! exits 2 with the offending event named.
//!
//! `--stability` turns on causal-stability tracking: sites gossip
//! per-origin delivery watermarks (piggybacked on app messages plus a
//! heartbeat, default every 50 ms of virtual time — tune it with
//! `--stability-heartbeat`), a Last-Stable-Vector frontier advances behind
//! the slowest member, and everything at or below it is garbage-collected
//! (protocol logs, `LastWriteOn` slots, stable WAL segments). `--no-gc`
//! keeps the tracker but disables the collectors — the measurement-only
//! baseline. `--overdue-after 5000` reports any update buffered longer
//! than 5 s (`buffered_overdue`); `--soft-meta-cap 500000` defers writers
//! while retained metadata exceeds 500 KB. Each tuning flag implies
//! `--stability`.
//!
//! `--trace out.jsonl` records a structured event trace (one JSON object
//! per line, stamped with virtual time — see `docs/OBSERVABILITY.md`) and
//! writes it atomically at the end of the run. `--verify-trace` parses
//! the serialized trace back, rebuilds the execution history from its
//! write/apply/read/leave events and runs the causal-consistency checker
//! on the reconstruction — an end-to-end self-test that the trace is
//! complete and correctly ordered; a trace that does not parse fails it.
//! Both operate on one concrete run, so they are incompatible with
//! `--seeds > 1`.
//!
//! `--runtime channel|tcp` runs the same configured cell on the *threaded
//! runtime* instead of the simulator: real OS threads, real (or loopback
//! TCP) message passing, wall-clock schedule replay with the simulator's
//! warm-up attribution — so its counters are directly comparable to the
//! simulated run of the same seed (`repro serve` asserts that parity
//! systematically). Simulator-only features (faults, crashes, durability,
//! churn, stability, partitions, latency models, traces, schedule files,
//! multi-seed) are rejected in runtime mode; `--help` marks their flags.
//! The runtime replays the schedule's gaps at time scale 0.005 and has no
//! latency model of its own.

use causal_checker::{check, History, Violations};
use causal_clocks::DestSet;
use causal_experiments::cli::{self, die, Bad, Flag};
use causal_experiments::flags;
use causal_experiments::harness::{paper_cfg, parse_protocol, run_units};
use causal_experiments::trace::{check_trace, write_trace};
use causal_memory::{Placement, PlacementKind};
use causal_metrics::{MessageStats, RunMetrics};
use causal_obs::to_jsonl;
use causal_proto::ProtocolKind;
use causal_runtime::{replay, ServeTransport};
use causal_simnet::{
    run, CrashWindow, FaultPlan, LatencyModel, PartitionWindow, SimConfig, StabilityPlan,
};
use causal_types::{MsgKind, SimDuration, SimTime, SiteId, SizeModel};
use causal_workload::{ChurnPlan, VarDistribution};
use std::sync::Arc;

/// What `simulate` runs: the simulator's own config, which most flags
/// write, and what no config holds.
struct Args {
    cfg: SimConfig,
    p: Option<usize>,
    seeds: usize,
    jobs: usize,
    dump_schedule: Option<String>,
    schedule: Option<String>,
    trace: Option<String>,
    verify_trace: bool,
    runtime: Option<ServeTransport>,
}

const FLAGS: &[Flag<Args>] = flags! {
    "--protocol" "<name>" "full-track | opt-track | opt-track-crp | optp | hb-track" => |a, v| a.cfg.protocol = parse_protocol(v).ok_or("unknown protocol")?;
    "--n" "<sites>" "system size" => |a, v| a.cfg.workload.n = cli::sites(v)?;
    "--w" "<write-rate>" "fraction of operations that are writes, in [0, 1]" => |a, v| a.cfg.workload.w_rate = v.parse()?;
    "--q" "<variables>" "number of variables" => |a, v| a.cfg.workload.q = v.parse()?;
    "--events" "<per-process>" "operations each site issues" => |a, v| a.cfg.workload.events_per_process = v.parse()?;
    "--seed" "<u64>" "workload seed" => |a, v| a.cfg.workload.seed = v.parse()?;
    "--p" "<replicas>" "replicas per variable for a partial-replication protocol" => |a, v| a.p = Some(v.parse()?);
    "--latency" "<us|min_us:max_us>" sim "one-way channel latency, constant or uniform" => |a, v| a.cfg.latency = latency(v)?;
    "--partition" "<start_ms:end_ms>" sim "cut the first half of the sites off the rest for the window" => |a, v| a.cfg.partitions = vec![partition(v)?];
    "--zipf" "<theta>" "Zipf-distributed variable access instead of uniform" => |a, v| a.cfg.workload.var_dist = VarDistribution::Zipf { theta: v.parse()? };
    "--wire-model" "" "account bytes as the wire encoding sizes them" => |a, _| a.cfg.size_model = SizeModel::wire();
    "--check" "" "record the history and run the causal-consistency checker" => |a, _| a.cfg.record_history = true;
    "--faults" "<drop[,dup]>" sim "every channel drops and duplicates frames at these rates" => |a, v| a.cfg.faults = faults(v)?;
    "--crash" "<site:start_ms:end_ms[:media]>" sim "fail-stop a site for the window; :media loses its WAL too (repeatable)" => |a, v| crash(a, v)?;
    "--wal" "" sim "give every site a write-ahead log" => |a, _| a.cfg.durability.wal = true;
    "--checkpoint-interval" "<ms>" sim "checkpoint each site's state this often (needs --wal)" => |a, v| a.cfg.durability.checkpoint_every = Some(SimDuration::from_millis(v.parse()?));
    "--fetch-deadline" "<ms>" sim "fail a blocked remote read over to the next replica after this long (needs --faults, --crash, --wal or --churn)" => |a, v| a.cfg.durability.fetch_deadline = Some(SimDuration::from_millis(v.parse()?));
    "--churn" "<spec>" sim "membership changes, e.g. join:5@2s;migrate:12:4->5@4s;leave:1@6s" => |a, v| a.cfg.churn = Some(ChurnPlan::parse(v)?);
    "--stability" "" sim "track causal stability and collect garbage behind the stable frontier" => |a, _| stability(a);
    "--stability-heartbeat" "<ms>" sim "stability gossip period (implies --stability)" => |a, v| stability(a).heartbeat_every = SimDuration::from_millis(v.parse()?);
    "--no-gc" "" sim "track stability but collect nothing (implies --stability)" => |a, _| stability(a).gc = false;
    "--overdue-after" "<ms>" sim "count updates buffered longer than this (implies --stability)" => |a, v| stability(a).overdue_after = Some(SimDuration::from_millis(v.parse()?));
    "--soft-meta-cap" "<bytes>" sim "defer writers while retained metadata exceeds this (implies --stability)" => |a, v| stability(a).soft_meta_cap = Some(v.parse()?);
    "--dump-schedule" "<path>" "write the operation schedule as CSV" => |a, v| a.dump_schedule = Some(v.into());
    "--schedule" "<path>" sim "replay a schedule CSV instead of generating one" => |a, v| a.schedule = Some(v.into());
    "--seeds" "<k>" "run k consecutive seeds and print per-seed lines and means" => |a, v| a.seeds = v.parse()?;
    "--jobs" "<n>" "worker threads for --seeds" => |a, v| a.jobs = v.parse()?;
    "--trace" "<path>" sim "write the run's structured event trace as JSONL" => |a, v| a.trace = Some(v.into());
    "--verify-trace" "" sim "rebuild the history from the trace and check it" => |a, _| a.verify_trace = true;
    "--runtime" "channel|tcp" "run the cell on the threaded runtime instead of the simulator" => |a, v| a.runtime = Some([ServeTransport::Channel, ServeTransport::Tcp].into_iter().find(|t| t.label() == v).ok_or("want channel or tcp")?);
};

fn latency(v: &str) -> Result<LatencyModel, Bad> {
    let Some((lo, hi)) = v.split_once(':') else {
        return Ok(LatencyModel::Constant { micros: v.parse()? });
    };
    let model = LatencyModel::Uniform {
        min_micros: lo.parse()?,
        max_micros: hi.parse()?,
    };
    model.check()?;
    Ok(model)
}

/// Its sides are set once `--n` is known.
fn partition(v: &str) -> Result<PartitionWindow, Bad> {
    let (s, e) = v.split_once(':').ok_or("want start_ms:end_ms")?;
    let (start, end) = (
        SimTime::from_millis(s.parse()?),
        SimTime::from_millis(e.parse()?),
    );
    if start >= end {
        return Err("the window is empty".into());
    }
    Ok(PartitionWindow {
        start,
        end,
        side_a: DestSet::default(),
    })
}

fn faults(v: &str) -> Result<FaultPlan, Bad> {
    let (drop, dup) = v.split_once(',').unwrap_or((v, "0"));
    let plan = FaultPlan::uniform(drop.parse()?, dup.parse()?);
    plan.check()?;
    Ok(plan)
}

/// The stability plan the tuning flags write, installed by the first.
fn stability(a: &mut Args) -> &mut StabilityPlan {
    a.cfg.stability.get_or_insert_with(StabilityPlan::default)
}

fn crash(a: &mut Args, v: &str) -> Result<(), Bad> {
    let parts: Vec<&str> = v.split(':').collect();
    let (site, start, end, media) = match parts[..] {
        [site, start, end] => (site, start, end, false),
        [site, start, end, "media"] => (site, start, end, true),
        _ => return Err("want site:start_ms:end_ms[:media]".into()),
    };
    let site = SiteId(site.parse()?);
    a.cfg.crashes.push(CrashWindow {
        site,
        start: SimTime::from_millis(start.parse()?),
        end: SimTime::from_millis(end.parse()?),
    });
    if media {
        a.cfg.durability.lose_media.push(site);
    }
    Ok(())
}

/// The command line as a run: flags applied over the paper's cell, then
/// what depends on several flags — the placement, the schedule file and
/// the partition's sides — derived, so flag order does not matter, then
/// the run checked by the simulator's own rules.
fn parse() -> Args {
    let mut cfg = paper_cfg(ProtocolKind::OptTrack, 10, 0.5, 1);
    cfg.workload.events_per_process = 200;
    let mut a = Args {
        cfg,
        p: None,
        seeds: 1,
        jobs: 1,
        dump_schedule: None,
        schedule: None,
        trace: None,
        verify_trace: false,
        runtime: None,
    };
    let sim_only = cli::parse("simulate [flags]".into(), &[], FLAGS, &mut a, |_| false);
    a.cfg.record_trace = a.trace.is_some() || a.verify_trace;
    if let Some(flag) = sim_only.or((a.seeds > 1).then_some("--seeds")) {
        if a.runtime.is_some() {
            die(&format!(
                "{flag} is simulator-only (incompatible with --runtime)"
            ));
        }
    }
    if a.seeds == 0 {
        die("--seeds must be at least 1");
    }
    if a.jobs == 0 {
        die("--jobs must be at least 1");
    }
    if a.seeds > 1 && (a.cfg.record_history || a.dump_schedule.is_some() || a.schedule.is_some()) {
        die("--seeds > 1 is incompatible with --check / --dump-schedule / --schedule (those operate on one concrete run; drop --seeds or run them per seed)");
    }
    if a.seeds > 1 && a.cfg.record_trace {
        die("--seeds > 1 is incompatible with --trace / --verify-trace (a trace records one concrete run; drop --seeds or trace each seed separately)");
    }
    let c = &mut a.cfg;
    let w = c.workload;
    if let Err(e) = w.validate() {
        die(&format!("--n/--w/--q/--zipf: {e}"));
    }
    c.placement = match a.p.filter(|_| c.protocol.supports_partial()) {
        Some(p) => Arc::new(
            Placement::new(PlacementKind::Even, w.n, p)
                .unwrap_or_else(|e| die(&format!("--p: {e}"))),
        ),
        None => paper_cfg(c.protocol, w.n, w.w_rate, w.seed).placement,
    };
    if let Some(path) = &a.schedule {
        let csv = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        let sched =
            causal_workload::schedule_from_csv(&csv, w).unwrap_or_else(|e| die(&e.to_string()));
        c.schedule_override = Some(sched);
    }
    for p in &mut c.partitions {
        p.side_a = DestSet::from_sites((0..w.n / 2).map(SiteId::from));
    }
    if let Err(e) = c.check() {
        die(&e.to_string());
    }
    a
}

/// The measured operation tallies and per-kind message traffic, as both
/// the simulator and the runtime report them.
fn print_traffic(m: &RunMetrics) {
    println!(
        "measured ops    {} writes, {} reads ({} remote)",
        m.writes, m.reads, m.remote_reads
    );
    for kind in MsgKind::ALL {
        let c = m.measured.count(kind);
        if c > 0 {
            println!(
                "{kind} messages     {c:>8}   avg meta {:>8.1} B   total {:>10.1} KB",
                m.measured.avg_bytes(kind).unwrap_or(0.0),
                m.measured.bytes(kind) as f64 / 1000.0,
            );
        }
    }
}

/// `--seeds k`: run the configured simulation for `k` consecutive seeds on
/// the worker pool and print per-seed lines (in seed order) plus
/// seed-averaged message statistics.
fn multi_seed(a: &Args) {
    let cfg = &a.cfg;
    let t0 = std::time::Instant::now();
    let first = cfg.workload.seed;
    let seeds: Vec<u64> = (first..first + a.seeds as u64).collect();
    let runs = run_units(
        a.jobs,
        &seeds,
        |&seed| {
            let mut c = cfg.clone();
            c.workload.seed = seed;
            c
        },
        |seed| format!("seed {seed}"),
        None,
    );
    println!("protocol        {}", cfg.protocol);
    println!(
        "seeds           {}..{} on {} worker(s)",
        first,
        first + a.seeds as u64 - 1,
        a.jobs
    );
    println!("wall time       {:.2?}", t0.elapsed());
    println!();
    let mut agg = MessageStats::new();
    for (seed, r) in seeds.iter().zip(&runs) {
        let m = &r.metrics;
        println!(
            "seed {:<6} {:>8} msgs  {:>10.1} KB meta  apply {:>7.2} ms  vtime {}",
            seed,
            m.measured.total_count(),
            m.measured.total_bytes() as f64 / 1000.0,
            m.apply_latency_ns.mean() / 1e6,
            r.duration
        );
        agg.merge(&m.measured);
    }
    println!();
    let sf = a.seeds as f64;
    for kind in MsgKind::ALL {
        if agg.count(kind) > 0 {
            println!(
                "{kind} mean/seed    {:>10.1} msgs   avg meta {:>8.1} B   total {:>10.1} KB",
                agg.count(kind) as f64 / sf,
                agg.avg_bytes(kind).unwrap_or(0.0),
                agg.bytes(kind) as f64 / sf / 1000.0
            );
        }
    }
}

/// `--runtime` mode: replay the configured cell — its placement, workload
/// and size model — on the threaded runtime (real threads, channel or
/// loopback-TCP transport) and print its counters in the same shape as the
/// simulated run.
fn run_on_runtime(cfg: &SimConfig, transport: ServeTransport) {
    let rt = causal_runtime::RuntimeConfig {
        protocol: cfg.protocol,
        placement: cfg.placement.clone(),
        workload: cfg.workload,
        time_scale: 0.005,
        size_model: cfg.size_model,
        workers: 0,
    };
    let t0 = std::time::Instant::now();
    let out = replay(&rt, transport).unwrap_or_else(|e| die(&format!("{e:?}")));
    let m = &out.metrics;
    let (w, which) = (&cfg.workload, transport.label());
    println!("protocol        {} (runtime: {which})", cfg.protocol);
    println!(
        "workload        {} events/proc, w_rate {}, seed {}, time scale 0.005",
        w.events_per_process, w.w_rate, w.seed
    );
    println!(
        "wall time       {:.2?} (total {:.2?})",
        out.elapsed,
        t0.elapsed()
    );
    println!();
    print_traffic(m);
    println!(
        "applies         {} (max parked {}, {} degraded reads, {} conn errors)",
        m.applies, m.max_pending, m.degraded_reads, m.transport_conn_errors
    );
    if out.final_pending != 0 {
        die(&format!("{} updates left parked", out.final_pending));
    }
    if cfg.record_history {
        let v = timed_check(&out.history);
        if v.protocol_clean() {
            println!("consistency     causal: OK (runtime execution verified)");
        } else {
            println!("consistency     VIOLATIONS: {:?}", v.examples);
            std::process::exit(1);
        }
    }
}

/// Run the causal checker and say how long the verdict took.
fn timed_check(history: &History) -> Violations {
    let t = std::time::Instant::now();
    let v = check(history);
    println!(
        "checked         {} ops, {} applies in {:.3} s",
        history.total_ops(),
        history.total_applies(),
        t.elapsed().as_secs_f64()
    );
    v
}

fn main() {
    let a = parse();
    let cfg = &a.cfg;
    // Before the runtime branch: the runtime replays the schedule this
    // writes (`--schedule` is simulator-only).
    if let Some(path) = &a.dump_schedule {
        let sched = cfg
            .schedule_override
            .clone()
            .unwrap_or_else(|| causal_workload::generate(&cfg.workload));
        std::fs::write(path, causal_workload::schedule_to_csv(&sched))
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        eprintln!("wrote schedule to {path}");
    }
    if let Some(transport) = a.runtime {
        run_on_runtime(cfg, transport);
        return;
    }

    if a.seeds > 1 {
        multi_seed(&a);
        return;
    }

    let t0 = std::time::Instant::now();
    let r = run(cfg);
    let m = &r.metrics;
    let w = &cfg.workload;

    println!("protocol        {}", cfg.protocol);
    println!(
        "system          n={} q={} p={}",
        w.n,
        w.q,
        cfg.placement.p()
    );
    println!(
        "workload        {} events/proc, w_rate {}, seed {}",
        w.events_per_process, w.w_rate, w.seed
    );
    println!("virtual time    {}", r.duration);
    println!("wall time       {:.2?}", t0.elapsed());
    println!();
    print_traffic(m);
    println!(
        "applies         {} (max parked {}, mean buffered apply latency {:.2} ms)",
        m.applies,
        m.max_pending,
        m.apply_latency_ns.mean() / 1e6
    );
    let storage: u64 = r.final_local_meta.iter().sum();
    println!(
        "storage         {:.1} KB metadata across sites at quiescence",
        storage as f64 / 1000.0
    );
    if cfg.chaos() {
        println!();
        println!(
            "transport       {} retransmissions, {} dup drops, {} fault drops, {} fault dups",
            m.retransmissions, m.dup_drops, m.fault_drops, m.fault_dups
        );
        println!(
            "                {} acks ({:.1} KB), envelopes {:.1} KB, {} crash drops",
            m.ack_count,
            m.ack_bytes as f64 / 1000.0,
            m.envelope_bytes as f64 / 1000.0,
            m.crash_drops
        );
        if m.sync_count > 0 {
            println!(
                "recovery        {} sync frames ({:.1} KB), mean recovery {:.2} ms",
                m.sync_count,
                m.sync_bytes as f64 / 1000.0,
                m.recovery_ns.mean() / 1e6
            );
        }
        if cfg.durability.wal {
            println!(
                "durability      {} WAL appends ({:.1} KB), {} checkpoints ({:.1} KB)",
                m.wal_appends,
                m.wal_bytes as f64 / 1000.0,
                m.checkpoints,
                m.checkpoint_bytes as f64 / 1000.0,
            );
            println!(
                "                {} local replays, {:.1} KB delta-sync savings",
                m.recovery_replays,
                m.delta_sync_saved_bytes as f64 / 1000.0,
            );
        }
        if m.fetch_failovers + m.degraded_reads + m.degraded_recoveries > 0 {
            println!(
                "degradation     {} fetch failovers, {} degraded reads, {} degraded recoveries",
                m.fetch_failovers, m.degraded_reads, m.degraded_recoveries
            );
        }
        if cfg.churn.is_some() {
            println!(
                "membership      {} view changes ({} forced), {} joins, {} leaves, {} migrations",
                m.view_changes, m.views_forced, m.joins, m.leaves, m.migrations
            );
            println!(
                "                transfer {:.1} KB ({} degraded), mean view change {:.2} ms",
                m.churn_transfer_bytes as f64 / 1000.0,
                m.churn_transfers_degraded,
                m.view_change_ns.mean() / 1e6
            );
        }
    }
    if cfg.stability.is_some() {
        println!();
        let p99 = m
            .stability_lag
            .quantile(0.99)
            .map_or("-".to_string(), |v| format!("{v:.0}"));
        println!(
            "stability       lag mean {:.1} / p99 {} writes, unstable peak {}, retained peak {:.1} KB",
            m.stability_lag.mean(),
            p99,
            m.unstable_peak,
            m.retained_meta_peak as f64 / 1000.0,
        );
        println!(
            "                gossip {} rows ({:.1} KB), gc {} log entries + {} slots, {} stalled ticks",
            m.gossip_rows,
            m.gossip_bytes as f64 / 1000.0,
            m.gc_log_entries,
            m.gc_slots,
            m.gc_stalled_ticks,
        );
        if cfg.durability.wal {
            println!(
                "                wal {} segments sealed, {:.1} KB deleted behind the frontier",
                m.wal_segments_sealed,
                m.wal_deleted_bytes as f64 / 1000.0,
            );
        }
        if m.buffered_overdue + m.backpressure_events > 0 {
            println!(
                "                {} overdue buffered updates, {} backpressure deferrals",
                m.buffered_overdue, m.backpressure_events,
            );
        }
    }
    assert_eq!(r.final_pending, 0, "simulation must reach quiescence");

    if let Some(events) = &r.trace {
        // Serialized once: `--trace` writes these bytes and
        // `--verify-trace` judges the history read back from them.
        let jsonl = to_jsonl(events);
        println!();
        println!("trace           {} events recorded", events.len());
        if let Some(path) = &a.trace {
            write_trace(std::path::Path::new(path), &jsonl)
                .unwrap_or_else(|e| die(&format!("{path}: {e}")));
            println!("                written to {path}");
        }
        if a.verify_trace {
            match check_trace(&jsonl, w.n) {
                Ok(v) if v.protocol_clean() => {
                    println!("                reconstructed causal chains pass the checker ✓");
                }
                Ok(v) => {
                    println!("                TRACE RECONSTRUCTION VIOLATIONS ✗");
                    for e in &v.examples {
                        println!("    {e}");
                    }
                    std::process::exit(1);
                }
                Err(e) => {
                    println!("                TRACE DOES NOT PARSE ✗ {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    if cfg.record_history {
        println!();
        let v = timed_check(r.history.as_ref().expect("recorded"));
        println!(
            "consistency     fifo={} delivery={} reads_from={} stale_reads={} own_write_races={}",
            v.fifo, v.delivery, v.reads_from, v.stale_reads, v.own_write_races
        );
        if v.protocol_clean() {
            println!("verdict         causally consistent ✓");
        } else {
            println!("verdict         VIOLATIONS FOUND ✗");
            for e in &v.examples {
                println!("    {e}");
            }
            std::process::exit(1);
        }
    }
}
