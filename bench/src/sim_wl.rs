//! `sim-paper-n40`: `simnet::run` on the paper's cell (n = 40, q = 100,
//! w_rate 0.5, 600 events/process, 15 % warm-up, `SizeModel::java_like`)
//! for all five protocols — partial placement where the protocol supports
//! it, full otherwise. No threads, sockets or scheduler; the counts it
//! yields are exact functions of the seed.

use crate::host::{cpu_seconds, vm_kb};
use crate::layers::{measure_layers, ReplayPlan, BYPASSED};
use crate::probes;
use crate::report::{fastest, median, reps_note, Outcome};
use crate::spec::SIM_PROTOCOL_LABELS;
use causal_checker::check;
use causal_metrics::MessageStats;
use causal_proto::ProtocolKind;
use causal_simnet::{run, SimConfig};
use causal_workload::{generate, Schedule, WorkloadParams};
use std::path::Path;
use std::time::Instant;

const N: usize = 40;
const W_RATE: f64 = 0.5;
/// In `SIM_PROTOCOL_LABELS` order.
const PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::FullTrack,
    ProtocolKind::OptTrack,
    ProtocolKind::HbTrack,
    ProtocolKind::OptTrackCrp,
    ProtocolKind::OptP,
];
const SETUP_REPS: usize = 5;
const MIN_PASSES: usize = 3;
/// Operations replayed per site and protocol for the span trace.
const REPLAY_OPS_PER_SITE: usize = 60;

fn config(protocol: ProtocolKind, seed: u64, schedule: &Schedule) -> SimConfig {
    let mut cfg = if protocol.supports_partial() {
        SimConfig::paper_partial(protocol, N, W_RATE, seed)
    } else {
        SimConfig::paper_full(protocol, N, W_RATE, seed)
    };
    // One generated schedule serves all five protocols and every pass.
    cfg.schedule_override = Some(schedule.clone());
    cfg
}

/// What one protocol's run must reproduce bit for bit on every pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellCounts {
    pub measured: MessageStats,
    pub all: MessageStats,
    pub writes: u64,
    pub reads: u64,
    pub remote_reads: u64,
    pub applies: u64,
}

/// One pass: the five protocols, one after the other.
pub struct Pass {
    pub counts: [CellCounts; 5],
    /// Wall seconds per protocol.
    pub secs: [f64; 5],
    /// Process CPU seconds per protocol.
    pub cpu_secs: [f64; 5],
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.secs.iter().sum()
    }

    fn measured_ops(&self) -> u64 {
        self.counts.iter().map(|c| c.writes + c.reads).sum()
    }

    fn msgs_per_op(&self) -> f64 {
        let msgs: u64 = self.counts.iter().map(|c| c.measured.total_count()).sum();
        msgs as f64 / self.measured_ops().max(1) as f64
    }

    fn meta_bytes_per_op(&self) -> f64 {
        let bytes: u64 = self.counts.iter().map(|c| c.measured.total_bytes()).sum();
        bytes as f64 / self.measured_ops().max(1) as f64
    }

    fn all_msgs(&self) -> u64 {
        self.counts.iter().map(|c| c.all.total_count()).sum()
    }
}

/// Run one pass over `schedule`, failing `out` on parked updates, degraded
/// reads, or a measured operation that never completed.
pub fn pass(out: &mut Outcome, seed: u64, schedule: &Schedule) -> Pass {
    let scheduled = schedule.total_ops() as u64;
    let measured_expected =
        (N * (schedule.params.events_per_process - schedule.warmup_events)) as u64;
    let mut counts = Vec::with_capacity(5);
    let mut secs = [0.0; 5];
    let mut cpu_secs = [0.0; 5];
    for (i, &protocol) in PROTOCOLS.iter().enumerate() {
        let cfg = config(protocol, seed, schedule);
        let (t, cpu0) = (Instant::now(), cpu_seconds());
        let r = run(&cfg);
        secs[i] = t.elapsed().as_secs_f64();
        cpu_secs[i] = cpu_seconds() - cpu0;
        let m = &r.metrics;
        if r.final_pending != 0 {
            out.fail(format!(
                "{protocol}: {} updates still parked",
                r.final_pending
            ));
        }
        let done = m.writes + m.reads;
        out.count_ops(
            scheduled,
            scheduled - measured_expected.saturating_sub(done),
            m.degraded_reads,
        );
        if done != measured_expected {
            out.fail(format!(
                "{protocol}: {done} of {measured_expected} measured ops completed"
            ));
        }
        counts.push(CellCounts {
            measured: m.measured,
            all: m.all,
            writes: m.writes,
            reads: m.reads,
            remote_reads: m.remote_reads,
            applies: m.applies,
        });
    }
    Pass {
        counts: counts.try_into().expect("five protocols"),
        secs,
        cpu_secs,
    }
}

/// One set-up: generate the schedule, run one untimed warm pass.
fn set_up(out: &mut Outcome, seed: u64) -> (f64, Schedule, Pass) {
    let t0 = Instant::now();
    let schedule = generate(&WorkloadParams::paper(N, W_RATE, seed));
    let warm = pass(out, seed, &schedule);
    (t0.elapsed().as_secs_f64(), schedule, warm)
}

pub fn phases_note(seconds: f64, trace: bool) -> String {
    if trace {
        format!(
            "1 set-up; replay {REPLAY_OPS_PER_SITE} ops/site x 5 protocols; probes; {MIN_PASSES} timed passes; 1 checked Opt-Track run"
        )
    } else {
        format!(
            "passes of 5 x {} scheduled ops repeated for {seconds} s (at least {MIN_PASSES}), {SETUP_REPS} set-ups (generate + warm pass) spread evenly through them; n={N} w={W_RATE}",
            N * 600
        )
    }
}

/// The end-to-end run.
pub fn run_end_to_end(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let (first_setup_s, schedule, warm) = set_up(&mut out, seed);
    let mut setup_s = vec![first_setup_s];

    // The other set-ups are spread evenly through the timed window: a slow
    // stretch of the host lasts ten to twenty seconds, and five set-ups in
    // a row would all sit inside it or all outside.
    let t0 = Instant::now();
    let mut passes = Vec::new();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && elapsed >= seconds {
            break;
        }
        if setup_s.len() < SETUP_REPS
            && elapsed >= seconds * setup_s.len() as f64 / SETUP_REPS as f64
        {
            let (secs, _, again) = set_up(&mut out, seed);
            if again.counts != warm.counts {
                out.fail(format!(
                    "set-up {} does not reproduce the first set-up's counts",
                    setup_s.len()
                ));
            }
            setup_s.push(secs);
            continue;
        }
        let p = pass(&mut out, seed, &schedule);
        if p.counts != warm.counts {
            out.fail(format!(
                "pass {} does not reproduce the warm pass's counts",
                passes.len()
            ));
        }
        passes.push(p);
    }
    // Each protocol's fastest run over all passes (see `report::fastest`):
    // a pass is five runs of ~0.2 s, so a 24 s window holds ~80 chances of
    // an undisturbed one.
    let scheduled = (schedule.total_ops() * PROTOCOLS.len()) as f64;
    let walls: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let per_protocol = |of: &dyn Fn(&Pass, usize) -> f64| -> Vec<f64> {
        (0..PROTOCOLS.len())
            .map(|i| fastest(&passes.iter().map(|p| of(p, i)).collect::<Vec<f64>>()))
            .collect()
    };
    let fastest_s = per_protocol(&|p, i| p.secs[i]);
    let least_cpu_s = per_protocol(&|p, i| p.cpu_secs[i]);
    let per_op_us: Vec<f64> = fastest_s
        .iter()
        .map(|s| s * 1e6 / schedule.total_ops() as f64)
        .collect();
    out.put(
        "setup_s",
        fastest(&setup_s),
        format!(
            "fastest of {} set-ups spread over the run: {setup_s:.4?}",
            setup_s.len()
        ),
    );
    out.put(
        "ops_per_s",
        scheduled / fastest_s.iter().sum::<f64>(),
        format!(
            "{scheduled} scheduled ops / sum of each protocol's fastest run; whole passes: {}",
            reps_note(&walls, "passes, wall s")
        ),
    );
    out.put(
        "paced_p50_us",
        median(&per_op_us),
        format!(
            "median protocol's wall us per scheduled op (fastest run each); per protocol {per_op_us:.3?} in order {SIM_PROTOCOL_LABELS:?}"
        ),
    );
    out.put(
        "cpu_us_per_op",
        least_cpu_s.iter().sum::<f64>() * 1e6 / scheduled,
        format!(
            "sum of each protocol's least process CPU s over {} passes: {least_cpu_s:.4?}",
            passes.len()
        ),
    );
    out.put(
        "meta_bytes_per_op",
        warm.meta_bytes_per_op(),
        format!(
            "metrics.measured over {} measured ops, equal on every pass",
            warm.measured_ops()
        ),
    );
    out.put(
        "msgs_per_op",
        warm.msgs_per_op(),
        "metrics.measured SM+FM+RM, equal on every pass",
    );
    out.put("peak_rss_mb", vm_kb("VmHWM") / 1024.0, "VmHWM at exit");
    out
}

/// The traced run.
pub fn run_trace(seed: u64, trace_path: &Path) -> Outcome {
    let mut out = Outcome::new();
    let (_, schedule, warm) = set_up(&mut out, seed);

    let plan = ReplayPlan {
        protocols: PROTOCOLS.to_vec(),
        n: N,
        w_rate: W_RATE,
        ops_per_site: REPLAY_OPS_PER_SITE,
        wire: false,
    };
    measure_layers(&plan, seed, &mut out, trace_path);

    let mut passes = Vec::new();
    for _ in 0..MIN_PASSES {
        let p = pass(&mut out, seed, &schedule);
        if p.counts != warm.counts {
            out.fail("a traced-run pass does not reproduce the warm pass's counts");
        }
        passes.push(p);
    }
    for (i, label) in SIM_PROTOCOL_LABELS.iter().enumerate() {
        let secs: Vec<f64> = passes.iter().map(|p| p.secs[i]).collect();
        out.put(
            &format!("simnet.ops_per_s.{label}"),
            schedule.total_ops() as f64 / median(&secs),
            reps_note(&secs, "runs, wall s"),
        );
    }
    let walls: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    out.put(
        "simnet.ns_per_msg",
        median(&walls) * 1e9 / warm.all_msgs() as f64,
        format!(
            "median pass wall / {} messages (whole run)",
            warm.all_msgs()
        ),
    );
    out.put(
        "simnet.heap_push_pop_ns",
        probes::heap_push_pop_ns(),
        "EventHeap pop + push at depth 4096, median of 5 batches",
    );

    let mut cfg = config(ProtocolKind::OptTrack, seed, &schedule);
    cfg.record_history = true;
    let r = run(&cfg);
    let history = r.history.expect("history was requested");
    let t = Instant::now();
    let v = check(&history);
    let check_secs = t.elapsed().as_secs_f64();
    if !v.protocol_clean() {
        out.fail(format!("Opt-Track run is not causally consistent: {v:?}"));
    }
    out.put(
        "checker.check_s_per_kop",
        check_secs / (history.total_ops() as f64 / 1e3),
        format!(
            "check() took {check_secs:.3} s on {} ops",
            history.total_ops()
        ),
    );

    for m in crate::spec::PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("runtime."))
    {
        out.put(m.name, 0.0, BYPASSED);
    }
    let share = out.failed_share();
    out.put(
        "failed_share",
        share,
        format!("{} failed of {} attempted", out.failed, out.attempted),
    );
    out
}
