//! The per-layer half of a `--trace 1` run that every workload shares:
//! the span replay (source a) and the probes (source b). Counters and
//! differentials from extra `serve` runs (source c) live with the serve
//! workloads.

use crate::probes;
use crate::replay::{replay, ReplayCounts, ReplaySpec, Shapes};
use crate::report::{median, Outcome};
use crate::span::{to_jsonl, totals_by_name, NameTotals, Recorder};
use causal_proto::ProtocolKind;
use causal_types::OpKind;
use causal_workload::{generate, WorkloadParams};
use std::path::Path;
use std::time::Instant;

/// Detail text for a metric whose layer the workload never enters.
pub const BYPASSED: &str = "0 = layer not on this workload's path";

/// What to replay for one workload.
pub struct ReplayPlan {
    pub protocols: Vec<ProtocolKind>,
    pub n: usize,
    pub w_rate: f64,
    /// Operations taken from the head of each site's generated schedule.
    pub ops_per_site: usize,
    pub wire: bool,
}

/// Spans-off / spans-on rounds; the fastest of each side is compared.
const OVERHEAD_ROUNDS: usize = 5;

/// Run the replay and the probes, write the span file, and put every
/// `proto.*`, `clocks.*`, `wire.*`, `multicast.*`, `metrics.*`,
/// `checker.history_record_ns`, `workload.generate_s` and `trace.*`
/// reading. Returns the layers' summed self time per replayed op, µs.
pub fn measure_layers(plan: &ReplayPlan, seed: u64, out: &mut Outcome, trace_path: &Path) -> f64 {
    let params = WorkloadParams::paper(plan.n, plan.w_rate, seed);
    let gen_s: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(generate(&params));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.put(
        "workload.generate_s",
        median(&gen_s),
        format!(
            "generate(paper(n={}, w={})), median of 3",
            plan.n, plan.w_rate
        ),
    );
    let ops: Vec<Vec<OpKind>> = generate(&params)
        .per_site
        .iter()
        .map(|site| {
            site.iter()
                .take(plan.ops_per_site)
                .map(|o| o.kind)
                .collect()
        })
        .collect();

    let mut rec = Recorder::new(true);
    let mut counts = ReplayCounts::default();
    let mut shapes = Shapes::default();
    let (mut off_s, mut on_s) = (f64::INFINITY, f64::INFINITY);
    for round in 0..OVERHEAD_ROUNDS {
        let last = round + 1 == OVERHEAD_ROUNDS;
        let (mut round_off, mut round_on) = (0.0, 0.0);
        rec.spans.clear();
        let mut op_id_base = 0u64;
        for &protocol in &plan.protocols {
            let spec = ReplaySpec {
                protocol,
                n: plan.n,
                ops: &ops,
                wire: plan.wire,
                seed,
                op_id_base,
            };
            let off = replay(&spec, &mut Recorder::new(false));
            let on = replay(&spec, &mut rec);
            if on.counts != off.counts {
                out.fail(format!("{protocol}: replay counts differ with spans on"));
            }
            if on.counts.final_pending != 0 {
                out.fail(format!(
                    "{protocol}: replay left {} updates parked",
                    on.counts.final_pending
                ));
            }
            round_off += off.wall.as_secs_f64();
            round_on += on.wall.as_secs_f64();
            op_id_base += on.counts.ops;
            if last {
                counts.add(&on.counts);
                shapes.absorb(on.shapes);
            }
        }
        off_s = off_s.min(round_off);
        on_s = on_s.min(round_on);
    }

    let totals = match totals_by_name(&rec.spans) {
        Ok(t) => t,
        Err(e) => {
            out.fail(format!("span nesting: {e}"));
            Default::default()
        }
    };
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |t: NameTotals| t.self_ns as f64 / t.calls.max(1) as f64;
    for name in ["proto.write", "proto.on_message", "proto.read"] {
        let t = of(name);
        out.put(
            &format!("{name}_ns"),
            per_call(t),
            format!("mean self time over {} spans", t.calls),
        );
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    out.put(
        "proto.sends_per_write",
        ratio(counts.write_sends, counts.writes),
        format!("{} sends / {} writes", counts.write_sends, counts.writes),
    );
    out.put(
        "proto.sm_meta_bytes",
        ratio(counts.sm_meta_bytes, counts.sm_sent),
        format!("java_like meta bytes over {} SMs", counts.sm_sent),
    );
    out.put(
        "proto.buffered_share",
        ratio(counts.sm_buffered, counts.sm_delivered),
        format!(
            "{} parked / {} delivered under the replay's channel delays",
            counts.sm_buffered, counts.sm_delivered
        ),
    );
    if plan.wire {
        for name in ["wire.encode", "wire.decode"] {
            let t = of(name);
            out.put(
                &format!("{name}_ns"),
                per_call(t),
                format!("mean self time over {} spans", t.calls),
            );
        }
        out.put(
            "wire.frame_bytes",
            ratio(counts.frame_bytes, counts.frames),
            format!("routed frames, mean over {}", counts.frames),
        );
    } else {
        for name in ["wire.encode_ns", "wire.decode_ns", "wire.frame_bytes"] {
            out.put(name, 0.0, BYPASSED);
        }
    }

    let shaped = |v: Option<f64>, what: &str| match v {
        Some(ns) => (ns, format!("{what}, median of 5 batches")),
        None => (0.0, BYPASSED.to_string()),
    };
    let probes = [
        (
            "clocks.log_merge_ns",
            shaped(
                probes::log_merge_ns(&shapes),
                "Log::merge of sampled piggybacks",
            ),
        ),
        (
            "clocks.log_prune_ns",
            shaped(
                probes::log_prune_ns(&shapes, plan.n),
                "Log::prune_applied on sampled piggybacks",
            ),
        ),
        (
            "clocks.matrix_merge_ns",
            shaped(
                probes::matrix_merge_ns(&shapes),
                "MatrixClock::merge_max 40x40",
            ),
        ),
        (
            "clocks.vector_merge_ns",
            shaped(
                probes::vector_merge_ns(&shapes),
                "VectorClock::merge_max n=40",
            ),
        ),
        (
            "multicast.offer_flush_ns",
            shaped(
                Some(probes::offer_flush_ns(plan.n)),
                "DestBatcher::offer per SM, 64-update lanes",
            ),
        ),
        (
            "metrics.oplatency_record_ns",
            shaped(
                Some(probes::oplatency_record_ns()),
                "Mutex<OpLatency>::record, uncontended",
            ),
        ),
        (
            "metrics.record_msg_ns",
            shaped(Some(probes::record_msg_ns()), "RunMetrics::record_msg"),
        ),
        (
            "checker.history_record_ns",
            shaped(
                Some(probes::history_record_ns(plan.n)),
                "History::record_{write,read,apply} mix",
            ),
        ),
    ];
    for (name, (value, detail)) in probes {
        out.put(name, value, detail);
    }

    let layer_ns: u64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("proto.") || name.starts_with("wire."))
        .map(|(_, t)| t.self_ns)
        .sum();
    let layer_us_per_op = layer_ns as f64 / 1e3 / counts.ops.max(1) as f64;
    out.put(
        "trace.layer_us_per_op",
        layer_us_per_op,
        format!(
            "proto.* + wire.* self time over {} replayed ops",
            counts.ops
        ),
    );
    out.put(
        "trace.overhead_pct",
        (on_s - off_s) / off_s * 100.0,
        format!(
            "replay {on_s:.4} s with spans vs {off_s:.4} s without, best of {OVERHEAD_ROUNDS}: {:.0} ns per span (two clock reads)",
            (on_s - off_s) * 1e9 / rec.spans.len().max(1) as f64
        ),
    );
    out.put(
        "trace.spans",
        rec.spans.len() as f64,
        format!("written to {}", trace_path.display()),
    );
    if let Err(e) = std::fs::write(trace_path, to_jsonl(&rec.spans)) {
        out.fail(format!("write {}: {e}", trace_path.display()));
    }
    layer_us_per_op
}
