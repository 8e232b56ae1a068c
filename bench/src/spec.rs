//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repository root lists the same names
//! with the same units (selftest compares them), and later issues state a
//! claim as `metric` on `workload` using exactly these strings.

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// End-to-end metric(s) a per-layer metric should move, and where;
    /// for an end-to-end metric, its definition.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

/// Workload names with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve-tcp-write",
        "Opt-Track n=40 over loopback TCP at w=0.8: every write fans out ~11 SMs with KS-log piggybacks, so proto, clocks, wire and the TCP writers do most of the work",
    ),
    (
        "serve-tcp-read",
        "same cluster at w=0.2: ~56% of ops are remote reads, one FM/RM round trip each, so mailbox hops, worker wakes and socket writes dominate and proto/clocks do little",
    ),
    (
        "serve-chan-matrix",
        "Full-Track n=40 on the in-process channel fabric at w=0.5: wire and runtime::tcp are bypassed; 40x40 matrix merges, mailboxes and the shared latency mutex carry the load",
    ),
    (
        "sim-paper-n40",
        "simnet::run on the paper's cell for all five protocols: no threads or sockets, carries the paper's exact counts, the control for any runtime-only change",
    ),
];

pub const SIM_WORKLOAD: &str = "sim-paper-n40";

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e(
        "setup_s",
        "s",
        "lower",
        0.25,
        "wall time of one set-up: serve-* = empty deployment + checked 40k-op verification run, a fresh process each, median of 5; sim = schedule generation + one untimed warm pass, fastest of 5 spread over the run",
    ),
    e2e(
        "ops_per_s",
        "ops/s",
        "higher",
        0.25,
        "serve-* = saturated phase, ServeReport.ops / elapsed, mean of the middle 5 of 7 reps; sim = 5 x 24000 scheduled ops / sum of each protocol's fastest run",
    ),
    e2e(
        "paced_p50_us",
        "us",
        "lower",
        0.25,
        "serve-* = paced phase (4 clients/site; 10 ms think on tcp, 2.5 ms on the channel fabric) ServeReport.latency.p50_us, median of 5 reps; sim has no think time to pace: median protocol's wall us per scheduled op",
    ),
    e2e(
        "cpu_us_per_op",
        "us",
        "lower",
        0.25,
        "process user+sys CPU (CLOCK_PROCESS_CPUTIME_ID) / ops: serve-* = saturated phase, mean of the middle 5 of 7 reps; sim = each protocol's least-CPU run",
    ),
    e2e(
        "meta_bytes_per_op",
        "B",
        "lower",
        0.08,
        "meta-data bytes / op under SizeModel::java_like: serve-* = verification run; sim = metrics.measured over the five protocols (exact per seed)",
    ),
    e2e(
        "msgs_per_op",
        "count",
        "lower",
        0.05,
        "SM+FM+RM messages / op: serve-* = verification run; sim = metrics.measured over the five protocols (exact per seed, asserted equal across passes)",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        "lower",
        0.25,
        "VmHWM after fixed work: serve-* = of the verification process at exit (on timed phases RSS grows with ops completed, see runtime.rss_kb_per_kop); sim = at exit",
    ),
];

/// The five simulator protocols' label suffixes, in pass order.
pub const SIM_PROTOCOL_LABELS: [&str; 5] = [
    "full-track",
    "opt-track",
    "hb-track",
    "opt-track-crp",
    "optp",
];

/// Single-layer numbers from the `--trace 1` run. A value of 0 on a
/// workload means the layer is not on that workload's path.
pub const PER_LAYER: [MetricSpec; 49] = [
    layer("proto.write_ns", "ns", "lower", "ops_per_s, cpu_us_per_op on serve-tcp-write, serve-chan-matrix, sim-paper-n40; flat on serve-tcp-read"),
    layer("proto.on_message_ns", "ns", "lower", "ops_per_s, cpu_us_per_op on serve-tcp-write, serve-chan-matrix, sim-paper-n40; flat on serve-tcp-read"),
    layer("proto.read_ns", "ns", "lower", "ops_per_s, cpu_us_per_op; small everywhere"),
    layer("proto.sends_per_write", "count", "lower", "msgs_per_op on sim-paper-n40"),
    layer("proto.sm_meta_bytes", "B", "lower", "meta_bytes_per_op on sim-paper-n40"),
    layer("proto.buffered_share", "ratio", "lower", "msgs_per_op stays, apply dwell moves; sim-paper-n40"),
    layer("clocks.log_merge_ns", "ns", "lower", "ops_per_s on serve-tcp-write, sim-paper-n40"),
    layer("clocks.log_prune_ns", "ns", "lower", "ops_per_s on serve-tcp-write, sim-paper-n40"),
    layer("clocks.matrix_merge_ns", "ns", "lower", "ops_per_s on serve-chan-matrix, sim-paper-n40"),
    layer("clocks.vector_merge_ns", "ns", "lower", "ops_per_s on sim-paper-n40"),
    layer("wire.encode_ns", "ns", "lower", "ops_per_s, cpu_us_per_op on serve-tcp-write (most), serve-tcp-read; none elsewhere"),
    layer("wire.decode_ns", "ns", "lower", "ops_per_s, cpu_us_per_op on serve-tcp-write (most), serve-tcp-read; none elsewhere"),
    layer("wire.frame_bytes", "B", "lower", "cpu_us_per_op (sys share) on serve-tcp-*"),
    layer("multicast.offer_flush_ns", "ns", "lower", "none: batching is off in all four workloads; baseline for a later batching-on workload"),
    layer("metrics.oplatency_record_ns", "ns", "lower", "ops_per_s, cpu_us_per_op on serve-chan-matrix"),
    layer("metrics.record_msg_ns", "ns", "lower", "ops_per_s, cpu_us_per_op on serve-*"),
    layer("checker.history_record_ns", "ns", "lower", "ops_per_s, cpu_us_per_op on serve-*"),
    layer("checker.check_s_per_kop", "s/kop", "lower", "setup_s on all"),
    layer("workload.generate_s", "s", "lower", "setup_s on sim-paper-n40"),
    layer("simnet.ops_per_s.full-track", "ops/s", "higher", "ops_per_s on sim-paper-n40"),
    layer("simnet.ops_per_s.opt-track", "ops/s", "higher", "ops_per_s on sim-paper-n40"),
    layer("simnet.ops_per_s.hb-track", "ops/s", "higher", "ops_per_s on sim-paper-n40"),
    layer("simnet.ops_per_s.opt-track-crp", "ops/s", "higher", "ops_per_s on sim-paper-n40"),
    layer("simnet.ops_per_s.optp", "ops/s", "higher", "ops_per_s on sim-paper-n40"),
    layer("simnet.ns_per_msg", "ns", "lower", "ops_per_s on sim-paper-n40"),
    layer("simnet.heap_push_pop_ns", "ns", "lower", "ops_per_s on sim-paper-n40"),
    layer("runtime.frames_per_op", "count", "lower", "cpu_us_per_op, ops_per_s on serve-tcp-*"),
    layer("runtime.syscall_writes_per_op", "count", "lower", "cpu_us_per_op, ops_per_s on serve-tcp-*; 0 on serve-chan-matrix"),
    layer("runtime.frames_per_syscall", "count", "higher", "cpu_us_per_op on serve-tcp-*"),
    layer("runtime.threads_spawned", "count", "lower", "cpu_us_per_op on serve-*"),
    layer("runtime.user_cpu_us_per_op", "us", "lower", "cpu_us_per_op on serve-*"),
    layer("runtime.sys_cpu_us_per_op", "us", "lower", "cpu_us_per_op on serve-* (sys share is about the transport)"),
    layer("runtime.fetch_rtt_mean_us", "us", "lower", "paced_p50_us, ops_per_s on serve-tcp-read"),
    layer("runtime.fetch_rtt_worst_site_us", "us", "lower", "paced_p50_us, ops_per_s on serve-tcp-read (slowest site's mean: the merged report keeps no RTT percentile)"),
    layer("runtime.apply_dwell_mean_us", "us", "lower", "ops_per_s (queueing) on serve-tcp-write"),
    layer("runtime.max_pending", "count", "lower", "ops_per_s (queueing) on serve-tcp-write"),
    layer("runtime.mailbox_depth_peak", "count", "lower", "ops_per_s (queueing) on serve-tcp-write"),
    layer("runtime.other_fabric_ops_per_s", "ops/s", "higher", "isolates the transport's share of ops_per_s on serve-*"),
    layer("runtime.w1_ops_per_s", "ops/s", "higher", "isolates the scheduler's share of ops_per_s on serve-*"),
    layer("runtime.accounted_cpu_share", "ratio", "higher", "share of cpu_us_per_op the sans-IO layers explain; the rest is runner + tcp + kernel"),
    layer("runtime.sat_p50_us", "us", "lower", "diagnostic on serve-*"),
    layer("runtime.sat_p99_us", "us", "lower", "diagnostic on serve-*"),
    layer("runtime.paced_p99_us", "us", "lower", "diagnostic on serve-* (swings between identical runs; not end-to-end yet)"),
    layer("runtime.paced_ops_per_s", "ops/s", "higher", "diagnostic on serve-*: what the paced phase actually offered"),
    layer("runtime.rss_kb_per_kop", "KB/kop", "lower", "diagnostic on serve-*: RSS growth per thousand completed ops (history recording)"),
    layer("trace.overhead_pct", "%", "lower", "none (must stay small)"),
    layer("trace.spans", "count", "higher", "none"),
    layer("trace.layer_us_per_op", "us", "lower", "numerator of runtime.accounted_cpu_share: summed self time of proto.* and wire.* spans per replayed op"),
    layer("failed_share", "ratio", "lower", "must be 0: (ops issued - completed + degraded reads) / issued over the trace run's serve phases"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(legal_name(n), "illegal name {n:?}");
            assert!(seen.insert(n), "name {n:?} used twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m.unit.bytes().all(
                |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
            ));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
