//! The three `serve-*` workloads: `runtime::serve` under closed-loop load.
//!
//! Load is closed loop: each of a site's clients issues its next operation
//! only after the previous one completed (plus think time), and a site's
//! clients are multiplexed on the site, so a slow system is offered less.
//! The in-runtime recorder times an operation from its actual issue, so
//! queueing behind a site's other clients shows in `ops_per_s`, not in
//! `paced_p50_us`. `workers = 2` is fixed and the clients run inside those
//! two workers: there are no generator threads.
//!
//! Every deployment runs in a **fresh child process** (this binary again,
//! with `--cell`), the way a user starts `serve`. A process that has
//! already hosted deployments serves the next one measurably slower and
//! bimodally so — paced p50 on the channel fabric was 6–7 µs in every
//! fresh process and 7 or 11 µs, at random, in a reused one — so reps in
//! one process are neither independent nor what a user sees.

use crate::host::{cpu_seconds, vm_kb, CpuSplit};
use crate::json::{self, Value};
use crate::layers::{measure_layers, ReplayPlan, BYPASSED};
use crate::report::{median, midmean, reps_note, stat_note, Outcome};
use crate::spec::SIM_PROTOCOL_LABELS;
use causal_checker::check;
use causal_proto::ProtocolKind;
use causal_runtime::{serve, LoadProfile, ServeConfig, ServeTransport};
use causal_types::SizeModel;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

const N: usize = 40;
const WORKERS: usize = 2;
const Q: usize = 100;
/// Verification run: 1 client/site × this many ops, zero think. The
/// checker takes about half a second on its 40k-op history and does not
/// finish on a timed phase's millions, which is why timed phases are not
/// checked.
const VERIFY_OPS_PER_CLIENT: usize = 1000;
const PACED_CLIENTS: usize = 4;
const SETUP_REPS: usize = 5;
const SAT_REPS: usize = 7;
const PACED_REPS: usize = 5;
/// Operations replayed per site for the span trace.
const REPLAY_OPS_PER_SITE: usize = 100;

pub struct ServeWorkload {
    pub name: &'static str,
    protocol: ProtocolKind,
    transport: ServeTransport,
    w_rate: f64,
    /// Mean think time of the paced phase's clients. Chosen per workload so
    /// that the offered load is 30-50 % of what the workload sustains when
    /// saturated: 160 clients at 10 ms offer 15.6k ops/s, at 2.5 ms 62k.
    /// Below about a fifth of saturation the two workers sleep between
    /// operations, every send wakes a halted vCPU through the hypervisor,
    /// and the median operation costs 7, 10 or 13 us depending on a host
    /// state that changes every ten to twenty seconds.
    paced_think: Duration,
}

pub const SERVE_WORKLOADS: [ServeWorkload; 3] = [
    ServeWorkload {
        name: "serve-tcp-write",
        protocol: ProtocolKind::OptTrack,
        transport: ServeTransport::Tcp,
        w_rate: 0.8,
        paced_think: Duration::from_millis(10),
    },
    ServeWorkload {
        name: "serve-tcp-read",
        protocol: ProtocolKind::OptTrack,
        transport: ServeTransport::Tcp,
        w_rate: 0.2,
        paced_think: Duration::from_millis(10),
    },
    ServeWorkload {
        name: "serve-chan-matrix",
        protocol: ProtocolKind::FullTrack,
        transport: ServeTransport::Channel,
        w_rate: 0.5,
        paced_think: Duration::from_micros(2500),
    },
];

pub fn find(name: &str) -> Option<&'static ServeWorkload> {
    SERVE_WORKLOADS.iter().find(|w| w.name == name)
}

/// How `--seconds` is split: `SAT_REPS` saturated and `PACED_REPS` paced
/// reps of equal length (7 : 5; the issue's 21 s : 9 s gave the paced
/// median too few reps to repeat). Two
/// deployments of the same load differ by several percent (thread
/// placement, writer coalescing), so the median of many short ones is
/// steadier than that of few long ones.
pub fn rep_length(seconds: f64) -> f64 {
    seconds / (SAT_REPS + PACED_REPS) as f64
}

/// The deployments a workload is made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellKind {
    /// 1 op per client: mesh dial, thread spawn, quiesce, teardown.
    Empty,
    /// The checked 40k-op run.
    Verify,
    /// 1 client/site, zero think, duration-bounded.
    Saturated,
    /// 4 clients/site, 10 ms think, duration-bounded.
    Paced,
    /// `Saturated` on the fabric the workload does not use.
    OtherFabric,
    /// `Saturated` with `workers = 1`.
    OneWorker,
}

impl CellKind {
    const ALL: [CellKind; 6] = [
        CellKind::Empty,
        CellKind::Verify,
        CellKind::Saturated,
        CellKind::Paced,
        CellKind::OtherFabric,
        CellKind::OneWorker,
    ];

    fn label(self) -> &'static str {
        match self {
            CellKind::Empty => "empty",
            CellKind::Verify => "verify",
            CellKind::Saturated => "saturated",
            CellKind::Paced => "paced",
            CellKind::OtherFabric => "other-fabric",
            CellKind::OneWorker => "one-worker",
        }
    }

    pub fn parse(s: &str) -> Option<CellKind> {
        CellKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Defines `Cell` — what one deployment reports back to the orchestrating
/// process: the numbers of `ServeReport` the benchmark uses — together with
/// its flat-JSON-object form, from one field list, so the child's output
/// and the parent's parse cannot drift.
macro_rules! cell {
    ($($(#[$doc:meta])* $f:ident,)*) => {
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct Cell {
            $($(#[$doc])* pub $f: f64,)*
        }

        impl Cell {
            pub fn to_json(&self) -> String {
                let fields = [$(format!("\"{}\": {}", stringify!($f), self.$f)),*];
                format!("{{{}}}", fields.join(", "))
            }

            pub fn from_json(text: &str) -> Result<Cell, String> {
                let v = json::parse(text)?;
                Ok(Cell {
                    $($f: v
                        .get(stringify!($f))
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("cell result lacks `{}`", stringify!($f)))?,)*
                })
            }
        }
    };
}

cell! {
    ops,
    /// Operations issued: the budget, or under a deadline completed +
    /// degraded (an issued operation either completes or is cut off
    /// mid-fetch by `Stop` and counted as a degraded read).
    issued,
    elapsed_s,
    cpu_s,
    user_s,
    sys_s,
    p50_us,
    p99_us,
    final_pending,
    conn_errors,
    degraded_reads,
    msgs,
    meta_bytes,
    syscall_writes,
    threads_spawned,
    fetch_rtt_mean_us,
    fetch_rtt_worst_site_us,
    apply_dwell_mean_us,
    max_pending,
    mailbox_depth_peak,
    rss_growth_kb,
    vm_hwm_kb,
    /// `Verify` only: seconds `check` took.
    check_s,
    /// 1 unless a `Verify` cell's history failed the causal check.
    check_clean,
}

impl Cell {
    fn ops_per_s(&self) -> f64 {
        self.ops / self.elapsed_s.max(1e-9)
    }

    fn per_op(&self, x: f64) -> f64 {
        x / self.ops.max(1.0)
    }
}

impl ServeWorkload {
    fn config(&self, kind: CellKind, seed: u64, length_s: f64) -> ServeConfig {
        let budget = |ops| LoadProfile {
            clients_per_site: 1,
            ops_per_client: ops,
            think: Duration::ZERO,
            w_rate: self.w_rate,
            q: Q,
            seed,
            duration: None,
        };
        // Duration-bounded: the budget is only a safety cap.
        let timed = |clients, think| LoadProfile {
            clients_per_site: clients,
            ops_per_client: 1 << 30,
            think,
            w_rate: self.w_rate,
            q: Q,
            seed,
            duration: Some(Duration::from_secs_f64(length_s)),
        };
        let other = match self.transport {
            ServeTransport::Tcp => ServeTransport::Channel,
            ServeTransport::Channel => ServeTransport::Tcp,
        };
        let (load, transport, workers) = match kind {
            CellKind::Empty => (budget(1), self.transport, WORKERS),
            CellKind::Verify => (budget(VERIFY_OPS_PER_CLIENT), self.transport, WORKERS),
            CellKind::Saturated => (timed(1, Duration::ZERO), self.transport, WORKERS),
            CellKind::Paced => (
                timed(PACED_CLIENTS, self.paced_think),
                self.transport,
                WORKERS,
            ),
            CellKind::OtherFabric => (timed(1, Duration::ZERO), other, WORKERS),
            CellKind::OneWorker => (timed(1, Duration::ZERO), self.transport, 1),
        };
        ServeConfig {
            protocol: self.protocol,
            n: N,
            load,
            transport,
            batch: None,
            payload_len: 0,
            size_model: SizeModel::java_like(),
            workers,
        }
    }

    /// Child side: run one deployment in this (fresh) process.
    pub fn run_cell(&self, kind: CellKind, seed: u64, length_s: f64) -> Result<Cell, String> {
        let cfg = self.config(kind, seed, length_s);
        let budget = cfg
            .load
            .duration
            .is_none()
            .then(|| cfg.load.total_ops(N) as f64);
        let rss0 = vm_kb("VmRSS");
        let (cpu0, split0) = (cpu_seconds(), CpuSplit::now());
        let r = serve(&cfg).map_err(|e| format!("serve failed: {e:?}"))?;
        let cpu_s = cpu_seconds() - cpu0;
        let split = CpuSplit::now().since(split0);
        let rss_growth_kb = vm_kb("VmRSS") - rss0;
        let m = &r.metrics;
        let (check_s, check_clean) = if kind == CellKind::Verify {
            let t = Instant::now();
            let v = check(&r.history);
            if !v.protocol_clean() {
                eprintln!("causal check: {v:?}");
            }
            (
                t.elapsed().as_secs_f64(),
                f64::from(u8::from(v.protocol_clean())),
            )
        } else {
            (0.0, 1.0)
        };
        // `RunMetrics::merge` drops the per-site P2 states, so no RTT or
        // dwell percentile of a live run is readable from outside; the
        // slowest site's mean is the tail figure that survives.
        let worst_site_rtt = m.per_site.iter().map(|s| s.fetch_rtt_ns.mean());
        Ok(Cell {
            ops: r.ops as f64,
            issued: budget.unwrap_or((r.ops + m.degraded_reads) as f64),
            elapsed_s: r.elapsed.as_secs_f64(),
            cpu_s,
            user_s: split.user_s,
            sys_s: split.sys_s,
            p50_us: r.latency.p50_us,
            p99_us: r.latency.p99_us,
            final_pending: r.final_pending as f64,
            conn_errors: m.transport_conn_errors as f64,
            degraded_reads: m.degraded_reads as f64,
            msgs: m.all.total_count() as f64,
            meta_bytes: m.all.total_bytes() as f64,
            syscall_writes: m.syscall_writes as f64,
            threads_spawned: m.threads_spawned as f64,
            fetch_rtt_mean_us: m.fetch_rtt_ns.mean() / 1e3,
            fetch_rtt_worst_site_us: worst_site_rtt.fold(0.0, f64::max) / 1e3,
            apply_dwell_mean_us: m.apply_latency_ns.mean() / 1e3,
            max_pending: m.max_pending as f64,
            mailbox_depth_peak: m.mailbox_depth_peak as f64,
            rss_growth_kb,
            vm_hwm_kb: vm_kb("VmHWM"),
            check_s,
            check_clean,
        })
    }

    /// Parent side: run one deployment in a child process, wait for it,
    /// and check what every deployment must satisfy. `None` when the child
    /// itself failed.
    fn cell(
        &self,
        exe: &Path,
        out: &mut Outcome,
        kind: CellKind,
        seed: u64,
        length_s: f64,
    ) -> Option<Cell> {
        let tag = kind.label();
        let child = Command::new(exe)
            .args(["--cell", tag, "--workload", self.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &length_s.to_string()])
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                out.fail(format!("{tag}: cannot start {}: {e}", exe.display()));
                return None;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        let cell = match stdout.lines().last().map(Cell::from_json) {
            Some(Ok(c)) if child.status.success() => c,
            other => {
                out.fail(format!(
                    "{tag}: child {} ({other:?}): {}",
                    child.status,
                    String::from_utf8_lossy(&child.stderr).trim()
                ));
                return None;
            }
        };
        out.count_ops(
            cell.issued as u64,
            cell.ops as u64,
            cell.degraded_reads as u64,
        );
        let mut require = |ok: bool, what: String| {
            if !ok {
                out.fail(format!("{tag}: {what}"));
            }
        };
        require(cell.ops > 0.0, "no operation completed".into());
        require(
            cell.final_pending == 0.0,
            format!("{} updates still parked", cell.final_pending),
        );
        require(
            cell.conn_errors == 0.0,
            format!("{} connection errors", cell.conn_errors),
        );
        require(
            cell.degraded_reads == 0.0,
            format!("{} degraded reads", cell.degraded_reads),
        );
        require(
            cell.check_clean == 1.0,
            "history is not causally consistent".into(),
        );
        if kind == CellKind::Verify {
            let want = (N * VERIFY_OPS_PER_CLIENT) as f64;
            require(
                cell.ops == want,
                format!("completed {} of {want} ops", cell.ops),
            );
        }
        Some(cell)
    }

    /// One set-up: the empty deployment, then the verification run with
    /// the full causal check of its history. Returns its wall time and the
    /// verification cell.
    fn set_up(&self, exe: &Path, out: &mut Outcome, seed: u64) -> Option<(f64, Cell)> {
        let t0 = Instant::now();
        self.cell(exe, out, CellKind::Empty, seed, 0.0)?;
        let verification = self.cell(exe, out, CellKind::Verify, seed, 0.0)?;
        Some((t0.elapsed().as_secs_f64(), verification))
    }

    pub fn phases_note(&self, seconds: f64, trace: bool) -> String {
        let rep = rep_length(seconds);
        if trace {
            let d = DiagLengths::of(seconds);
            format!(
                "1 set-up; replay {REPLAY_OPS_PER_SITE} ops/site; probes; saturated 2 x {:.2} s; paced {:.2} s; other fabric {:.2} s; workers=1 {:.2} s; every deployment in a fresh process",
                d.sat, d.paced, d.differential, d.differential
            )
        } else {
            format!(
                "{SETUP_REPS} set-ups (1 op/client + {VERIFY_OPS_PER_CLIENT} ops/client checked); saturated {SAT_REPS} x {rep:.2} s (1 client/site, 0 think); paced {PACED_REPS} x {rep:.2} s ({PACED_CLIENTS} clients/site, {} ms think), each right after a saturated rep; n={N} workers={WORKERS}; every deployment in a fresh process",
                self.paced_think.as_secs_f64() * 1e3
            )
        }
    }

    /// The end-to-end run: spans off, nothing per-layer measured. `exe` is
    /// this program, started once per deployment.
    pub fn run_end_to_end(&self, exe: &Path, seed: u64, seconds: f64) -> Outcome {
        let mut out = Outcome::new();
        let rep = rep_length(seconds);

        let mut setups = Vec::new();
        for _ in 0..SETUP_REPS {
            // The same seed every time: the reps are the same work, so
            // their median is one set-up's time and their counts must agree.
            match self.set_up(exe, &mut out, seed) {
                Some(s) => setups.push(s),
                None => return out,
            }
        }
        let setup_s: Vec<f64> = setups.iter().map(|(secs, _)| *secs).collect();
        let msgs: Vec<f64> = setups.iter().map(|(_, v)| v.per_op(v.msgs)).collect();
        let bytes: Vec<f64> = setups.iter().map(|(_, v)| v.per_op(v.meta_bytes)).collect();
        let rss_mb: Vec<f64> = setups.iter().map(|(_, v)| v.vm_hwm_kb / 1024.0).collect();
        if msgs.iter().any(|m| *m != msgs[0]) {
            out.fail(format!(
                "message count differs between identical verification runs: {msgs:?}"
            ));
        }

        // Each paced rep follows a saturated one directly. For some seconds
        // after a burst of load this host serves light load in a slower
        // regime (channel-fabric p50 ~11 us against ~7 us once light load
        // has lasted a while), and how long that lasts varies; paced reps
        // run back to back straddle the change and flip between the two.
        // Right behind a saturated rep they all see the same regime.
        let (mut sat, mut paced) = (Vec::new(), Vec::new());
        for i in 0..SAT_REPS {
            match self.cell(exe, &mut out, CellKind::Saturated, seed + i as u64, rep) {
                Some(c) => sat.push(c),
                None => return out,
            }
            if i < PACED_REPS {
                match self.cell(exe, &mut out, CellKind::Paced, seed + i as u64, rep) {
                    Some(c) => paced.push(c),
                    None => return out,
                }
            }
        }
        let ops_per_s: Vec<f64> = sat.iter().map(Cell::ops_per_s).collect();
        let cpu_us: Vec<f64> = sat.iter().map(|c| c.per_op(c.cpu_s * 1e6)).collect();
        let p50: Vec<f64> = paced.iter().map(|c| c.p50_us).collect();

        out.put("setup_s", median(&setup_s), reps_note(&setup_s, "set-ups"));
        out.put(
            "ops_per_s",
            midmean(&ops_per_s),
            stat_note("mean of the middle 5", &ops_per_s, "saturated reps"),
        );
        out.put(
            "paced_p50_us",
            median(&p50),
            format!(
                "{}, each a P2 estimate over ~{} samples",
                reps_note(&p50, "paced reps"),
                paced[0].ops
            ),
        );
        out.put(
            "cpu_us_per_op",
            midmean(&cpu_us),
            stat_note("mean of the middle 5", &cpu_us, "saturated reps"),
        );
        out.put(
            "meta_bytes_per_op",
            median(&bytes),
            reps_note(&bytes, "verification runs"),
        );
        out.put(
            "msgs_per_op",
            msgs[0],
            "verification runs, identical in all",
        );
        out.put(
            "peak_rss_mb",
            median(&rss_mb),
            reps_note(&rss_mb, "verification processes, VmHWM at exit"),
        );
        out
    }

    /// The traced run: per-layer numbers only, none of them from a timed
    /// end-to-end phase.
    pub fn run_trace(&self, exe: &Path, seed: u64, seconds: f64, trace_path: &Path) -> Outcome {
        let mut out = Outcome::new();
        let lens = DiagLengths::of(seconds);

        let Some((_, verification)) = self.set_up(exe, &mut out, seed) else {
            return out;
        };
        out.put(
            "checker.check_s_per_kop",
            verification.check_s / (verification.ops / 1e3),
            format!(
                "check() took {:.3} s on {} ops",
                verification.check_s, verification.ops
            ),
        );

        let plan = ReplayPlan {
            protocols: vec![self.protocol],
            n: N,
            w_rate: self.w_rate,
            ops_per_site: REPLAY_OPS_PER_SITE,
            wire: self.transport == ServeTransport::Tcp,
        };
        let layer_us_per_op = measure_layers(&plan, seed, &mut out, trace_path);

        // (c) Counters and differentials from extra serve runs.
        let mut sat = Vec::new();
        for i in 0..2u64 {
            match self.cell(exe, &mut out, CellKind::Saturated, seed + i, lens.sat) {
                Some(c) => sat.push(c),
                None => return out,
            }
        }
        type Pick<'a> = &'a dyn Fn(&Cell) -> f64;
        let both = |f: Pick| -> (f64, String) {
            let xs: Vec<f64> = sat.iter().map(f).collect();
            (median(&xs), reps_note(&xs, "saturated diagnostic reps"))
        };
        let diagnostics: [(&str, Pick); 14] = [
            ("runtime.frames_per_op", &|c| c.per_op(c.msgs)),
            ("runtime.syscall_writes_per_op", &|c| {
                c.per_op(c.syscall_writes)
            }),
            ("runtime.frames_per_syscall", &|c| {
                if c.syscall_writes == 0.0 {
                    0.0
                } else {
                    c.msgs / c.syscall_writes
                }
            }),
            ("runtime.threads_spawned", &|c| c.threads_spawned),
            ("runtime.user_cpu_us_per_op", &|c| c.per_op(c.user_s * 1e6)),
            ("runtime.sys_cpu_us_per_op", &|c| c.per_op(c.sys_s * 1e6)),
            ("runtime.fetch_rtt_mean_us", &|c| c.fetch_rtt_mean_us),
            ("runtime.fetch_rtt_worst_site_us", &|c| {
                c.fetch_rtt_worst_site_us
            }),
            ("runtime.apply_dwell_mean_us", &|c| c.apply_dwell_mean_us),
            ("runtime.max_pending", &|c| c.max_pending),
            ("runtime.mailbox_depth_peak", &|c| c.mailbox_depth_peak),
            ("runtime.sat_p50_us", &|c| c.p50_us),
            ("runtime.sat_p99_us", &|c| c.p99_us),
            ("runtime.rss_kb_per_kop", &|c| {
                c.rss_growth_kb / (c.ops / 1e3)
            }),
        ];
        for (name, f) in diagnostics {
            let (v, how) = both(f);
            out.put(name, v, how);
        }
        let (cpu_us_per_op, cpu_how) = both(&|c| c.per_op(c.cpu_s * 1e6));
        out.put(
            "runtime.accounted_cpu_share",
            layer_us_per_op / cpu_us_per_op,
            format!(
                "trace.layer_us_per_op {layer_us_per_op:.3} / saturated cpu_us_per_op {cpu_us_per_op:.3} ({cpu_how})"
            ),
        );

        let Some(paced) = self.cell(exe, &mut out, CellKind::Paced, seed, lens.paced) else {
            return out;
        };
        out.put(
            "runtime.paced_p99_us",
            paced.p99_us,
            format!("P2 estimate over {} samples, one rep", paced.ops),
        );
        out.put(
            "runtime.paced_ops_per_s",
            paced.ops_per_s(),
            format!(
                "{PACED_CLIENTS} clients/site, {} ms think",
                self.paced_think.as_secs_f64() * 1e3
            ),
        );
        let Some(c) = self.cell(
            exe,
            &mut out,
            CellKind::OtherFabric,
            seed,
            lens.differential,
        ) else {
            return out;
        };
        out.put(
            "runtime.other_fabric_ops_per_s",
            c.ops_per_s(),
            "same load on the other fabric (channel <-> tcp), one rep",
        );
        let Some(c) = self.cell(exe, &mut out, CellKind::OneWorker, seed, lens.differential) else {
            return out;
        };
        out.put(
            "runtime.w1_ops_per_s",
            c.ops_per_s(),
            "same load with workers = 1, one rep",
        );

        for label in SIM_PROTOCOL_LABELS {
            out.put(&format!("simnet.ops_per_s.{label}"), 0.0, BYPASSED);
        }
        out.put("simnet.ns_per_msg", 0.0, BYPASSED);
        out.put("simnet.heap_push_pop_ns", 0.0, BYPASSED);
        let share = out.failed_share();
        out.put(
            "failed_share",
            share,
            format!("{} failed of {} attempted", out.failed, out.attempted),
        );
        out
    }
}

/// Lengths of the traced run's extra serve phases, seconds.
struct DiagLengths {
    sat: f64,
    paced: f64,
    differential: f64,
}

impl DiagLengths {
    fn of(seconds: f64) -> DiagLengths {
        DiagLengths {
            sat: seconds * 0.12,
            paced: seconds * 0.15,
            differential: seconds * 0.10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_round_trip_and_reject_short_results() {
        let cell = Cell {
            ops: 40000.0,
            elapsed_s: 1.25,
            p50_us: 8.5,
            check_clean: 1.0,
            ..Cell::default()
        };
        assert_eq!(Cell::from_json(&cell.to_json()).unwrap(), cell);
        assert!(Cell::from_json("{\"ops\": 1}")
            .unwrap_err()
            .contains("lacks"));
        assert_eq!(CellKind::parse("other-fabric"), Some(CellKind::OtherFabric));
        assert_eq!(CellKind::parse("nope"), None);
    }

    #[test]
    fn every_declared_workload_has_an_implementation() {
        for (name, _) in crate::spec::WORKLOADS {
            assert!(
                name == crate::spec::SIM_WORKLOAD || find(name).is_some(),
                "{name} is declared but not implemented"
            );
        }
    }
}
