//! CLI contract tests for the `repro`, `simulate` and `serve` binaries:
//! argument validation exits with code 2 and a usage message, and parallel
//! runs produce byte-identical artifacts.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("spawn simulate")
}

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("spawn serve")
}

/// `simulate` with `args`, killed and failed if it outlives `limit`.
fn simulate_within(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn simulate");
    let deadline = Instant::now() + limit;
    while child.try_wait().expect("poll simulate").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("simulate {args:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect simulate")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn repro_rejects_jobs_zero() {
    let out = repro(&["fig1", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs must be at least 1"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn repro_rejects_non_numeric_jobs() {
    let out = repro(&["fig1", "--jobs", "many"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad value for --jobs"));
}

#[test]
fn repro_rejects_unknown_subcommand() {
    let out = repro(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand: fig99"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn repro_rejects_missing_subcommand_and_unknown_flag() {
    let out = repro(&["--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing subcommand"));

    for flag in ["--frobnicate", "--no-cache"] {
        let out = repro(&["fig1", flag]);
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown argument: {flag}")), "{err}");
    }
}

/// An `--out` or `--trace-dir` that cannot be created is a clean error
/// before any run: the path is named and the exit code is 2, not a panic.
#[test]
fn repro_rejects_an_unusable_out_path() {
    let dir = tmp_dir("out-file");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("plain-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let under = file.join("sub");
    for (flag, path) in [("--out", &file), ("--out", &under), ("--trace-dir", &under)] {
        let path = path.to_str().unwrap();
        let run = repro(&["eq2", "--quick", flag, path]);
        assert_eq!(run.status.code(), Some(2), "{flag} {path}");
        let err = String::from_utf8_lossy(&run.stderr);
        assert!(err.starts_with(&format!("error: {path}: ")), "{err}");
        assert!(run.stdout.is_empty(), "nothing runs before the error");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--help` prints the synopsis and every flag of the binary's table to
/// stdout and exits 0, the same in all three binaries.
#[test]
fn help_exits_zero_and_lists_the_flags() {
    let cases = [
        (repro(&["--help"]), "--trace-dir"),
        (serve(&["--help"]), "--batch-ms"),
        (simulate(&["--help"]), "--stability-heartbeat"),
    ];
    for (out, flag) in cases {
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}: {stdout}");
        assert!(stdout.starts_with("usage:"), "{stdout}");
        assert!(stdout.contains(flag), "{stdout}");
    }
}

/// `repro --help` lists each artifact beside where the paper shows it.
#[test]
fn repro_help_lists_the_artifacts() {
    let out = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (name, paper) in [
        ("fig1", "Fig. 1"),
        ("table4", "Table IV"),
        ("eq2", "Eq. (2)"),
        ("soak", "extension"),
        ("all", "every artifact"),
    ] {
        let row = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name));
        assert!(row.is_some_and(|l| l.contains(paper)), "{name}: {stdout}");
    }
}

/// The parallel engine's acceptance property, end to end through the
/// binary: stdout and the written CSV of `--jobs 4` are byte-identical to
/// `--jobs 1`.
#[test]
fn repro_csv_identical_across_jobs() {
    let d1 = tmp_dir("seq");
    let d4 = tmp_dir("par");
    let seq = repro(&[
        "logsize",
        "--quick",
        "--jobs",
        "1",
        "--out",
        d1.to_str().unwrap(),
    ]);
    assert!(seq.status.success(), "sequential run failed");
    let par = repro(&[
        "logsize",
        "--quick",
        "--jobs",
        "4",
        "--out",
        d4.to_str().unwrap(),
    ]);
    assert!(par.status.success(), "parallel run failed");
    assert_eq!(
        seq.stdout, par.stdout,
        "rendered table must be byte-identical across job counts"
    );
    let c1 = std::fs::read(d1.join("logsize.csv")).expect("sequential CSV");
    let c4 = std::fs::read(d4.join("logsize.csv")).expect("parallel CSV");
    assert_eq!(c1, c4, "CSV must be byte-identical across job counts");
    // Nothing persists beside the artifact.
    for dir in [&d1, &d4] {
        let names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["logsize.csv"], "{}", dir.display());
    }
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d4);
}

/// Byte-identity guard against committed goldens: the quick-scale sweep
/// tables (paper figure 1, chaos, durability) must reproduce the committed
/// output exactly. These goldens were captured before the indexed-log /
/// copy-on-write overhaul, so any numeric drift in them means a protocol
/// semantics change, not a refactor — regenerate them only with a
/// documented simulation-behaviour change.
#[test]
fn repro_quick_tables_match_committed_goldens() {
    let cases: [(&str, &[&str]); 3] = [
        ("fig1_quick.txt", &["fig1", "--quick"]),
        ("chaos_quick.txt", &["chaos", "--quick"]),
        ("durability_quick.txt", &["durability", "--quick"]),
    ];
    for (golden_name, args) in cases {
        let out = repro(args);
        assert!(out.status.success(), "{args:?} failed");
        let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(golden_name);
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        // Sweep tables go to stdout; progress lines go to stderr. Only
        // trailing-newline count is normalized — every table byte counts.
        assert_eq!(
            stdout.trim_end_matches('\n'),
            golden.trim_end_matches('\n'),
            "{golden_name}: output diverged from the committed golden"
        );
    }
}

/// The tracing acceptance property, end to end through the binary: the
/// chaos sweep's table and every JSONL trace of `--jobs 4` are
/// byte-identical to `--jobs 1`.
#[test]
fn repro_chaos_traces_identical_across_jobs() {
    let run = |jobs: &str, tag: &str| {
        let traces = tmp_dir(tag);
        std::fs::create_dir_all(&traces).unwrap();
        let out = repro(&[
            "chaos",
            "--quick",
            "--jobs",
            jobs,
            "--trace-dir",
            traces.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "chaos run (--jobs {jobs}) failed");
        (out.stdout, traces)
    };
    let (seq_out, seq_dir) = run("1", "chaos-seq");
    let (par_out, par_dir) = run("4", "chaos-par");
    assert_eq!(
        seq_out, par_out,
        "chaos table must be byte-identical across job counts"
    );
    let mut names: Vec<_> = std::fs::read_dir(&seq_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "traces must be written");
    for name in names {
        let a = std::fs::read(seq_dir.join(&name)).unwrap();
        let b = std::fs::read(par_dir.join(&name)).unwrap();
        assert!(!a.is_empty(), "{name:?}: empty trace");
        assert_eq!(a, b, "{name:?}: traces diverge across job counts");
    }
    let _ = std::fs::remove_dir_all(&seq_dir);
    let _ = std::fs::remove_dir_all(&par_dir);
}

/// `--trace` + `--verify-trace` close the loop on a single run: the trace
/// is written as JSONL and its reconstructed causal chains pass the
/// checker.
#[test]
fn simulate_writes_and_verifies_a_trace() {
    let dir = tmp_dir("sim-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");
    let out = simulate(&[
        "--protocol",
        "opt-track",
        "--n",
        "6",
        "--events",
        "40",
        "--trace",
        path.to_str().unwrap(),
        "--verify-trace",
    ]);
    assert!(out.status.success(), "traced run failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pass the checker"), "stdout: {stdout}");
    let text = std::fs::read_to_string(&path).expect("trace written");
    assert!(!text.is_empty(), "trace must not be empty");
    assert!(
        text.lines().all(|l| l.starts_with("{\"t\":")),
        "every line must be a JSON object led by the timestamp"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let out = simulate(&["--seeds", "2", "--verify-trace"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("incompatible"));
}

#[test]
fn simulate_rejects_bad_parallel_flags() {
    let out = simulate(&["--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs must be at least 1"));

    let out = simulate(&["--seeds", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seeds must be at least 1"));

    let out = simulate(&["--seeds", "2", "--check"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("incompatible"));
}

/// Out-of-range values exit 2 before any run, with a message naming the
/// flag: no panic in the workload generator or the latency sampler, and
/// no run over a channel that drops every frame and so never quiesces.
#[test]
fn simulate_rejects_out_of_range_values_naming_the_flag() {
    let cases: [(&[&str], &str, &str); 10] = [
        (&["--faults", "1.0"], "--faults", "drop < 1"),
        (&["--faults", "0.1,1.5"], "--faults", "dup <= 1"),
        (&["--w", "1.5"], "--w", "w_rate must be in [0, 1], got 1.5"),
        (&["--w", "-1"], "--w", "w_rate must be in [0, 1], got -1"),
        (&["--q", "0"], "--q", "q must be positive"),
        (&["--zipf", "-2"], "--zipf", "zipf theta must be"),
        (&["--latency", "5:1"], "--latency", "minimum exceeds"),
        (&["--partition", "600:200"], "--partition", "is empty"),
        (&["--p", "0"], "--p", "replication factor"),
        (&["--crash", "70000:1:2"], "--crash", "too large"),
    ];
    for (bad, flag, reason) in cases {
        let args = [&["--n", "4", "--events", "20"], bad].concat();
        let out = simulate_within(&args, Duration::from_secs(10));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: stderr: {err}");
        assert!(err.starts_with("error: "), "{bad:?}: stderr: {err}");
        assert!(err.contains(flag), "{bad:?} must name {flag}: {err}");
        assert!(err.contains(reason), "{bad:?}: stderr: {err}");
    }
}

/// `serve` checks the values its cluster would otherwise panic on or
/// refuse — a zero flush window, no variables to access, more sites than a
/// destination set holds — and the ones that would serve nothing, before
/// deploying anything.
#[test]
fn serve_rejects_out_of_range_values_naming_the_flag() {
    let cases: [(&[&str], &str, &str); 7] = [
        (&["--batch-ms", "0"], "--batch-ms", "must be positive"),
        (&["--q", "0"], "--q", "must be positive"),
        (&["--q", "65537"], "--q", "must be at most 65536"),
        (&["--n", "300"], "--n", "n must be in 1..="),
        (&["--clients", "0"], "--clients", "must be positive"),
        (&["--ops", "0"], "--ops", "must be positive"),
        (&["--duration", "0"], "--duration", "must be positive"),
    ];
    for (bad, flag, reason) in cases {
        let args = [&["--protocol", "optp", "--n", "3", "--ops", "2"], bad].concat();
        let out = serve(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: stderr: {err}");
        assert!(err.starts_with("error: "), "{bad:?}: stderr: {err}");
        assert!(err.contains(flag), "{bad:?} must name {flag}: {err}");
        assert!(err.contains(reason), "{bad:?}: stderr: {err}");
    }
}

/// A combination of flags the simulator cannot run exits 2 with the rule
/// it breaks, before anything runs: a deadline no transport would arm, more
/// variables than the dense per-site state holds, a zero period, a
/// checkpoint with nowhere to live, a site crashing while already down.
#[test]
fn simulate_refuses_a_config_the_simulator_cannot_run() {
    let cases: [(&[&str], &str); 6] = [
        (&["--fetch-deadline", "10"], "needs the reliable transport"),
        (&["--q", "65537"], "q must be at most 65536"),
        (
            &["--fetch-deadline", "0", "--faults", "0.01"],
            "must be positive",
        ),
        (&["--stability-heartbeat", "0"], "must be positive"),
        (&["--checkpoint-interval", "100"], "needs the WAL"),
        (&["--crash", "1:100:500", "--crash", "1:300:900"], "overlap"),
    ];
    for (bad, reason) in cases {
        let args = [&["--n", "4", "--events", "20"], bad].concat();
        let out = simulate_within(&args, Duration::from_secs(10));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: stderr: {err}");
        assert!(err.starts_with("error: "), "{bad:?}: stderr: {err}");
        assert!(err.contains(reason), "{bad:?}: stderr: {err}");
        assert!(
            out.stdout.is_empty(),
            "{bad:?}: nothing runs before the error"
        );
    }
}

/// A stability tuning flag implies `--stability`: the run tracks
/// stability and prints its section.
#[test]
fn simulate_tuning_flag_implies_stability() {
    let out = simulate(&["--n", "4", "--events", "20", "--no-gc"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("\nstability       lag"), "stdout: {stdout}");
    assert!(
        stdout.contains("gc 0 log entries + 0 slots"),
        "stdout: {stdout}"
    );
}

/// Under `--runtime` no flag is silently ignored: one only the simulator
/// honours — the runtime has no latency model — is refused by name.
#[test]
fn simulate_runtime_refuses_latency_as_simulator_only() {
    let out = simulate(&["--runtime", "channel", "--latency", "5"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.starts_with("error: --latency"), "{err}");
    assert!(err.contains("simulator-only"), "{err}");
}

/// `--runtime` honours `--dump-schedule`: it writes the schedule the
/// runtime replays, the simulator's byte for byte.
#[test]
fn simulate_runtime_dumps_the_schedule_it_replays() {
    let dir = tmp_dir("runtime-schedule");
    std::fs::create_dir_all(&dir).unwrap();
    let dump = |runtime: &[&str], name: &str| {
        let path = dir.join(name);
        let path = path.to_str().unwrap();
        let args = [
            &["--n", "4", "--events", "10", "--dump-schedule", path],
            runtime,
        ]
        .concat();
        let out = simulate(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {err}");
        std::fs::read(path).unwrap_or_else(|e| panic!("{args:?} wrote no schedule: {e}"))
    };
    let simulated = dump(&[], "sim.csv");
    assert!(!simulated.is_empty());
    assert_eq!(dump(&["--runtime", "channel"], "runtime.csv"), simulated);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--churn` validation: malformed specs and causally impossible plans
/// exit 2 before the run starts, naming the offending event.
#[test]
fn simulate_rejects_bad_churn_plans() {
    // Parse error: not an event spec at all.
    let out = simulate(&["--churn", "explode:3@5s"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown kind"));

    // Parse error: missing time suffix.
    let out = simulate(&["--churn", "join:3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing @TIME"));

    // A join scheduled after the same site's leave: rejected as a re-join
    // (the site starts in the view, drains out, and may not come back).
    let out = simulate(&["--n", "6", "--churn", "leave:5@2s;join:5@5s"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("may join at most once"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Migration to a site that has already left the view.
    let out = simulate(&["--n", "6", "--churn", "leave:2@5s;migrate:1:0->2@8s"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a member"));

    // Out-of-range ids against the configured system size.
    let out = simulate(&["--n", "4", "--churn", "join:9@5s"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("out-of-range"));
}

/// A valid churn spec runs end to end, reports membership metrics, and
/// passes the causal checker.
#[test]
fn simulate_runs_a_churned_workload_clean() {
    let out = simulate(&[
        "--protocol",
        "opt-track",
        "--n",
        "6",
        "--events",
        "40",
        "--churn",
        "join:5@5s;leave:1@30s",
        "--check",
    ]);
    assert!(out.status.success(), "churned run failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("membership"), "stdout: {stdout}");
    assert!(stdout.contains("1 joins, 1 leaves"), "stdout: {stdout}");
    assert!(stdout.contains("causally consistent"), "stdout: {stdout}");
}

#[test]
fn simulate_multi_seed_runs_in_seed_order() {
    let run = |jobs: &str| {
        let out = simulate(&[
            "--n", "4", "--events", "40", "--seeds", "3", "--jobs", jobs, "--seed", "7",
        ]);
        assert!(out.status.success(), "multi-seed run failed");
        String::from_utf8(out.stdout).expect("utf8")
    };
    let seq = run("1");
    let par = run("3");
    assert!(seq.contains("seeds           7..9"), "stdout: {seq}");
    // Everything below the wall-time line is deterministic and ordered.
    let tail = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("seed "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        tail(&seq),
        tail(&par),
        "per-seed output must not depend on --jobs"
    );
    assert!(seq.contains("seed 7"), "stdout: {seq}");
    assert!(seq.contains("seed 9"), "stdout: {seq}");
}
