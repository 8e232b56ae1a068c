//! `repro` — regenerate every table and figure of the paper.
//!
//! `repro --help` lists the subcommands and every flag.
//!
//! `--quick` runs at a reduced scale (120 events/process, 2 seeds) for smoke
//! testing; the default is the paper's scale (600 events/process, 3 seeds).
//! With `--out`, each artifact is also written as CSV into the directory,
//! plus — for the figures — a gnuplot data file and script, so
//! `gnuplot results/fig1.gp` renders the actual plot.
//!
//! `--jobs <n>` executes the selection's simulation cells as per-seed run
//! units on `n` worker threads; the output is byte-identical to `--jobs 1`
//! (results are merged in deterministic order). Cells are shared between
//! the artifacts of one invocation and simulated afresh by the next.
//!
//! An `--out` or `--trace-dir` that cannot be created (say, a path under a
//! regular file) is an `error: <path>: …` and exit 2 before anything runs.
//!
//! `--trace-dir <dir>` writes one structured JSONL trace per chaos /
//! durability run into `dir` (see `docs/OBSERVABILITY.md`); traces are
//! byte-identical across `--jobs` settings.
//!
//! `serve` deploys the five protocols as live threaded clusters (in-process
//! channels and loopback TCP) under the closed-loop load generator: it
//! first replays the simulator's workload on the real TCP cluster and
//! asserts message-count/meta-byte parity against simnet's prediction for
//! the same seed, then prints the throughput/latency benchmark table
//! (which `--out` also writes as `serve.csv`).

use causal_experiments::cli::{self, die, Flag};
use causal_experiments::{batching, chaos, churn, durability, figures, flags, scale, serve, soak};
use causal_experiments::{Scale, Sweep};
use causal_metrics::Table;
use std::path::PathBuf;

/// The invocation: which artifact, and how to produce it.
struct Args {
    scale: Scale,
    out: Option<PathBuf>,
    jobs: usize,
    trace_dir: Option<PathBuf>,
}

const FLAGS: &[Flag<Args>] = flags! {
    "--quick" "" "reduced scale (120 events/process, 2 seeds) for smoke tests" => |a, _| a.scale = Scale::Quick;
    "--out" "<dir>" "also write each artifact as CSV, and each figure as gnuplot data and script" => |a, v| a.out = Some(v.into());
    "--jobs" "<n>" "run the simulation cells on n worker threads; the output is the same" => |a, v| a.jobs = v.parse()?;
    "--trace-dir" "<dir>" "write one JSONL trace per chaos / durability run" => |a, v| a.trace_dir = Some(v.into());
};

/// An artifact: its subcommand, its generator, and whether the generator
/// goes through the sweep's cells — only those benefit from (and are
/// safe under) the planning pass; the others run their own simulations.
type Job = (&'static str, fn(&mut Sweep, &Args) -> Table, bool);

const JOBS: &[Job] = &[
    ("fig1", |s, _| figures::fig1(s), true),
    ("fig2", |s, _| figures::fig2_4(s, 0.2), true),
    ("fig3", |s, _| figures::fig2_4(s, 0.5), true),
    ("fig4", |s, _| figures::fig2_4(s, 0.8), true),
    ("table2", |s, _| figures::table2(s), true),
    ("fig5", |s, _| figures::fig5(s), true),
    ("fig6", |s, _| figures::fig6_8(s, 0.2), true),
    ("fig7", |s, _| figures::fig6_8(s, 0.5), true),
    ("fig8", |s, _| figures::fig6_8(s, 0.8), true),
    ("table3", |s, _| figures::table3(s), true),
    ("table4", |s, _| figures::table4(s), true),
    ("eq2", |s, _| figures::eq2(s), true),
    ("falseco", |s, _| figures::ext_false_causality(s), false),
    ("logsize", |s, _| figures::ext_log_size(s), true),
    ("storage", |s, _| figures::ext_storage(s), true),
    (
        "chaos",
        |s, a| chaos::chaos_overhead(s.scale(), 10, a.jobs, a.trace_dir.as_deref()),
        false,
    ),
    (
        "durability",
        |s, a| durability::durability_sweep(s.scale(), 10, a.jobs, a.trace_dir.as_deref()),
        false,
    ),
    ("churn", |s, a| churn::churn_sweep(s.scale(), a.jobs), false),
    (
        "batching",
        |s, a| batching::batching_sweep(s.scale(), a.jobs),
        false,
    ),
    ("soak", |s, a| soak::soak_sweep(s.scale(), a.jobs), false),
    ("serve", |s, _| serve::serve_sweep(s.scale()), false),
    ("scale", |s, _| scale::scale_sweep(s.scale()), false),
];

fn main() {
    let mut a = Args {
        scale: Scale::Paper,
        out: None,
        jobs: 1,
        trace_dir: None,
    };
    let names: Vec<&str> = JOBS.iter().map(|(name, _, _)| *name).collect();
    let usage = format!("repro <{}|all> [flags]", names.join("|"));
    let mut subcommand = None;
    cli::parse(usage, FLAGS, &mut a, |s| {
        let first = subcommand.is_none();
        subcommand.get_or_insert_with(|| s.to_string());
        first
    });
    if a.jobs == 0 {
        die("--jobs must be at least 1");
    }
    let subcommand = subcommand.unwrap_or_else(|| die("missing subcommand"));
    for dir in a.out.iter().chain(&a.trace_dir) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("{}: {e}", dir.display()));
        }
    }
    let selected: Vec<&Job> = match subcommand.as_str() {
        "all" => JOBS.iter().collect(),
        name => match JOBS.iter().find(|(job, _, _)| *job == name) {
            Some(job) => vec![job],
            None => die(&format!("unknown subcommand: {name}")),
        },
    };

    let mut sw = Sweep::new(a.scale);
    sw.set_jobs(a.jobs);
    if a.jobs > 1 {
        // Dry pass: discover every cell the selection needs, then run all
        // of their per-seed units on the worker pool at once.
        eprintln!("[repro] planning cells for {} workers …", a.jobs);
        sw.plan_begin();
        for (_, gen, uses_cells) in &selected {
            if *uses_cells {
                let _ = gen(&mut sw, &a);
            }
        }
        let t0 = std::time::Instant::now();
        sw.plan_execute();
        eprintln!("[repro] cell pool drained in {:.1?}\n", t0.elapsed());
    }

    for (name, gen, _) in selected {
        eprintln!("[repro] generating {name} …");
        let t0 = std::time::Instant::now();
        let table = gen(&mut sw, &a);
        println!("{}", table.render());
        if let Some(dir) = &a.out {
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, table.to_csv()).expect("write CSV");
            eprintln!("[repro] wrote {}", path.display());
            if name.starts_with("fig") {
                write_gnuplot(dir, name, &table);
            }
        }
        eprintln!("[repro] {name} done in {:.1?}\n", t0.elapsed());
    }
}

/// Emit `<name>.dat` + `<name>.gp` for a figure whose first column is `n`
/// and whose remaining columns are numeric series.
fn write_gnuplot(dir: &std::path::Path, name: &str, table: &Table) {
    let csv = table.to_csv();
    let mut lines = csv.lines();
    let header: Vec<String> = lines
        .next()
        .unwrap_or_default()
        .split(',')
        .map(|s| s.replace(' ', "_"))
        .collect();
    let mut dat = format!("# {}\n", header.join(" "));
    for line in lines {
        dat.push_str(&line.replace(',', " "));
        dat.push('\n');
    }
    let dat_path = dir.join(format!("{name}.dat"));
    std::fs::write(&dat_path, dat).expect("write dat");

    let mut gp = String::new();
    gp.push_str(&format!(
        "set terminal svg size 720,480\nset output '{name}.svg'\nset xlabel 'n (processes)'\nset key left top\nset grid\n"
    ));
    let plots: Vec<String> = header
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, h)| {
            format!(
                "'{name}.dat' using 1:{} with linespoints title '{}'",
                i + 1,
                h.replace('_', " ")
            )
        })
        .collect();
    gp.push_str(&format!("plot {}\n", plots.join(", \\\n     ")));
    let gp_path = dir.join(format!("{name}.gp"));
    std::fs::write(&gp_path, gp).expect("write gp");
    eprintln!(
        "[repro] wrote {} and {}",
        dat_path.display(),
        gp_path.display()
    );
}
