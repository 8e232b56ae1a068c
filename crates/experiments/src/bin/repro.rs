//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro <fig1..fig8|table2|table3|table4|eq2|falseco|logsize|storage|chaos|durability|churn|batching|soak|serve|scale|all>
//!       [--quick] [--out <dir>] [--jobs <n>] [--no-cache] [--trace-dir <dir>]
//! ```
//!
//! `--quick` runs at a reduced scale (120 events/process, 2 seeds) for smoke
//! testing; the default is the paper's scale (600 events/process, 3 seeds).
//! With `--out`, each artifact is also written as CSV into the directory,
//! plus — for the figures — a gnuplot data file and script, so
//! `gnuplot results/fig1.gp` renders the actual plot.
//!
//! `--jobs <n>` executes the selection's simulation cells as per-seed run
//! units on `n` worker threads; the output is byte-identical to `--jobs 1`
//! (results are merged in deterministic order). Finished cells persist in a
//! content-addressed cache (`<out>/cache`, default `results/cache`) and are
//! reloaded bit-exactly on the next invocation; `--no-cache` disables both
//! reading and writing it.
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

use causal_experiments::figures;
use causal_experiments::{Scale, Sweep};
use causal_metrics::Table;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut subcommand = None;
    let mut scale = Scale::Paper;
    let mut out: Option<PathBuf> = None;
    let mut jobs = 1usize;
    let mut no_cache = false;
    let mut trace_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => {
                let dir = it
                    .next()
                    .unwrap_or_else(|| usage("missing value for --out"));
                out = Some(PathBuf::from(dir));
            }
            "--trace-dir" => {
                let dir = it
                    .next()
                    .unwrap_or_else(|| usage("missing value for --trace-dir"));
                trace_dir = Some(PathBuf::from(dir));
            }
            "--jobs" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("missing value for --jobs"));
                jobs = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad value for --jobs: {v}")));
                if jobs == 0 {
                    usage("--jobs must be at least 1");
                }
            }
            "--no-cache" => no_cache = true,
            "--help" | "-h" => usage(""),
            s if !s.starts_with('-') && subcommand.is_none() => {
                subcommand = Some(s.to_string());
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    let subcommand = subcommand.unwrap_or_else(|| usage("missing subcommand"));

    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).expect("create trace directory");
    }

    let mut sw = Sweep::new(scale);
    sw.set_jobs(jobs);
    if !no_cache {
        let root = out.clone().unwrap_or_else(|| PathBuf::from("results"));
        sw.set_disk_cache(Some(root.join("cache")));
    }

    // The third field marks generators that go through the sweep's cell
    // cache; only those benefit from (and are safe under) the planning
    // pass — the others run their own simulations directly. Boxed because
    // the chaos/durability closures capture the worker count and trace
    // directory.
    type Job = (&'static str, Box<dyn Fn(&mut Sweep) -> Table>, bool);
    let chaos_trace = trace_dir.clone();
    let dur_trace = trace_dir.clone();
    let jobs_table: Vec<Job> = vec![
        ("fig1", Box::new(figures::fig1), true),
        (
            "fig2",
            Box::new(|s: &mut Sweep| figures::fig2_4(s, 0.2)),
            true,
        ),
        (
            "fig3",
            Box::new(|s: &mut Sweep| figures::fig2_4(s, 0.5)),
            true,
        ),
        (
            "fig4",
            Box::new(|s: &mut Sweep| figures::fig2_4(s, 0.8)),
            true,
        ),
        ("table2", Box::new(figures::table2), true),
        ("fig5", Box::new(figures::fig5), true),
        (
            "fig6",
            Box::new(|s: &mut Sweep| figures::fig6_8(s, 0.2)),
            true,
        ),
        (
            "fig7",
            Box::new(|s: &mut Sweep| figures::fig6_8(s, 0.5)),
            true,
        ),
        (
            "fig8",
            Box::new(|s: &mut Sweep| figures::fig6_8(s, 0.8)),
            true,
        ),
        ("table3", Box::new(figures::table3), true),
        ("table4", Box::new(figures::table4), true),
        ("eq2", Box::new(figures::eq2), true),
        ("falseco", Box::new(figures::ext_false_causality), false),
        ("logsize", Box::new(figures::ext_log_size), true),
        ("storage", Box::new(figures::ext_storage), true),
        (
            "chaos",
            Box::new(move |s: &mut Sweep| {
                causal_experiments::chaos::chaos_overhead(
                    s.scale(),
                    10,
                    jobs,
                    chaos_trace.as_deref(),
                )
            }),
            false,
        ),
        (
            "durability",
            Box::new(move |s: &mut Sweep| {
                causal_experiments::durability::durability_sweep(
                    s.scale(),
                    10,
                    jobs,
                    dur_trace.as_deref(),
                )
            }),
            false,
        ),
        (
            "churn",
            Box::new(move |s: &mut Sweep| causal_experiments::churn::churn_sweep(s.scale(), jobs)),
            false,
        ),
        (
            "batching",
            Box::new(move |s: &mut Sweep| {
                causal_experiments::batching::batching_sweep(s.scale(), jobs)
            }),
            false,
        ),
        (
            "soak",
            Box::new(move |s: &mut Sweep| causal_experiments::soak::soak_sweep(s.scale(), jobs)),
            false,
        ),
        (
            "serve",
            Box::new(|s: &mut Sweep| causal_experiments::serve::serve_sweep(s.scale())),
            false,
        ),
        (
            "scale",
            Box::new(|s: &mut Sweep| causal_experiments::scale::scale_sweep(s.scale())),
            false,
        ),
    ];

    let selected: Vec<_> = if subcommand == "all" {
        jobs_table
    } else {
        let job = jobs_table
            .into_iter()
            .find(|(name, _, _)| *name == subcommand)
            .unwrap_or_else(|| usage(&format!("unknown subcommand: {subcommand}")));
        vec![job]
    };

    if jobs > 1 {
        // Dry pass: discover every cell the selection needs, then run all
        // of their per-seed units on the worker pool at once.
        eprintln!("[repro] planning cells for {jobs} workers …");
        sw.plan_begin();
        for (_, gen, uses_cells) in &selected {
            if *uses_cells {
                let _ = gen(&mut sw);
            }
        }
        let t0 = std::time::Instant::now();
        sw.plan_execute();
        eprintln!("[repro] cell pool drained in {:.1?}\n", t0.elapsed());
    }

    for (name, gen, _) in selected {
        eprintln!("[repro] generating {name} …");
        let t0 = std::time::Instant::now();
        let table = gen(&mut sw);
        println!("{}", table.render());
        if let Some(dir) = &out {
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

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro <fig1..fig8|table2|table3|table4|eq2|falseco|logsize|storage|chaos|durability|churn|batching|soak|serve|scale|all> \
         [--quick] [--out <dir>] [--jobs <n>] [--no-cache] [--trace-dir <dir>]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
