//! `repro` — regenerate every table and figure of the paper.
//!
//! Each subcommand is a row of `causal_experiments::artifacts::ARTIFACTS`,
//! which names the cells the artifact reads; `repro --help` lists the rows
//! and every flag. `repro all` makes every artifact. The selection's cells
//! are simulated first, in one pass, as per-seed run units on `--jobs <n>`
//! worker threads, and each artifact is then read off them; the output is
//! byte-identical whatever the job count (results are merged in
//! deterministic order). Nothing persists between invocations.
//!
//! `--quick` runs at a reduced scale (120 events/process, 2 seeds) for smoke
//! testing; the default is the paper's scale (600 events/process, 3 seeds).
//! With `--out`, each artifact is also written as CSV into the directory,
//! plus — for the figures — a gnuplot data file and script, so
//! `gnuplot results/fig1.gp` renders the actual plot.
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

use causal_experiments::artifacts::{Artifact, Kind, ARTIFACTS};
use causal_experiments::cli::{self, die, Flag};
use causal_experiments::{flags, Ctx, Scale};
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

fn main() {
    let mut a = Args {
        scale: Scale::Paper,
        out: None,
        jobs: 1,
        trace_dir: None,
    };
    let mut operands: Vec<(&str, &str)> = ARTIFACTS.iter().map(|x| (x.name, x.paper)).collect();
    operands.push(("all", "every artifact above"));
    let mut subcommand = None;
    let usage = "repro <artifact|all> [flags]".to_string();
    cli::parse(usage, &operands, FLAGS, &mut a, |s| {
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
    let selected: Vec<&Artifact> = match subcommand.as_str() {
        "all" => ARTIFACTS.iter().collect(),
        name => match ARTIFACTS.iter().find(|x| x.name == name) {
            Some(x) => vec![x],
            None => die(&format!("unknown subcommand: {name}")),
        },
    };

    let cells: Vec<_> = selected.iter().flat_map(|x| (x.cells)()).collect();
    let t0 = std::time::Instant::now();
    let ctx = Ctx::new(a.scale, a.jobs, a.trace_dir, &cells);
    if !cells.is_empty() {
        eprintln!("[repro] cell pool drained in {:.1?}", t0.elapsed());
    }
    for x in selected {
        eprintln!("[repro] generating {} …", x.name);
        let t0 = std::time::Instant::now();
        let table = (x.table)(&ctx, x.printed);
        println!("{}", table.render());
        if let Some(dir) = &a.out {
            let path = dir.join(format!("{}.csv", x.name));
            std::fs::write(&path, table.to_csv()).expect("write CSV");
            eprintln!("[repro] wrote {}", path.display());
            if x.kind == Kind::Figure {
                write_gnuplot(dir, x.name, &table);
            }
        }
        eprintln!("[repro] {} done in {:.1?}\n", x.name, t0.elapsed());
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
