//! Command line of the benchmark: run a workload, run one deployment of a
//! workload (`--cell`, the child side of `serve_wl`), or compare two
//! result sets (`--compare`).

use layerbench::report::{self, Outcome, RunContext};
use layerbench::serve_wl::{self, CellKind};
use layerbench::{host, repeat, sim_wl, spec};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: layerbench --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--out <dir>]\n       layerbench --compare <dir-with-A-and-B-results> --out <dir>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    compare: Option<PathBuf>,
    cell: Option<CellKind>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 24.0,
        trace: false,
        out: PathBuf::from("bench/out"),
        compare: None,
        cell: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        i += 1;
        if flag == "--trace" {
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            match argv.get(i).map(String::as_str) {
                Some("0") => (args.trace, i) = (false, i + 1),
                Some("1") => (args.trace, i) = (true, i + 1),
                _ => args.trace = true,
            }
            continue;
        }
        let value = argv.get(i).ok_or_else(|| format!("{flag} needs a value"))?;
        i += 1;
        match flag {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--out" => args.out = PathBuf::from(value),
            "--compare" => args.compare = Some(PathBuf::from(value)),
            "--cell" => {
                args.cell =
                    Some(CellKind::parse(value).ok_or_else(|| format!("bad --cell `{value}`"))?)
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn unknown_workload(name: &str) -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
    format!("unknown workload `{name}` (have {names:?})")
}

/// Run one workload and return its outcome with the phase description.
fn run_workload(name: &str, args: &Args) -> Result<(Outcome, String), String> {
    let trace_path = args.out.join(format!("trace-{name}.jsonl"));
    if name == spec::SIM_WORKLOAD {
        let outcome = if args.trace {
            sim_wl::run_trace(args.seed, &trace_path)
        } else {
            sim_wl::run_end_to_end(args.seed, args.seconds)
        };
        return Ok((outcome, sim_wl::phases_note(args.seconds, args.trace)));
    }
    let w = serve_wl::find(name).ok_or_else(|| unknown_workload(name))?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let outcome = if args.trace {
        w.run_trace(&exe, args.seed, args.seconds, &trace_path)
    } else {
        w.run_end_to_end(&exe, args.seed, args.seconds)
    };
    Ok((outcome, w.phases_note(args.seconds, args.trace)))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let name = args.workload.as_deref();
    if let Some(kind) = args.cell {
        let name = name.ok_or(USAGE)?;
        let w = serve_wl::find(name).ok_or_else(|| unknown_workload(name))?;
        println!("{}", w.run_cell(kind, args.seed, args.seconds)?.to_json());
        return Ok(true);
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    if let Some(dir) = &args.compare {
        return repeat::compare(dir, &args.out.join("repeat.json"));
    }
    let name = name.ok_or(USAGE)?;
    if args.seconds <= 0.0 {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    let host = host::Provenance::collect();
    let (outcome, phases) = run_workload(name, &args)?;
    let ctx = RunContext {
        workload: name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        phases,
        host: &host,
    };
    let specs: &[spec::MetricSpec] = if args.trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    if outcome.readings.len() < specs.len() {
        // The workload stopped early; there is no complete result to print.
        return Err(format!("{name} failed: {}", outcome.problems.join("; ")));
    }
    print!("{}", report::table(&outcome, specs, &ctx)?);
    let suffix = if args.trace { "-trace" } else { "" };
    let detail_path = args.out.join(format!("{name}{suffix}.json"));
    std::fs::write(&detail_path, report::detail_json(&outcome, specs, &ctx)?)
        .map_err(|e| format!("{}: {e}", detail_path.display()))?;
    println!("{}", report::result_line(&outcome, specs)?);
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::from(2)
        }
    }
}
