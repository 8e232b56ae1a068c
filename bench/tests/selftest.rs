//! Self-tests that cross module lines (`run.sh --selftest`): the contract
//! file against the code's name lists, the build profile against the
//! root's, and short real runs whose outputs must carry exactly the
//! declared metrics and well-formed span files.

use layerbench::json::{self, Value};
use layerbench::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use layerbench::{report, serve_wl, sim_wl, span};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The real binary: the serve workloads start it once per deployment.
fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_layerbench"))
}

/// A scratch directory under `bench/out/` (git-ignored), one per test so
/// parallel tests share no file.
fn scratch(test: &str) -> PathBuf {
    let dir = bench_dir().join("out").join(format!("selftest-{test}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn keys(v: &Value) -> BTreeSet<&str> {
    v.as_obj().unwrap().keys().map(String::as_str).collect()
}

fn str_of<'a>(v: &'a Value, k: &str) -> &'a str {
    v.get(k)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string `{k}`"))
}

#[test]
fn benchmark_json_lists_exactly_the_codes_names() {
    let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        keys(&doc),
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["bench"]);

    let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(w), BTreeSet::from(["name", "why"]));
        assert_eq!((str_of(w, "name"), str_of(w, "why")), (name, why));
    }

    let check = |section: &str, specs: &[MetricSpec], bounded: bool| {
        let listed = doc.get(section).and_then(Value::as_arr).unwrap();
        assert_eq!(listed.len(), specs.len(), "{section}: count");
        for (m, s) in listed.iter().zip(specs) {
            let mut want = BTreeSet::from(["name", "unit", "better"]);
            if bounded {
                want.insert("bound");
            }
            assert_eq!(keys(m), want, "{section}: keys of {}", s.name);
            assert_eq!(str_of(m, "name"), s.name);
            assert_eq!(str_of(m, "unit"), s.unit, "{}", s.name);
            assert_eq!(str_of(m, "better"), s.better, "{}", s.name);
            assert_eq!(
                m.get("bound").and_then(Value::as_f64),
                s.bound,
                "{}",
                s.name
            );
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);
}

/// The lines of a manifest's `[profile.release]` table, comments and
/// blanks dropped.
fn release_profile(manifest: &Path) -> BTreeSet<String> {
    let text = std::fs::read_to_string(manifest).unwrap();
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect()
}

#[test]
fn release_profile_equals_the_roots() {
    let root = release_profile(&bench_dir().join("../Cargo.toml"));
    let ours = release_profile(&bench_dir().join("Cargo.toml"));
    assert!(
        !root.is_empty(),
        "root manifest has a [profile.release] table"
    );
    assert_eq!(
        ours, root,
        "bench/ must build what `cargo build --release` ships"
    );
}

/// The result line must carry exactly `specs`' names, in order, with
/// their units.
fn assert_result_matches(outcome: &report::Outcome, specs: &[MetricSpec]) {
    assert!(
        outcome.correct,
        "run was not correct: {:?}",
        outcome.problems
    );
    let line = report::result_line(outcome, specs).unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(
        keys(&v),
        BTreeSet::from(["correct", "attempted", "failed", "metrics"])
    );
    assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = v.get("metrics").and_then(Value::as_obj).unwrap();
    let want: BTreeSet<&str> = specs.iter().map(|s| s.name).collect();
    assert_eq!(
        metrics.keys().map(String::as_str).collect::<BTreeSet<_>>(),
        want
    );
    for s in specs {
        assert_eq!(keys(&metrics[s.name]), BTreeSet::from(["value", "unit"]));
        assert_eq!(str_of(&metrics[s.name], "unit"), s.unit);
    }
    // No reading the lists do not declare.
    assert_eq!(outcome.readings.len(), specs.len());
}

/// A span file must parse, nest, and tie each operation together.
fn assert_span_file_well_formed(path: &Path, expect_wire: bool) {
    let spans = span::parse_jsonl(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert!(!spans.is_empty());
    // Parents exist and precede, children lie inside parents and share
    // their op_id, self times are non-negative.
    span::self_times(&spans).unwrap();
    let has_wire = spans.iter().any(|s| s.name.starts_with("wire."));
    assert_eq!(has_wire, expect_wire, "wire.* spans in {}", path.display());
    assert!(spans.iter().any(|s| s.name == "proto.on_message"));
    // An operation's write and the deliveries it caused share an op_id.
    let write = spans.iter().find(|s| s.name == "proto.write").unwrap();
    assert!(spans
        .iter()
        .any(|s| s.name == "proto.on_message" && s.op_id == write.op_id));
}

#[test]
fn sim_outputs_match_the_name_lists() {
    let dir = scratch("sim");
    assert_result_matches(&sim_wl::run_end_to_end(5, 0.01), &END_TO_END);
    let trace = dir.join("trace.jsonl");
    assert_result_matches(&sim_wl::run_trace(5, &trace), &PER_LAYER);
    assert_span_file_well_formed(&trace, false);
}

#[test]
fn serve_outputs_match_the_name_lists() {
    let dir = scratch("serve");
    for w in &serve_wl::SERVE_WORKLOADS {
        let tcp = w.name.starts_with("serve-tcp");
        if w.name == "serve-tcp-read" {
            continue; // same code path as serve-tcp-write, other w_rate
        }
        assert_result_matches(&w.run_end_to_end(exe(), 5, 0.5), &END_TO_END);
        let trace = dir.join(format!("trace-{}.jsonl", w.name));
        assert_result_matches(&w.run_trace(exe(), 5, 0.5, &trace), &PER_LAYER);
        assert_span_file_well_formed(&trace, tcp);
    }
}

#[test]
fn two_sim_passes_give_bit_equal_counts() {
    use causal_workload::{generate, WorkloadParams};
    let schedule = generate(&WorkloadParams::paper(40, 0.5, 9));
    let mut out = report::Outcome::new();
    let a = sim_wl::pass(&mut out, 9, &schedule);
    let b = sim_wl::pass(&mut out, 9, &schedule);
    assert!(out.correct, "{:?}", out.problems);
    assert_eq!(a.counts, b.counts);
}
