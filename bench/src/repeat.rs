//! `run.sh --repeat`: compare two sets of end-to-end runs of the same
//! commit, metric by metric, against the benchmark's own bounds.

use crate::json::{self, quote, Value};
use crate::spec::{END_TO_END, WORKLOADS};
use std::fmt::Write as _;
use std::path::Path;

/// Metrics that are pure functions of the seed: two runs must agree to
/// the last digit, whatever their bound allows.
const EXACT: [(&str, &str); 2] = [
    ("sim-paper-n40", "msgs_per_op"),
    ("sim-paper-n40", "meta_bytes_per_op"),
];

fn metric(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("result has no metric `{name}`"))
}

fn load(dir: &Path, set: &str, workload: &str) -> Result<Value, String> {
    let path = dir.join(format!("{set}-{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{}: the run was not correct", path.display()));
    }
    Ok(v)
}

/// Read `A-<workload>.json` and `B-<workload>.json` (result lines) from
/// `dir`, write `dir/../repeat.json`, and return whether every metric
/// repeated within its bound. A metric whose two values differ by more
/// than its bound is `unresolved`: the benchmark cannot tell a change of
/// that size from its own noise.
pub fn compare(dir: &Path, out_path: &Path) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut all_within = true;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}  status",
        "workload", "metric", "run A", "run B", "diff", "bound"
    );
    for (workload, _) in WORKLOADS {
        let a = load(dir, "A", workload)?;
        let b = load(dir, "B", workload)?;
        for m in &END_TO_END {
            let (va, vb) = (metric(&a, m.name)?, metric(&b, m.name)?);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let rel = (va - vb).abs() / ((va + vb) / 2.0);
            let exact = EXACT.contains(&(workload, m.name));
            let status = if exact && va != vb {
                "not_exact"
            } else if rel > bound {
                "unresolved"
            } else {
                "within_bound"
            };
            all_within &= status == "within_bound";
            println!(
                "{workload:<18} {:<18} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%  {status}",
                m.name,
                rel * 100.0,
                bound * 100.0
            );
            rows.push(format!(
                "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"a\": {va}, \"b\": {vb}, \"relative_difference\": {rel}, \"bound\": {bound}, \"exact\": {exact}, \"status\": {}}}",
                quote(workload),
                quote(m.name),
                quote(m.unit),
                quote(status)
            ));
        }
    }
    let mut doc = String::from("{\n");
    let _ = writeln!(doc, "  \"all_within_bounds\": {all_within},");
    let _ = writeln!(doc, "  \"comparisons\": [\n{}\n  ]\n}}", rows.join(",\n"));
    std::fs::write(out_path, doc).map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("wrote {}", out_path.display());
    Ok(all_within)
}
