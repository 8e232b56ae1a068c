//! Readings, the statistics applied to them, and the two renderings of a
//! run: the by-name table for people and the one-line JSON result.

use crate::host::Provenance;
use crate::json::quote;
use crate::spec::MetricSpec;
use std::fmt::Write as _;

/// One measured metric with how it was obtained (reps, spread, sample
/// count), for the table and the detail file.
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub detail: String,
}

/// Everything one workload run produced.
pub struct Outcome {
    pub correct: bool,
    /// Client operations issued over every phase.
    pub attempted: u64,
    /// Issued but not completed, plus degraded reads.
    pub failed: u64,
    pub readings: Vec<Reading>,
    /// Why `correct` is false.
    pub problems: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Self::new()
    }
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            readings: Vec::new(),
            problems: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64, detail: impl Into<String>) {
        self.readings.push(Reading {
            name: name.to_string(),
            value,
            detail: detail.into(),
        });
    }

    /// Record a correctness failure; the run goes on so the table still
    /// shows what was measured, and exits non-zero at the end.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.problems.push(why.into());
    }

    /// Count a phase's operations: `issued` attempted, of which
    /// `completed` finished and `degraded` finished empty-handed.
    pub fn count_ops(&mut self, issued: u64, completed: u64, degraded: u64) {
        self.attempted += issued;
        self.failed += issued.saturating_sub(completed) + degraded;
    }

    pub fn failed_share(&self) -> f64 {
        if self.correct {
            self.failed as f64 / self.attempted.max(1) as f64
        } else {
            1.0
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The smallest of a series of times. Used for the simulator only: it is
/// single-threaded and deterministic, so everything that separates two runs
/// of the same cell is interference from the host (its other tenants'
/// bursts on the shared cache and memory bus), which only ever slows a run.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of nothing");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The mean of the middle of a rep series: the lowest and the highest
/// quarter (rounded down; one rep each of seven) are left out. A host state
/// lasts about as long as a run, so a run often straddles two levels and
/// the median then lands on either; the mean of the middle reps lands
/// between them, and one outlying rep still cannot move it.
pub fn midmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "midmean of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// "median of k (min .. max)" for a rep series.
pub fn reps_note(xs: &[f64], what: &str) -> String {
    stat_note("median", xs, what)
}

/// "<stat> of k (min .. max)" for a rep series.
pub fn stat_note(stat: &str, xs: &[f64], what: &str) -> String {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{stat} of {} {what} (min {lo:.4} .. max {hi:.4}; all {xs:.4?})",
        xs.len()
    )
}

/// What identifies a run in its outputs.
pub struct RunContext<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub phases: String,
    pub host: &'a Provenance,
}

fn header(ctx: &RunContext) -> String {
    format!(
        "workload {}  seed {}  seconds {}  trace {}\n\
         host     available_parallelism {}{}  kernel {}  {}  commit {}\n\
         phases   {}\n",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.host.available_parallelism,
        if ctx.host.degraded_host() {
            " (degraded_host: fewer cores than workers)"
        } else {
            ""
        },
        ctx.host.kernel,
        ctx.host.rustc,
        ctx.host.commit,
        ctx.phases,
    )
}

/// The readings in `specs` order. A spec without a reading is a bug in
/// the workload code, reported as an error rather than printed as zero.
fn ordered<'a>(
    outcome: &'a Outcome,
    specs: &'a [MetricSpec],
) -> Result<Vec<(&'a MetricSpec, &'a Reading)>, String> {
    specs
        .iter()
        .map(|s| {
            let r = outcome
                .readings
                .iter()
                .find(|r| r.name == s.name)
                .ok_or_else(|| format!("no reading for metric `{}`", s.name))?;
            if r.value.is_finite() {
                Ok((s, r))
            } else {
                Err(format!("metric `{}` is not a finite number", s.name))
            }
        })
        .collect()
}

/// The table printed before the result line.
pub fn table(outcome: &Outcome, specs: &[MetricSpec], ctx: &RunContext) -> Result<String, String> {
    let mut out = header(ctx);
    for (s, r) in ordered(outcome, specs)? {
        let _ = writeln!(
            out,
            "{:<32} {:>16.4} {:<7} {}",
            s.name, r.value, s.unit, r.detail
        );
    }
    let _ = writeln!(
        out,
        "ops_attempted {}  ops_failed {}  failed_share {}  correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed_share(),
        outcome.correct
    );
    for p in &outcome.problems {
        let _ = writeln!(out, "INCORRECT: {p}");
    }
    Ok(out)
}

/// The one-line result the driver reads. Values print with every digit
/// `f64` holds.
pub fn result_line(outcome: &Outcome, specs: &[MetricSpec]) -> Result<String, String> {
    let metrics: Vec<String> = ordered(outcome, specs)?
        .into_iter()
        .map(|(s, r)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(s.name),
                r.value,
                quote(s.unit)
            )
        })
        .collect();
    // An incorrect run counts every attempted operation as failed.
    let failed = if outcome.correct {
        outcome.failed
    } else {
        outcome.attempted.max(1)
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        failed,
        metrics.join(", ")
    ))
}

/// The detail file: the result plus provenance and how each number was
/// obtained.
pub fn detail_json(
    outcome: &Outcome,
    specs: &[MetricSpec],
    ctx: &RunContext,
) -> Result<String, String> {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": {},", quote(ctx.workload));
    let _ = writeln!(out, "  \"seed\": {},", ctx.seed);
    let _ = writeln!(out, "  \"seconds\": {},", ctx.seconds);
    let _ = writeln!(out, "  \"trace\": {},", ctx.trace);
    let _ = writeln!(out, "  \"phases\": {},", quote(&ctx.phases));
    let _ = writeln!(
        out,
        "  \"host\": {{\"available_parallelism\": {}, \"degraded_host\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}}},",
        ctx.host.available_parallelism,
        ctx.host.degraded_host(),
        quote(&ctx.host.kernel),
        quote(&ctx.host.rustc),
        quote(&ctx.host.commit)
    );
    let _ = writeln!(out, "  \"correct\": {},", outcome.correct);
    let _ = writeln!(out, "  \"ops_attempted\": {},", outcome.attempted);
    let _ = writeln!(out, "  \"ops_failed\": {},", outcome.failed);
    let _ = writeln!(out, "  \"failed_share\": {},", outcome.failed_share());
    let problems: Vec<String> = outcome.problems.iter().map(|p| quote(p)).collect();
    let _ = writeln!(out, "  \"problems\": [{}],", problems.join(", "));
    out.push_str("  \"metrics\": {\n");
    let rows: Vec<String> = ordered(outcome, specs)?
        .into_iter()
        .map(|(s, r)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"how\": {}, \"note\": {}}}",
                quote(s.name),
                r.value,
                quote(s.unit),
                quote(s.better),
                quote(&r.detail),
                quote(s.note)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  }\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn midmean_leaves_out_the_lowest_and_highest_of_seven() {
        assert_eq!(midmean(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0]), 4.6);
        assert_eq!(midmean(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn an_incorrect_run_fails_every_attempted_op() {
        let mut o = Outcome::new();
        o.count_ops(10, 10, 0);
        o.put("x", 1.5, "");
        o.fail("checker");
        let specs = [MetricSpec {
            name: "x",
            unit: "s",
            better: "lower",
            bound: None,
            note: "",
        }];
        let line = result_line(&o, &specs).unwrap();
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("failed").and_then(|f| f.as_f64()), Some(10.0));
        assert_eq!(o.failed_share(), 1.0);
    }
}
