//! Spans around calls into the layers, recorded from the benchmark's own
//! files (nothing inside the program is instrumented).
//!
//! A span is `{id, name, start_ns, end_ns, parent, op_id}`. `parent` is
//! the enclosing call, so children lie inside their parent in time and a
//! span's self time is its duration minus what its children cover; what
//! ties an operation's write to the encodes, decodes and `on_message`s it
//! caused on other sites is the shared `op_id`. Spans stay in memory and
//! are written out once, after the measured loop has ended.

use crate::json::{self, quote, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// Returned by a disabled recorder; never a valid index.
const OFF: SpanId = usize::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Borrowed while recording (no allocation per span), owned when read
    /// back from a file.
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op_id: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            // Room for a whole replay, so recording never stops to move
            // what it has already recorded.
            spans: Vec::with_capacity(if enabled { 1 << 19 } else { 0 }),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span. With the recorder off this is one branch.
    #[inline]
    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        if !self.enabled {
            return OFF;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns: start_ns,
            parent: parent.filter(|p| *p != OFF),
            op_id,
        });
        self.spans.len() - 1
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id != OFF {
            self.spans[id].end_ns = self.now_ns();
        }
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub self_ns: u64,
}

/// Self time of every span: duration minus the time its children cover.
/// Children of one parent never overlap (one thread, nested calls), so
/// their cover is the sum of their durations. Errors name the first span
/// that breaks the nesting rules.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut child_cover = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ends before it starts"));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .ok_or_else(|| format!("span {i} names a parent {p} that does not exist"))?;
            if p >= i {
                return Err(format!("span {i} names a later span {p} as its parent"));
            }
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!("span {i} is not inside its parent {p}"));
            }
            if s.op_id != parent.op_id {
                return Err(format!("span {i} and its parent {p} differ in op_id"));
            }
            child_cover[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(&child_cover)
        .enumerate()
        .map(|(i, (s, cover))| {
            (s.end_ns - s.start_ns)
                .checked_sub(*cover)
                .ok_or_else(|| format!("span {i}: children cover more than its duration"))
        })
        .collect()
}

/// Call count and summed self time per span name.
pub fn totals_by_name(spans: &[Span]) -> Result<BTreeMap<&str, NameTotals>, String> {
    let selfs = self_times(spans)?;
    let mut out: BTreeMap<&str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.as_ref()).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
    }
    Ok(out)
}

/// One span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}",
            quote(&s.name),
            s.start_ns,
            s.end_ns,
            s.op_id
        );
    }
    out
}

/// Parse a span file, checking that ids run 0, 1, 2, … in line order.
pub fn parse_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .enumerate()
        .map(|(line_no, line)| {
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", line_no + 1))?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(Value::as_f64)
                    .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                    .map(|x| x as u64)
                    .ok_or_else(|| format!("line {}: `{k}` is not a whole number", line_no + 1))
            };
            if num("id")? != line_no as u64 {
                return Err(format!("line {}: id out of sequence", line_no + 1));
            }
            let parent = match v.get("parent") {
                Some(Value::Null) => None,
                Some(_) => Some(num("parent")? as usize),
                None => return Err(format!("line {}: no `parent`", line_no + 1)),
            };
            Ok(Span {
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {}: no `name`", line_no + 1))?
                    .to_string()
                    .into(),
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
                parent,
                op_id: num("op_id")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name: name.into(),
            start_ns: a,
            end_ns: b,
            parent,
            op_id: op,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover() {
        let spans = [
            span("root", 0, 100, None, 1),
            span("a", 10, 30, Some(0), 1),
            span("b", 40, 90, Some(0), 1),
            span("c", 50, 60, Some(2), 1),
        ];
        assert_eq!(self_times(&spans).unwrap(), vec![30, 20, 40, 10]);
        let t = totals_by_name(&spans).unwrap();
        assert_eq!(
            t["b"],
            NameTotals {
                calls: 1,
                self_ns: 40
            }
        );
    }

    #[test]
    fn nesting_violations_are_named() {
        let escape = [span("root", 0, 10, None, 1), span("a", 5, 20, Some(0), 1)];
        assert!(self_times(&escape).unwrap_err().contains("not inside"));
        let orphan = [span("a", 0, 1, Some(7), 1)];
        assert!(self_times(&orphan).unwrap_err().contains("does not exist"));
        let other_op = [span("root", 0, 10, None, 1), span("a", 1, 2, Some(0), 2)];
        assert!(self_times(&other_op).unwrap_err().contains("op_id"));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let s = r.start("x", None, 0);
        let c = r.start("y", Some(s), 0);
        r.end(c);
        r.end(s);
        assert!(r.spans.is_empty());
    }

    #[test]
    fn files_round_trip() {
        let mut r = Recorder::new(true);
        let root = r.start("replay.op", None, 3);
        let w = r.start("proto.write", Some(root), 3);
        r.end(w);
        r.end(root);
        let back = parse_jsonl(&to_jsonl(&r.spans)).unwrap();
        assert_eq!(back, r.spans);
        assert!(self_times(&back).is_ok());
    }
}
