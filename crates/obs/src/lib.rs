//! # causal-obs
//!
//! Structured, sim-time-stamped tracing for the causal-consistency
//! simulator — a zero-cost-when-disabled observability layer.
//!
//! The paper's evaluation counts and sizes messages, but a count cannot say
//! *why* an update sat in a pending queue or which dependency held it
//! there. This crate defines the event vocabulary ([`TraceEvent`] /
//! [`EventKind`]) for exactly those questions: every event carries enough
//! identifiers (site, origin write clock, variable) that a post-hoc tool
//! can reconstruct per-write causal chains and re-verify them against
//! `causal-checker`.
//!
//! ## Design
//!
//! * A trace is a recorded output of a run, like its history: the
//!   simulator keeps an `Option<Vec<TraceEvent>>` and assembles an event
//!   only when a trace or a checker history is being recorded, so with
//!   neither an instrumented path costs one branch and allocates nothing.
//! * [`to_jsonl`] / [`parse_jsonl`] serialize the events losslessly as one
//!   JSON object per line with a deterministic field order, so traces of
//!   the same seed are byte-identical regardless of how many worker
//!   threads ran the sweep.
//!
//! The schema is declared once: each [`EventKind`] variant names its `ev`
//! tag and its fields in output order, and the `events!` macro generates
//! the enum, the encoder and the decoder from that one list. The codec is
//! hand-rolled — the workspace's vendored `serde` derives are inert
//! stand-ins (see `vendor/serde_derive`) — and the reader is strict: a
//! line must be a flat object whose keys are `t`, `site`, `ev` and exactly
//! the fields of its event, each once, comma-separated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use causal_types::{MsgKind, SimTime, SiteId, VarId, WriteId};
use std::fmt::Write as _;

/// Declares [`EventKind`] and its JSONL codec from one list: each variant
/// with its `ev` tag and its fields in the order they are written.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum EventKind {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal $({
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                })?,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq)]
        pub enum EventKind {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $ty, )* })?, )*
        }

        impl EventKind {
            /// Append `,"ev":"<tag>"` and the variant's fields to `out`.
            fn put(&self, out: &mut String) {
                match self {
                    $( EventKind::$variant $({ $($field),* })? => {
                        out.push_str(concat!(",\"ev\":\"", $tag, "\""));
                        $($( Field::put($field, stringify!($field), out); )*)?
                    } )*
                }
            }

            /// Take the `ev` tag and the fields of its variant out of `f`.
            fn take(f: &mut Fields) -> Result<Self, String> {
                Ok(match f.str("ev")? {
                    $( $tag => EventKind::$variant $({
                        $( $field: Field::take(f, stringify!($field))?, )*
                    })?, )*
                    other => return Err(format!("unknown event kind {other:?}")),
                })
            }
        }
    };
}

events! {
    /// What happened, with the identifiers needed to rebuild causal chains.
    ///
    /// `origin`/`clock` pairs name a write (`WriteId` semantics: the writer
    /// site and its per-site write counter), `dep_*` name the first dependency
    /// that held an update in the pending buffer.
    pub enum EventKind {
        /// The site issued a local write: `clock` is its new own-write counter.
        Write = "write" {
            /// Variable written.
            var: VarId,
            /// The writer's own-write clock (the write's identity with `site`).
            clock: u64,
        },
        /// A protocol message left this site.
        Send = "send" {
            /// Destination site.
            to: SiteId,
            /// SM / FM / RM.
            kind: MsgKind,
            /// Modeled metadata bytes of the message.
            bytes: u64,
            /// The carried write, for SM messages.
            writer: Option<WriteId>,
        },
        /// A protocol message reached this site's protocol layer.
        Deliver = "deliver" {
            /// Originating site.
            from: SiteId,
            /// SM / FM / RM.
            kind: MsgKind,
            /// The carried write, for SM messages.
            writer: Option<WriteId>,
        },
        /// The activation predicate rejected an arriving update: it parks in
        /// the pending buffer behind `dep_site`/`dep_clock`.
        Buffer = "buffer" {
            /// The buffered write's origin site.
            origin: SiteId,
            /// The buffered write's clock at its origin.
            clock: u64,
            /// Variable the buffered write targets.
            var: VarId,
            /// Origin of the first unsatisfied dependency.
            dep_site: SiteId,
            /// Required clock (or per-site write count) from `dep_site`.
            dep_clock: u64,
        },
        /// An update was applied to the local replica (the *release* of a
        /// buffered update, or an immediate apply with zero dwell).
        Apply = "apply" {
            /// The applied write's origin site.
            origin: SiteId,
            /// The applied write's clock at its origin.
            clock: u64,
            /// Variable written.
            var: VarId,
            /// Virtual nanoseconds between receipt and apply (0 when applied
            /// on arrival or for the writer's own local apply).
            dwell_ns: u64,
        },
        /// A read served from the local replica.
        ReadLocal = "read_local" {
            /// Variable read.
            var: VarId,
            /// The write whose value was returned (`None` for `⊥`).
            writer: Option<WriteId>,
        },
        /// A remote fetch (FM) was issued for a non-replicated variable.
        FetchIssue = "fetch_issue" {
            /// Variable fetched.
            var: VarId,
            /// The replica asked.
            target: SiteId,
            /// Issue counter (0 for the first issue; failovers and
            /// crash-recovery re-issues bump it).
            attempt: u32,
        },
        /// The remote fetch completed (RM arrived and matched).
        FetchDone = "fetch_done" {
            /// Variable fetched.
            var: VarId,
            /// The replica that answered.
            served_by: SiteId,
            /// Virtual nanoseconds from the latest issue to the return.
            rtt_ns: u64,
            /// The write whose value was served (`None` for `⊥`).
            writer: Option<WriteId>,
        },
        /// A blocked fetch failed over to the next candidate replica.
        FetchFailover = "fetch_failover" {
            /// Variable fetched.
            var: VarId,
            /// The new issue counter.
            attempt: u32,
        },
        /// A blocked fetch exhausted every candidate and was abandoned.
        DegradedRead = "degraded_read" {
            /// Variable the abandoned read targeted.
            var: VarId,
        },
        /// The reliable transport re-sent an unacked data frame.
        Retransmit = "retransmit" {
            /// Destination of the guarded channel.
            to: SiteId,
            /// Re-sent sequence number.
            seq: u64,
        },
        /// A retransmission timer was armed (exponential backoff).
        Backoff = "backoff" {
            /// Destination of the guarded channel.
            to: SiteId,
            /// Guarded sequence number.
            seq: u64,
            /// Retransmission attempt the timer guards.
            attempt: u32,
            /// Virtual nanoseconds until the timer fires.
            after_ns: u64,
        },
        /// A record was appended to the site's write-ahead log.
        WalAppend = "wal_append" {
            /// Modeled bytes of the record.
            bytes: u64,
        },
        /// The site's protocol state was checkpointed into its durable store.
        Checkpoint = "checkpoint" {
            /// Modeled bytes of the checkpoint image.
            bytes: u64,
        },
        /// The site fail-stopped, losing volatile state.
        Crash = "crash",
        /// The site restarted and began the sync handshake.
        Recover = "recover" {
            /// The new incarnation number.
            inc: u32,
        },
        /// Recovery completed; the site is back up.
        RecoveryDone = "recovery_done" {
            /// Virtual nanoseconds the recovery took.
            dur_ns: u64,
        },
        /// The recovering site asked a peer for its state.
        SyncReq = "sync_req" {
            /// The asked peer.
            to: SiteId,
        },
        /// A live site answered a recovering peer with a state snapshot.
        SyncResp = "sync_resp" {
            /// The recovering peer.
            to: SiteId,
            /// Modeled bytes of the snapshot shipped.
            bytes: u64,
        },
        /// A membership view change was installed at this site's simulator
        /// (attributed to the joining/leaving/migrated-to site).
        ViewChange = "view_change" {
            /// The newly installed epoch.
            epoch: u64,
            /// 1 when the install was forced at the view deadline instead of
            /// reached by quiescence, else 0.
            forced: u64,
        },
        /// The site left the membership (a graceful leave or a crash-leave)
        /// at its view change; the history is sealed there from this point.
        Leave = "leave",
        /// Opt-Track pruned its causality log (conditions 1/2 + PURGE).
        LogPrune = "log_prune" {
            /// Entries removed by this prune.
            removed: u64,
            /// Entries remaining afterwards.
            remaining: u64,
        },
        /// The global stable frontier advanced for writes of this site
        /// (every member has applied its writes through `clock`).
        FrontierAdvance = "frontier_advance" {
            /// The new stable clock for this origin.
            clock: u64,
        },
        /// A stability tick garbage-collected state behind this site's
        /// known-stable frontier.
        GcRun = "gc_run" {
            /// Causality-log entries reclaimed.
            log_entries: u64,
            /// Materialized `LastWriteOn` slots reclaimed.
            slots: u64,
        },
        /// The stuck-buffer watchdog flagged an update parked past the
        /// overdue deadline at this site.
        BufferedOverdue = "buffered_overdue" {
            /// The overdue write's origin site.
            origin: SiteId,
            /// The overdue write's clock at its origin.
            clock: u64,
        },
        /// Retained metadata crossed the soft cap: writers back off until the
        /// frontier catches up.
        Backpressure = "backpressure" {
            /// The retained-bytes estimate that tripped the cap.
            retained: u64,
        },
    }
}

/// One structured trace event: what happened, where, and when (virtual
/// time, nanoseconds).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event, nanoseconds.
    pub t: u64,
    /// The site the event happened at.
    pub site: SiteId,
    /// The event itself.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Convenience constructor from a [`SimTime`].
    pub fn at(now: SimTime, site: SiteId, kind: EventKind) -> Self {
        TraceEvent {
            t: now.as_nanos(),
            site,
            kind,
        }
    }
}

/// A field type of the schema: how it renders after its key, and how it
/// is taken back out of a parsed line.
trait Field: Sized {
    fn put(&self, key: &str, out: &mut String);
    fn take(f: &mut Fields, key: &str) -> Result<Self, String>;
}

/// Integer-valued field types, rendered as bare decimal numbers.
macro_rules! number_fields {
    ($($ty:ty: $get:expr, $make:expr;)*) => {$(
        impl Field for $ty {
            fn put(&self, key: &str, out: &mut String) {
                let _ = write!(out, ",\"{key}\":{}", $get(self));
            }
            fn take(f: &mut Fields, key: &str) -> Result<Self, String> {
                f.num(key).map($make)
            }
        }
    )*};
}

number_fields! {
    u64: |v: &u64| *v, |n: u64| n;
    u32: |v: &u32| *v, |n: u32| n;
    SiteId: |v: &SiteId| v.0, SiteId;
    VarId: |v: &VarId| v.0, VarId;
}

/// Each message kind's name in a trace.
const MSG_KINDS: [(MsgKind, &str); 3] = [
    (MsgKind::Sm, "sm"),
    (MsgKind::Fm, "fm"),
    (MsgKind::Rm, "rm"),
];

impl Field for MsgKind {
    fn put(&self, key: &str, out: &mut String) {
        let (_, name) = MSG_KINDS
            .iter()
            .find(|(k, _)| k == self)
            .expect("every kind named");
        let _ = write!(out, ",\"{key}\":\"{name}\"");
    }
    fn take(f: &mut Fields, key: &str) -> Result<Self, String> {
        let name = f.str(key)?;
        let found = MSG_KINDS.iter().find(|(_, n)| *n == name);
        found
            .map(|(k, _)| *k)
            .ok_or_else(|| format!("unknown message kind {name:?}"))
    }
}

/// A write identity is the `w_site`/`w_clock` pair, absent for `None`.
impl Field for Option<WriteId> {
    fn put(&self, _key: &str, out: &mut String) {
        if let Some(w) = self {
            w.site.put("w_site", out);
            w.clock.put("w_clock", out);
        }
    }
    fn take(f: &mut Fields, _key: &str) -> Result<Self, String> {
        if !f.has("w_site") && !f.has("w_clock") {
            return Ok(None);
        }
        let site = SiteId::take(f, "w_site")?;
        Ok(Some(WriteId::new(site, u64::take(f, "w_clock")?)))
    }
}

/// Render one event as a single-line JSON object with a fixed field order
/// (`t`, `site`, `ev`, then the variant's fields in declaration order).
pub fn event_to_json(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"t\":{},\"site\":{}", ev.t, ev.site.0);
    ev.kind.put(&mut s);
    s.push('}');
    s
}

/// Render a whole trace as JSONL (one event per line, trailing newline).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut s = String::with_capacity(events.len() * 96);
    for ev in events {
        s.push_str(&event_to_json(ev));
        s.push('\n');
    }
    s
}

/// A parsed line's `(key, raw value)` pairs. Decoding takes each field
/// out, so whatever is left is a key the event's schema does not have.
struct Fields<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Fields<'a> {
    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| *k == key)
    }

    fn take(&mut self, key: &str) -> Result<&'a str, String> {
        let i = self.0.iter().position(|(k, _)| *k == key);
        let i = i.ok_or_else(|| format!("missing field {key:?}"))?;
        Ok(self.0.remove(i).1)
    }

    fn num<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, String> {
        let raw = self.take(key)?;
        let n: u64 = raw
            .parse()
            .map_err(|_| format!("field {key:?} is not a number"))?;
        T::try_from(n).map_err(|_| format!("field {key:?} is out of range"))
    }

    fn str(&mut self, key: &str) -> Result<&'a str, String> {
        let raw = self.take(key)?;
        let s = raw.strip_prefix('"').and_then(|s| s.strip_suffix('"'));
        s.ok_or_else(|| format!("field {key:?} is not a string"))
    }
}

/// The body of the `"…"` string `s` starts with (no escapes).
fn quoted(s: &str) -> Option<&str> {
    let body = s.strip_prefix('"')?;
    Some(&body[..body.find('"')?])
}

/// Split one `{"k":v,...}` line into its fields. Only the flat subset the
/// schema emits is accepted — a value is a run of digits or a string
/// without escapes — and a missing comma or a repeated key is an error.
fn parse_object(line: &str) -> Result<Fields<'_>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'));
    let mut rest = inner.ok_or_else(|| format!("not a JSON object: {line:?}"))?;
    let mut fields = Fields(Vec::new());
    while !rest.is_empty() {
        if !fields.0.is_empty() {
            rest = rest
                .strip_prefix(',')
                .ok_or_else(|| format!("expected ',' at {rest:?}"))?;
        }
        let key = quoted(rest).ok_or_else(|| format!("expected key at {rest:?}"))?;
        let after = rest[key.len() + 2..].strip_prefix(':');
        let after = after.ok_or_else(|| format!("expected ':' after key {key:?}"))?;
        let len = match quoted(after) {
            Some(s) => s.len() + 2,
            None => after
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(after.len()),
        };
        if len == 0 {
            return Err(format!("expected value for {key:?} at {after:?}"));
        }
        if fields.has(key) {
            return Err(format!("duplicate key {key:?}"));
        }
        fields.0.push((key, &after[..len]));
        rest = &after[len..];
    }
    Ok(fields)
}

/// Parse one JSONL line back into a [`TraceEvent`].
pub fn event_from_json(line: &str) -> Result<TraceEvent, String> {
    let mut f = parse_object(line)?;
    let ev = TraceEvent {
        t: f.num("t")?,
        site: SiteId::take(&mut f, "site")?,
        kind: EventKind::take(&mut f)?,
    };
    match f.0.first() {
        Some((key, _)) => Err(format!("unexpected field {key:?}")),
        None => Ok(ev),
    }
}

/// Parse a whole JSONL trace. Blank lines are ignored; any malformed line
/// fails the parse with its line number.
pub fn parse_jsonl(s: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(event_from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<TraceEvent> {
        let w = Some(WriteId::new(SiteId(3), 17));
        let kinds = vec![
            EventKind::Write {
                var: VarId(7),
                clock: 4,
            },
            EventKind::Send {
                to: SiteId(2),
                kind: MsgKind::Sm,
                bytes: 120,
                writer: w,
            },
            EventKind::Send {
                to: SiteId(2),
                kind: MsgKind::Fm,
                bytes: 8,
                writer: None,
            },
            EventKind::Deliver {
                from: SiteId(1),
                kind: MsgKind::Rm,
                writer: None,
            },
            EventKind::Buffer {
                origin: SiteId(1),
                clock: 9,
                var: VarId(2),
                dep_site: SiteId(0),
                dep_clock: 8,
            },
            EventKind::Apply {
                origin: SiteId(1),
                clock: 9,
                var: VarId(2),
                dwell_ns: 1_500_000,
            },
            EventKind::ReadLocal {
                var: VarId(5),
                writer: w,
            },
            EventKind::ReadLocal {
                var: VarId(5),
                writer: None,
            },
            EventKind::FetchIssue {
                var: VarId(9),
                target: SiteId(4),
                attempt: 0,
            },
            EventKind::FetchDone {
                var: VarId(9),
                served_by: SiteId(4),
                rtt_ns: 40_000_000,
                writer: w,
            },
            EventKind::FetchFailover {
                var: VarId(9),
                attempt: 1,
            },
            EventKind::DegradedRead { var: VarId(9) },
            EventKind::Retransmit {
                to: SiteId(2),
                seq: 31,
            },
            EventKind::Backoff {
                to: SiteId(2),
                seq: 31,
                attempt: 2,
                after_ns: 80_000_000,
            },
            EventKind::WalAppend { bytes: 64 },
            EventKind::Checkpoint { bytes: 4096 },
            EventKind::Crash,
            EventKind::Recover { inc: 2 },
            EventKind::RecoveryDone { dur_ns: 55_000_000 },
            EventKind::SyncReq { to: SiteId(0) },
            EventKind::SyncResp {
                to: SiteId(3),
                bytes: 900,
            },
            EventKind::ViewChange {
                epoch: 2,
                forced: 1,
            },
            EventKind::Leave,
            EventKind::LogPrune {
                removed: 12,
                remaining: 3,
            },
            EventKind::FrontierAdvance { clock: 42 },
            EventKind::GcRun {
                log_entries: 18,
                slots: 6,
            },
            EventKind::BufferedOverdue {
                origin: SiteId(4),
                clock: 11,
            },
            EventKind::Backpressure { retained: 70_000 },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                t: 1000 * i as u64,
                site: SiteId((i % 5) as u16),
                kind,
            })
            .collect()
    }

    #[test]
    fn jsonl_roundtrips_every_event_kind() {
        let events = every_kind();
        let jsonl = to_jsonl(&events);
        let back = parse_jsonl(&jsonl).expect("parse");
        assert_eq!(back, events);
        // And the rendering is stable: a second render is byte-identical.
        assert_eq!(to_jsonl(&back), jsonl);
    }

    #[test]
    fn lines_are_single_flat_objects() {
        for line in to_jsonl(&every_kind()).lines() {
            assert!(line.starts_with("{\"t\":"), "line: {line}");
            assert!(line.ends_with('}'), "line: {line}");
            assert_eq!(line.matches('{').count(), 1, "flat object: {line}");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("{\"t\":1}\n").is_err()); // missing site/ev
        assert!(parse_jsonl("{\"t\":1,\"site\":0,\"ev\":\"nope\"}\n").is_err());
        let err = parse_jsonl("{\"t\":1,\"site\":0,\"ev\":\"crash\"}\nbad\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        for (line, why) in [
            ("{\"t\":1\"site\":0,\"ev\":\"crash\"}", "expected ','"),
            (
                "{\"t\":1,\"site\":0,\"site\":9,\"ev\":\"crash\"}",
                "duplicate key",
            ),
            (
                "{\"t\":1,\"site\":0,\"ev\":\"crash\",\"bogus\":7}",
                "unexpected field",
            ),
            (
                "{\"t\":1,\"site\":0,\"ev\":\"write\",\"var\":2,\"clock\":3,\"w_site\":1}",
                "unexpected field",
            ),
            ("{\"t\":1,\"site\":70000,\"ev\":\"crash\"}", "out of range"),
        ] {
            let err = parse_jsonl(line).unwrap_err();
            assert!(err.contains(why), "{line}: {err}");
        }
    }

    #[test]
    fn blank_lines_are_ignored() {
        let events = parse_jsonl("\n{\"t\":5,\"site\":1,\"ev\":\"crash\"}\n\n").expect("parse");
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            TraceEvent {
                t: 5,
                site: SiteId(1),
                kind: EventKind::Crash
            }
        );
    }
}
