//! # causal-checker
//!
//! An independent causal-consistency verifier for recorded executions.
//!
//! The protocols in `causal-proto` claim to implement causal memory: all
//! write operations related by the causality order `≺co` (program order ∪
//! reads-from, transitively closed) must be applied at every common
//! destination in `≺co` order. This crate rebuilds `≺co` from an execution
//! [`History`] — without looking at any protocol metadata — by assigning
//! every write a vector clock, and then checks:
//!
//! * **FIFO**: each site applies one origin's writes in clock order;
//! * **delivery order**: no site applies `w2` before `w1` when
//!   `w1 ≺co w2` (the activation predicate's guarantee — a violation here
//!   is a protocol bug);
//! * **reads-from integrity**: every read returns a value actually written
//!   to that variable;
//! * **read freshness** (strict causal memory): a read never returns a value
//!   causally overwritten in the reader's past. Remote fetches in the
//!   partially replicated protocols *can* violate this by design (FM
//!   messages carry no causal context — see the paper's Table I), so these
//!   are counted separately as [`Violations::stale_reads`] rather than
//!   lumped in with protocol bugs.
//!
//! ## Algorithm and cost
//!
//! [`check`] runs in `O((ops + applies) · n)` steps — each of a read's `n`
//! steps being a binary search over one origin's writes on one variable —
//! and `O(writes · n)` memory (`u32`s) for an `n`-site history, so judging
//! a run costs less than producing it. Three ideas carry that:
//!
//! * **A flat clock arena addressed by `⟨origin, ordinal⟩`.** A valid
//!   history's write clock *is* the writer's per-process counter, so the
//!   `k`-th write of process `i` owns row `base[i] + k − 1` of one
//!   `Vec<u32>` (`n` entries per write) and a [`causal_types::WriteId`]
//!   finds its timestamp without hashing. Only writes recorded under any
//!   other id — each already reported as `unresolved` — go through a small
//!   map, so a hostile clock such as `u64::MAX` never sizes an allocation.
//! * **A `(variable, origin)` index for read freshness.** Per variable and
//!   origin, the clocks of that origin's writes on the variable, ascending.
//!   A read is stale iff some write on its variable in the reader's causal
//!   past causally follows the returned write; per origin only the
//!   *latest* write in the past needs testing — program order makes clocks
//!   monotone, so an earlier write of that origin overwrites the returned
//!   one only if the latest does, and when the latest *is* the returned
//!   write none of the earlier ones can. One binary search per origin per
//!   read, instead of a walk over every earlier write on the variable.
//! * **A frontier sweep for delivery order.** Per site, walk the apply
//!   sequence from its end keeping `next_clock[l]` = clock of the earliest
//!   write from origin `l` applied *after* the current position (∞ when
//!   none) — the per-origin applied frontier of Xiang–Vaidya's safety
//!   condition, seen from the other side. A write `w` was applied ahead of
//!   a causally preceding write from `l` exactly when
//!   `next_clock[l] ≤ vc(w)[l]`: one `n`-wide compare per apply, counted
//!   once per `(apply, origin)` pair.
//!
//! The sweep reads "earliest later apply" as "oldest missing write", which
//! is true when each origin's applies are clock-sorted, i.e. `fifo == 0`.
//! On such histories every count equals that of the quadratic test oracle
//! `reference` (a binary search per `(apply, origin)` over explicit
//! per-origin position lists, a walk over every earlier write per read);
//! on a history that breaks FIFO the `fifo` count and
//! [`Violations::protocol_clean`] still agree, and the other counts
//! describe a recording that is already rejected (likewise one that
//! records two writes under one id, or a write under clock 0: both
//! checkers count it `unresolved`, and only that is comparable). A
//! differential property
//! test holds the two to that contract on random valid and corrupted
//! histories, and [`bruteforce`] cross-checks both by explicit transitive
//! closure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod bruteforce;
#[cfg(test)]
mod differential;
pub mod history;
#[cfg(test)]
mod reference;
pub mod verify;

pub use bruteforce::delivery_inversions_bruteforce;
pub use history::{History, OpRecord};
pub use verify::{check, Violations};
