//! # causal-clocks
//!
//! The causality-tracking data structures of the five bundled protocols —
//! the four compared in *"Performance of Causal Consistency Algorithms for
//! Partially Replicated Systems"* (Hsu & Kshemkalyani, 2016) and HB-Track:
//!
//! * [`MatrixClock`] — the `Write[n][n]` matrix of **Full-Track** and HB-Track
//!   (`Write[j][k]` = number of updates sent by process `j` to site `k` that
//!   causally happened before, under the `→co` relation);
//! * [`VectorClock`] — the size-`n` `Write` vector of **optP**
//!   (Baldoni et al.);
//! * [`DestSet`] — a compact set of destination sites, the `Dests` field of
//!   a KS log entry;
//! * [`DestBatcher`] — per-destination FIFO lanes with count/byte bounds
//!   and epoch-guarded window timers, the send-side structure the site
//!   driver parks updates in;
//! * [`Log`] / [`LogEntry`] — the **Opt-Track** local log
//!   `{⟨j, clock_j, Dests⟩}` with the paper's explicit and implicit pruning
//!   conditions (MERGE / PURGE, conditions 1 and 2 of §III-B);
//! * [`CrpLog`] — the **Opt-Track-CRP** log of `⟨j, clock_j⟩` 2-tuples.
//!
//! Every structure implements [`causal_types::MetaSized`] so the simulator
//! can account for piggybacked meta-data bytes exactly as the paper does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod batch;
pub mod crplog;
pub mod dests;
pub mod log;
#[cfg(test)]
mod log_differential;
pub mod matrix;
#[cfg(test)]
mod reference;
pub mod stability;
pub mod vector;

pub use batch::{BatchPolicy, DestBatcher, Offer};
pub use crplog::{CrpDelta, CrpLog};
pub use dests::DestSet;
pub use log::{Log, LogDelta, LogEntry, PruneConfig};
pub use matrix::{MatrixClock, MatrixDelta};
pub use stability::StabilityTracker;
pub use vector::{VectorClock, VectorDelta};
