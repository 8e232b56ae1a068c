//! # causal-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§V) and the extensions beyond it. Each one is a row
//! of [`artifacts::ARTIFACTS`] — its `repro` subcommand, its place in the
//! paper, the simulation cells it reads and the values the paper prints —
//! and `repro --help` lists them. Its generator returns a render-ready
//! [`causal_metrics::Table`], which `repro` prints and writes as CSV.
//!
//! [`analytic`] carries the closed-form complexity models of §V-A/V-B,
//! [`figures`] the generators of the paper's tables and figures, and
//! [`sweep`] the multi-seed cells they read: the selected artifacts' cells
//! run once, in one pass, and nothing persists between invocations. The
//! extension sweeps go beyond the paper — lossy channels with crash
//! injection ([`chaos`]), write-ahead-log recovery
//! under correlated failures ([`durability`]), dynamic membership
//! ([`churn`]), update batching ([`batching`]) and long-run memory
//! ([`soak`]). Every simulated run, the figures' per-seed units included,
//! goes through the one checked, traced run loop in [`harness`], which
//! also fixes every run's placement by its protocol. The three binaries
//! (`simulate`, `serve`, `repro`) read their command lines through
//! [`cli`], each from one table of its flags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod analytic;
pub mod artifacts;
pub mod batching;
pub mod chaos;
pub mod churn;
pub mod cli;
pub mod durability;
pub mod figures;
pub mod harness;
pub mod pool;
pub mod scale;
pub mod serve;
pub mod soak;
pub mod sweep;
pub mod trace;

pub use sweep::{CellStats, Ctx, Scale};
