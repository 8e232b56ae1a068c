//! # causal-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§V). Each experiment has a library entry point in
//! [`figures`] (returning render-ready [`causal_metrics::Table`]s and raw
//! CSV series) and a CLI subcommand in the `repro` binary:
//!
//! | Subcommand | Paper artifact |
//! |------------|----------------|
//! | `repro fig1` | Fig. 1 — total meta-data ratio, Opt-Track / Full-Track |
//! | `repro fig2` / `fig3` / `fig4` | Figs. 2–4 — average SM/RM/FM sizes, partial replication, per write rate |
//! | `repro table2` | Table II — average SM and RM overhead (KB) |
//! | `repro fig5` | Fig. 5 — total SM ratio, Opt-Track-CRP / optP |
//! | `repro fig6` / `fig7` / `fig8` | Figs. 6–8 — average SM sizes, full replication |
//! | `repro table3` | Table III — average SM overhead for Opt-Track-CRP vs optP |
//! | `repro table4` | Table IV — total message count, partial vs full replication |
//! | `repro eq2` | Eq. (1)/(2) — analytic crossover `w_rate > 2/(n+1)` and its empirical check |
//! | `repro chaos` | extension — transport overhead vs. loss rate under fault injection |
//! | `repro batching` | extension — bytes/op under per-destination update batching |
//! | `repro durability` | extension — WAL/checkpoint recovery vs. full rebuild under overlapping crashes |
//! | `repro serve` | extension — real-cluster throughput/latency benchmark + sim-vs-real parity |
//! | `repro scale` | extension — sharded worker-pool fabric over TCP at W = 1, 2, 4 |
//! | `repro all` | everything above, sharing simulation runs |
//!
//! [`analytic`] carries the closed-form complexity models of §V-A/V-B, and
//! [`sweep`] the multi-seed simulation driver with per-invocation caching so
//! figures that share parameter cells share runs. [`chaos`] goes beyond the
//! paper: it re-runs the protocols over lossy channels with crash injection
//! and measures what the (there-free) TCP guarantees cost. [`durability`]
//! goes further still, comparing write-ahead-log + checkpoint recovery
//! against the full peer rebuild under correlated failures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod analytic;
pub mod batching;
pub mod cache;
pub mod chaos;
pub mod churn;
pub mod durability;
pub mod figures;
pub mod pool;
pub mod scale;
pub mod serve;
pub mod soak;
pub mod sweep;
pub mod trace;

pub use sweep::{CellStats, Mode, Scale, Sweep};
