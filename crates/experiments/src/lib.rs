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
//! | `repro falseco` | extension — false causality: HB-Track vs Full-Track delay under a slow WAN |
//! | `repro logsize` | extension — mean piggybacked records per SM, per protocol |
//! | `repro storage` | extension — per-site metadata storage at quiescence |
//! | `repro chaos` | extension — transport overhead vs. loss rate under fault injection |
//! | `repro durability` | extension — WAL/checkpoint recovery vs. full rebuild under overlapping crashes |
//! | `repro churn` | extension — membership cost and availability under view changes |
//! | `repro batching` | extension — bytes/op under per-destination update batching |
//! | `repro soak` | extension — bounded memory under stable-frontier GC |
//! | `repro serve` | extension — real-cluster throughput/latency benchmark + sim-vs-real parity |
//! | `repro scale` | extension — sharded worker-pool fabric over TCP at W = 1, 2, 4 |
//! | `repro all` | everything above, sharing simulation runs |
//!
//! [`analytic`] carries the closed-form complexity models of §V-A/V-B, and
//! [`sweep`] the multi-seed figure engine, whose per-invocation cell cache
//! lets figures that share parameter cells share runs; nothing persists
//! between invocations. The extension sweeps go beyond the paper — lossy
//! channels with crash injection ([`chaos`]), write-ahead-log recovery
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

pub use sweep::{CellStats, Scale, Sweep};
