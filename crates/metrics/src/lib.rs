//! # causal-metrics
//!
//! Measurement infrastructure for the simulation experiments: per-kind
//! message counters and byte accumulators ([`MessageStats`]), one mergeable
//! log-linear [`Histogram`] for every sampled statistic (latencies, lags,
//! sizes: exact count, sum, min and max, quantiles within one sub-bucket),
//! per-run aggregates ([`RunMetrics`]) and plain-text / CSV table rendering
//! ([`Table`]).
//!
//! The paper's metrics (§V): total message count `m_c`, total and average
//! message meta-data size `m_s` per message class (SM / FM / RM), measured
//! after discarding the first 15 % of operation events as warm-up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#[macro_use]
mod fold;
pub mod latency;
pub mod registry;
pub mod run;
pub mod stats;
pub mod table;

pub use latency::{LatencySummary, OpLatency};
pub use registry::{SiteMetrics, SiteRegistry};
pub use run::RunMetrics;
pub use stats::{Histogram, MessageStats};
pub use table::Table;
