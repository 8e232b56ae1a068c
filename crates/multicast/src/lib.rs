//! # causal-multicast
//!
//! A re-export shim, nothing more: per-destination batching lives in
//! [`causal_clocks::batch`]. The crate is kept only because the benchmark
//! under `bench/` still imports the batcher by this path, until ROADMAP
//! item 1(d) points it at `causal_clocks` directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub use causal_clocks::batch::{self, BatchPolicy, DestBatcher, Offer};
