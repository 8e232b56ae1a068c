//! `layerbench`: the repository's benchmark. The `layerbench` binary runs
//! one workload per invocation and prints every metric by name with its
//! unit, then one JSON result line; `run.sh` builds it and is the command
//! `BENCHMARK.json` names. See README.md for what is measured and why.

pub mod host;
pub mod json;
pub mod layers;
pub mod probes;
pub mod repeat;
pub mod replay;
pub mod report;
pub mod serve_wl;
pub mod sim_wl;
pub mod span;
pub mod spec;
