//! # causal-repro
//!
//! Reproduction of *"Performance of Causal Consistency Algorithms for
//! Partially Replicated Systems"* (Hsu & Kshemkalyani, 2016) as a Rust
//! workspace. This facade crate re-exports every layer, from the clocks to
//! the experiment harness; see `README.md` for a guided tour and
//! `DESIGN.md` for the architecture. `LocalCluster`, the synchronous
//! harness below, drives one `SiteDriver` per site, as the simulator and
//! the threaded runtime do.
//!
//! ```
//! use causal_repro::prelude::*;
//! use std::sync::Arc;
//!
//! // A 10-site partially replicated causal memory running Opt-Track.
//! let placement = Arc::new(Placement::paper_partial(10).unwrap());
//! let mut cluster = LocalCluster::new(ProtocolKind::OptTrack, placement, Default::default());
//! let w = cluster.write(SiteId(0), VarId(7), 42);
//! let v = cluster.read(SiteId(9), VarId(7)).unwrap();
//! assert_eq!(v.writer, w);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub use causal_checker as checker;
pub use causal_clocks as clocks;
pub use causal_experiments as experiments;
pub use causal_memory as memory;
pub use causal_metrics as metrics;
pub use causal_proto as proto;
pub use causal_runtime as runtime;
pub use causal_simnet as simnet;
pub use causal_types as types;
pub use causal_workload as workload;

/// The most commonly used items, one `use` away.
pub mod prelude {
    pub use causal_checker::{check, History, Violations};
    pub use causal_memory::{LocalCluster, Placement, PlacementKind};
    pub use causal_proto::{ProtocolConfig, ProtocolKind};
    pub use causal_runtime::{replay, RuntimeConfig, ServeTransport};
    pub use causal_simnet::{run, CrashWindow, DurabilityPlan, FaultPlan, LatencyModel, SimConfig};
    pub use causal_types::{MsgKind, SimTime, SiteId, SizeModel, VarId, VersionedValue, WriteId};
    pub use causal_workload::{VarDistribution, WorkloadParams};
}
