//! # causal-memory
//!
//! The distributed-shared-memory layer: replica placement strategies and
//! [`LocalCluster`], a synchronous in-process harness that drives one
//! `SiteDriver` per site without a network (used by unit tests, examples
//! and the consistency checker's deterministic scenarios).
//!
//! The paper's system model (§II-B): `n` sites, `q` variables, each site
//! `s_i` holds a subset `X_i ⊆ Q`; with replication factor `p` and even
//! placement, `|X_i| ≈ p·q/n`. [`Placement`] provides the paper's even
//! placement plus hashed and clustered alternatives (used by the
//! `ablation_placement` bench), and full replication for the CRP/optP
//! protocols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod cluster;
pub mod dynamic;
pub mod placement;

pub use cluster::LocalCluster;
pub use dynamic::DynamicPlacement;
pub use placement::{Placement, PlacementKind};
