//! # causal-types
//!
//! Foundational identifier, value, time, message and size-model types shared
//! by every crate in the `causal-partial` workspace.
//!
//! The workspace reproduces *"Performance of Causal Consistency Algorithms
//! for Partially Replicated Systems"* (Hsu & Kshemkalyani, 2016). The paper's
//! system model is a distributed shared memory of `q` variables spread over
//! `n` sites; each site hosts one application process. This crate defines the
//! vocabulary for that model:
//!
//! * [`SiteId`] / [`VarId`] — site (= process) and shared-variable identifiers;
//! * [`WriteId`] — globally unique identifier of a write operation
//!   (`⟨site, clock⟩`, where `clock` is the writer's local write counter);
//! * [`VersionedValue`] — the value stored in a replica, tagged with the
//!   [`WriteId`] that produced it (used by the consistency checker to recover
//!   the reads-from relation);
//! * [`SimTime`] — virtual time for the discrete-event simulator;
//! * [`MsgKind`] — the paper's three message classes (SM / FM / RM);
//! * [`SizeModel`] — the byte-accounting calibration used to measure message
//!   meta-data overheads (see `DESIGN.md` §5, "Size model calibration").

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod error;
pub mod ids;
pub mod msg;
pub mod op;
pub mod size;
pub mod time;
pub mod value;

pub use error::{Error, Result};
pub use ids::{SiteId, VarId, WriteId, MAX_VARS};
pub use msg::MsgKind;
pub use op::{OpId, OpKind, ScheduledOp};
pub use size::{DestsEncoding, MetaSized, SizeModel};
pub use time::{SimDuration, SimTime};
pub use value::VersionedValue;
