//! # causal-simnet
//!
//! A deterministic discrete-event simulator for the causal-consistency
//! protocols — the substrate for every experiment in the paper reproduction.
//!
//! ## Relationship to the paper's testbed
//!
//! The paper (§IV) ran the protocols as JDK 8 processes over real TCP
//! connections, driven by `ScheduledExecutorService` timers. TCP there
//! provides exactly three guarantees the protocols rely on: reliability, no
//! duplication, and FIFO order per channel. [`channel`] provides the same
//! guarantees over a virtual-time event queue, with configurable latency
//! ([`LatencyModel`]); because the measured quantities — message counts and
//! metadata bytes — are functions of protocol logic and operation schedule
//! only, the substitution preserves the paper's results while making every
//! run exactly reproducible from a seed. (See DESIGN.md §2.)
//!
//! ## Structure
//!
//! * [`kernel`] — the event heap and virtual clock;
//! * [`channel`] — reliable FIFO channels with latency models;
//! * [`sim`] — the full-system harness around one
//!   [`causal_proto::SiteDriver`] per site (DESIGN.md, "Driver and
//!   harnesses"): schedules application operations, turns the drivers'
//!   outputs into channel traffic, gathers [`causal_metrics::RunMetrics`]
//!   and records a [`causal_checker::History`] for post-run verification;
//! * [`transport`] / [`stability`] — the reliable-delivery layer of lossy
//!   runs and the causal-stability tracker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod channel;
pub mod kernel;
pub mod sim;
pub mod stability;
pub mod transport;

pub use channel::{FaultPlan, LatencyModel, PartitionWindow};
pub use kernel::{EventHeap, SimEvent};
pub use sim::{
    record_event, run, BatchPlan, CrashWindow, DurabilityPlan, PauseWindow, SimConfig, SimResult,
};
pub use stability::StabilityPlan;
pub use transport::{Transport, TransportCmd};
