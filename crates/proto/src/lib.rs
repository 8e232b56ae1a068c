//! # causal-proto
//!
//! Transport-agnostic implementations of the four causal-consistency
//! protocols compared in *"Performance of Causal Consistency Algorithms for
//! Partially Replicated Systems"* (Hsu & Kshemkalyani, 2016), plus the
//! happened-before baseline they improve on — five in all:
//!
//! | [`Tracker`] | Replication | Metadata |
//! |------|-------------|----------|
//! | [`FullTrack`] | partial | `n×n` Write matrix clock |
//! | [`OptTrack`]  | partial | KS log `{⟨j, clock_j, Dests⟩}` |
//! | [`OptTrackCrp`] | full | log of `⟨j, clock_j⟩` 2-tuples |
//! | [`OptP`] | full | size-`n` Write vector clock |
//! | [`HbTrack`] | partial | `n×n` matrix merged at *receipt* (not in the paper's measured set) |
//!
//! §III gives every site the same state and distinguishes the protocols
//! only by this metadata and its rules, so a site is one generic
//! [`Replica`] — replica values, `Apply`, `LastWriteOn`, the parked-update
//! buffer, the fetch slot — around one of the five trackers. It is a pure
//! state machine behind [`ProtocolSite`]: a
//! [`SiteDriver`] invokes [`ProtocolSite::write`], [`ProtocolSite::read`]
//! and [`ProtocolSite::on_message`], and routes the returned [`Effect`]s —
//! through its per-destination lanes and fetch slot — into [`Output`]s for
//! its harness (the discrete-event simulator in `causal-simnet` or the
//! threaded runtime in `causal-runtime`) to put on a transport. Neither
//! the protocols nor the driver perform I/O or read a clock, which is what
//! lets the same code run deterministically under simulation and
//! concurrently under real threads (DESIGN.md, "Driver and harnesses").
//!
//! ## Activation predicate
//!
//! The paper's four protocols implement the optimal activation predicate
//! `A_OPT` of Baldoni et al.: an arriving update is buffered until every
//! update that causally precedes it (under the `→co` relation — causality
//! created by *reading* values, not by message receipt) and is destined to
//! this site has been applied (HB-Track waits on happened-before instead,
//! a superset). Each tracker states its predicate as
//! [`Tracker::blocking_dep`]; the shared buffering machinery is in
//! [`pending`].
//!
//! ## A note on remote reads (partial replication)
//!
//! FM messages carry no causal metadata (Table I of the paper), so a remote
//! fetch returns whatever the serving replica currently holds. The replica's
//! *applies* are causally ordered, but the served value can be causally
//! older than the client's context. This is a property of the published
//! protocol, not of this implementation; `causal-checker` counts such
//! anomalies separately from genuine delivery violations (which must never
//! occur).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod driver;
pub mod effect;
pub mod factory;
pub mod full_track;
pub mod hb_track;
pub mod msg;
pub mod opt_track;
pub mod opt_track_crp;
pub mod optp;
pub mod pending;
pub mod reliable;
pub mod replica;
pub mod replication;
pub mod site;
pub mod var_map;
pub mod wal;
pub mod wire;

pub use driver::{Delivery, Fetch, Output, SiteDriver};
pub use effect::{Effect, ReadResult};
pub use factory::{build_site, ProtocolConfig, ProtocolKind};
pub use full_track::FullTrack;
pub use hb_track::HbTrack;
pub use msg::{BatchedSm, Fm, Msg, Rm, RmMeta, Sm, SmBatch, SmMeta, SmMetaDelta};
pub use opt_track::OptTrack;
pub use opt_track_crp::OptTrackCrp;
pub use optp::OptP;
pub use pending::{ProtoTrace, ProtoTraceEvent};
pub use reliable::{Frame, OwnLedger, PeerAckInfo, SyncState};
pub use replica::{Replica, Tracker};
pub use replication::Replication;
pub use site::{GcStats, ProtocolSite, StableCut};
pub use var_map::VarMap;
pub use wal::{DurableStore, WalRecord};
