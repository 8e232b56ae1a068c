//! # causal-multicast
//!
//! The Kshemkalyani–Singhal optimal causal message-ordering algorithm in
//! its native habitat: an asynchronous **message-passing** system where
//! processes multicast to arbitrary destination subsets and every process
//! must deliver messages in causal (happened-before) order.
//!
//! This is the algorithm the paper's Opt-Track protocol adapts to shared
//! memory (§III-B: "Kshemkalyani and Singhal proposed the necessary and
//! sufficient conditions on the information for causal message ordering …
//! the KS algorithm aims at reducing the message size and storage cost for
//! causal message ordering abstractions in message passing systems").
//! Implementing it standalone serves two purposes:
//!
//! * it is a useful library in its own right (group communication with
//!   per-message destination sets and provably minimal control data);
//! * it cross-validates the shared-memory adaptation: the same
//!   [`causal_clocks::Log`] machinery drives both, and the test suite holds
//!   the KS node to the behaviour of an `O(n²)` matrix-clock reference
//!   implementation ([`MatrixNode`]) under randomized interleavings.
//!
//! The crucial semantic difference from the shared-memory protocols: here
//! **delivery creates causality** (Lamport's `→`), so piggybacked logs are
//! merged at delivery — there is no read step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod ks;
pub mod matrix;

pub use causal_clocks::batch::{self, BatchPolicy, DestBatcher, Offer};
pub use ks::{KsMsg, KsNode};
pub use matrix::{MatrixMsg, MatrixNode};

use causal_types::{SiteId, WriteId};

/// A delivered application message: who multicast it, its per-sender
/// sequence number, and the opaque payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// The multicast's identity (`⟨sender, per-sender seq⟩`).
    pub id: WriteId,
    /// The application payload.
    pub payload: u64,
}

/// Common driver-facing surface of both implementations, so tests and
/// harnesses can run them interchangeably.
pub trait CausalMulticast {
    /// The wire message type.
    type Msg: Clone;

    /// Multicast `payload` to `dests` (which may include the sender; the
    /// sender self-delivers immediately). Returns the message id and one
    /// `(destination, message)` pair per *remote* destination.
    fn multicast(
        &mut self,
        dests: causal_clocks::DestSet,
        payload: u64,
    ) -> (WriteId, Vec<(SiteId, Self::Msg)>);

    /// Hand a received message to the node; returns everything that became
    /// deliverable (in delivery order).
    fn receive(&mut self, from: SiteId, msg: Self::Msg) -> Vec<Delivery>;

    /// Messages buffered awaiting causal predecessors.
    fn pending(&self) -> usize;

    /// Control-data bytes a message of this protocol would carry, under the
    /// given size model (for the KS-vs-matrix overhead comparison).
    fn last_piggyback_bytes(&self, model: &causal_types::SizeModel) -> u64;
}
