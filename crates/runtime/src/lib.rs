//! # causal-runtime
//!
//! A real multi-threaded runtime for the causal-consistency protocols: a
//! sharded M:N scheduler (a fixed pool of `W` worker threads multiplexing
//! the `n` sites — the only threads a run has), one inbox per worker that
//! its owner swaps out once per pass, a transport fabric between the
//! workers (a hand-over from the sender's staging area into the peer's
//! inbox, or a multiplexed loopback-TCP mesh with one nonblocking socket
//! per worker pair, read by its owning worker when a pass begins — either
//! way shipped once per peer when the pass ends), and two ways to drive
//! operations — wall-clock schedule replay (scaled, [`replay`]) and the
//! closed-loop load generator behind [`serve`](fn@serve) (budget- or
//! duration-bounded). Both deploy through one path and return one
//! [`ServeReport`].
//!
//! The paper's testbed ran each site as a JDK process over TCP; this runtime
//! is the analogous live deployment of the *identical* protocol objects that
//! the discrete-event simulator drives, under the identical
//! [`causal_proto::SiteDriver`] — lanes, batch framing, the parked fetch
//! and their accounting are the simulator's own code (DESIGN.md, "Driver
//! and harnesses"). It demonstrates that the protocol
//! state machines are genuinely transport-agnostic and correct under real
//! concurrency — executions are nondeterministic, and every one of them
//! must still pass the `causal-checker` verification — and, in replay mode,
//! it mirrors the simulator's measured-window attribution op for op, so a
//! real-cluster run's message counts can be checked against simnet's
//! prediction for the same workload and seed (see DESIGN.md §2,
//! docs/RUNTIME.md, and EXPERIMENTS.md "Real-cluster serving").
//!
//! ## Shutdown protocol
//!
//! Quiescence in a live system needs care: a site may finish its schedule
//! while its updates are still in flight. Every worker keeps two tallies
//! that only grow — frames its sites sent, frames its sites are done with
//! — a send counted before the frame leaves, a delivery counted done only
//! after its cascade sends were counted sent; nothing is shared between
//! workers. Once every site has finished its schedule, "the done tallies,
//! summed first, equal the sent tallies, summed after" is an exact and
//! stable condition, not a guess to be confirmed by waiting
//! (docs/RUNTIME.md, "Quiescence"). The coordinator — parked on a condvar
//! that a finishing site and a worker about to park notify, not a
//! sleep-poll — then broadcasts `Stop` at once and joins the worker pool.
//! A parked update at that point would be a protocol bug (reported in
//! [`ServeReport::final_pending`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod loadgen;
pub mod node;
pub mod runner;
pub mod serve;
pub mod tcp;

pub use loadgen::LoadProfile;
pub use node::BatchWindow;
pub use runner::{replay, RuntimeConfig};
pub use serve::{serve, ServeConfig, ServeReport, ServeTransport};
