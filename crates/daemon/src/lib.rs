//! The deployable Penelope daemon.
//!
//! Everything else in this workspace runs the algorithms against simulated
//! substrates; this crate is the piece a cluster operator actually starts
//! on every node:
//!
//! ```text
//! penelope-daemon --listen 10.0.0.5:7700 \
//!     --peers 10.0.0.6:7700,10.0.0.7:7700 \
//!     --initial-cap-watts 160 --period-ms 1000
//! ```
//!
//! Each daemon runs the paper's two per-node components on one thread
//! over one UDP socket: the local decider iterates every period against
//! the node's power interface (real Intel RAPL via `/sys/class/powercap`,
//! or a simulated device for single-machine demos), and between
//! iterations incoming peer requests are served from the local power pool.
//! Requests, grants and acks travel as small datagrams — a [`wire`]
//! message behind a `[dst][src]` node-id header.
//!
//! There is one socket loop in this crate, the `reactor`: it owns its
//! [`NodeEngine`](penelope_core::NodeEngine)s outright, dispatches each
//! received frame to the engine its header names and executes the engine's
//! outputs. [`run_daemon`] is that reactor with one engine, peers' real
//! addresses and the wall clock; [`run_multiplexed`] is the same reactor
//! with thousands of engines behind one socket pair on a virtual clock,
//! for single-host soaks (there, and only there, frames share
//! datagrams), and a [`Mux`] over simulated RAPL domains, stepped one
//! round at a time, is how the conformance harness holds this code to the
//! invariants the simulator is held to, and to the simulator's own
//! protocol stream per seed. (The paper runs two threads and a lock per node,
//! §3.3; one thread that owns its engines needs neither.)
//!
//! UDP matches the protocol's needs exactly: requests are idempotent-ish
//! (a lost request simply times out and the decider re-asks next period),
//! and a lost *grant* loses power in the safe direction — the budget can
//! only shrink, never be exceeded, which is the same argument the paper
//! makes for node failures. The decider's response timeout already handles
//! both cases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod daemon;
pub(crate) mod multiplex;
mod reactor;
pub mod wire;

pub use config::{DaemonConfig, PowerBackend};
pub use daemon::{run_daemon, run_daemon_with_socket, DaemonHandle, DaemonStatus, DaemonSummary};
pub use multiplex::{run_multiplexed, GrantRttStats, Mux, MuxConfig, MuxSummary};
pub use wire::WireMsg;
