//! Virtual cluster network.
//!
//! Penelope and the centralized baseline exchange small control messages
//! (power requests, grants, excess reports). This crate supplies the network
//! substrate those messages travel over, in two flavours:
//!
//! * [`SimNet`] — a routing model for the discrete-event simulator: samples a
//!   delivery latency, consults the [`FaultPlane`] (node crashes, partitions,
//!   random drops) and either produces a timestamped [`Envelope`] for the
//!   event queue or reports the message lost. It is generic over the message
//!   type, so the Penelope peer protocol and the SLURM client/server protocol
//!   share one substrate — mirroring how both systems ran over the same
//!   Ethernet in the paper's testbed.
//! * The [`shim`] module, for the one substrate that uses *real* sockets,
//!   the daemon: it wraps a UDP socket in a [`DatagramSocket`] trait with the
//!   same fault plane plus what only a wire adds, duplication and delay
//!   ([`FaultySocket`]), so the daemon's conformance runs meet loss and
//!   partitions on actual datagrams, and the coalescing codec
//!   ([`shim::Outbox`], [`shim::Inbox`]) that packs many small frames
//!   into one datagram for the one owner that drives it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod envelope;
pub mod fault;
pub mod latency;
pub mod shim;
pub mod simnet;
pub mod stats;

pub use envelope::Envelope;
pub use fault::FaultPlane;
pub use latency::LatencyModel;
pub use shim::{DatagramSocket, FaultConfig, FaultySocket, FlushError, SendStatus};
pub use simnet::{RouteOutcome, SimNet};
pub use stats::NetStats;
