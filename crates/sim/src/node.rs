//! Per-node simulation state: the manager automaton.
//!
//! The rest of what used to live here as a per-node `SimNode` struct —
//! RAPL domain, RNG stream, pending-request map, metrics collectors and
//! the live-tick watermark — is stored column-wise in
//! `NodeTable`, the struct-of-arrays layout the
//! hot path walks.

use penelope_core::NodeEngine;
use penelope_slurm::{ServerQueue, SlurmClient};

/// The power manager running on a node.
#[derive(Debug)]
// One Manager lives per node for the whole run, and in a Penelope
// cluster nearly every node carries the largest variant — boxing the
// engine would buy nothing but a pointer chase in the per-event path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Manager {
    /// Static cap; no control loop.
    Fair,
    /// Penelope: the full per-node protocol automaton, plus the pool's
    /// request-service queue (each pool is a miniature server with the
    /// same per-request service time as SLURM's — the difference at scale
    /// is *load*, not speed).
    Penelope {
        /// The sans-IO protocol engine (decider + pool + escrow +
        /// suspicion + discovery); the simulator is just its driver.
        engine: NodeEngine,
        /// Service-time model for incoming requests.
        queue: ServerQueue,
    },
    /// A SLURM client decider.
    Slurm {
        /// The centralized baseline's per-node client.
        client: SlurmClient,
    },
}
