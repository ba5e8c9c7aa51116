//! The Penelope algorithm: peer-to-peer power management.
//!
//! This crate is the paper's contribution (§3). Each node runs two
//! components:
//!
//! * a [`LocalDecider`] — Algorithm 1: a feedback controller that, once per
//!   period `T`, classifies the node as *having excess* (reading more than
//!   ε below its cap) or *power-hungry* (reading within ε of its cap),
//!   releases excess into the local pool, and otherwise acquires power —
//!   first locally, then by querying a peer chosen uniformly at random;
//! * a [`PowerPool`] — Algorithm 2: a local cache of freed power that
//!   answers peer requests, rate-limited to 10 % of the pool clamped into
//!   `[LOWER_LIMIT, UPPER_LIMIT]` (1 W / 30 W in the paper) to prevent
//!   hoarding and power oscillation (§3.2).
//!
//! **Urgency** (§3, adapted from Zhang & Hoffmann): a node that is both
//! power-hungry *and* capped below its initial assignment sends *urgent*
//! requests that (a) bypass the transaction limit up to the amount α needed
//! to return to the initial cap, and (b) set the serving pool's
//! `localUrgency` flag, inducing that node to release power down to *its*
//! initial cap on its next iteration — artificially creating excess when
//! the system has none.
//!
//! Both components — together with the grant escrow and the [`PeerTable`]
//! (what the node knows about its peers: suspicion, incarnations, gossip,
//! acked floors, and peer selection over them) — compose into
//! [`NodeEngine`], the complete per-node protocol automaton behind a
//! sans-IO API: the caller
//! (the discrete-event simulator, the sharded simulator or the UDP
//! daemon) pumps [`EngineInput`]s into [`NodeEngine::step`] and
//! implements [`Effects`], the substrate side of every [`EngineOutput`];
//! the loop that executes them lives here once. This is what lets every
//! experiment in the paper run the *same* algorithm code over different
//! substrates, and what makes a protocol change land once and work
//! everywhere. All engines are configured through one [`EngineConfig`],
//! accepted verbatim by each substrate's builder and stored once per
//! cluster: the engines share it behind an `Arc`, and an engine's parts
//! read it through the [`NodeCtx`] their engine lends them.
//!
//! Everything is exact integer arithmetic over
//! [`Power`](penelope_units::Power) (milliwatts), so a cluster-wide
//! conservation invariant — Σ caps + Σ pools + in-flight grants = budget —
//! holds as an equality and is asserted after every simulator event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod decider;
pub mod discovery;
pub mod engine;
pub mod escrow;
pub mod fair;
pub mod pool;
pub mod protocol;

pub use config::{DeciderConfig, NodeParams, PoolConfig};
pub use decider::{Classification, DeciderStats, LocalDecider, TickAction, APPLIED_SEQ_WINDOW};
pub use discovery::{choose_peer, initial_rr_cursor, DiscoveryStrategy, EngineRng, PeerTable};
pub use engine::{Effects, EngineConfig, EngineInput, EngineOutput, NodeCtx, NodeEngine};
pub use escrow::{EscrowEntry, EscrowState, GrantEscrow};
pub use fair::fair_assignment;
pub use pool::PowerPool;
pub use protocol::{
    GrantAck, PeerMsg, PowerGrant, PowerRequest, SuspicionDigest, SuspicionEntry,
    MAX_DIGEST_ENTRIES,
};
