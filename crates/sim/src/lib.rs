//! Discrete-event cluster simulation.
//!
//! The paper evaluates on a 21-node testbed and, for the scale study, on a
//! simulated 1056-node cluster replaying curated power profiles (§4.5). This
//! crate is that substrate: a deterministic discrete-event simulator where
//! each node couples
//!
//! * a simulated RAPL domain over a workload profile
//!   (`SimulatedRapl<WorkloadState>`),
//! * one of the three power managers — *Fair* (static), *Penelope*
//!   (decider + pool, peer-to-peer), or *SLURM* (client + central server
//!   with a serial request queue),
//!
//! over a virtual network with latency, drops, partitions and node crashes.
//!
//! Everything is driven by one event queue and seeded RNGs, so whole-cluster
//! runs are exactly reproducible. After every event (when checking is
//! enabled) the simulator asserts the paper's fundamental safety property:
//! the sum of node-level caps, pooled power, in-flight grants and
//! permanently-lost power equals the initially assigned budget — i.e. no
//! transaction ever mints power, so the system-wide cap cannot be violated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod cluster;
pub mod config;
pub mod event;
pub mod faults;
pub mod ledger;
pub mod node;
pub mod report;
pub mod shard;
pub(crate) mod soa;
pub mod trace;

pub use cluster::{ClusterSim, ClusterSimBuilder};
pub use config::{ClusterConfig, DiscoveryStrategy, SystemKind};
pub use faults::{FaultAction, FaultScript};
pub use ledger::{NodeSnapshot, Snapshot};
pub use penelope_testkit::rng::node_seed;
pub use report::RunReport;
pub use shard::{ShardReport, ShardedConfig, ShardedSim};
pub use trace::{ClusterTrace, TraceSample};
