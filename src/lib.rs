//! # Penelope: peer-to-peer power management
//!
//! A full reproduction of *Penelope: Peer-to-peer Power Management*
//! (Srivastava, Zhang & Hoffmann, ICPP 2022): a distributed power-management
//! system for power-constrained clusters in which every node runs a local
//! decider and a power pool, and power moves between nodes through zero-sum
//! peer-to-peer transactions instead of a central coordinator.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the paper's algorithms: local decider (Alg. 1), power pool
//!   (Alg. 2), distributed urgency, and the *Fair* static baseline.
//! * [`slurm`] — the centralized SLURM-style baseline with centralized
//!   urgency and the serial server queue model.
//! * [`power`] — the RAPL-like power interface and simulated implementation.
//! * [`workload`] — NPB-like application power profiles and the
//!   cap→performance model.
//! * [`net`] — the virtual cluster network (latency, drops, partitions,
//!   crashes) and the fault-injecting datagram socket shim.
//! * [`trace`] — the structured observability layer: the typed protocol
//!   event vocabulary and the [`Observer`](trace::Observer) sinks
//!   (no-op, ring buffer, JSONL export, counters) every substrate feeds.
//! * [`sim`] — the deterministic discrete-event cluster simulator with
//!   conservation checking.
//! * [`metrics`] — performance normalization, redistribution time,
//!   turnaround time.
//! * [`experiments`] — the harness regenerating every table and figure in
//!   the paper's evaluation.
//! * [`daemon`] — the deployable `penelope-daemon`: the same decider/pool
//!   over real UDP sockets, against simulated power or Linux RAPL.
//!
//! and holds one module of its own, [`conformance`]: a `Scenario` (the
//! configuration, workloads and fault script of one run), the adapters
//! that run it on the simulator and on the daemon's reactor over loopback
//! UDP, and the invariants every such run is held to.
//!
//! ## Quickstart
//!
//! ```
//! use penelope::prelude::*;
//!
//! // A 4-node cluster, 160 W per node, running two power-hungry and two
//! // modest applications under Penelope.
//! let profiles = vec![
//!     penelope::workload::npb::dc(),
//!     penelope::workload::npb::dc(),
//!     penelope::workload::npb::ep(),
//!     penelope::workload::npb::ep(),
//! ];
//! let profiles: Vec<_> = profiles.into_iter().map(|p| p.scaled(0.05)).collect();
//! let cfg = ClusterConfig::checked(SystemKind::Penelope, Power::from_watts_u64(4 * 160));
//! let report = ClusterSim::new(cfg, profiles).run(SimTime::from_secs(600));
//! assert!(report.conservation_ok);
//! println!("makespan: {:?}", report.runtime_secs());
//! ```

#![forbid(unsafe_code)]

pub mod conformance;

pub use penelope_core as core;
pub use penelope_daemon as daemon;
pub use penelope_experiments as experiments;
pub use penelope_metrics as metrics;
pub use penelope_net as net;
pub use penelope_power as power;
pub use penelope_sim as sim;
pub use penelope_slurm as slurm;
pub use penelope_trace as trace;
pub use penelope_units as units;
pub use penelope_workload as workload;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use penelope_core::{DeciderConfig, LocalDecider, NodeParams, PoolConfig, PowerPool};
    pub use penelope_metrics::{RedistributionTracker, SummaryStats, TurnaroundStats};
    pub use penelope_sim::{ClusterConfig, ClusterSim, FaultAction, FaultScript, SystemKind};
    pub use penelope_trace::{Observer, RingBufferObserver, SharedObserver, TraceEvent};
    pub use penelope_units::{Energy, NodeId, Power, PowerRange, SimDuration, SimTime};
    pub use penelope_workload::{npb, PerfModel, Phase, Profile, WorkloadState};
}
