//! Cluster configuration.

use penelope_core::{EngineConfig, NodeParams};
use penelope_net::LatencyModel;
use penelope_power::RaplConfig;
use penelope_slurm::ServiceModel;
use penelope_trace::SharedObserver;
use penelope_units::{Power, PowerRange, SimDuration};

/// Which power-management system the cluster runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// Static even split; no messages, no decider (§2.3.1).
    Fair,
    /// Peer-to-peer decider + pool on every node (§3).
    Penelope,
    /// Central server + per-node client (§2.3.2), with the server hosted on
    /// a dedicated extra node as in the paper's testbed.
    Slurm,
}

impl SystemKind {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Fair => "Fair",
            SystemKind::Penelope => "Penelope",
            SystemKind::Slurm => "SLURM",
        }
    }
}

// `DiscoveryStrategy` moved into `penelope_core::discovery` with the
// NodeEngine extraction; re-exported here so existing config-based call
// sites keep compiling unchanged.
pub use penelope_core::DiscoveryStrategy;

/// Full configuration of a simulated cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The power manager under test.
    pub system: SystemKind,
    /// System-wide power budget (split evenly as the initial assignment —
    /// all three systems "begin by dividing the system-wide cap evenly",
    /// §4.3).
    pub budget: Power,
    /// The per-node protocol knobs (decider, pool, safe range) — shared
    /// with the UDP daemon via [`NodeParams`], so a scenario tuned here
    /// carries over verbatim.
    pub node: NodeParams,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Simulated RAPL parameters (actuation lag, read noise).
    pub rapl: RaplConfig,
    /// Service-time model for request processing — the SLURM server's
    /// measured 80–100 µs, also applied to each Penelope pool (the pool is
    /// a small server; its *load* is what differs at scale).
    pub service: ServiceModel,
    /// Backlog capacity of the SLURM server queue (drop when full).
    pub server_queue_capacity: usize,
    /// Backlog capacity of each Penelope pool's queue.
    pub pool_queue_capacity: usize,
    /// Give SLURM a warm standby server (empty cache) that clients fail
    /// over to after two consecutive request timeouts — the fallback-server
    /// study the paper leaves as future work (§4.4).
    pub backup_server: bool,
    /// Deciders start with a random phase offset uniform in
    /// `[0, tick_jitter]`; small jitter models the paper's
    /// launched-together deciders whose periods stay loosely synchronized.
    pub tick_jitter: SimDuration,
    /// Fractional slowdown the management daemons impose on the workload
    /// (the measured 1.3 % of §4.2). Zero for Fair.
    pub management_overhead: f64,
    /// Peer-discovery strategy for Penelope deciders.
    pub discovery: DiscoveryStrategy,
    /// Starting request-sequence watermark applied to every node's engine
    /// (`EngineConfig::with_seq_floor`). Zero for a fresh cluster; restart
    /// faults manage per-node watermarks on top of this.
    pub seq_floor: u64,
    /// Master RNG seed; all per-node and network streams derive from it.
    pub seed: u64,
    /// Check the conservation ledger after every event (O(n) per event;
    /// enable in tests and small runs).
    pub check_invariants: bool,
    /// Protocol-event sink. Defaults to the no-op observer, which costs
    /// nothing on the hot path; see `penelope_trace` for the alternatives.
    pub observer: SharedObserver,
}

impl ClusterConfig {
    /// A configuration mirroring the paper's real-cluster experiments for
    /// the given system, with `per_node_budget × n` total budget supplied
    /// by the caller.
    pub fn paper_defaults(system: SystemKind, budget: Power) -> Self {
        ClusterConfig {
            system,
            budget,
            node: NodeParams {
                safe_range: PowerRange::from_watts(80, 300),
                ..NodeParams::default()
            },
            latency: LatencyModel::default(),
            rapl: RaplConfig::default(),
            service: ServiceModel::default(),
            server_queue_capacity: 1200,
            pool_queue_capacity: 300,
            backup_server: false,
            tick_jitter: SimDuration::from_millis(30),
            discovery: DiscoveryStrategy::default(),
            seq_floor: 0,
            management_overhead: match system {
                SystemKind::Fair => 0.0,
                _ => 0.013,
            },
            seed: 0xC0FFEE,
            check_invariants: false,
            observer: SharedObserver::noop(),
        }
    }

    /// Same but with invariant checking on (tests, small clusters).
    pub fn checked(system: SystemKind, budget: Power) -> Self {
        ClusterConfig {
            check_invariants: true,
            ..Self::paper_defaults(system, budget)
        }
    }

    /// The engine configuration every node of this cluster runs: its node
    /// parameters, discovery strategy and sequence floor.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::new(self.node)
            .with_discovery(self.discovery)
            .with_seq_floor(self.seq_floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(SystemKind::Fair.label(), "Fair");
        assert_eq!(SystemKind::Penelope.label(), "Penelope");
        assert_eq!(SystemKind::Slurm.label(), "SLURM");
    }

    #[test]
    fn paper_defaults_shape() {
        let c = ClusterConfig::paper_defaults(SystemKind::Penelope, Power::from_watts_u64(3200));
        assert_eq!(c.node.decider.period, SimDuration::from_secs(1));
        assert!((c.management_overhead - 0.013).abs() < 1e-12);
        assert!(!c.check_invariants);
        let f = ClusterConfig::paper_defaults(SystemKind::Fair, Power::from_watts_u64(3200));
        assert_eq!(f.management_overhead, 0.0);
        assert!(
            ClusterConfig::checked(SystemKind::Slurm, Power::from_watts_u64(100)).check_invariants
        );
    }
}
