//! Scripted fault injection.

use penelope_net::FaultPlane;
use penelope_units::{NodeId, SimTime};

/// A fault (or repair) that can be injected into a running cluster.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Crash a node: its workload freezes, its cap and pooled power leave
    /// the system, and it neither sends nor receives messages. `KillServer`
    /// via the server's node id reproduces §4.4.
    Kill(NodeId),
    /// Crash the SLURM server (whatever node hosts it).
    KillServer,
    /// Revive a crashed client node: it rejoins with fresh decider/pool
    /// state at its initial cap re-admitted from the lost-power ledger
    /// (never more than the crash retired), keeping its pre-crash sequence
    /// watermark so stale grants cannot double-pay it. A no-op on nodes
    /// that are alive, never existed, or whose crash left too little in
    /// the ledger to re-admit a safe cap.
    Restart(NodeId),
    /// Split the network into groups; traffic flows only within a group.
    Partition(Vec<Vec<NodeId>>),
    /// Cut one directional link: messages `from → to` are dropped while
    /// the reverse direction keeps flowing. Composable with group
    /// partitions, drop rates and kills; this is the primitive behind
    /// asymmetric partitions (A↛B while B↔A).
    PartitionLink {
        /// Sending side of the severed direction.
        from: NodeId,
        /// Receiving side of the severed direction.
        to: NodeId,
    },
    /// Restore one directional link previously cut with `PartitionLink`.
    HealLink {
        /// Sending side of the restored direction.
        from: NodeId,
        /// Receiving side of the restored direction.
        to: NodeId,
    },
    /// Remove all partitions — group partitions and directional link cuts.
    Heal,
    /// Set the background random message-loss probability.
    SetDropRate(f64),
}

impl FaultAction {
    /// The one reading of a fault onto a transport: connectivity and loss
    /// land on `plane` and `true` comes back. A kill or a restart touches
    /// nothing and returns `false`: a node's lifecycle is the driver's,
    /// which marks the plane itself once its books are done.
    pub fn apply(&self, plane: &mut FaultPlane) -> bool {
        match self {
            FaultAction::Kill(_) | FaultAction::KillServer | FaultAction::Restart(_) => {
                return false
            }
            FaultAction::Partition(groups) => {
                plane.partition(groups.iter().map(|g| g.iter().copied().collect()).collect());
            }
            FaultAction::PartitionLink { from, to } => plane.cut_link(*from, *to),
            FaultAction::HealLink { from, to } => plane.heal_link(*from, *to),
            FaultAction::Heal => plane.heal_partitions(),
            FaultAction::SetDropRate(rate) => plane.set_drop_rate(*rate),
        }
        true
    }
}

/// A time-ordered script of fault injections, installed into the simulator
/// before the run.
#[derive(Clone, Debug, Default)]
pub struct FaultScript {
    entries: Vec<(SimTime, FaultAction)>,
}

impl FaultScript {
    /// An empty (fault-free) script.
    pub fn none() -> Self {
        FaultScript::default()
    }

    /// Add an injection at `at`.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.entries.push((at, action));
        self
    }

    /// The §4.4 scenario: kill the central server at `at`.
    pub fn kill_server_at(at: SimTime) -> Self {
        FaultScript::none().at(at, FaultAction::KillServer)
    }

    /// Kill one client node at `at` (the client-failure scenario Penelope
    /// shrugs off).
    pub fn kill_node_at(at: SimTime, node: NodeId) -> Self {
        FaultScript::none().at(at, FaultAction::Kill(node))
    }

    /// Revive a previously killed node at `at` (the churn scenario:
    /// crashed nodes reboot and rejoin without minting power).
    pub fn restart_at(self, at: SimTime, node: NodeId) -> Self {
        self.at(at, FaultAction::Restart(node))
    }

    /// The full churn round-trip: kill `node` at `kill_at`, revive it at
    /// `restart_at`.
    pub fn kill_restart(node: NodeId, kill_at: SimTime, restart_at: SimTime) -> Self {
        FaultScript::kill_node_at(kill_at, node).restart_at(restart_at, node)
    }

    /// Cut the directional link `from → to` at `at`.
    pub fn partition_link_at(self, at: SimTime, from: NodeId, to: NodeId) -> Self {
        self.at(at, FaultAction::PartitionLink { from, to })
    }

    /// Restore the directional link `from → to` at `at`.
    pub fn heal_link_at(self, at: SimTime, from: NodeId, to: NodeId) -> Self {
        self.at(at, FaultAction::HealLink { from, to })
    }

    /// Fully isolate `node` from every peer in `0..n` (both directions) at
    /// `at`: the clean-partition scenario, expressed as link cuts so it
    /// composes with other cuts and heals.
    pub fn isolate_at(mut self, at: SimTime, node: NodeId, n: u32) -> Self {
        for i in 0..n {
            let peer = NodeId::new(i);
            if peer != node {
                self = self
                    .partition_link_at(at, node, peer)
                    .partition_link_at(at, peer, node);
            }
        }
        self
    }

    /// The scripted entries, in insertion order — not the order they fire
    /// in; see [`in_firing_order`](FaultScript::in_firing_order).
    pub fn entries(&self) -> &[(SimTime, FaultAction)] {
        &self.entries
    }

    /// The entries in the order every installer must apply them: stably
    /// sorted by timestamp — so scripts may be composed in any order and
    /// same-time entries keep their insertion order — except that
    /// `Kill`/`KillServer` go *after* any other action at the same
    /// instant. A partition (or drop-rate change, or restart) scheduled at
    /// the same tick as a kill is therefore in force before the victim's
    /// holdings are retired; killing first would make the composed
    /// script's topology depend on insertion order.
    pub fn in_firing_order(&self) -> Vec<(SimTime, FaultAction)> {
        let kill_rank = |action: &FaultAction| {
            u8::from(matches!(
                action,
                FaultAction::Kill(_) | FaultAction::KillServer
            ))
        };
        let mut entries = self.entries.clone();
        entries.sort_by_key(|(at, action)| (*at, kill_rank(action)));
        entries
    }

    /// True iff the script injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_in_order() {
        let s = FaultScript::none()
            .at(SimTime::from_secs(10), FaultAction::Kill(NodeId::new(3)))
            .at(SimTime::from_secs(20), FaultAction::Heal);
        assert_eq!(s.entries().len(), 2);
        assert_eq!(s.entries()[0].0, SimTime::from_secs(10));
        assert!(!s.is_empty());
    }

    #[test]
    fn convenience_constructors() {
        let s = FaultScript::kill_server_at(SimTime::from_secs(5));
        assert_eq!(s.entries()[0].1, FaultAction::KillServer);
        let s = FaultScript::kill_node_at(SimTime::from_secs(5), NodeId::new(7));
        assert_eq!(s.entries()[0].1, FaultAction::Kill(NodeId::new(7)));
        assert!(FaultScript::none().is_empty());
    }

    #[test]
    fn link_builders_script_directional_cuts() {
        let s = FaultScript::none()
            .partition_link_at(SimTime::from_secs(2), NodeId::new(0), NodeId::new(1))
            .heal_link_at(SimTime::from_secs(6), NodeId::new(0), NodeId::new(1));
        assert_eq!(
            s.entries()[0].1,
            FaultAction::PartitionLink {
                from: NodeId::new(0),
                to: NodeId::new(1)
            }
        );
        assert_eq!(
            s.entries()[1].1,
            FaultAction::HealLink {
                from: NodeId::new(0),
                to: NodeId::new(1)
            }
        );
    }

    #[test]
    fn isolate_cuts_both_directions_for_every_peer() {
        let s = FaultScript::none().isolate_at(SimTime::from_secs(3), NodeId::new(1), 4);
        // 3 peers × 2 directions.
        assert_eq!(s.entries().len(), 6);
        for (at, action) in s.entries() {
            assert_eq!(*at, SimTime::from_secs(3));
            match action {
                FaultAction::PartitionLink { from, to } => {
                    assert!(*from == NodeId::new(1) || *to == NodeId::new(1));
                    assert_ne!(from, to);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn connectivity_lands_on_the_plane_and_lifecycle_comes_back() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mut plane = FaultPlane::healthy();
        assert!(FaultAction::Partition(vec![vec![a], vec![b]]).apply(&mut plane));
        assert!(!plane.can_communicate(a, b));
        assert!(FaultAction::Heal.apply(&mut plane));
        assert!(FaultAction::PartitionLink { from: a, to: b }.apply(&mut plane));
        assert!(!plane.can_communicate(a, b) && plane.can_communicate(b, a));
        assert!(FaultAction::HealLink { from: a, to: b }.apply(&mut plane));
        assert!(FaultAction::SetDropRate(0.25).apply(&mut plane));
        assert_eq!(plane.drop_rate(), 0.25);
        assert!(plane.can_communicate(a, b) && !plane.is_partitioned());

        for action in [
            FaultAction::Kill(b),
            FaultAction::KillServer,
            FaultAction::Restart(b),
        ] {
            assert!(!action.apply(&mut plane), "{action:?} is the driver's");
        }
        assert!(
            plane.is_alive(b),
            "the driver marks the plane, not the reading"
        );
    }

    #[test]
    fn kill_restart_scripts_both_legs() {
        let s =
            FaultScript::kill_restart(NodeId::new(2), SimTime::from_secs(4), SimTime::from_secs(9));
        assert_eq!(s.entries().len(), 2);
        assert_eq!(s.entries()[0].1, FaultAction::Kill(NodeId::new(2)));
        assert_eq!(
            s.entries()[1],
            (SimTime::from_secs(9), FaultAction::Restart(NodeId::new(2)))
        );
    }
}
