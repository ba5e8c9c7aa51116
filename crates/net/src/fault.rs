//! Node-failure and network-partition state.

use std::collections::HashSet;

use penelope_testkit::rng::Rng;
use penelope_units::NodeId;

/// The cluster's current fault state: which nodes are dead, how the network
/// is partitioned, and the background message-loss probability.
///
/// This is the substrate behind the paper's §4.4 experiment (killing the
/// SLURM server mid-run) and the fault-injection integration tests. It is
/// deliberately a plain value type: the DES mutates it through scripted
/// fault events, the daemon's socket shim consults it on every send.
#[derive(Clone, Debug, Default)]
pub struct FaultPlane {
    dead: HashSet<NodeId>,
    /// Partition groups. Empty means fully connected. When non-empty, two
    /// nodes can communicate iff some group contains both.
    partitions: Vec<HashSet<NodeId>>,
    /// Directional link cuts: `(from, to)` present means messages from
    /// `from` to `to` are blocked, independently of the reverse direction
    /// and of any group partition. This is how asymmetric partitions
    /// (A cannot reach B while B still reaches A) are expressed.
    cuts: HashSet<(NodeId, NodeId)>,
    /// Probability in `[0, 1]` that any given message is silently lost.
    drop_rate: f64,
}

impl FaultPlane {
    /// A healthy, fully connected network.
    pub fn healthy() -> Self {
        FaultPlane::default()
    }

    /// Mark a node as crashed. Crashed nodes neither send nor receive, and
    /// their local state (cap, pool) is out of the system until revived.
    pub fn kill(&mut self, node: NodeId) {
        self.dead.insert(node);
    }

    /// Revive a crashed node.
    pub fn revive(&mut self, node: NodeId) {
        self.dead.remove(&node);
    }

    /// True iff `node` is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        !self.dead.contains(&node)
    }

    /// Split the network into disjoint groups; traffic only flows within a
    /// group. Replaces any existing partition.
    pub fn partition(&mut self, groups: Vec<HashSet<NodeId>>) {
        self.partitions = groups;
    }

    /// Remove all partitions (the network is whole again). Directional
    /// link cuts are cleared too: `heal` means *heal*, whichever primitive
    /// caused the split.
    pub fn heal_partitions(&mut self) {
        self.partitions.clear();
        self.cuts.clear();
    }

    /// True iff a partition is currently in force.
    pub fn is_partitioned(&self) -> bool {
        !self.partitions.is_empty() || !self.cuts.is_empty()
    }

    /// Cut the directional link `from → to`: messages in that direction are
    /// dropped at the router; the reverse direction is unaffected. Cutting
    /// an already-cut link is a no-op; self-links cannot be cut.
    pub fn cut_link(&mut self, from: NodeId, to: NodeId) {
        if from != to {
            self.cuts.insert((from, to));
        }
    }

    /// Restore the directional link `from → to`. A no-op if it was not cut.
    pub fn heal_link(&mut self, from: NodeId, to: NodeId) {
        self.cuts.remove(&(from, to));
    }

    /// Set the background drop probability (clamped into `[0, 1]`).
    pub fn set_drop_rate(&mut self, p: f64) {
        self.drop_rate = if p.is_finite() {
            p.clamp(0.0, 1.0)
        } else {
            0.0
        };
    }

    /// The background drop probability.
    pub fn drop_rate(&self) -> f64 {
        self.drop_rate
    }

    /// Whether the drop rate takes the next message: one draw from the
    /// sender's `rng` when the rate is non-zero, none otherwise.
    pub(crate) fn loses<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.drop_rate > 0.0 && rng.gen_bool(self.drop_rate)
    }

    /// The fault decision for one message from `src` to `dst`, for a
    /// transport that sends on its own clock (the daemon's socket shim):
    /// the loss draw comes first, out of the
    /// sender's `rng`, so with a non-zero drop rate every send draws
    /// exactly once whether or not the link would have carried it, and a
    /// sender's loss stream does not depend on who is dead or cut off;
    /// then the link must connect ([`can_communicate`](Self::can_communicate)).
    pub fn carries<R: Rng + ?Sized>(&self, src: NodeId, dst: NodeId, rng: &mut R) -> bool {
        !self.loses(rng) && self.can_communicate(src, dst)
    }

    /// Can a message currently travel from `src` to `dst`?
    ///
    /// Requires both endpoints alive and, if partitioned, co-located in some
    /// group. (The random drop rate is applied separately, by
    /// [`carries`](Self::carries) or the simulator's router, so it can
    /// consume randomness from the caller's RNG.)
    pub fn can_communicate(&self, src: NodeId, dst: NodeId) -> bool {
        if !self.is_alive(src) || !self.is_alive(dst) {
            return false;
        }
        if src == dst {
            return true;
        }
        if self.cuts.contains(&(src, dst)) {
            return false;
        }
        if self.partitions.is_empty() {
            return true;
        }
        self.partitions
            .iter()
            .any(|g| g.contains(&src) && g.contains(&dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn healthy_network_connects_everyone() {
        let f = FaultPlane::healthy();
        assert!(f.can_communicate(n(0), n(1)));
        assert!(f.is_alive(n(0)));
        assert!(!f.is_partitioned());
        assert_eq!(f.drop_rate(), 0.0);
    }

    #[test]
    fn dead_node_cannot_send_or_receive() {
        let mut f = FaultPlane::healthy();
        f.kill(n(1));
        assert!(!f.can_communicate(n(0), n(1)));
        assert!(!f.can_communicate(n(1), n(0)));
        assert!(f.can_communicate(n(0), n(2)));
        assert_eq!(f.dead.len(), 1);
        assert!(f.dead.contains(&n(1)));
    }

    #[test]
    fn revive_restores_connectivity() {
        let mut f = FaultPlane::healthy();
        f.kill(n(1));
        f.revive(n(1));
        assert!(f.can_communicate(n(0), n(1)));
        assert!(f.dead.is_empty());
    }

    #[test]
    fn killing_the_server_identity_works() {
        // The §4.4 scenario: the SLURM coordinator dies.
        let mut f = FaultPlane::healthy();
        f.kill(NodeId::server());
        assert!(!f.can_communicate(n(0), NodeId::server()));
        assert!(f.can_communicate(n(0), n(1))); // peers unaffected
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut f = FaultPlane::healthy();
        f.partition(vec![
            [n(0), n(1)].into_iter().collect(),
            [n(2), n(3)].into_iter().collect(),
        ]);
        assert!(f.is_partitioned());
        assert!(f.can_communicate(n(0), n(1)));
        assert!(f.can_communicate(n(2), n(3)));
        assert!(!f.can_communicate(n(0), n(2)));
        assert!(!f.can_communicate(n(3), n(1)));
    }

    #[test]
    fn node_outside_all_groups_is_isolated() {
        let mut f = FaultPlane::healthy();
        f.partition(vec![[n(0), n(1)].into_iter().collect()]);
        assert!(!f.can_communicate(n(0), n(5)));
        // ...but self-communication (local pool) always works.
        assert!(f.can_communicate(n(5), n(5)));
    }

    #[test]
    fn heal_partitions_restores_full_mesh() {
        let mut f = FaultPlane::healthy();
        f.partition(vec![
            [n(0)].into_iter().collect(),
            [n(1)].into_iter().collect(),
        ]);
        assert!(!f.can_communicate(n(0), n(1)));
        f.heal_partitions();
        assert!(f.can_communicate(n(0), n(1)));
    }

    #[test]
    fn partition_plus_death_compose() {
        let mut f = FaultPlane::healthy();
        f.partition(vec![[n(0), n(1)].into_iter().collect()]);
        f.kill(n(1));
        assert!(!f.can_communicate(n(0), n(1)));
    }

    #[test]
    fn link_cut_is_directional() {
        let mut f = FaultPlane::healthy();
        f.cut_link(n(0), n(1));
        assert!(f.is_partitioned());
        assert!(f.cuts.contains(&(n(0), n(1))));
        assert!(!f.can_communicate(n(0), n(1)));
        // Asymmetry: the reverse direction still flows.
        assert!(f.can_communicate(n(1), n(0)));
        assert!(f.can_communicate(n(0), n(2)));
    }

    #[test]
    fn heal_link_restores_one_direction_only() {
        let mut f = FaultPlane::healthy();
        f.cut_link(n(0), n(1));
        f.cut_link(n(1), n(0));
        assert!(!f.can_communicate(n(0), n(1)));
        assert!(!f.can_communicate(n(1), n(0)));
        f.heal_link(n(0), n(1));
        assert!(f.can_communicate(n(0), n(1)));
        assert!(!f.can_communicate(n(1), n(0)));
    }

    #[test]
    fn self_links_cannot_be_cut() {
        let mut f = FaultPlane::healthy();
        f.cut_link(n(3), n(3));
        assert!(f.can_communicate(n(3), n(3)));
        assert!(!f.is_partitioned());
    }

    #[test]
    fn link_cuts_compose_with_group_partitions() {
        let mut f = FaultPlane::healthy();
        f.partition(vec![[n(0), n(1), n(2)].into_iter().collect()]);
        f.cut_link(n(0), n(1));
        // In-group but cut: blocked one way only.
        assert!(!f.can_communicate(n(0), n(1)));
        assert!(f.can_communicate(n(1), n(0)));
        assert!(f.can_communicate(n(0), n(2)));
    }

    #[test]
    fn heal_partitions_clears_link_cuts_too() {
        let mut f = FaultPlane::healthy();
        f.cut_link(n(0), n(1));
        f.partition(vec![[n(0)].into_iter().collect()]);
        f.heal_partitions();
        assert!(!f.is_partitioned());
        assert!(f.can_communicate(n(0), n(1)));
    }

    #[test]
    fn link_cuts_compose_with_death() {
        let mut f = FaultPlane::healthy();
        f.cut_link(n(0), n(1));
        f.kill(n(0));
        assert!(!f.can_communicate(n(1), n(0))); // dead beats open link
        f.revive(n(0));
        assert!(f.can_communicate(n(1), n(0)));
        assert!(!f.can_communicate(n(0), n(1))); // cut survives revive
    }

    #[test]
    fn drop_rate_is_clamped() {
        let mut f = FaultPlane::healthy();
        f.set_drop_rate(1.7);
        assert_eq!(f.drop_rate(), 1.0);
        f.set_drop_rate(-0.3);
        assert_eq!(f.drop_rate(), 0.0);
        f.set_drop_rate(f64::NAN);
        assert_eq!(f.drop_rate(), 0.0);
        f.set_drop_rate(0.25);
        assert_eq!(f.drop_rate(), 0.25);
    }

    #[test]
    fn carries_draws_once_per_message_from_the_senders_stream() {
        use penelope_testkit::rng::TestRng;
        // A healthy plane draws nothing.
        let mut f = FaultPlane::healthy();
        let mut rng = TestRng::seed_from_u64(7);
        assert!(f.carries(n(0), n(1), &mut rng));
        assert_eq!(rng.next_u64(), TestRng::seed_from_u64(7).next_u64());

        // With a drop rate, one draw per message whether or not the link
        // would have carried it: a dead destination does not shift the
        // sender's loss stream.
        f.set_drop_rate(0.5);
        let mut rng = TestRng::seed_from_u64(7);
        let mut oracle = TestRng::seed_from_u64(7);
        for k in 0..200 {
            if k == 100 {
                f.kill(n(1));
            }
            let lost = oracle.gen_bool(0.5);
            assert_eq!(f.carries(n(0), n(1), &mut rng), !lost && k < 100, "{k}");
        }
        assert_eq!(rng.next_u64(), oracle.next_u64());
    }
}
