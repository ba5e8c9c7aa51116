//! Cluster node identity.

use std::fmt;

/// A dense index identifying a node in the cluster.
///
/// Nodes are numbered `0..n` at cluster construction. The special value
/// produced by [`NodeId::server`] conventionally identifies the SLURM
/// central server when one exists (the paper dedicates one physical node to
/// it; clients never run workloads there).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Construct from a raw index.
    #[inline]
    pub const fn new(idx: u32) -> Self {
        NodeId(idx)
    }

    /// The reserved identity of a centralized coordinator.
    #[inline]
    pub const fn server() -> Self {
        NodeId(u32::MAX)
    }

    /// True iff this is the reserved coordinator identity.
    #[inline]
    pub(crate) const fn is_server(self) -> bool {
        self.0 == u32::MAX
    }

    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_server() {
            write!(f, "node(server)")
        } else {
            write!(f, "node{}", self.0)
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let n = NodeId::new(17);
        assert_eq!(n.index(), 17);
        assert_eq!(n.raw(), 17);
        assert_eq!(NodeId::from(17u32), n);
    }

    #[test]
    fn server_identity_is_distinct() {
        assert!(NodeId::server().is_server());
        assert!(!NodeId::new(0).is_server());
        assert_ne!(NodeId::server(), NodeId::new(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(3).to_string(), "node3");
        assert_eq!(NodeId::server().to_string(), "node(server)");
    }

    #[test]
    fn usable_as_map_key_and_sortable() {
        let mut v = vec![NodeId::new(2), NodeId::new(0), NodeId::new(1)];
        v.sort();
        assert_eq!(v, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        let mut set = std::collections::HashSet::new();
        set.insert(NodeId::new(5));
        assert!(set.contains(&NodeId::new(5)));
    }
}
