//! The client↔server wire protocol.

use penelope_units::{NodeId, Power};

/// The server's response to a client request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerGrant {
    /// Power transferred from the global cache.
    pub amount: Power,
    /// Centralized urgency: the server is telling this (non-urgent) client
    /// to release power down to its initial cap because an urgent node
    /// could not be made whole.
    pub release_to_initial: bool,
    /// Echo of the request's sequence number.
    pub seq: u64,
}

/// Messages exchanged between SLURM clients and the central server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlurmMsg {
    /// Client → server: the node freed this much power (its cap has
    /// already been lowered).
    Report {
        /// Reporting node.
        from: NodeId,
        /// Power released to the global cache.
        excess: Power,
    },
    /// Client → server: the node is power-hungry.
    Request {
        /// Requesting node.
        from: NodeId,
        /// Hungry *and* below its initial cap.
        urgent: bool,
        /// Power needed to return to the initial cap (urgent only).
        alpha: Power,
        /// Client-local sequence number.
        seq: u64,
    },
    /// Server → client.
    Grant(ServerGrant),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_small() {
        assert!(std::mem::size_of::<SlurmMsg>() <= 48);
    }

    #[test]
    fn grant_roundtrip_fields() {
        let g = ServerGrant {
            amount: Power::from_watts_u64(7),
            release_to_initial: true,
            seq: 3,
        };
        if let SlurmMsg::Grant(back) = SlurmMsg::Grant(g) {
            assert_eq!(back, g);
        } else {
            unreachable!()
        }
    }
}
