//! The peer-to-peer wire protocol.
//!
//! The paper needs two message types (§3): a request from a power-hungry
//! decider to a randomly chosen pool, and the pool's grant in response. A
//! grant of zero power is still sent — the requester is blocked on the
//! reply. A third message, the [`GrantAck`], closes the loop on lossy
//! networks: the granter escrows every non-zero grant until the requester
//! acknowledges it, so a grant destroyed in flight can be re-credited
//! instead of burning budget forever (the §3.2 atomicity argument extended
//! to unreliable delivery).

use penelope_units::{NodeId, Power};

/// A decider's request for power, addressed to another node's pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PowerRequest {
    /// The requesting node (where the grant should be sent).
    pub from: NodeId,
    /// True iff the requester is power-hungry *and* below its initial cap.
    pub urgent: bool,
    /// For urgent requests: the power needed to return to the initial cap
    /// (α in §3.2). Zero for non-urgent requests.
    pub alpha: Power,
    /// Requester-local sequence number, echoed in the grant.
    pub seq: u64,
}

/// A pool's response to a [`PowerRequest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PowerGrant {
    /// Power transferred. The pool has already debited this amount, so the
    /// recipient *must* either raise its cap by it or re-deposit it —
    /// dropping it on the floor would leak budget.
    pub amount: Power,
    /// Echo of the request's sequence number.
    pub seq: u64,
}

/// A requester's acknowledgement that a non-zero [`PowerGrant`] arrived
/// and was applied (or re-deposited). Receipt releases the granter's
/// escrow entry for `seq`; until then the granter treats the grant as
/// possibly lost and will re-credit it to its own pool on timeout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantAck {
    /// Echo of the granted request's sequence number.
    pub seq: u64,
}

/// Upper bound on [`SuspicionDigest`] entries per message, whatever the
/// configured [`gossip_digest`](crate::DeciderConfig::gossip_digest) says:
/// gossip must never bloat the datagram past a couple of cache lines.
pub const MAX_DIGEST_ENTRIES: usize = 4;

/// One gossiped suspicion: the sender currently suspects `peer`, last
/// known to be at `incarnation`. Receivers adopt the entry only if they
/// have no evidence of a newer incarnation of `peer`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuspicionEntry {
    /// The suspected node.
    pub peer: NodeId,
    /// The incarnation of `peer` the suspicion was formed against.
    pub incarnation: u64,
}

/// A bounded SWIM-style liveness digest piggybacked on grants and acks.
///
/// Carries the sender's own incarnation counter (its persistent seq-epoch
/// floor — monotone within a life and raised past the pre-crash watermark
/// on every rebirth) plus up to [`MAX_DIGEST_ENTRIES`] of the sender's
/// current suspicions. A digest is firsthand proof its sender is alive at
/// `incarnation`, so stale suspicions of a rejoined node are refuted by
/// the very messages it sends.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SuspicionDigest {
    /// The sender's own incarnation (seq-epoch floor).
    pub incarnation: u64,
    /// The sender's current suspicions, in ascending `peer` order (the
    /// deterministic order every substrate must produce).
    pub entries: Vec<SuspicionEntry>,
}

/// The Penelope peer protocol.
///
/// Grants and acks optionally piggyback a boxed [`SuspicionDigest`]; the
/// option is `None` on every fault-free run, so the hot path allocates
/// nothing and the message stays a few machine words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PeerMsg {
    /// Decider → pool.
    Request(PowerRequest),
    /// Pool → decider.
    Grant(PowerGrant, Option<Box<SuspicionDigest>>),
    /// Decider → pool: the grant arrived; release its escrow.
    Ack(GrantAck, Option<Box<SuspicionDigest>>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_small() {
        // The protocol must stay cheap at scale: a few machine words.
        assert!(std::mem::size_of::<PeerMsg>() <= 40);
    }

    #[test]
    fn grant_echoes_sequence() {
        let req = PowerRequest {
            from: NodeId::new(3),
            urgent: true,
            alpha: Power::from_watts_u64(12),
            seq: 77,
        };
        let grant = PowerGrant {
            amount: Power::from_watts_u64(12),
            seq: req.seq,
        };
        assert_eq!(grant.seq, 77);
    }

    #[test]
    fn ack_echoes_sequence() {
        let ack = GrantAck { seq: 42 };
        assert_eq!(
            PeerMsg::Ack(ack, None),
            PeerMsg::Ack(GrantAck { seq: 42 }, None)
        );
    }

    #[test]
    fn digest_rides_in_one_machine_word() {
        // The digest slot must not grow the message: `Option<Box<_>>` is
        // pointer-sized and `None` on the fault-free path.
        assert_eq!(
            std::mem::size_of::<Option<Box<SuspicionDigest>>>(),
            std::mem::size_of::<usize>()
        );
    }
}
