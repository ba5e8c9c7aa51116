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

use std::cell::RefCell;

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

/// Most spare digest boxes one thread keeps for reuse: past it a
/// recycled box is freed, so a thread that only recycles (a shard
/// receiving digests another shard built) holds at most this many.
const SPARE_DIGESTS: usize = 16;

thread_local! {
    /// This thread's spare digest boxes, each keeping its `entries`
    /// capacity. The boxes themselves are what is reused, hence
    /// `Vec<Box<_>>`.
    #[allow(clippy::vec_box)]
    static SPARES: RefCell<Vec<Box<SuspicionDigest>>> = const { RefCell::new(Vec::new()) };
}

impl SuspicionDigest {
    /// An empty digest under `incarnation`, boxed: a box this thread
    /// [recycled](SuspicionDigest::recycle), cleared, when it has one, so
    /// a gossiping message costs no heap acquisition; otherwise a new box.
    pub fn boxed(incarnation: u64) -> Box<SuspicionDigest> {
        match SPARES.try_with(|s| s.borrow_mut().pop()).ok().flatten() {
            Some(mut digest) => {
                digest.incarnation = incarnation;
                digest.entries.clear();
                digest
            }
            None => Box::new(SuspicionDigest {
                incarnation,
                entries: Vec::new(),
            }),
        }
    }

    /// Give a box back once its digest has been merged or encoded. The
    /// thread keeps it for the next [`boxed`](SuspicionDigest::boxed)
    /// while it holds fewer than a small cap (16 boxes); past that the box
    /// is freed.
    pub fn recycle(digest: Box<SuspicionDigest>) {
        let _ = SPARES.try_with(|s| {
            let mut spares = s.borrow_mut();
            if spares.len() < SPARE_DIGESTS {
                spares.push(digest);
            }
        });
    }
}

/// The Penelope peer protocol.
///
/// Grants and acks optionally piggyback a boxed [`SuspicionDigest`]. The
/// option is `None` while a node suspects no one and its incarnation (its
/// seq-epoch floor) is still 0. Once it has spent more than
/// [`APPLIED_SEQ_WINDOW`](crate::APPLIED_SEQ_WINDOW) seqs the floor is
/// positive, and every grant and ack it sends carries at least its
/// incarnation, even on a fault-free run. The box comes from the
/// sending thread's spares and goes back after the receiver merges it
/// (or the wire encodes it), so the message stays a few machine words and
/// a warm thread allocates nothing for it.
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

    fn spares_held() -> usize {
        SPARES.with(|s| s.borrow().len())
    }

    #[test]
    fn a_thread_that_only_recycles_holds_at_most_the_cap() {
        // The sharded simulator's outbox shape: digests built on one
        // thread, merged and given back on another. The producer's
        // spares run dry and it allocates; the consumer's stop at the cap.
        let (tx, rx) = std::sync::mpsc::channel();
        let producer = std::thread::spawn(move || {
            for i in 0..4 * SPARE_DIGESTS as u64 {
                let mut digest = SuspicionDigest::boxed(i);
                digest.entries.push(SuspicionEntry {
                    peer: NodeId::new(i as u32),
                    incarnation: i,
                });
                tx.send(digest).expect("consumer alive");
                assert_eq!(spares_held(), 0);
            }
        });
        let consumer = std::thread::spawn(move || {
            for digest in rx {
                SuspicionDigest::recycle(digest);
                assert!(spares_held() <= SPARE_DIGESTS);
            }
            assert_eq!(spares_held(), SPARE_DIGESTS);
            // What the consumer hands out next is cleared, and keeps its
            // entry capacity.
            let digest = SuspicionDigest::boxed(7);
            assert_eq!(
                *digest,
                SuspicionDigest {
                    incarnation: 7,
                    entries: Vec::new(),
                }
            );
            assert!(digest.entries.capacity() > 0);
        });
        producer.join().expect("producer");
        consumer.join().expect("consumer");
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
