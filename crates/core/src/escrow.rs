//! Granter-side escrow of unacknowledged grants.
//!
//! A pool that answers a peer request debits the granted power
//! immediately, but on a lossy network the grant message may never reach
//! the requester — without further bookkeeping that power is burned
//! forever and the cluster monotonically bleeds capacity. The escrow
//! extends the §3.2 atomicity argument to unreliable delivery: every
//! non-zero grant is held here, keyed by the requester and the request's
//! `seq` echo, until one of
//!
//! * a [`GrantAck`](crate::protocol::GrantAck) arrives → the transfer
//!   committed; the entry is released;
//! * a retransmitted request for the same `seq` arrives → the escrowed
//!   amount is re-sent (never re-served, so the debit happens once);
//! * the escrow deadline passes → the transfer aborts; an
//!   [`Undelivered`](EscrowState::Undelivered) amount is re-credited to
//!   the granter's own pool, an [`AwaitingAck`](EscrowState::AwaitingAck)
//!   entry is dropped without credit (the power is with the requester or
//!   died with it — crediting it back would mint).
//!
//! # Representation
//!
//! The table is a `Vec` in insertion order, matched linearly on
//! `(seq, requester)`. A granter holds one entry per grant it has sent and
//! not yet seen acknowledged, and an entry lives one round trip — at worst
//! one escrow timeout, a handful of periods — so the population is tiny:
//! the most any engine held across the six benchmark workloads is 6 (on
//! the dense sharded cell, where half the cluster asks at once; 2–4 on the
//! others, the lossy one included). At that size a linear match over
//! 32-byte entries beats hashing the key, which is what the std hash
//! table this replaced did (SipHash over `(K, u64)`, three to four times
//! per exchange: 17–20 % of the dense sharded workload), and the empty
//! table is 24 bytes that draw no per-process hash keys at construction.
//! Insertion order is also what makes [`GrantEscrow::take_expired`] — and so
//! the order of `GrantReclaimed` events on substrates that sweep — a
//! function of the inputs alone, not of a per-process hasher seed.
//!
//! The table is generic over the requester key; every engine keys it by
//! [`NodeId`](penelope_units::NodeId).

use penelope_units::{Power, SimTime};

/// What the granter knows about an escrowed grant's delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EscrowState {
    /// The grant is known (or must be assumed) not to have reached the
    /// requester; the escrowed amount still carries accounting weight on
    /// the granter and is re-credited to its pool at the deadline.
    Undelivered,
    /// The grant was handed to the transport for delivery; the amount's
    /// accounting weight travelled with it, so the entry exists only to
    /// absorb the ack (or a retransmitted request) and is dropped without
    /// credit at the deadline.
    AwaitingAck,
}

/// One escrowed grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EscrowEntry<K> {
    /// Who the grant was addressed to.
    pub requester: K,
    /// The request's sequence number, echoed by grant and ack.
    pub seq: u64,
    /// The granted (already pool-debited) amount; never zero.
    pub amount: Power,
    /// Delivery knowledge.
    pub state: EscrowState,
    /// When the granter gives up waiting for the ack.
    pub deadline: SimTime,
}

/// The per-granter table of unacknowledged grants, in insertion order —
/// see the [module docs](self#representation).
#[derive(Clone, Debug)]
pub struct GrantEscrow<K> {
    entries: Vec<EscrowEntry<K>>,
}

impl<K> Default for GrantEscrow<K> {
    fn default() -> Self {
        GrantEscrow {
            entries: Vec::new(),
        }
    }
}

impl<K: Eq + Copy> GrantEscrow<K> {
    /// An empty escrow table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the entry for `(requester, seq)` sits, if it is held. `seq`
    /// is compared first: it differs between any two entries of one
    /// requester and between most entries of two.
    fn position(&self, requester: K, seq: u64) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.seq == seq && e.requester == requester)
    }

    /// Escrow a freshly served non-zero grant (or update the entry after a
    /// re-send changed its state or deadline).
    pub fn insert(
        &mut self,
        requester: K,
        seq: u64,
        amount: Power,
        state: EscrowState,
        deadline: SimTime,
    ) {
        debug_assert!(!amount.is_zero(), "zero grants are never escrowed");
        let entry = EscrowEntry {
            requester,
            seq,
            amount,
            state,
            deadline,
        };
        // An update keeps the entry's place: expiry order is the order the
        // grants were first served in.
        match self.position(requester, seq) {
            Some(at) => self.entries[at] = entry,
            None => self.entries.push(entry),
        }
    }

    /// Look up the escrow entry for a requester/seq pair (the dedup check
    /// a granter performs before serving any request).
    pub fn get(&self, requester: K, seq: u64) -> Option<&EscrowEntry<K>> {
        self.position(requester, seq).map(|at| &self.entries[at])
    }

    /// Mutable lookup (re-send paths update `state` and `deadline` in
    /// place).
    pub fn get_mut(&mut self, requester: K, seq: u64) -> Option<&mut EscrowEntry<K>> {
        self.position(requester, seq)
            .map(|at| &mut self.entries[at])
    }

    /// An ack arrived: release and return the entry, if any. Duplicate
    /// acks return `None` and are harmless.
    pub fn release(&mut self, requester: K, seq: u64) -> Option<EscrowEntry<K>> {
        self.position(requester, seq)
            .map(|at| self.entries.remove(at))
    }

    /// Remove and return the entry iff its deadline has passed — the
    /// handler for a single scheduled escrow timer. A timer made stale by
    /// a later re-send (which pushed the deadline out) returns `None`.
    pub fn expire_one(&mut self, requester: K, seq: u64, now: SimTime) -> Option<EscrowEntry<K>> {
        let at = self.position(requester, seq)?;
        (self.entries[at].deadline <= now).then(|| self.entries.remove(at))
    }

    /// Remove and return every entry whose deadline has passed, in the
    /// order they were first escrowed — the bulk form for substrates that
    /// poll once per period instead of scheduling per-entry timers. A sweep
    /// that finds nothing due allocates nothing.
    pub fn take_expired(&mut self, now: SimTime) -> Vec<EscrowEntry<K>> {
        let mut expired = Vec::new();
        self.entries.retain(|e| {
            let due = e.deadline <= now;
            if due {
                expired.push(*e);
            }
            !due
        });
        expired
    }

    /// Total escrowed power still carrying accounting weight on the
    /// granter (the [`Undelivered`](EscrowState::Undelivered) entries) —
    /// what conservation audits add to the granter's holdings.
    pub fn undelivered_total(&self) -> Power {
        self.entries
            .iter()
            .filter(|e| e.state == EscrowState::Undelivered)
            .map(|e| e.amount)
            .sum()
    }

    /// Drop every entry, returning the undelivered total that was retired
    /// with them (the granter-crash path: escrowed power dies with the
    /// node and must be booked as lost, exactly like its cap and pool).
    pub fn drain(&mut self) -> Power {
        let undelivered = self.undelivered_total();
        self.entries.clear();
        undelivered
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is escrowed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_units::NodeId;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn ack_releases_exactly_once() {
        let mut e: GrantEscrow<NodeId> = GrantEscrow::new();
        e.insert(NodeId::new(1), 7, w(20), EscrowState::AwaitingAck, t(5));
        assert_eq!(e.len(), 1);
        let entry = e.release(NodeId::new(1), 7).expect("entry");
        assert_eq!(entry.amount, w(20));
        assert!(e.release(NodeId::new(1), 7).is_none(), "duplicate ack");
        assert!(e.is_empty());
    }

    #[test]
    fn expiry_respects_deadline_and_staleness() {
        let mut e: GrantEscrow<NodeId> = GrantEscrow::new();
        e.insert(NodeId::new(2), 3, w(5), EscrowState::Undelivered, t(10));
        // Timer fires early (a re-send pushed the deadline): stale, no-op.
        assert!(e.expire_one(NodeId::new(2), 3, t(9)).is_none());
        assert_eq!(e.len(), 1);
        let entry = e.expire_one(NodeId::new(2), 3, t(10)).expect("expired");
        assert_eq!(entry.state, EscrowState::Undelivered);
        assert!(e.is_empty());
    }

    #[test]
    fn bulk_expiry_takes_only_due_entries() {
        let mut e: GrantEscrow<NodeId> = GrantEscrow::new();
        e.insert(NodeId::new(0), 1, w(1), EscrowState::Undelivered, t(5));
        e.insert(NodeId::new(0), 2, w(2), EscrowState::AwaitingAck, t(6));
        e.insert(NodeId::new(1), 1, w(4), EscrowState::Undelivered, t(20));
        let due = e.take_expired(t(6));
        assert_eq!(due.len(), 2);
        assert_eq!(e.len(), 1);
        assert_eq!(e.undelivered_total(), w(4));
    }

    #[test]
    fn bulk_expiry_returns_due_entries_in_the_order_they_were_escrowed() {
        // Under the hashed table this order followed a per-process hasher
        // seed, and with it the order of `GrantReclaimed` events on every
        // substrate that sweeps.
        let mut e: GrantEscrow<NodeId> = GrantEscrow::new();
        e.insert(NodeId::new(9), 4, w(1), EscrowState::Undelivered, t(5));
        e.insert(NodeId::new(2), 8, w(2), EscrowState::Undelivered, t(30));
        e.insert(NodeId::new(5), 1, w(3), EscrowState::Undelivered, t(4));
        // A re-send pushes the first entry's deadline out and back; it
        // keeps its place.
        e.insert(NodeId::new(9), 4, w(1), EscrowState::AwaitingAck, t(6));
        let due: Vec<(u32, u64)> = e
            .take_expired(t(6))
            .iter()
            .map(|d| (d.requester.raw(), d.seq))
            .collect();
        assert_eq!(due, [(9, 4), (5, 1)]);
        assert_eq!(e.len(), 1);
        assert!(e.get(NodeId::new(2), 8).is_some());
    }

    #[test]
    fn only_undelivered_entries_carry_weight() {
        let mut e: GrantEscrow<NodeId> = GrantEscrow::new();
        e.insert(NodeId::new(0), 1, w(10), EscrowState::Undelivered, t(5));
        e.insert(NodeId::new(0), 2, w(20), EscrowState::AwaitingAck, t(5));
        assert_eq!(e.undelivered_total(), w(10));
        assert_eq!(e.drain(), w(10));
        assert!(e.is_empty());
    }

    #[test]
    fn resend_updates_state_in_place() {
        let mut e: GrantEscrow<NodeId> = GrantEscrow::new();
        e.insert(NodeId::new(3), 9, w(8), EscrowState::Undelivered, t(4));
        let entry = e.get_mut(NodeId::new(3), 9).expect("entry");
        entry.state = EscrowState::AwaitingAck;
        entry.deadline = t(8);
        assert_eq!(e.undelivered_total(), Power::ZERO);
        assert!(e.expire_one(NodeId::new(3), 9, t(4)).is_none());
        assert!(e.expire_one(NodeId::new(3), 9, t(8)).is_some());
    }
}
