//! Invariant checks and normalization for structured protocol-event
//! streams.
//!
//! The observer layer gives every substrate the same event vocabulary
//! ([`penelope_trace::EventKind`]); this module holds the checks the test
//! suite runs against any recorded stream, plus the normalization that
//! makes streams from different substrates comparable:
//!
//! * [`check_grant_served_pairing`] — every `GrantApplied` on a node pairs
//!   with exactly one `RequestServed` naming that node and sequence number
//!   (the converse is *not* an invariant: a grant to a crashed node is
//!   served but never applied).
//! * [`check_urgency_alternation`] — per pool, `UrgencyRaised` and
//!   consuming `UrgencyCleared` strictly alternate.
//! * [`check_seq_epochs_monotone`] — per node, request sequence numbers
//!   never decrease, crashes and rebirths included.
//! * [`normalize_protocol`] — strip transport (`Msg*`) events and
//!   timestamps, leaving the per-node protocol-decision sequence that must
//!   match across substrates for the same seed.

use std::collections::{BTreeMap, HashMap, HashSet};

use penelope_trace::{EventKind, TraceEvent};
use penelope_units::NodeId;

/// A substrate-neutral rendering of one protocol decision: the node it
/// happened on plus the event kind, with time erased.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolStep {
    /// The node the event was recorded on.
    pub node: NodeId,
    /// What happened.
    pub kind: EventKind,
}

/// Strip a stream down to its comparable core: transport events out
/// (delivery timing is substrate-specific), timestamps and period ids out,
/// and the remaining protocol events grouped per node in recorded order.
///
/// Two substrates running the same scenario from the same seed must
/// produce identical normalized streams; that is the conformance
/// harness's event-level oracle.
pub fn normalize_protocol(events: &[TraceEvent]) -> BTreeMap<u32, Vec<EventKind>> {
    let mut per_node: BTreeMap<u32, Vec<EventKind>> = BTreeMap::new();
    for ev in events {
        if ev.kind.is_protocol() {
            per_node
                .entry(ev.node.index() as u32)
                .or_default()
                .push(ev.kind);
        }
    }
    per_node
}

/// Check that every `GrantApplied` recorded on a node has exactly one
/// earlier `RequestServed` (on any node's pool) naming that node and
/// sequence number. Returns human-readable violations, empty when clean.
pub fn check_grant_served_pairing(events: &[TraceEvent]) -> Vec<String> {
    let mut violations = Vec::new();
    // (requester, seq) -> number of times a pool served that request.
    let mut served: HashMap<(u32, u64), u32> = HashMap::new();
    let mut applied: HashSet<(u32, u64)> = HashSet::new();
    for ev in events {
        match ev.kind {
            EventKind::RequestServed { requester, seq, .. } => {
                *served.entry((requester.index() as u32, seq)).or_insert(0) += 1;
            }
            EventKind::GrantApplied { seq, .. } => {
                let key = (ev.node.index() as u32, seq);
                if !applied.insert(key) {
                    violations.push(format!(
                        "node {} applied a grant for seq {seq} twice",
                        ev.node.index()
                    ));
                }
                match served.get(&key) {
                    None => violations.push(format!(
                        "node {} applied a grant for seq {seq} that no pool served",
                        ev.node.index()
                    )),
                    Some(1) => {}
                    Some(n) => violations.push(format!(
                        "request (node {}, seq {seq}) was served {n} times",
                        ev.node.index()
                    )),
                }
            }
            _ => {}
        }
    }
    violations
}

/// Check that urgency transitions recorded on each pool's node strictly
/// alternate: a `UrgencyRaised` is only legal when urgency is down, and a
/// *consuming* `UrgencyCleared` (one that releases power back to the pool,
/// or any explicit raise→clear edge) only when it is up.
///
/// `UrgencyCleared { released: ZERO }` events are emitted both by pools
/// observing a true→false edge and by deciders consuming the flag with an
/// empty pool, so only the ordering relative to `UrgencyRaised` on the
/// same node is checked — never two raises in a row, never a clear before
/// the first raise.
pub fn check_urgency_alternation(events: &[TraceEvent]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut up: HashMap<u32, bool> = HashMap::new();
    for ev in events {
        let node = ev.node.index() as u32;
        match ev.kind {
            EventKind::UrgencyRaised { .. } => {
                let flag = up.entry(node).or_insert(false);
                if *flag {
                    violations.push(format!(
                        "node {node}: urgency raised twice without an intervening clear at {}",
                        ev.at
                    ));
                }
                *flag = true;
            }
            EventKind::UrgencyCleared { .. } => {
                // Clears are idempotent (decider consumption emits one per
                // period while the flag is down), so only reset the state.
                up.insert(node, false);
            }
            _ => {}
        }
    }
    violations
}

/// Check the seq-epoch contract: per node, the sequence numbers of its
/// `RequestSent` events never decrease across the whole stream
/// (retransmits legitimately repeat a seq) — a rebirth must continue the
/// namespace, never rewind it, or a stale pre-crash grant becomes
/// indistinguishable from a fresh one.
pub fn check_seq_epochs_monotone(events: &[TraceEvent]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut last: HashMap<u32, u64> = HashMap::new();
    for ev in events {
        if let EventKind::RequestSent { seq, .. } = ev.kind {
            let node = ev.node.index() as u32;
            if let Some(prev) = last.insert(node, seq).filter(|prev| seq < *prev) {
                violations.push(format!(
                    "node {node}: request seq regressed {prev} -> {seq}"
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_units::{Power, SimTime};

    fn ev(node: u32, at_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(at_ns),
            node: NodeId::new(node),
            period: 0,
            kind,
        }
    }

    fn served(pool: u32, requester: u32, seq: u64) -> TraceEvent {
        ev(
            pool,
            seq * 10,
            EventKind::RequestServed {
                requester: NodeId::new(requester),
                seq,
                granted: Power::from_watts_u64(5),
                urgent: false,
            },
        )
    }

    fn applied(node: u32, seq: u64) -> TraceEvent {
        ev(
            node,
            seq * 10 + 5,
            EventKind::GrantApplied {
                seq,
                granted: Power::from_watts_u64(5),
                applied: Power::from_watts_u64(5),
            },
        )
    }

    #[test]
    fn pairing_accepts_served_then_applied() {
        let events = vec![served(0, 1, 7), applied(1, 7)];
        assert!(check_grant_served_pairing(&events).is_empty());
    }

    #[test]
    fn pairing_accepts_served_never_applied() {
        // A grant to a dead node is served but never applied — legal.
        let events = vec![served(0, 1, 7)];
        assert!(check_grant_served_pairing(&events).is_empty());
    }

    #[test]
    fn pairing_rejects_unserved_grant() {
        let events = vec![applied(1, 7)];
        let v = check_grant_served_pairing(&events);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("no pool served"));
    }

    #[test]
    fn pairing_rejects_double_serve_and_double_apply() {
        let events = vec![
            served(0, 1, 7),
            served(2, 1, 7),
            applied(1, 7),
            applied(1, 7),
        ];
        let v = check_grant_served_pairing(&events);
        assert!(v.iter().any(|m| m.contains("twice")));
        assert!(v.iter().any(|m| m.contains("served 2 times")));
    }

    #[test]
    fn urgency_alternation_allows_raise_clear_raise() {
        let raise = |node, at| ev(node, at, EventKind::UrgencyRaised { by: NodeId::new(9) });
        let clear = |node, at| {
            ev(
                node,
                at,
                EventKind::UrgencyCleared {
                    released: Power::ZERO,
                },
            )
        };
        let ok = vec![
            raise(0, 1),
            clear(0, 2),
            raise(0, 3),
            clear(0, 4),
            clear(0, 5),
        ];
        assert!(check_urgency_alternation(&ok).is_empty());

        let bad = vec![raise(0, 1), raise(0, 2)];
        let v = check_urgency_alternation(&bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("raised twice"));
    }

    #[test]
    fn normalize_drops_transport_and_groups_by_node() {
        let events = vec![
            ev(
                1,
                5,
                EventKind::MsgSent {
                    dst: NodeId::new(0),
                    carried: Power::ZERO,
                },
            ),
            served(0, 1, 7),
            applied(1, 7),
            ev(
                0,
                9,
                EventKind::MsgRecv {
                    src: NodeId::new(1),
                    carried: Power::ZERO,
                },
            ),
        ];
        let norm = normalize_protocol(&events);
        assert_eq!(norm.len(), 2);
        assert_eq!(norm[&0].len(), 1);
        assert_eq!(norm[&1].len(), 1);
        assert!(matches!(
            norm[&1][0],
            EventKind::GrantApplied { seq: 7, .. }
        ));
    }

    #[test]
    fn seq_epochs_allow_repeats_and_reject_a_rewind() {
        let sent = |node, seq| {
            let kind = EventKind::RequestSent {
                dst: NodeId::new(9),
                urgent: false,
                alpha: Power::ZERO,
                seq,
            };
            ev(node, seq, kind)
        };
        // A retransmit repeats its seq; another node's seqs are its own.
        let clean = [sent(0, 4), sent(1, 0), sent(0, 4), sent(0, 5)];
        assert!(check_seq_epochs_monotone(&clean).is_empty());
        let v = check_seq_epochs_monotone(&[sent(0, 4), sent(0, 5), sent(0, 0)]);
        assert_eq!(v, ["node 0: request seq regressed 5 -> 0"]);
    }
}
