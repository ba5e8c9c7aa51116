//! The invariants every substrate run is held to, and the violations
//! that name their breaches.
//!
//! On the per-period cuts ([`SubstrateRun::snapshots`]):
//!
//! 1. **No minting** — live caps + pool balances + in-flight power never
//!    exceed the cluster budget (minus power retired by faults).
//! 2. **Safe caps** — every live node's cap stays inside the safe range.
//! 3. **Pool accounting** — per node,
//!    `total_deposited == total_granted + drained + available` exactly.
//! 4. **Zero-sum** — every consistent cut, and the end state, accounts
//!    for the initial budget *exactly* (an end state after an inconsistent
//!    last cut must only not exceed it).
//! 5. **No peer loss** — unless the script kills a node, nothing is ever
//!    booked as lost.
//! 6. **Non-vacuous loss** — a script that sets a drop rate over enough
//!    traffic must see the fault plane drop something.
//!
//! On the recorded event stream ([`SubstrateRun::events`]), the
//! transaction rules of Algorithm 2 — every grant is zero-sum and atomic:
//!
//! 7. **Grant applied once** — per node and sequence number, at most one
//!    `GrantApplied` moves power.
//! 8. **Single debit** — per requester and sequence number, at most one
//!    `RequestServed` debits a pool, and every `GrantApplied` that moves
//!    power pairs with one. An empty pool's zero grant debits nothing and
//!    is not escrowed, so a retransmit of that request is served again.
//! 9. **Urgency alternates** — per pool, `UrgencyRaised` never follows
//!    another without an `UrgencyCleared` (or a rebirth) between them.
//! 10. **Seq epochs are monotone** — per node, request sequence numbers
//!     never decrease, crashes and rebirths included, so a stale
//!     pre-crash grant stays distinguishable from a fresh one.
//!
//! Every substrate cuts a consistent global state each period: the
//! simulator trivially (single-threaded), the multiplexed daemon by
//! pumping each round until every frame has landed. A snapshot still carries a `consistent_cut`
//! flag, because the daemon's kernel can lose a datagram the round then
//! writes off; from then on its cross-node sums are skipped per period,
//! the per-node invariants (2) and (3) still hold every period, and the
//! end state must not exceed the budget.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use penelope_trace::{EventKind, TraceEvent};
use penelope_units::NodeId;

use super::{Scenario, SubstrateRun};

/// Which invariant a violation breaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// Live power exceeded the (fault-adjusted) cluster budget.
    NoMinting,
    /// A live cap left the safe range.
    CapWithinSafe,
    /// Pool lifetime accounting failed to balance.
    PoolBalanced,
    /// A consistent cut, or the end state, did not sum exactly to the
    /// initial budget.
    ZeroSum,
    /// Power was booked as lost under a script that kills no node: every
    /// grant dropped or stranded by a cut must be escrowed and reclaimed,
    /// so `lost` has nothing legitimate to count.
    NoPeerLoss,
    /// A script setting a drop rate ran with zero observed drops on
    /// a substrate that counts them: the fault plane was never wired in,
    /// and every loss-tolerance conclusion from the run is vacuous.
    NonVacuousLoss,
    /// A node applied a power-moving grant for one sequence number twice.
    GrantAppliedOnce,
    /// A pool debited one request twice, or a node applied power no pool
    /// debited.
    SingleDebit,
    /// A pool raised urgency while it was already raised.
    UrgencyAlternates,
    /// A node's request sequence number went backwards.
    SeqEpochMonotone,
}

/// One invariant violation, locatable and reproducible.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Substrate that produced the snapshot.
    pub substrate: String,
    /// Scenario seed — rerunning with this seed reproduces the failure.
    pub seed: u64,
    /// Period at which it broke.
    pub period: u64,
    /// Node involved, if the invariant is per-node.
    pub node: Option<u32>,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?}] substrate={} seed={:#018x} period={}{}: {}",
            self.invariant,
            self.substrate,
            self.seed,
            self.period,
            match self.node {
                Some(n) => format!(" node={n}"),
                None => String::new(),
            },
            self.detail
        )
    }
}

/// Check every invariant of the module doc over one substrate run: its
/// cuts, its end state and its event stream.
///
/// Returns all violations found (empty = conformant). Per period, exact
/// zero-sum is only required on consistent cuts; the no-minting
/// inequality is also only meaningful there (an inconsistent cut can
/// double-count a transferred watt, so cross-node sums are skipped for
/// those snapshots).
pub fn check_run(scenario: &Scenario, run: &SubstrateRun) -> Vec<Violation> {
    let mut out = Vec::new();
    let budget = scenario.cfg.budget;
    let safe = scenario.cfg.node.safe_range;
    let kills_a_node = scenario.kills_a_node();
    let violation = |invariant, period, node, detail: String| Violation {
        invariant,
        substrate: run.substrate.clone(),
        seed: scenario.cfg.seed,
        period,
        node,
        detail,
    };

    for snap in &run.snapshots {
        // Per-node invariants hold on every snapshot, consistent or not:
        // each row was sampled atomically on its own node.
        for n in &snap.nodes {
            if n.alive && !safe.contains(n.cap) {
                out.push(violation(
                    Invariant::CapWithinSafe,
                    snap.period,
                    Some(n.node),
                    format!(
                        "cap {:?} outside safe [{:?}, {:?}]",
                        n.cap,
                        safe.min(),
                        safe.max()
                    ),
                ));
            }
            let outgo = n.pool_granted + n.pool_drained + n.pool_available;
            if n.pool_deposited != outgo {
                out.push(violation(
                    Invariant::PoolBalanced,
                    snap.period,
                    Some(n.node),
                    format!(
                        "pool unbalanced: deposited {:?} != granted {:?} + drained {:?} + available {:?}",
                        n.pool_deposited, n.pool_granted, n.pool_drained, n.pool_available
                    ),
                ));
            }
        }

        // Unless the script kills a node, nothing dies, so nothing may be
        // retired: under pure connectivity faults (random loss, partitions,
        // link cuts, flapping) a non-zero `lost` means a dropped peer
        // message burned power the escrow should have reclaimed. Checked on
        // every snapshot — the counter is per-substrate-local, so it needs
        // no consistent cut.
        if !kills_a_node && !snap.lost.is_zero() {
            out.push(violation(
                Invariant::NoPeerLoss,
                snap.period,
                None,
                format!(
                    "{:?} booked as lost under a script that kills no node",
                    snap.lost
                ),
            ));
        }

        if snap.consistent_cut {
            let live = snap.accounted_live();
            let accounted = live + snap.lost;
            if accounted > budget {
                out.push(violation(
                    Invariant::NoMinting,
                    snap.period,
                    None,
                    format!(
                        "accounted {:?} (live {:?} + lost {:?}) exceeds budget {:?}",
                        accounted, live, snap.lost, budget
                    ),
                ));
            }
            if accounted != budget {
                out.push(violation(
                    Invariant::ZeroSum,
                    snap.period,
                    None,
                    format!(
                        "consistent cut accounts {:?} (live {:?} + lost {:?}), budget {:?}",
                        accounted, live, snap.lost, budget
                    ),
                ));
            }
        }
    }

    // A lossy scenario that observably dropped nothing proved nothing:
    // loss-tolerance coverage is only real if the fault plane actually
    // fired. Zero drops is legitimate randomness when the expected count
    // is small (a 5 % rate over a few dozen messages often drops nothing),
    // so the check only fires once it reaches 20 — an honest fault plane
    // drops zero there with probability ≤ e⁻²⁰. The expectation is the
    // attempts times the rate averaged over the run's periods: attempts
    // are counted for the whole run, so a rate that starts at period *p*
    // is judged against the share of them made from *p* on, taking
    // traffic as even across periods.
    let rates = (0..scenario.periods).map(|p| scenario.drop_rate_in(p));
    let mean_rate = rates.sum::<f64>() / scenario.periods.max(1) as f64;
    let attempts = run.send_attempts();
    if mean_rate > 0.0 && attempts as f64 * mean_rate >= 20.0 && run.injected_drops() == 0 {
        out.push(violation(
            Invariant::NonVacuousLoss,
            scenario.periods,
            None,
            format!(
                "the script sets a mean drop rate of {mean_rate} but the substrate injected \
                 zero drops over {attempts} send attempts — the lossy coverage is vacuous",
            ),
        ));
    }

    // The end state is the last cut, drained: it balances exactly on
    // every substrate whose last cut is consistent. After a daemon
    // write-off it is not, and a grant delivered but lost with the frame
    // sits in no term, so there it must only not exceed the budget.
    let end_exact = run.snapshots.last().is_none_or(|s| s.consistent_cut);
    if run.final_total > budget || (end_exact && run.final_total != budget) {
        out.push(violation(
            Invariant::ZeroSum,
            scenario.periods,
            None,
            format!(
                "final accounted total {:?}, budget {:?}",
                run.final_total, budget
            ),
        ));
    }

    check_events(&run.events, |invariant, ev, detail| {
        out.push(violation(invariant, ev.period, Some(ev.node.raw()), detail));
    });

    out
}

/// Hold a recorded stream to the transaction rules (invariants 7–10 of
/// the module doc), calling `flag` with the rule and the offending event.
fn check_events(events: &[TraceEvent], mut flag: impl FnMut(Invariant, &TraceEvent, String)) {
    // (requester, seq) of every request a pool debited, and (node, seq) of
    // every grant that moved power into a cap.
    let mut debited: HashSet<(NodeId, u64)> = HashSet::new();
    let mut applied: HashSet<(NodeId, u64)> = HashSet::new();
    let mut urgent: HashSet<NodeId> = HashSet::new();
    let mut last_seq: HashMap<NodeId, u64> = HashMap::new();
    for ev in events {
        match ev.kind {
            EventKind::RequestServed {
                requester,
                seq,
                granted,
                ..
            } if !granted.is_zero() && !debited.insert((requester, seq)) => {
                let node = requester.raw();
                let detail = format!("debited request (node {node}, seq {seq}) again");
                flag(Invariant::SingleDebit, ev, detail);
            }
            EventKind::GrantApplied { seq, granted, .. } if !granted.is_zero() => {
                if !applied.insert((ev.node, seq)) {
                    let detail = format!("applied {granted:?} for seq {seq} a second time");
                    flag(Invariant::GrantAppliedOnce, ev, detail);
                }
                if !debited.contains(&(ev.node, seq)) {
                    let detail =
                        format!("applied {granted:?} for seq {seq}, which no pool debited");
                    flag(Invariant::SingleDebit, ev, detail);
                }
            }
            EventKind::UrgencyRaised { by } if !urgent.insert(ev.node) => {
                let detail = format!("urgency raised by node {} while already up", by.raw());
                flag(Invariant::UrgencyAlternates, ev, detail);
            }
            // A rebirth starts with a fresh pool, its flag down.
            EventKind::UrgencyCleared { .. } | EventKind::NodeRestarted { .. } => {
                urgent.remove(&ev.node);
            }
            EventKind::RequestSent { seq, .. } => {
                if let Some(prev) = last_seq.insert(ev.node, seq).filter(|prev| seq < *prev) {
                    let detail = format!("request seq regressed {prev} -> {seq}");
                    flag(Invariant::SeqEpochMonotone, ev, detail);
                }
            }
            _ => {}
        }
    }
}

/// Strip a stream down to its comparable core: transport events out
/// (delivery timing is substrate-specific), timestamps and period ids out,
/// and the remaining protocol events grouped per node in recorded order.
/// Two substrates running the same scenario from the same seed on an
/// idealized transport ([`Scenario::idealized`]) produce equal ones.
pub fn normalize_protocol(events: &[TraceEvent]) -> BTreeMap<u32, Vec<EventKind>> {
    let mut per_node: BTreeMap<u32, Vec<EventKind>> = BTreeMap::new();
    for ev in events.iter().filter(|ev| ev.kind.is_protocol()) {
        per_node.entry(ev.node.raw()).or_default().push(ev.kind);
    }
    per_node
}
