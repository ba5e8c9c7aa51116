//! The invariants every substrate run is held to, the violations that
//! name their breaches, and the one runner that holds a scenario to them
//! on a leg ([`assert_conformant`]).
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
//! 6. **Non-vacuous** — the run shows what its scenario asks of it,
//!    worked out from the scenario alone:
//!    (a) some node sent a peer request, or rules 7–10 held over nothing;
//!    (b) a script that sets a drop rate over enough traffic saw the fault
//!    plane drop something;
//!    (c) under duplication or delay, a leg that counts them reports at
//!    least one once enough traffic was sent;
//!    (d) every cut's per-node liveness is the script's `Kill`s and
//!    `Restart`s walked up to the start of that cut's period, and the end
//!    state's is the last cut's.
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
//! Cut `p` is the state at the end of period `p` on every substrate: what
//! the faults and ticks stamped up to and including `at_period(p)` made
//! of it, and nothing stamped `at_period(p + 1)`. Every substrate cuts a
//! consistent global state each period: the simulator trivially
//! (single-threaded), the multiplexed daemon by pumping each round until
//! every frame has landed. A snapshot still carries a `consistent_cut`
//! flag, because the daemon's kernel can lose a datagram the round then
//! writes off; from then on its cross-node sums are skipped per period,
//! the per-node invariants (2) and (3) still hold every period, and the
//! end state must not exceed the budget.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use penelope_sim::FaultAction;
use penelope_trace::{EventKind, TraceEvent};
use penelope_units::{NodeId, SimTime};

use super::{at_period, Scenario, Substrate, SubstrateRun};

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
    /// The run did not show what its scenario asks of it: no peer
    /// request at all, zero drops under a drop rate, zero duplicates or
    /// delays under wire faults on a leg that counts them, or a node
    /// alive or dead against the script's kills and restarts. Every
    /// conclusion drawn from such a run is vacuous.
    NonVacuous,
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

/// Run `scenario` on `leg` and hold the run to every invariant: panics
/// if the leg fails to run, takes other than one cut per period, or
/// breaks any invariant, listing every [`Violation`] (each names the
/// reproducing seed). Returns the run for the checks a test adds.
pub fn assert_conformant(leg: &dyn Substrate, scenario: &Scenario) -> SubstrateRun {
    let case = format!("{} on {}", scenario.name, leg.name());
    let run = leg
        .run(scenario)
        .unwrap_or_else(|e| panic!("{case} failed to run: {e}"));
    assert_eq!(
        run.snapshots.len() as u64,
        scenario.periods,
        "{case}: one cut per period"
    );
    let violations = check_run(scenario, &run);
    let listed: String = violations.iter().map(|v| format!("\n  {v}")).collect();
    assert!(violations.is_empty(), "{case} is not conformant:{listed}");
    run
}

/// Check every invariant of the module doc over one substrate run: its
/// cuts, its end state and its event stream.
///
/// Returns all violations found (empty = conformant); tests that expect
/// violations call it, every other run goes through [`assert_conformant`].
/// Per period, exact zero-sum is only required on consistent cuts; the
/// no-minting inequality is also only meaningful there (an inconsistent
/// cut can double-count a transferred watt, so cross-node sums are
/// skipped for those snapshots).
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

    non_vacuous(scenario, run, |period, node, detail| {
        out.push(violation(Invariant::NonVacuous, period, node, detail));
    });

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

/// Flag, as `flag(period, node, detail)`, each arm of invariant 6 the run
/// fails.
fn non_vacuous(
    scenario: &Scenario,
    run: &SubstrateRun,
    mut flag: impl FnMut(u64, Option<u32>, String),
) {
    let end = scenario.periods;

    // (a) Rules 7–10 read the requests a run sends; with none, they held
    // over an empty protocol.
    let requested = |ev: &TraceEvent| matches!(ev.kind, EventKind::RequestSent { .. });
    if !run.events.iter().any(requested) {
        flag(end, None, "no node sent a peer request".into());
    }

    // (b), (c) A fault leg that observably never fired proved nothing.
    // Zero is legitimate randomness when the expected count is small (a
    // 5 % rate over a few dozen messages often drops nothing), so each
    // arm only fires once it reaches 20 — an honest leg counts zero there
    // with probability ≤ e⁻²⁰. The loss expectation is the attempts times
    // the rate averaged over the run's periods: attempts are counted for
    // the whole run, so a rate that starts at period *p* is judged against
    // the share of them made from *p* on, taking traffic as even across
    // periods. Duplication and delay are wire-wide and run-long; the
    // shim delays every datagram when jitter is on.
    let attempts = run.send_attempts();
    let rates = (0..scenario.periods).map(|p| scenario.drop_rate_in(p));
    let mean_rate = rates.sum::<f64>() / scenario.periods.max(1) as f64;
    let dup_rate = f64::from(scenario.dup_permille) / 1000.0;
    let delay_rate = if scenario.jitter_ms > 0 { 1.0 } else { 0.0 };
    let legs = [
        ("dropped", mean_rate, Some(run.injected_drops())),
        ("duplicated", dup_rate, run.duplicated),
        ("delayed", delay_rate, run.delayed),
    ];
    for (what, rate, count) in legs {
        let expected = attempts as f64 * rate;
        if rate > 0.0 && expected >= 20.0 && count == Some(0) {
            let detail = format!(
                "{what} none of {attempts} send attempts, where the scenario expects {expected:.0}"
            );
            flag(end, None, detail);
        }
    }

    // (d) Liveness is the script's: a leg that ignored a kill or a
    // restart, or applied it a period off, ran another scenario. The end
    // state is the last period's; a fault stamped at or after
    // `at_period(periods)` falls outside the run.
    let state = |alive: bool| if alive { "alive" } else { "dead" };
    let mut flag_liveness = |period, node: usize, alive: bool, want: &[bool]| {
        if want.get(node) != Some(&alive) {
            let (read, script) = (state(alive), state(!alive));
            let detail = format!("{read} where the script has it {script}");
            flag(period, Some(node as u32), detail);
        }
    };
    for snap in &run.snapshots {
        let want = alive_at(scenario, at_period(snap.period));
        for n in &snap.nodes {
            flag_liveness(snap.period, n.node as usize, n.alive, &want);
        }
    }
    let want = alive_at(scenario, at_period(end.saturating_sub(1)));
    for (node, &alive) in run.final_alive.iter().enumerate() {
        flag_liveness(end, node, alive, &want);
    }
}

/// Which nodes the script has alive at `at`: its `Kill`s and `Restart`s
/// stamped up to `at`, walked in firing order (kills last within an
/// instant).
fn alive_at(scenario: &Scenario, at: SimTime) -> Vec<bool> {
    let mut alive = vec![true; scenario.nodes()];
    for (_, action) in scenario
        .faults
        .in_firing_order()
        .into_iter()
        .take_while(|(t, _)| *t <= at)
    {
        let (node, up) = match action {
            FaultAction::Kill(node) => (node, false),
            FaultAction::Restart(node) => (node, true),
            _ => continue,
        };
        if let Some(slot) = alive.get_mut(node.index()) {
            *slot = up;
        }
    }
    alive
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
