//! Jain's fairness index and the cap-time allocation it scores.
//!
//! The decider duel compares allocation policies not just on speed but on
//! *who* got the watts: a policy that starves one node to feed another
//! can still post a good mean turnaround. Jain's index
//!
//! ```text
//! J(x₁ … xₙ) = (Σ xᵢ)² / (n · Σ xᵢ²)
//! ```
//!
//! scores an allocation vector in `(0, 1]`: `1` when every node received
//! the same share, `1/n` when one node took everything. Each node's share
//! here is its integrated cap — Σ cap·Δt over the run, folded from the
//! `CapActuated` event stream every substrate already emits.

use std::collections::HashMap;

use penelope_trace::{EventKind, TraceEvent};
use penelope_units::{NodeId, SimTime};

/// Jain's fairness index of an allocation vector, in `(0, 1]`.
///
/// Panics on an empty vector, negative shares, or non-finite shares. An
/// all-zero vector scores `1.0`: nobody got anything, which is equal
/// treatment (and the natural limit of the index as the shares shrink
/// together).
pub fn jain_index(shares: &[f64]) -> f64 {
    assert!(!shares.is_empty(), "no shares");
    assert!(
        shares.iter().all(|x| x.is_finite() && *x >= 0.0),
        "shares must be finite and non-negative"
    );
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

/// Fold `CapActuated` events into each node's integrated cap (watt-seconds
/// of allocation) over `[0, horizon]`.
///
/// Caps are piecewise constant between actuations: each event closes the
/// node's previous segment at its old cap and opens a new one; the last
/// segment runs to `horizon`. A node's time before its first actuation
/// contributes nothing (the trace has not told us its cap yet).
pub fn cap_shares_from_events(events: &[TraceEvent], horizon: SimTime) -> HashMap<NodeId, f64> {
    let mut shares: HashMap<NodeId, f64> = HashMap::new();
    let mut open: HashMap<NodeId, (SimTime, f64)> = HashMap::new();
    for ev in events {
        if let EventKind::CapActuated { cap, .. } = ev.kind {
            let at = ev.at.min(horizon);
            if let Some((since, watts)) = open.insert(ev.node, (at, cap.as_watts())) {
                *shares.entry(ev.node).or_insert(0.0) +=
                    watts * at.saturating_since(since).as_secs_f64();
            }
        }
    }
    for (node, (since, watts)) in open {
        *shares.entry(node).or_insert(0.0) += watts * horizon.saturating_since(since).as_secs_f64();
    }
    shares
}

/// Jain's index over the per-node integrated caps of an event stream,
/// with nodes ordered by id (the order does not affect the index, but a
/// deterministic vector makes reports reproducible). Returns `None` when
/// the stream actuated no caps at all.
pub fn jain_from_events(events: &[TraceEvent], horizon: SimTime) -> Option<f64> {
    let shares = cap_shares_from_events(events, horizon);
    if shares.is_empty() {
        return None;
    }
    let mut nodes: Vec<NodeId> = shares.keys().copied().collect();
    nodes.sort_by_key(|n| n.index());
    let vec: Vec<f64> = nodes.iter().map(|n| shares[n]).collect();
    Some(jain_index(&vec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::prop::{self, vec_of};
    use penelope_units::Power;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cap(node: u32, at: SimTime, watts: u64) -> TraceEvent {
        TraceEvent {
            at,
            node: NodeId::new(node),
            period: at.as_nanos() / 1_000_000_000,
            kind: EventKind::CapActuated {
                cap: w(watts),
                reading: w(watts.saturating_sub(10)),
                pool: Power::ZERO,
            },
        }
    }

    #[test]
    fn equal_shares_score_one() {
        assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn monopoly_scores_one_over_n() {
        let j = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12, "got {j}");
    }

    #[test]
    fn textbook_example() {
        // Jain's canonical example: shares (1, 2, 3) → 36/(3·14).
        let j = jain_index(&[1.0, 2.0, 3.0]);
        assert!((j - 36.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no shares")]
    fn empty_rejected() {
        let _ = jain_index(&[]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_share_rejected() {
        let _ = jain_index(&[1.0, -1.0]);
    }

    #[test]
    fn cap_shares_integrate_piecewise() {
        // Node 0: 100 W for 10 s then 200 W for 10 s = 3000 Ws.
        // Node 1: 150 W for the 20 s from its first actuation = 3000 Ws.
        let events = vec![cap(0, t(0), 100), cap(1, t(0), 150), cap(0, t(10), 200)];
        let shares = cap_shares_from_events(&events, t(20));
        assert!((shares[&NodeId::new(0)] - 3000.0).abs() < 1e-9);
        assert!((shares[&NodeId::new(1)] - 3000.0).abs() < 1e-9);
        assert_eq!(jain_from_events(&events, t(20)), Some(1.0));
    }

    #[test]
    fn events_past_the_horizon_do_not_extend_shares() {
        let events = vec![cap(0, t(0), 100), cap(0, t(30), 500)];
        let shares = cap_shares_from_events(&events, t(20));
        // 100 W × 20 s; the late actuation opens a zero-length segment.
        assert!((shares[&NodeId::new(0)] - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn no_actuations_yields_none() {
        assert_eq!(jain_from_events(&[], t(10)), None);
    }

    #[test]
    fn index_is_bounded() {
        prop::check(
            "index_is_bounded",
            prop::Config::default(),
            vec_of(0.0f64..1e6, 1..64),
            |shares| {
                let j = jain_index(&shares);
                let n = shares.len() as f64;
                assert!(j <= 1.0 + 1e-12);
                assert!(j >= 1.0 / n - 1e-12);
            },
        );
    }

    #[test]
    fn index_is_scale_invariant() {
        prop::check(
            "index_is_scale_invariant",
            prop::Config::default(),
            (vec_of(0.1f64..1e3, 2..32), 0.1f64..100.0),
            |(shares, k)| {
                let scaled: Vec<f64> = shares.iter().map(|x| x * k).collect();
                assert!((jain_index(&shares) - jain_index(&scaled)).abs() < 1e-9);
            },
        );
    }
}
