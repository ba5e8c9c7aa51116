//! The *Fair* baseline: static, even power assignment.

use penelope_units::{Power, PowerRange};

/// Split a system-wide budget evenly across `n` nodes (§2.3.1), clamped
/// into each node's safe range.
///
/// The integer split is exact: the first `budget mod n` nodes receive one
/// extra milliwatt, so the assignments sum to exactly `min(budget, Σ
/// clamped)`. If the even share falls outside the safe range it is clamped
/// — a clamped-down share wastes budget (reported by the caller comparing
/// sums), a clamped-up share would overdraw it, so this function panics if
/// the per-node share is below the safe minimum: such a budget cannot be
/// enforced safely on this cluster at all.
pub fn fair_assignment(budget: Power, n: usize, safe: PowerRange) -> Vec<Power> {
    assert!(n > 0, "cannot assign power to zero nodes");
    let (share, rem) = budget.split(n as u64);
    assert!(
        share >= safe.min(),
        "even share {share} below safe minimum {}: budget {budget} cannot be \
         enforced on {n} nodes",
        safe.min()
    );
    (0..n)
        .map(|i| {
            let extra = if (i as u64) < rem.milliwatts() {
                Power::from_milliwatts(1)
            } else {
                Power::ZERO
            };
            safe.clamp(share + extra)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::prop;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn safe() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    #[test]
    fn even_split_sums_to_budget() {
        let caps = fair_assignment(w(2000), 20, safe());
        assert_eq!(caps.len(), 20);
        assert!(caps.iter().all(|&c| c == w(100)));
        assert_eq!(caps.iter().copied().sum::<Power>(), w(2000));
    }

    #[test]
    fn remainder_distributed_exactly() {
        let budget = Power::from_milliwatts(1_000_003);
        let caps = fair_assignment(budget, 10, PowerRange::from_watts(1, 300));
        assert_eq!(caps.iter().copied().sum::<Power>(), budget);
        // First three nodes got the extra milliwatt.
        assert_eq!(caps[0], Power::from_milliwatts(100_001));
        assert_eq!(caps[3], Power::from_milliwatts(100_000));
    }

    #[test]
    fn share_clamped_to_safe_max() {
        let caps = fair_assignment(w(10_000), 10, safe());
        assert!(caps.iter().all(|&c| c == w(300)));
    }

    #[test]
    #[should_panic(expected = "below safe minimum")]
    fn unenforceable_budget_panics() {
        let _ = fair_assignment(w(100), 10, safe()); // 10 W/node < 80 W floor
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn zero_nodes_panics() {
        let _ = fair_assignment(w(100), 0, safe());
    }

    #[test]
    fn never_exceeds_budget_and_stays_safe() {
        prop::check(
            "never_exceeds_budget_and_stays_safe",
            prop::Config::default(),
            (1_600u64..20_000, 1usize..200),
            |(budget_w, n)| {
                let budget = w(budget_w);
                let safe = safe();
                // Skip unenforceable combinations (the function panics there
                // by contract).
                if budget.split(n as u64).0 < safe.min() {
                    return;
                }
                let caps = fair_assignment(budget, n, safe);
                assert_eq!(caps.len(), n);
                let total: Power = caps.iter().copied().sum();
                assert!(total <= budget);
                for c in caps {
                    assert!(safe.contains(c));
                }
            },
        );
    }
}
