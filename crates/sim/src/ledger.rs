//! The power-conservation ledger.

use penelope_core::PowerPool;
use penelope_units::Power;

/// Tracks power that is neither on a node nor in the server cache: grants
/// and reports in flight (including queued at the server), plus power
/// permanently lost to crashes and drops.
///
/// The simulator's safety invariant is
///
/// ```text
/// Σ caps(alive) + Σ pools(alive) + server cache + in_flight + lost
///     == Σ initially assigned caps
/// ```
///
/// which is exactly the paper's argument that atomic zero-sum transactions
/// can never raise total allocated power above the system-wide cap (§3):
/// power can be *lost* (a crashed node's cap, a dropped report) but never
/// minted, so the left side never exceeds the budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Ledger {
    /// Sum of the initial cap assignment.
    pub initial_total: Power,
    /// Power carried by messages in flight or queued.
    pub in_flight: Power,
    /// Power permanently out of the system.
    pub lost: Power,
}

impl Ledger {
    /// Start a ledger for a cluster whose initial caps sum to `total`.
    pub fn new(initial_total: Power) -> Self {
        Ledger {
            initial_total,
            in_flight: Power::ZERO,
            lost: Power::ZERO,
        }
    }

    /// A power-bearing message departed.
    pub(crate) fn depart(&mut self, amount: Power) {
        self.in_flight += amount;
    }

    /// A power-bearing message landed somewhere inside the system.
    pub(crate) fn land(&mut self, amount: Power) {
        self.in_flight = self
            .in_flight
            .checked_sub(amount)
            .expect("ledger underflow: landing more power than is in flight");
    }

    /// A power-bearing message was destroyed in flight.
    pub(crate) fn lose_in_flight(&mut self, amount: Power) {
        self.land(amount);
        self.lost += amount;
    }

    /// Power held by a crashed node (cap + pool) left the system.
    pub(crate) fn lose_direct(&mut self, amount: Power) {
        self.lost += amount;
    }

    /// Re-admit power from the lost balance to a restarting node. The
    /// zero-sum churn rule: a reborn node's cap comes *out of* what its
    /// crash retired (`restarted cap + remaining lost == lost at crash`),
    /// never out of thin air — so re-admission can never mint power.
    pub(crate) fn readmit(&mut self, amount: Power) {
        self.lost = self
            .lost
            .checked_sub(amount)
            .expect("ledger underflow: re-admitting more power than was lost");
    }

    /// Check the invariant against the live sums. Returns the discrepancy
    /// (`Ok(())` when exact).
    pub fn check(&self, live_total: Power) -> Result<(), LedgerError> {
        let accounted = live_total + self.in_flight + self.lost;
        if accounted == self.initial_total {
            Ok(())
        } else {
            Err(LedgerError {
                expected: self.initial_total,
                accounted,
            })
        }
    }
}

/// One node's row in a [`Snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Node index.
    pub node: u32,
    /// False once the node has been killed by a fault.
    pub alive: bool,
    /// Current powercap.
    pub cap: Power,
    /// Power sitting in the node's pool right now.
    pub pool_available: Power,
    /// Lifetime power deposited into the pool.
    pub pool_deposited: Power,
    /// Lifetime power withdrawn from the pool to raise caps: grants to
    /// peers plus local takes by the co-located decider.
    pub pool_granted: Power,
    /// Lifetime power drained out of the pool (node death / shutdown).
    pub pool_drained: Power,
}

impl NodeSnapshot {
    /// Node `node`'s row: its cap, and the books of its pool.
    pub fn of(node: u32, alive: bool, cap: Power, pool: &PowerPool) -> Self {
        NodeSnapshot {
            node,
            alive,
            cap,
            pool_available: pool.available(),
            pool_deposited: pool.total_deposited(),
            pool_granted: pool.total_granted() + pool.total_taken_local(),
            pool_drained: pool.total_drained(),
        }
    }
}

/// The cluster's books at one period boundary, as a substrate reports
/// them: the `Ledger`'s equation with its live sums spelled out per
/// node, so a checker outside the substrate can re-add them.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Period index (0-based).
    pub period: u64,
    /// True if this snapshot is a consistent global cut — all nodes
    /// observed at the same logical instant with in-flight power known.
    /// Cross-node sums are only *exact* on consistent cuts; on the others
    /// only the per-node rows mean anything.
    pub consistent_cut: bool,
    /// Power in transit between nodes (debited from the sender, not yet
    /// credited to the receiver). Zero if the substrate cannot observe it.
    pub in_flight: Power,
    /// Power retired by faults so far (dead caps + drained pools that
    /// were deliberately lost rather than redistributed).
    pub lost: Power,
    /// Per-node rows.
    pub nodes: Vec<NodeSnapshot>,
}

impl Snapshot {
    /// Sum of live caps, live pool balances and known in-flight power.
    pub fn accounted_live(&self) -> Power {
        let mut total = self.in_flight;
        for n in &self.nodes {
            if n.alive {
                total = total + n.cap + n.pool_available;
            }
        }
        total
    }
}

/// A conservation violation: the strongest possible bug signal in a power
/// manager, so it carries both sides for the panic message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LedgerError {
    /// The initially assigned total.
    pub expected: Power,
    /// What the live sums + in-flight + lost added up to.
    pub accounted: Power,
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "power conservation violated: accounted {} != assigned {}",
            self.accounted, self.expected
        )
    }
}

impl std::error::Error for LedgerError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    #[test]
    fn in_flight_roundtrip() {
        let mut l = Ledger::new(w(100));
        l.depart(w(10));
        assert!(l.check(w(90)).is_ok());
        l.land(w(10));
        assert!(l.check(w(100)).is_ok());
    }

    #[test]
    fn losses_accumulate() {
        let mut l = Ledger::new(w(100));
        l.depart(w(10));
        l.lose_in_flight(w(10));
        assert_eq!(l.lost, w(10));
        assert_eq!(l.in_flight, Power::ZERO);
        assert!(l.check(w(90)).is_ok());
        l.lose_direct(w(5));
        assert!(l.check(w(85)).is_ok());
    }

    #[test]
    fn detects_minting() {
        let l = Ledger::new(w(100));
        let err = l.check(w(101)).unwrap_err();
        assert_eq!(err.expected, w(100));
        assert_eq!(err.accounted, w(101));
        assert!(err.to_string().contains("conservation violated"));
    }

    #[test]
    fn detects_leaks() {
        let l = Ledger::new(w(100));
        assert!(l.check(w(99)).is_err());
    }

    #[test]
    #[should_panic(expected = "ledger underflow")]
    fn landing_phantom_power_panics() {
        let mut l = Ledger::new(w(100));
        l.land(w(1));
    }

    #[test]
    fn readmit_is_zero_sum_against_lost() {
        let mut l = Ledger::new(w(100));
        l.lose_direct(w(40)); // a crash retired 40 W
        l.readmit(w(25)); // the restart re-admits 25 W of it
        assert_eq!(l.lost, w(15));
        // live total is back to 85 W: 60 survived + 25 re-admitted.
        assert!(l.check(w(85)).is_ok());
    }

    #[test]
    #[should_panic(expected = "re-admitting more power than was lost")]
    fn readmit_cannot_mint() {
        let mut l = Ledger::new(w(100));
        l.lose_direct(w(10));
        l.readmit(w(11));
    }
}
