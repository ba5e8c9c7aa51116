//! The power pool (Algorithm 2).

use penelope_units::Power;

use crate::config::PoolConfig;

/// A node's local cache of excess power.
///
/// The pool plays two roles (§3.2): a cache the co-located decider deposits
/// into and withdraws from, and a server answering power requests from
/// *other* nodes' deciders. All mutations are through methods that keep the
/// exchange zero-sum; the pool can never go negative because `Power` is
/// unsigned and every withdrawal is `min`-ed with the balance first.
#[derive(Clone, Debug)]
pub struct PowerPool {
    available: Power,
    cfg: PoolConfig,
    /// Set when this pool serves an urgent request (and cleared when it
    /// serves a non-urgent one — Algorithm 2 assigns, it does not OR).
    /// Consumed by the co-located decider at its next iteration.
    local_urgency: bool,
    // Lifetime counters for the metrics layer.
    total_deposited: Power,
    total_granted: Power,
    total_taken_local: Power,
    total_drained: Power,
    requests_served: u64,
}

impl PowerPool {
    /// An empty pool with the given limiter configuration.
    pub fn new(cfg: PoolConfig) -> Self {
        PowerPool {
            available: Power::ZERO,
            cfg: cfg.validated(),
            local_urgency: false,
            total_deposited: Power::ZERO,
            total_granted: Power::ZERO,
            total_taken_local: Power::ZERO,
            total_drained: Power::ZERO,
            requests_served: 0,
        }
    }

    /// Power currently cached.
    pub fn available(&self) -> Power {
        self.available
    }

    /// `getMaxSize` from Algorithm 2: `fraction × pool` clamped into
    /// `[lower, upper]`.
    fn get_max_size(&self) -> Power {
        self.available
            .mul_f64(self.cfg.fraction)
            .clamp(self.cfg.lower, self.cfg.upper)
    }

    /// Add freed power to the cache. The depositor must have already
    /// lowered its cap by the same amount (Algorithm 1 lowers the cap
    /// *before* depositing, so exposed power is never double-counted).
    pub fn deposit(&mut self, amount: Power) {
        self.available += amount;
        self.total_deposited += amount;
    }

    /// The co-located decider's local withdrawal: `min(pool, getMaxSize)`.
    /// Subject to the same limiter as remote requests so local access is
    /// not privileged (Algorithm 1 uses `getMaxSize` here too).
    pub(crate) fn take_local(&mut self) -> Power {
        let delta = self.available.min(self.get_max_size());
        self.available -= delta;
        self.total_taken_local += delta;
        delta
    }

    /// Serve a power request from a remote decider (the body of
    /// Algorithm 2): urgent requests receive `min(pool, α)`; normal
    /// requests receive `min(pool, getMaxSize)`. Sets `localUrgency` to the
    /// request's urgency either way — even when the pool is empty, an
    /// urgent request must induce this node to release power down to its
    /// initial cap.
    pub fn handle_request(&mut self, urgent: bool, alpha: Power) -> Power {
        let delta = if urgent {
            self.available.min(alpha)
        } else {
            self.available.min(self.get_max_size())
        };
        self.available -= delta;
        self.total_granted += delta;
        self.requests_served += 1;
        self.local_urgency = urgent;
        delta
    }

    /// Read and clear the `localUrgency` flag (the decider's end-of-
    /// iteration check in Algorithm 1).
    pub(crate) fn consume_local_urgency(&mut self) -> bool {
        std::mem::take(&mut self.local_urgency)
    }

    /// Whether the flag is currently set (observability; does not clear).
    pub(crate) fn local_urgency(&self) -> bool {
        self.local_urgency
    }

    /// Lifetime power deposited.
    pub fn total_deposited(&self) -> Power {
        self.total_deposited
    }

    /// Lifetime power granted to requests (local takes not included).
    pub fn total_granted(&self) -> Power {
        self.total_granted
    }

    /// Lifetime power the co-located decider withdrew via `take_local`.
    pub fn total_taken_local(&self) -> Power {
        self.total_taken_local
    }

    /// Lifetime power removed by [`drain`] (crash / shutdown).
    ///
    /// [`drain`]: PowerPool::drain
    pub fn total_drained(&self) -> Power {
        self.total_drained
    }

    /// Requests served (including empty-handed ones).
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Drain the pool completely (used when a node crashes: its cached
    /// power leaves the system and is accounted as lost).
    pub fn drain(&mut self) -> Power {
        let drained = std::mem::take(&mut self.available);
        self.total_drained += drained;
        drained
    }
}

impl Default for PowerPool {
    fn default() -> Self {
        PowerPool::new(PoolConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::prop::{self, any_bool, vec_of};

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn pool_with(p: Power) -> PowerPool {
        let mut pool = PowerPool::default();
        pool.deposit(p);
        pool
    }

    /// Lifetime power withdrawn through any path: the pool's conservation
    /// law is `total_deposited == lifetime_withdrawn + available`.
    fn lifetime_withdrawn(p: &PowerPool) -> Power {
        p.total_granted() + p.total_taken_local() + p.total_drained()
    }

    #[test]
    fn max_size_paper_examples() {
        // §3.2: "if the pool size is over 300 it returns 30, and if below
        // 10 it returns 1".
        assert_eq!(pool_with(w(400)).get_max_size(), w(30));
        assert_eq!(pool_with(w(301)).get_max_size(), w(30));
        assert_eq!(pool_with(w(300)).get_max_size(), w(30));
        assert_eq!(pool_with(w(200)).get_max_size(), w(20));
        assert_eq!(pool_with(w(10)).get_max_size(), w(1));
        assert_eq!(pool_with(w(5)).get_max_size(), w(1));
        assert_eq!(pool_with(Power::ZERO).get_max_size(), w(1));
    }

    #[test]
    fn normal_request_is_rate_limited() {
        let mut p = pool_with(w(200));
        let granted = p.handle_request(false, Power::ZERO);
        assert_eq!(granted, w(20)); // 10 % of 200
        assert_eq!(p.available(), w(180));
    }

    #[test]
    fn normal_request_on_tiny_pool_gives_everything() {
        // Pool below LOWER_LIMIT: maxSize is 1 W but only 0.5 W exists.
        let mut p = pool_with(Power::from_milliwatts(500));
        let granted = p.handle_request(false, Power::ZERO);
        assert_eq!(granted, Power::from_milliwatts(500));
        assert_eq!(p.available(), Power::ZERO);
    }

    #[test]
    fn empty_pool_grants_zero() {
        let mut p = PowerPool::default();
        assert_eq!(p.handle_request(false, Power::ZERO), Power::ZERO);
        assert_eq!(p.handle_request(true, w(50)), Power::ZERO);
        assert_eq!(p.requests_served(), 2);
    }

    #[test]
    fn urgent_request_bypasses_limit() {
        let mut p = pool_with(w(200));
        // α = 80 W: far above the 20 W non-urgent limit.
        let granted = p.handle_request(true, w(80));
        assert_eq!(granted, w(80));
        assert_eq!(p.available(), w(120));
    }

    #[test]
    fn urgent_request_capped_by_pool() {
        let mut p = pool_with(w(30));
        // "unless the size of the pool is too small, in which case it will
        // give all excess power it has stored".
        assert_eq!(p.handle_request(true, w(100)), w(30));
        assert_eq!(p.available(), Power::ZERO);
    }

    #[test]
    fn urgency_flag_assignment_semantics() {
        let mut p = pool_with(w(100));
        p.handle_request(true, w(10));
        assert!(p.local_urgency());
        // A subsequent non-urgent request *clears* the flag (Algorithm 2
        // assigns `localUrgency = request.urgency`).
        p.handle_request(false, Power::ZERO);
        assert!(!p.local_urgency());
    }

    #[test]
    fn urgency_flag_set_even_when_empty() {
        let mut p = PowerPool::default();
        p.handle_request(true, w(10));
        assert!(p.local_urgency());
    }

    #[test]
    fn consume_clears_flag() {
        let mut p = pool_with(w(100));
        p.handle_request(true, w(10));
        assert!(p.consume_local_urgency());
        assert!(!p.consume_local_urgency());
        assert!(!p.local_urgency());
    }

    #[test]
    fn take_local_is_limited_like_remote() {
        let mut p = pool_with(w(200));
        assert_eq!(p.take_local(), w(20));
        assert_eq!(p.available(), w(180));
        let mut small = pool_with(Power::from_milliwatts(200));
        assert_eq!(small.take_local(), Power::from_milliwatts(200));
    }

    #[test]
    fn counters_track_flows() {
        let mut p = PowerPool::default();
        p.deposit(w(100));
        p.deposit(w(50));
        let g1 = p.handle_request(false, Power::ZERO);
        let g2 = p.handle_request(true, w(40));
        assert_eq!(p.total_deposited(), w(150));
        assert_eq!(p.total_granted(), g1 + g2);
        assert_eq!(p.requests_served(), 2);
    }

    #[test]
    fn drain_empties_pool() {
        let mut p = pool_with(w(70));
        assert_eq!(p.drain(), w(70));
        assert_eq!(p.available(), Power::ZERO);
        assert_eq!(p.drain(), Power::ZERO);
    }

    #[test]
    fn urgent_zero_alpha_grants_nothing_but_sets_urgency() {
        // A hungry node whose cap already equals its initial assignment
        // sends α = 0: the pool must not hand out power it wasn't asked
        // for, yet the urgency signal must still propagate.
        let mut p = pool_with(w(100));
        assert_eq!(p.handle_request(true, Power::ZERO), Power::ZERO);
        assert_eq!(p.available(), w(100));
        assert_eq!(p.total_granted(), Power::ZERO);
        assert!(p.local_urgency());
        assert_eq!(p.requests_served(), 1);
    }

    #[test]
    fn urgent_drains_pool_below_max_size_floor() {
        // Urgent requests ignore getMaxSize entirely: a 29 W grant out of
        // a 30 W pool leaves 1 W — less than the non-urgent limiter would
        // ever leave — and the remainder is still servable.
        let mut p = pool_with(w(30));
        assert_eq!(p.handle_request(true, w(29)), w(29));
        assert_eq!(p.available(), w(1));
        assert!(p.available() < p.get_max_size().max(w(1)) + w(1));
        // The 1 W stub goes out through the normal path (maxSize floor).
        assert_eq!(p.handle_request(false, Power::ZERO), w(1));
        assert_eq!(p.available(), Power::ZERO);
    }

    #[test]
    fn consume_local_urgency_is_idempotent_until_reset() {
        let mut p = pool_with(w(50));
        p.handle_request(true, w(5));
        assert!(p.consume_local_urgency());
        // Re-consuming without a new urgent request stays false, any
        // number of times.
        assert!(!p.consume_local_urgency());
        assert!(!p.consume_local_urgency());
        // A new urgent request re-arms the flag exactly once.
        p.handle_request(true, w(5));
        assert!(p.consume_local_urgency());
        assert!(!p.consume_local_urgency());
    }

    #[test]
    fn drain_leaves_lifetime_counters_balanced() {
        let mut p = PowerPool::default();
        p.deposit(w(120));
        let g = p.handle_request(false, Power::ZERO);
        let t = p.take_local();
        let drained = p.drain();
        assert_eq!(p.available(), Power::ZERO);
        assert_eq!(p.total_drained(), drained);
        assert_eq!(lifetime_withdrawn(&p), g + t + drained);
        assert_eq!(p.total_deposited(), lifetime_withdrawn(&p) + p.available());
        // A second drain is a no-op and must not disturb the ledger.
        assert_eq!(p.drain(), Power::ZERO);
        assert_eq!(p.total_deposited(), lifetime_withdrawn(&p) + p.available());
    }

    #[test]
    fn conservation_under_testkit_harness() {
        // Deposits minus withdrawals always equals the balance, and the
        // lifetime counters account for every milliwatt.
        prop::check(
            "pool conservation over arbitrary ops",
            prop::Config::default(),
            vec_of((0u8..4, 0u64..100_000u64), 1..200),
            |ops| {
                let mut p = PowerPool::default();
                let mut deposited = Power::ZERO;
                let mut withdrawn = Power::ZERO;
                for (op, amt) in ops {
                    let amt = Power::from_milliwatts(amt);
                    match op {
                        0 => {
                            p.deposit(amt);
                            deposited += amt;
                        }
                        1 => withdrawn += p.take_local(),
                        2 => withdrawn += p.handle_request(false, Power::ZERO),
                        _ => withdrawn += p.handle_request(true, amt),
                    }
                    assert_eq!(deposited - withdrawn, p.available());
                    assert_eq!(p.total_deposited(), deposited);
                    assert_eq!(lifetime_withdrawn(&p) + p.available(), deposited);
                }
            },
        );
    }

    #[test]
    fn unlimited_config_grants_whole_pool() {
        let mut p = PowerPool::new(PoolConfig::unlimited());
        p.deposit(w(500));
        assert_eq!(p.handle_request(false, Power::ZERO), w(500));
    }

    #[test]
    fn fixed_config_grants_fixed_size() {
        let mut p = PowerPool::new(PoolConfig::fixed(w(5)));
        p.deposit(w(500));
        assert_eq!(p.handle_request(false, Power::ZERO), w(5));
        let mut tiny = PowerPool::new(PoolConfig::fixed(w(5)));
        tiny.deposit(w(2));
        assert_eq!(tiny.handle_request(false, Power::ZERO), w(2));
    }

    #[test]
    fn max_size_always_within_limits() {
        prop::check(
            "max_size_always_within_limits",
            prop::Config::default(),
            0u64..10_000_000_000u64,
            |balance| {
                let p = pool_with(Power::from_milliwatts(balance));
                let m = p.get_max_size();
                assert!(m >= w(1));
                assert!(m <= w(30));
            },
        );
    }

    #[test]
    fn grant_never_exceeds_balance_or_request() {
        prop::check(
            "grant_never_exceeds_balance_or_request",
            prop::Config::default(),
            (0u64..1_000_000_000u64, 0u64..1_000_000_000u64, any_bool()),
            |(balance, alpha, urgent)| {
                let before = Power::from_milliwatts(balance);
                let mut p = pool_with(before);
                let g = p.handle_request(urgent, Power::from_milliwatts(alpha));
                assert!(g <= before);
                if urgent {
                    assert!(g <= Power::from_milliwatts(alpha));
                    // Urgent grants are exactly min(pool, alpha).
                    assert_eq!(g, before.min(Power::from_milliwatts(alpha)));
                } else {
                    assert!(g <= w(30));
                }
                assert_eq!(p.available() + g, before);
            },
        );
    }
}
