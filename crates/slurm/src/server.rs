//! The central power server's policy.

use penelope_core::PoolConfig;
use penelope_units::Power;

use crate::protocol::ServerGrant;

/// Lifetime counters for the central server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Excess reports processed.
    pub reports: u64,
    /// Power collected from reports.
    pub collected: Power,
    /// Requests processed.
    pub requests: u64,
    /// Of which urgent.
    pub urgent_requests: u64,
    /// Power granted out.
    pub granted: Power,
    /// Release-to-initial directives issued.
    pub release_directives: u64,
}

/// The centralized power-management policy (§2.3.2 + the centralized
/// urgency adaptation of §4.1).
///
/// The server is a global cache of excess power. Excess reports credit the
/// cache. Non-urgent requests receive a rate-limited share — the same
/// `clamp(10 % × cache, 1 W, 30 W)` limiter as Penelope's pools, which is
/// the scale-adjusted rate limiting the paper describes (a fixed percentage
/// of a cluster-sized cache would reintroduce power oscillation at scale,
/// §4.5). Urgent requests are served greedily up to α; if the cache cannot
/// make an urgent node whole, the server enters a *deficit* state and
/// attaches a release-to-initial directive to subsequent non-urgent
/// responses. The deficit is the urgent shortfall itself, so solicitation
/// stops as soon as the cache has re-collected enough to make the urgent
/// node whole on its retry (or a later urgent request is fully served) —
/// a sticky flag here would keep clawing back grants forever when the
/// urgent node finishes its workload and never retries.
#[derive(Clone, Debug)]
pub struct PowerServer {
    excess: Power,
    limiter: PoolConfig,
    urgent_deficit: Power,
    stats: ServerStats,
}

impl PowerServer {
    /// An empty cache with the given grant limiter.
    pub fn new(limiter: PoolConfig) -> Self {
        PowerServer {
            excess: Power::ZERO,
            limiter: limiter.validated(),
            urgent_deficit: Power::ZERO,
            stats: ServerStats::default(),
        }
    }

    /// Power currently held in the global cache.
    pub fn cached(&self) -> Power {
        self.excess
    }

    /// True iff an urgent node could not be made whole and the server is
    /// soliciting releases.
    pub(crate) fn in_deficit(&self) -> bool {
        !self.urgent_deficit.is_zero() && self.excess < self.urgent_deficit
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Process an excess report: credit the cache.
    pub fn on_report(&mut self, excess: Power) {
        self.excess += excess;
        self.stats.reports += 1;
        self.stats.collected += excess;
    }

    /// Process a power request, producing the grant to send back.
    pub fn on_request(&mut self, urgent: bool, alpha: Power, seq: u64) -> ServerGrant {
        self.stats.requests += 1;
        let amount = if urgent {
            self.stats.urgent_requests += 1;
            let give = self.excess.min(alpha);
            // Deficit: the urgent node is still below its initial cap by
            // this much; solicit releases until the cache covers it.
            self.urgent_deficit = alpha - give;
            give
        } else {
            let max = self
                .excess
                .mul_f64(self.limiter.fraction)
                .clamp(self.limiter.lower, self.limiter.upper);
            self.excess.min(max)
        };
        self.excess -= amount;
        self.stats.granted += amount;
        let release_to_initial = !urgent && self.in_deficit();
        if release_to_initial {
            self.stats.release_directives += 1;
        }
        ServerGrant {
            amount,
            release_to_initial,
            seq,
        }
    }

    /// Drain the cache (server crash: the power it held leaves the system).
    pub fn drain(&mut self) -> Power {
        std::mem::take(&mut self.excess)
    }
}

impl Default for PowerServer {
    fn default() -> Self {
        PowerServer::new(PoolConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::prop::{self, any_bool, vec_of};

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn server_with(p: Power) -> PowerServer {
        let mut s = PowerServer::default();
        s.on_report(p);
        s
    }

    #[test]
    fn reports_credit_cache() {
        let mut s = PowerServer::default();
        s.on_report(w(40));
        s.on_report(w(60));
        assert_eq!(s.cached(), w(100));
        assert_eq!(s.stats().reports, 2);
        assert_eq!(s.stats().collected, w(100));
    }

    #[test]
    fn normal_grant_is_rate_limited() {
        let mut s = server_with(w(200));
        let g = s.on_request(false, Power::ZERO, 1);
        assert_eq!(g.amount, w(20)); // 10 % of 200
        assert!(!g.release_to_initial);
        assert_eq!(g.seq, 1);
        assert_eq!(s.cached(), w(180));
    }

    #[test]
    fn normal_grant_clamped_at_30w() {
        let mut s = server_with(w(10_000)); // cluster-scale cache
        assert_eq!(s.on_request(false, Power::ZERO, 0).amount, w(30));
    }

    #[test]
    fn normal_grant_floor_1w() {
        let mut s = server_with(w(4));
        assert_eq!(s.on_request(false, Power::ZERO, 0).amount, w(1));
    }

    #[test]
    fn urgent_served_greedily() {
        let mut s = server_with(w(200));
        let g = s.on_request(true, w(75), 0);
        assert_eq!(g.amount, w(75)); // far above the 20 W limit
        assert!(!s.in_deficit());
    }

    #[test]
    fn urgent_shortfall_enters_deficit_and_solicits_releases() {
        let mut s = server_with(w(10));
        let g = s.on_request(true, w(50), 0);
        assert_eq!(g.amount, w(10));
        assert!(s.in_deficit());
        // The next non-urgent client is told to release.
        let g2 = s.on_request(false, Power::ZERO, 1);
        assert!(g2.release_to_initial);
        assert_eq!(g2.amount, Power::ZERO); // cache is empty
        assert_eq!(s.stats().release_directives, 1);
    }

    #[test]
    fn deficit_clears_when_urgent_made_whole() {
        let mut s = server_with(w(10));
        let _ = s.on_request(true, w(50), 0); // deficit
        s.on_report(w(100));
        let g = s.on_request(true, w(40), 1); // fully served now
        assert_eq!(g.amount, w(40));
        assert!(!s.in_deficit());
        assert!(!s.on_request(false, Power::ZERO, 2).release_to_initial);
    }

    #[test]
    fn deficit_does_not_outlive_its_shortfall() {
        let mut s = server_with(w(10));
        let _ = s.on_request(true, w(50), 0); // grants 10, shortfall 40
        assert!(s.in_deficit());
        assert!(s.on_request(false, Power::ZERO, 1).release_to_initial);
        s.on_report(w(25)); // clawed-back release arrives
        assert!(s.in_deficit()); // 25 < 40: keep soliciting
        s.on_report(w(25)); // 50 >= 40: the urgent node can be made whole
        assert!(!s.in_deficit());
        // Directives stop even though no urgent retry ever arrived (the
        // urgent node may have finished); power now flows normally.
        assert!(!s.on_request(false, Power::ZERO, 2).release_to_initial);
    }

    #[test]
    fn empty_cache_grants_zero() {
        let mut s = PowerServer::default();
        assert_eq!(s.on_request(false, Power::ZERO, 0).amount, Power::ZERO);
        assert_eq!(s.on_request(true, w(5), 1).amount, Power::ZERO);
    }

    #[test]
    fn drain_models_crash() {
        let mut s = server_with(w(77));
        assert_eq!(s.drain(), w(77));
        assert_eq!(s.cached(), Power::ZERO);
    }

    #[test]
    fn stats_track_flows() {
        let mut s = server_with(w(100));
        let g1 = s.on_request(false, Power::ZERO, 0);
        let g2 = s.on_request(true, w(200), 1);
        let st = s.stats();
        assert_eq!(st.requests, 2);
        assert_eq!(st.urgent_requests, 1);
        assert_eq!(st.granted, g1.amount + g2.amount);
    }

    #[test]
    fn cache_conserved_under_arbitrary_traffic() {
        prop::check(
            "cache_conserved_under_arbitrary_traffic",
            prop::Config::default(),
            vec_of((any_bool(), any_bool(), 0u64..100_000u64), 1..200),
            |ops| {
                let mut s = PowerServer::default();
                let mut in_total = Power::ZERO;
                let mut out_total = Power::ZERO;
                for (i, (is_report, urgent, amt)) in ops.into_iter().enumerate() {
                    let amt = Power::from_milliwatts(amt);
                    if is_report {
                        s.on_report(amt);
                        in_total += amt;
                    } else {
                        let g = s.on_request(urgent, amt, i as u64);
                        out_total += g.amount;
                        assert!(g.amount <= in_total - out_total + g.amount);
                        if urgent {
                            assert!(g.amount <= amt);
                        } else {
                            assert!(g.amount <= w(30));
                        }
                    }
                    assert_eq!(s.cached(), in_total - out_total);
                }
            },
        );
    }
}
