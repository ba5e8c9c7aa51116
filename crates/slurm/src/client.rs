//! The per-node SLURM client decider.

use penelope_core::decider::{classify, Classification};
use penelope_core::DeciderConfig;
use penelope_units::{Power, PowerRange, SimTime};

/// What a client iteration decided to do. Both message-bearing variants are
/// addressed to the central server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientAction {
    /// Excess: cap lowered, send the freed power to the server.
    Report {
        /// The freed power (already subtracted from the cap).
        excess: Power,
    },
    /// Power-hungry: ask the server for power.
    Request {
        /// Hungry *and* below the initial cap.
        urgent: bool,
        /// Power needed to return to the initial cap (urgent only).
        alpha: Power,
        /// Sequence number to match the grant.
        seq: u64,
    },
    /// At the margin, or blocked on an outstanding request.
    Idle,
}

/// The effect of applying a server grant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GrantEffect {
    /// Power applied to the cap.
    pub applied: Power,
    /// Power the client must send *back* to the server as a report: the
    /// release-to-initial directive plus any grant overflow beyond the safe
    /// maximum (a SLURM client has no local pool to absorb it).
    pub released: Power,
}

/// Lifetime counters for a SLURM client.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Iterations executed.
    pub ticks: u64,
    /// Reports sent.
    pub reports_sent: u64,
    /// Requests sent.
    pub requests_sent: u64,
    /// Of which urgent.
    pub urgent_sent: u64,
    /// Requests abandoned after the response timeout.
    pub timeouts: u64,
    /// Power shipped to the server in reports.
    pub reported: Power,
    /// Power received in grants.
    pub granted: Power,
    /// Power returned due to release directives/overflow.
    pub released: Power,
}

#[derive(Clone, Copy, Debug)]
struct Outstanding {
    seq: u64,
    sent_at: SimTime,
}

/// The SLURM local decider: identical classification loop to Penelope's
/// (same ε, same period — §4.1 implements both with the same heuristic),
/// but excess goes to the central server and acquisition queries it.
/// Its only liveness signal is its requests: two in a row issued while an
/// earlier one is unanswered switch it to the standby for good, and any
/// grant clears the count.
#[derive(Clone, Debug)]
pub struct SlurmClient {
    cfg: DeciderConfig,
    initial_cap: Power,
    cap: Power,
    safe: PowerRange,
    outstanding: Option<Outstanding>,
    next_seq: u64,
    /// Requests sent and not yet answered by a grant.
    unanswered: u64,
    /// Consecutive requests issued with an earlier one unanswered.
    server_timeouts: u8,
    /// The server addressed: 0 the primary, 1 the standby.
    active_server: usize,
    stats: ClientStats,
}

impl SlurmClient {
    /// Create a client with the given initial cap (clamped into `safe`).
    pub fn new(cfg: DeciderConfig, initial_cap: Power, safe: PowerRange) -> Self {
        let cap = safe.clamp(initial_cap);
        SlurmClient {
            cfg,
            initial_cap: cap,
            cap,
            safe,
            outstanding: None,
            next_seq: 0,
            unanswered: 0,
            server_timeouts: 0,
            active_server: 0,
            stats: ClientStats::default(),
        }
    }

    /// The node-level cap the client currently wants enforced.
    pub fn cap(&self) -> Power {
        self.cap
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// True iff a request is in flight.
    pub fn is_blocked(&self) -> bool {
        self.outstanding.is_some()
    }

    /// The server this client addresses: 0 the primary, 1 the standby.
    pub fn active_server(&self) -> usize {
        self.active_server
    }

    /// Switch to the standby for good (a report to a dead primary fails
    /// visibly: reports are connection-oriented in real SLURM).
    pub fn fail_over(&mut self) {
        self.active_server = 1;
    }

    /// One iteration of the client loop.
    pub fn tick(&mut self, now: SimTime, reading: Power) -> ClientAction {
        self.stats.ticks += 1;
        if let Some(out) = self.outstanding {
            if now.saturating_since(out.sent_at) >= self.cfg.response_timeout {
                self.outstanding = None;
                self.stats.timeouts += 1;
            } else {
                return ClientAction::Idle;
            }
        }
        match classify(reading, self.cap, self.cfg.epsilon) {
            Classification::Excess => {
                let new_cap = (reading + self.cfg.shed_headroom)
                    .min(self.cap)
                    .max(self.safe.min());
                let freed = self.cap.saturating_sub(new_cap);
                self.cap = new_cap;
                if freed.is_zero() {
                    // Pinned at the safe floor: nothing to report, and an
                    // empty report would only load the server.
                    return ClientAction::Idle;
                }
                self.stats.reports_sent += 1;
                self.stats.reported += freed;
                ClientAction::Report { excess: freed }
            }
            Classification::Hungry => {
                let urgent = self.cfg.enable_urgency && self.cap < self.initial_cap;
                let alpha = if urgent {
                    self.initial_cap - self.cap
                } else {
                    Power::ZERO
                };
                let seq = self.next_seq;
                self.next_seq += 1;
                self.outstanding = Some(Outstanding { seq, sent_at: now });
                if self.unanswered > 0 {
                    self.server_timeouts = self.server_timeouts.saturating_add(1);
                    if self.server_timeouts >= 2 {
                        self.fail_over();
                    }
                }
                self.unanswered += 1;
                self.stats.requests_sent += 1;
                if urgent {
                    self.stats.urgent_sent += 1;
                }
                ClientAction::Request { urgent, alpha, seq }
            }
            Classification::AtMargin => ClientAction::Idle,
        }
    }

    /// Deliver the server's grant. Any `released` power in the result must
    /// be sent back to the server as a report by the caller (its cap
    /// component has already been subtracted here).
    pub fn on_grant(&mut self, seq: u64, amount: Power, release_to_initial: bool) -> GrantEffect {
        if let Some(out) = self.outstanding {
            if out.seq == seq {
                self.outstanding = None;
            }
        }
        // A response arrived: the server is healthy again.
        self.unanswered = self.unanswered.saturating_sub(1);
        self.server_timeouts = 0;
        self.stats.granted += amount;
        // Apply the grant, clamped to the safe maximum.
        let new_cap = (self.cap + amount).min(self.safe.max());
        let applied = new_cap - self.cap;
        let mut released = amount - applied; // overflow past safe max
        self.cap = new_cap;
        // Centralized urgency: release down to the initial cap if told to
        // (we are non-urgent by construction — the server only flags
        // non-urgent responses).
        if release_to_initial && self.cap > self.initial_cap {
            let freed = self.cap - self.initial_cap;
            self.cap = self.initial_cap;
            released += freed;
        }
        if !released.is_zero() {
            self.stats.released += released;
            self.stats.reports_sent += 1;
            self.stats.reported += released;
        }
        GrantEffect { applied, released }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_units::SimDuration;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn safe() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    fn client(initial_w: u64) -> SlurmClient {
        SlurmClient::new(DeciderConfig::default(), w(initial_w), safe())
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn excess_reports_to_server() {
        let mut c = client(150);
        let action = c.tick(t(1), w(110));
        assert_eq!(action, ClientAction::Report { excess: w(40) });
        assert_eq!(c.cap(), w(110));
    }

    #[test]
    fn excess_respects_safe_floor() {
        let mut c = client(100);
        let action = c.tick(t(1), w(30));
        assert_eq!(action, ClientAction::Report { excess: w(20) });
        assert_eq!(c.cap(), w(80));
    }

    #[test]
    fn hungry_requests_from_server() {
        let mut c = client(150);
        match c.tick(t(1), w(148)) {
            ClientAction::Request { urgent, alpha, seq } => {
                assert!(!urgent);
                assert_eq!(alpha, Power::ZERO);
                assert_eq!(seq, 0);
            }
            other => panic!("expected request, got {other:?}"),
        }
        assert!(c.is_blocked());
    }

    #[test]
    fn below_initial_is_urgent() {
        let mut c = client(150);
        let _ = c.tick(t(1), w(100)); // report, cap -> 100
        match c.tick(t(2), w(99)) {
            ClientAction::Request { urgent, alpha, .. } => {
                assert!(urgent);
                assert_eq!(alpha, w(50));
            }
            other => panic!("expected urgent request, got {other:?}"),
        }
    }

    #[test]
    fn blocked_until_timeout() {
        let cfg = DeciderConfig {
            response_timeout: SimDuration::from_secs(2),
            ..Default::default()
        };
        let mut c = SlurmClient::new(cfg, w(150), safe());
        let _ = c.tick(t(1), w(150));
        assert_eq!(c.tick(t(2), w(150)), ClientAction::Idle);
        let a = c.tick(t(4), w(150));
        assert!(matches!(a, ClientAction::Request { seq: 1, .. }), "{a:?}");
        assert_eq!(c.stats().timeouts, 1);
    }

    #[test]
    fn two_requests_over_an_unanswered_one_fail_over_and_a_grant_resets() {
        let cfg = DeciderConfig {
            response_timeout: SimDuration::from_secs(1),
            ..Default::default()
        };
        let hungry = |c: &mut SlurmClient, at| match c.tick(t(at), w(150)) {
            ClientAction::Request { seq, .. } => seq,
            other => panic!("expected request, got {other:?}"),
        };
        let mut c = SlurmClient::new(cfg, w(150), safe());
        let first = hungry(&mut c, 1);
        let _ = hungry(&mut c, 2); // `first` still unanswered: one strike
        assert_eq!(c.active_server(), 0);
        // A late grant for `first` resets the count; the second request
        // is still unanswered, so the next one is again only one strike.
        let _ = c.on_grant(first, Power::ZERO, false);
        let _ = hungry(&mut c, 3);
        assert_eq!(c.active_server(), 0);
        // A second request in a row over an unanswered one: failover.
        let _ = hungry(&mut c, 4);
        assert_eq!(c.active_server(), 1);
        // Failover is for good; a grant does not switch back.
        let _ = c.on_grant(7, Power::ZERO, false);
        assert_eq!(c.active_server(), 1);
    }

    #[test]
    fn grant_applies_and_unblocks() {
        let mut c = client(150);
        let ClientAction::Request { seq, .. } = c.tick(t(1), w(150)) else {
            panic!("expected request")
        };
        let eff = c.on_grant(seq, w(25), false);
        assert_eq!(
            eff,
            GrantEffect {
                applied: w(25),
                released: Power::ZERO
            }
        );
        assert_eq!(c.cap(), w(175));
        assert!(!c.is_blocked());
    }

    #[test]
    fn grant_overflow_returned_to_server() {
        let mut c = client(290);
        let ClientAction::Request { seq, .. } = c.tick(t(1), w(290)) else {
            panic!("expected request")
        };
        let eff = c.on_grant(seq, w(30), false);
        assert_eq!(eff.applied, w(10)); // safe max 300
        assert_eq!(eff.released, w(20));
        assert_eq!(c.cap(), w(300));
    }

    #[test]
    fn release_directive_returns_power_above_initial() {
        let mut c = client(150);
        // Get above initial: request + grant.
        let ClientAction::Request { seq, .. } = c.tick(t(1), w(150)) else {
            panic!()
        };
        let _ = c.on_grant(seq, w(30), false); // cap 180
        assert_eq!(c.cap(), w(180));
        // Next request's grant carries the release directive.
        let ClientAction::Request { seq, .. } = c.tick(t(2), w(178)) else {
            panic!()
        };
        let eff = c.on_grant(seq, Power::ZERO, true);
        assert_eq!(eff.released, w(30));
        assert_eq!(c.cap(), w(150));
    }

    #[test]
    fn release_directive_noop_at_or_below_initial() {
        let mut c = client(150);
        let ClientAction::Request { seq, .. } = c.tick(t(1), w(150)) else {
            panic!()
        };
        let eff = c.on_grant(seq, Power::ZERO, true);
        assert_eq!(eff.released, Power::ZERO);
        assert_eq!(c.cap(), w(150));
    }

    #[test]
    fn margin_is_idle() {
        let mut c = client(150);
        assert_eq!(c.tick(t(1), w(145)), ClientAction::Idle);
    }

    #[test]
    fn conservation_cap_plus_flows() {
        // cap + (reported − granted net of released) stays equal to initial.
        let mut c = client(150);
        let mut server_holds = Power::ZERO;
        let a = c.tick(t(1), w(100));
        if let ClientAction::Report { excess } = a {
            server_holds += excess;
        }
        let ClientAction::Request { seq, .. } = c.tick(t(2), w(99)) else {
            panic!()
        };
        let give = server_holds.min(w(50));
        server_holds -= give;
        let eff = c.on_grant(seq, give, false);
        server_holds += eff.released;
        assert_eq!(c.cap() + server_holds, w(150));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = client(150);
        let _ = c.tick(t(1), w(100));
        let ClientAction::Request { seq, .. } = c.tick(t(2), w(99)) else {
            panic!()
        };
        let _ = c.on_grant(seq, w(10), false);
        let s = c.stats();
        assert_eq!(s.ticks, 2);
        assert_eq!(s.reports_sent, 1);
        assert_eq!(s.requests_sent, 1);
        assert_eq!(s.urgent_sent, 1);
        assert_eq!(s.reported, w(50));
        assert_eq!(s.granted, w(10));
    }
}
