//! Tunable parameters of the decider and pool.

use penelope_units::{Power, PowerRange, SimDuration};

/// Parameters of the power pool's transaction limiter (Algorithm 2).
///
/// A non-urgent request receives `min(pool, clamp(fraction × pool, lower,
/// upper))`. The paper sets `fraction = 10 %`, `lower = 1 W`, `upper = 30 W`
/// (§3.2): "if the pool size is over 300 it returns 30, and if below 10 it
/// returns 1".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PoolConfig {
    /// Fraction of the pool offered per transaction.
    pub fraction: f64,
    /// `LOWER_LIMIT`: minimum transaction size (so grants are never
    /// vanishingly small).
    pub lower: Power,
    /// `UPPER_LIMIT`: maximum transaction size (so one node can never drain
    /// a huge pool in one transaction).
    pub upper: Power,
}

impl PoolConfig {
    /// Validate the configuration. Panics on nonsense values.
    pub fn validated(self) -> Self {
        assert!(
            self.fraction.is_finite() && self.fraction > 0.0 && self.fraction <= 1.0,
            "pool fraction must be in (0,1], got {}",
            self.fraction
        );
        assert!(
            self.lower <= self.upper,
            "pool lower limit above upper limit"
        );
        assert!(!self.lower.is_zero(), "pool lower limit must be nonzero");
        self
    }

    /// A limiter that never limits (grants the whole pool) — the
    /// "unlimited" arm of the transaction-size ablation.
    pub fn unlimited() -> Self {
        PoolConfig {
            fraction: 1.0,
            lower: Power::from_milliwatts(1),
            upper: Power::MAX,
        }
    }

    /// A fixed transaction size regardless of pool size — the "fixed" arm
    /// of the transaction-size ablation.
    pub fn fixed(size: Power) -> Self {
        assert!(!size.is_zero(), "fixed transaction size must be nonzero");
        PoolConfig {
            fraction: 1.0,
            lower: size,
            upper: size,
        }
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            fraction: 0.10,
            lower: Power::from_watts_u64(1),
            upper: Power::from_watts_u64(30),
        }
    }
}

/// Parameters of the local decider (Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeciderConfig {
    /// The power margin ε: a reading within ε of the cap classifies the
    /// node as power-hungry.
    pub epsilon: Power,
    /// The iteration period `T`. Both Penelope and SLURM iterate once per
    /// second in the paper; the scale study sweeps this.
    pub period: SimDuration,
    /// How long to wait for a pool's response before giving up on a
    /// request. A peer that died mid-transaction must not wedge the
    /// decider. Defaults to one period.
    pub response_timeout: SimDuration,
    /// Enable the urgency mechanism (§3). Disabling it is the ablation arm
    /// showing why unfairly throttled nodes need a fast path back to their
    /// initial cap.
    pub enable_urgency: bool,
    /// When shedding excess, leave this much headroom above the reading
    /// instead of capping exactly at `P` (Algorithm 1 sets `C = P`, which
    /// leaves the node classified power-hungry forever after; a headroom of
    /// ε parks it at the margin instead). Zero reproduces the paper
    /// verbatim; nonzero is the oscillation-damping ablation arm.
    pub shed_headroom: Power,
    /// How many times a timed-out request is retransmitted (same `seq`,
    /// doubling backoff) before the decider gives up. Zero — the default —
    /// reproduces the paper's single-shot behaviour exactly; lossy-network
    /// scenarios raise it so a dropped `Request` or `Grant` is retried
    /// instead of silently costing a period.
    pub max_retransmits: u32,
    /// Liveness: after this many *consecutive* request timeouts to the same
    /// peer, the decider suspects the peer and partner selection avoids it
    /// (falling back to the paper's blind uniform choice when every peer is
    /// suspected). Any reply from the peer clears the suspicion. A fault-free
    /// run never times out, so the suspicion layer is provably inert there.
    pub suspect_after: u32,
    /// How long a suspicion lasts before the decider lets one probe request
    /// through again (a crashed-and-restarted peer must be rediscoverable
    /// without any membership oracle).
    pub probe_interval: SimDuration,
    /// Liveness gossip: how many suspicion entries a grant or ack may
    /// piggyback (clamped to
    /// [`MAX_DIGEST_ENTRIES`](crate::protocol::MAX_DIGEST_ENTRIES)). Zero
    /// disables gossip entirely — no digest is attached and incoming
    /// digests are ignored — which is the paper-verbatim ablation arm
    /// where every node pays its own full timeout schedule per dead peer.
    /// On fault-free runs no node is suspected and no digest is built, so
    /// the setting is provably inert there either way.
    pub gossip_digest: usize,
}

impl Default for DeciderConfig {
    fn default() -> Self {
        DeciderConfig {
            epsilon: Power::from_watts_u64(5),
            period: SimDuration::from_secs(1),
            response_timeout: SimDuration::from_secs(1),
            enable_urgency: true,
            shed_headroom: Power::ZERO,
            max_retransmits: 0,
            suspect_after: 3,
            probe_interval: SimDuration::from_secs(8),
            gossip_digest: crate::protocol::MAX_DIGEST_ENTRIES,
        }
    }
}

impl DeciderConfig {
    /// How long a granter keeps an unacknowledged grant in escrow before
    /// re-crediting it to its own pool. Sized to outlast the requester's
    /// whole retransmit schedule (`Σ response_timeout·2^k` for
    /// `k ≤ max_retransmits`, i.e. just under `response_timeout ·
    /// 2^(max_retransmits+1)`) plus one period of slack, so a retransmitted
    /// request always finds its escrow entry still live and is answered
    /// with the already-debited grant instead of a fresh double-serve.
    pub fn escrow_timeout(&self) -> SimDuration {
        let factor = 1u64 << (self.max_retransmits.min(16) + 1);
        self.response_timeout * factor + self.period
    }

    /// A config iterating at `hz` iterations per second (the scale study's
    /// frequency axis), with the timeout matched to the period.
    pub fn at_frequency(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "frequency must be positive");
        let period = SimDuration::from_secs_f64(1.0 / hz);
        DeciderConfig {
            period,
            response_timeout: period,
            ..Default::default()
        }
    }
}

/// The per-node protocol knobs shared by every substrate.
///
/// The simulator's `ClusterConfig` (which the conformance suite's
/// multiplexed daemon leg also runs) and the daemon's `DaemonConfig` both
/// embed one of these, so the decider,
/// pool and safe-range parameters cannot drift apart between deployments —
/// a scenario tuned in simulation carries to real daemons verbatim.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeParams {
    /// Local decider parameters (Algorithm 1).
    pub decider: DeciderConfig,
    /// Power-pool transaction limiter (Algorithm 2).
    pub pool: PoolConfig,
    /// Safe powercap range enforced by the node's power interface.
    pub safe_range: PowerRange,
}

impl NodeParams {
    /// Validate the parameters. Panics on nonsense values.
    pub fn validated(self) -> Self {
        let _ = self.pool.validated();
        assert!(
            self.safe_range.min() <= self.safe_range.max(),
            "safe range inverted"
        );
        self
    }

    /// Parameters iterating at `hz` decider iterations per second.
    pub fn at_frequency(hz: f64) -> Self {
        NodeParams {
            decider: DeciderConfig::at_frequency(hz),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_params_defaults_are_valid() {
        let p = NodeParams::default().validated();
        assert_eq!(p.decider, DeciderConfig::default());
        assert_eq!(p.pool, PoolConfig::default());
        let fast = NodeParams::at_frequency(10.0);
        assert_eq!(fast.decider.period, SimDuration::from_millis(100));
    }

    #[test]
    fn default_matches_paper() {
        let p = PoolConfig::default();
        assert_eq!(p.lower, Power::from_watts_u64(1));
        assert_eq!(p.upper, Power::from_watts_u64(30));
        assert!((p.fraction - 0.10).abs() < 1e-12);
        let d = DeciderConfig::default();
        assert_eq!(d.period, SimDuration::from_secs(1));
    }

    #[test]
    fn at_frequency_sets_period() {
        let d = DeciderConfig::at_frequency(20.0);
        assert_eq!(d.period, SimDuration::from_millis(50));
        assert_eq!(d.response_timeout, SimDuration::from_millis(50));
    }

    #[test]
    fn escrow_timeout_outlasts_the_retransmit_schedule() {
        // Default (no retransmits): 2 × timeout + one period of slack.
        let d = DeciderConfig::default();
        assert_eq!(d.max_retransmits, 0);
        assert_eq!(d.escrow_timeout(), SimDuration::from_secs(3));
        // With retransmits the escrow must cover the doubling backoff:
        // attempts fire at +1 s and +3 s, the last wait ends at +7 s.
        let lossy = DeciderConfig {
            max_retransmits: 2,
            ..Default::default()
        };
        assert_eq!(lossy.escrow_timeout(), SimDuration::from_secs(9));
        let total_backoff: u64 = (0..=lossy.max_retransmits).map(|k| 1u64 << k).sum();
        assert!(lossy.escrow_timeout() > SimDuration::from_secs(total_backoff));
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = DeciderConfig::at_frequency(0.0);
    }

    #[test]
    fn validated_accepts_default() {
        let _ = PoolConfig::default().validated();
        let _ = PoolConfig::unlimited().validated();
        let _ = PoolConfig::fixed(Power::from_watts_u64(5)).validated();
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn validated_rejects_bad_fraction() {
        let _ = PoolConfig {
            fraction: 0.0,
            ..Default::default()
        }
        .validated();
    }

    #[test]
    #[should_panic(expected = "lower limit above upper")]
    fn validated_rejects_inverted_limits() {
        let _ = PoolConfig {
            lower: Power::from_watts_u64(40),
            upper: Power::from_watts_u64(30),
            ..Default::default()
        }
        .validated();
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn fixed_zero_rejected() {
        let _ = PoolConfig::fixed(Power::ZERO);
    }
}
