//! The decider-policy seam: *how* a node turns its per-period
//! classification into shed/request decisions.
//!
//! Algorithm 1 fixes the skeleton of every decider iteration — classify
//! against the cap, shed excess into the pool, satisfy hunger locally
//! first and remotely second — but the related work varies exactly the
//! part inside that skeleton: *when* to shed, *how much* to ask for, and
//! *what a request is worth*. [`DeciderPolicy`] captures that variation
//! point as enum-dispatched configuration on
//! [`DeciderConfig`](crate::DeciderConfig), so a policy lands once in
//! `penelope-core` and every substrate (simulator, lockstep runtime, UDP
//! daemon) picks it up through the ordinary
//! [`EngineConfig`](crate::EngineConfig) plumbing.
//!
//! What stays *outside* the policy — in the shared
//! [`LocalDecider`](crate::LocalDecider) / [`NodeEngine`](crate::NodeEngine)
//! machinery — is everything that makes the protocol safe rather than
//! smart: sequence numbers and the applied-seq dedup window, the grant
//! escrow/ack reliability layer, suspicion and gossip, retransmit backoff
//! and peer selection. A policy can only change what is requested and
//! released, never how power is conserved.
//!
//! Three policies ship:
//!
//! * [`DeciderPolicy::Urgency`] — the paper's Algorithm 1, verbatim.
//!   Reactive: sheds down to the reading, requests when hungry, raises
//!   the urgency flag when below the initial assignment. The default,
//!   and byte-identical to the pre-seam behaviour.
//! * [`DeciderPolicy::Predictive`] — forecasts next-period demand from a
//!   bounded reading history (integer EWMA with phase-change snapping)
//!   and plans against `max(reading, forecast)`: it sheds only down to
//!   the forecast and requests *ahead* of a predicted shortfall instead
//!   of after the throttling already hurt (§4.4's fault-prediction story
//!   presumes exactly this forecaster).
//! * [`DeciderPolicy::Market`] — pools price power by scarcity and
//!   requests carry bids sized by the bidder's deprivation. A pool only
//!   clears bids that beat its current ask, so when power is scarce the
//!   most-deprived (highest-bidding) nodes are served and comfortable
//!   nodes are priced out — the sequential-arrival form of
//!   highest-bid-first matching. Market requests never raise the urgency
//!   flag; the price mechanism replaces the inducement.

use penelope_units::Power;

/// Parameters of the predictive (forecasting) decider policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictiveConfig {
    /// EWMA weight (in permille) given to the newest reading:
    /// `forecast' = (w·reading + (1000−w)·forecast) / 1000`, in exact
    /// integer milliwatts. Clamped to `0..=1000`.
    pub ewma_permille: u32,
    /// Phase-change detector: a reading that moved at least this far from
    /// the previous one snaps the forecast straight to the new level
    /// instead of easing towards it (NPB phase boundaries are steps, not
    /// ramps — an EWMA alone would lag them by several periods).
    pub jump_threshold: Power,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig {
            ewma_permille: 300,
            jump_threshold: Power::from_watts_u64(15),
        }
    }
}

/// Parameters of the market (bid/ask) decider policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarketConfig {
    /// The floor every bid starts from; a node bids
    /// `base_bid + (initial_cap − cap)`, so deprivation is what raises a
    /// bid above its neighbours'.
    pub base_bid: Power,
    /// Scarcity pricing: a pool holding `avail` asks
    /// `base_bid + (scarcity_threshold − avail)` (saturating at
    /// `base_bid` once the pool is at or above the threshold). Below the
    /// threshold only increasingly deprived bidders clear; an empty-ish
    /// pool reserves its remnant for the worst-off.
    pub scarcity_threshold: Power,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            base_bid: Power::from_watts_u64(1),
            scarcity_threshold: Power::from_watts_u64(40),
        }
    }
}

/// Which decision policy a [`LocalDecider`](crate::LocalDecider) runs —
/// see the [module docs](self) for what lives in the policy versus the
/// shared engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeciderPolicy {
    /// The paper's Algorithm 1 urgency protocol (the default; exactly the
    /// pre-seam behaviour).
    #[default]
    Urgency,
    /// Forecast-ahead variant: EWMA + phase-jump demand prediction.
    Predictive(PredictiveConfig),
    /// Bid/ask variant: scarcity-priced pools, deprivation-sized bids.
    Market(MarketConfig),
}

impl DeciderPolicy {
    /// Short stable name for reports and winner tables.
    pub fn name(&self) -> &'static str {
        match self {
            DeciderPolicy::Urgency => "urgency",
            DeciderPolicy::Predictive(_) => "predictive",
            DeciderPolicy::Market(_) => "market",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_urgency() {
        assert_eq!(DeciderPolicy::default(), DeciderPolicy::Urgency);
        assert_eq!(DeciderPolicy::default().name(), "urgency");
    }

    #[test]
    fn policy_names_are_distinct() {
        let names = [
            DeciderPolicy::Urgency.name(),
            DeciderPolicy::Predictive(PredictiveConfig::default()).name(),
            DeciderPolicy::Market(MarketConfig::default()).name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn policy_stays_copy_sized() {
        // The policy rides inside the Copy `DeciderConfig` shared by every
        // substrate config; keep it a couple of machine words.
        assert!(std::mem::size_of::<DeciderPolicy>() <= 24);
    }
}
