//! Message routing for the discrete-event simulator.

use penelope_testkit::rng::Rng;
use penelope_units::{NodeId, SimTime};

use crate::envelope::Envelope;
use crate::fault::FaultPlane;
use crate::latency::LatencyModel;
use crate::stats::NetStats;

/// What happened to a routed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteOutcome<M> {
    /// Delivery scheduled: push this envelope onto the event queue.
    Deliver(Envelope<M>),
    /// Lost to the random drop model.
    DroppedRandom,
    /// Lost because the source or destination is dead.
    DroppedDead,
    /// Lost because source and destination are partitioned apart.
    DroppedPartition,
}

impl<M> RouteOutcome<M> {
    /// The envelope, if the message survived.
    pub fn delivered(self) -> Option<Envelope<M>> {
        match self {
            RouteOutcome::Deliver(e) => Some(e),
            _ => None,
        }
    }
}

/// The virtual network used by the DES: latency model + fault plane +
/// traffic counters. Routing is purely functional over the caller's RNG,
/// which keeps whole-cluster runs reproducible from a single seed.
#[derive(Clone, Debug)]
pub struct SimNet {
    latency: LatencyModel,
    faults: FaultPlane,
    stats: NetStats,
}

impl SimNet {
    /// A network with the given latency model and a healthy fault plane.
    pub fn new(latency: LatencyModel) -> Self {
        SimNet {
            latency,
            faults: FaultPlane::healthy(),
            stats: NetStats::default(),
        }
    }

    /// Route a message sent at `now`. On success the returned envelope's
    /// `deliver_at` is `now + sampled latency`; schedule it as a DES event.
    pub fn route<M, R: Rng + ?Sized>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: M,
        now: SimTime,
        rng: &mut R,
    ) -> RouteOutcome<M> {
        if !self.faults.is_alive(src) || !self.faults.is_alive(dst) {
            self.stats.dropped_dead += 1;
            return RouteOutcome::DroppedDead;
        }
        if !self.faults.can_communicate(src, dst) {
            self.stats.dropped_partition += 1;
            return RouteOutcome::DroppedPartition;
        }
        let p = self.faults.drop_rate();
        if p > 0.0 && rng.gen_bool(p) {
            self.stats.dropped_random += 1;
            return RouteOutcome::DroppedRandom;
        }
        let latency = self.latency.sample(rng);
        self.stats.delivered += 1;
        RouteOutcome::Deliver(Envelope {
            src,
            dst,
            sent_at: now,
            deliver_at: now + latency,
            msg,
        })
    }

    /// Mutable access to the fault plane (the fault injector's hook).
    pub fn faults_mut(&mut self) -> &mut FaultPlane {
        &mut self.faults
    }

    /// The fault plane.
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::rng::TestRng;
    use penelope_units::SimDuration;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn net_const(us: u64) -> SimNet {
        SimNet::new(LatencyModel::Constant(SimDuration::from_micros(us)))
    }

    #[test]
    fn routes_with_sampled_latency() {
        let mut net = net_const(50);
        let mut rng = TestRng::seed_from_u64(0);
        let out = net.route(n(0), n(1), "hello", SimTime::from_secs(1), &mut rng);
        let env = out.delivered().expect("delivered");
        assert_eq!(env.src, n(0));
        assert_eq!(env.dst, n(1));
        assert_eq!(env.sent_at, SimTime::from_secs(1));
        assert_eq!(
            env.deliver_at,
            SimTime::from_secs(1) + SimDuration::from_micros(50)
        );
        assert_eq!(env.msg, "hello");
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn dead_destination_drops() {
        let mut net = net_const(50);
        net.faults_mut().kill(n(1));
        let mut rng = TestRng::seed_from_u64(0);
        let out = net.route(n(0), n(1), (), SimTime::ZERO, &mut rng);
        assert_eq!(out, RouteOutcome::DroppedDead);
        assert_eq!(net.stats().dropped_dead, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn dead_source_drops() {
        let mut net = net_const(50);
        net.faults_mut().kill(n(0));
        let mut rng = TestRng::seed_from_u64(0);
        let out = net.route(n(0), n(1), (), SimTime::ZERO, &mut rng);
        assert_eq!(out, RouteOutcome::DroppedDead);
    }

    #[test]
    fn partition_drops_cross_traffic() {
        let mut net = net_const(50);
        net.faults_mut().partition(vec![
            [n(0), n(1)].into_iter().collect(),
            [n(2)].into_iter().collect(),
        ]);
        let mut rng = TestRng::seed_from_u64(0);
        assert_eq!(
            net.route(n(0), n(2), (), SimTime::ZERO, &mut rng),
            RouteOutcome::DroppedPartition
        );
        assert!(net
            .route(n(0), n(1), (), SimTime::ZERO, &mut rng)
            .delivered()
            .is_some());
        assert_eq!(net.stats().dropped_partition, 1);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn link_cut_drops_one_direction_only() {
        let mut net = net_const(50);
        net.faults_mut().cut_link(n(0), n(1));
        let mut rng = TestRng::seed_from_u64(0);
        assert_eq!(
            net.route(n(0), n(1), (), SimTime::ZERO, &mut rng),
            RouteOutcome::DroppedPartition
        );
        assert!(net
            .route(n(1), n(0), (), SimTime::ZERO, &mut rng)
            .delivered()
            .is_some());
        assert_eq!(net.stats().dropped_partition, 1);
    }

    #[test]
    fn random_drops_match_configured_rate() {
        let mut net = net_const(50);
        net.faults_mut().set_drop_rate(0.3);
        let mut rng = TestRng::seed_from_u64(99);
        let total = 10_000;
        for _ in 0..total {
            let _ = net.route(n(0), n(1), (), SimTime::ZERO, &mut rng);
        }
        let frac = net.stats().dropped_random as f64 / total as f64;
        assert!((frac - 0.3).abs() < 0.02, "observed drop rate {frac}");
    }

    #[test]
    fn zero_drop_rate_consumes_no_randomness() {
        // With identical seeds, a zero-drop network and a
        // latency-model-only sample stream must agree, proving gen_bool is
        // skipped (determinism contract for seed-stability).
        let lat = LatencyModel::Uniform {
            lo: SimDuration::from_micros(10),
            hi: SimDuration::from_micros(90),
        };
        let mut net = SimNet::new(lat.clone());
        let mut rng1 = TestRng::seed_from_u64(5);
        let mut rng2 = TestRng::seed_from_u64(5);
        for _ in 0..100 {
            let e = net
                .route(n(0), n(1), (), SimTime::ZERO, &mut rng1)
                .delivered()
                .unwrap();
            assert_eq!(e.latency(), lat.sample(&mut rng2));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut net = SimNet::new(LatencyModel::default());
            net.faults_mut().set_drop_rate(0.1);
            let mut rng = TestRng::seed_from_u64(1234);
            (0..1000)
                .map(
                    |i| match net.route(n(0), n(1), i, SimTime::from_millis(i), &mut rng) {
                        RouteOutcome::Deliver(e) => e.deliver_at.as_nanos(),
                        _ => 0,
                    },
                )
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
