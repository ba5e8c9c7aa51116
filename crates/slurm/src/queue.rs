//! The server's request-queue performance model.

use std::collections::VecDeque;

use penelope_testkit::rng::Rng;
use penelope_units::{SimDuration, SimTime};

/// Per-request service time at the central server.
///
/// The paper measures "the average time needed to process a request by the
/// server, which was about 80–100 microseconds" and notes "the server
/// processes requests serially" (§4.5.2). The default samples uniformly
/// from that measured band.
#[derive(Clone, Copy, Debug)]
pub struct ServiceModel {
    /// Fastest observed service time.
    pub lo: SimDuration,
    /// Slowest observed service time.
    pub hi: SimDuration,
}

impl ServiceModel {
    /// Sample one service time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        if self.lo == self.hi {
            self.lo
        } else {
            SimDuration::from_nanos(rng.gen_range(self.lo.as_nanos()..=self.hi.as_nanos()))
        }
    }

    /// Mean service time (for the paper's saturation extrapolations).
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos((self.lo.as_nanos() + self.hi.as_nanos()) / 2)
    }

    /// The request rate (per second) at which a serial server with this
    /// service time saturates: `1 / mean`.
    pub fn saturation_rate(&self) -> f64 {
        1.0 / self.mean().as_secs_f64()
    }
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            lo: SimDuration::from_micros(80),
            hi: SimDuration::from_micros(100),
        }
    }
}

/// Counters for the queue model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests dropped because the queue was full.
    pub dropped: u64,
    /// Total time accepted requests spent waiting before service.
    pub total_wait: SimDuration,
    /// Total service time of accepted requests.
    pub total_service: SimDuration,
}

impl QueueStats {
    /// Mean waiting time of accepted requests.
    #[cfg(test)]
    fn mean_wait(&self) -> SimDuration {
        match self.total_wait.as_nanos().checked_div(self.accepted) {
            Some(ns) => SimDuration::from_nanos(ns),
            None => SimDuration::ZERO,
        }
    }

    /// Fraction of offered requests dropped.
    pub fn drop_fraction(&self) -> f64 {
        let offered = self.accepted + self.dropped;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }
}

/// A serial single-server queue with bounded backlog: the performance model
/// of the SLURM server *process*.
///
/// Requests arrive (with the DES timestamp of their network delivery), wait
/// for the server to drain everything ahead of them, are serviced for a
/// sampled 80–100 µs, and the response leaves at the completion time. When
/// the backlog reaches `capacity`, new arrivals are dropped — the paper
/// observes the server "begins dropping packets" once deciders iterate fast
/// enough (§4.5.1), which is what caps turnaround near 25 ms in Fig. 7 and
/// makes total redistribution shoot up in Fig. 5.
#[derive(Clone, Debug)]
pub struct ServerQueue {
    service: ServiceModel,
    capacity: usize,
    /// Completion times of accepted-but-possibly-unfinished requests.
    in_flight: VecDeque<SimTime>,
    /// The instant the server becomes free.
    busy_until: SimTime,
    stats: QueueStats,
}

impl ServerQueue {
    /// A queue with the given service model and backlog capacity.
    ///
    /// The capacity must absorb a synchronized full-cluster burst (so a
    /// 1056-node cluster at 1 Hz drops nothing, Fig. 6) while still
    /// overflowing under sustained overload (Figs. 5 and 7).
    pub fn new(service: ServiceModel, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        ServerQueue {
            service,
            capacity,
            in_flight: VecDeque::new(),
            busy_until: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Offer a request arriving at `arrival`. Returns the time the server
    /// finishes processing it (when the response is emitted), or `None` if
    /// the backlog was full and the packet was dropped.
    pub fn offer<R: Rng + ?Sized>(&mut self, arrival: SimTime, rng: &mut R) -> Option<SimTime> {
        // Retire everything that completed before this arrival.
        while let Some(&front) = self.in_flight.front() {
            if front <= arrival {
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
        if self.in_flight.len() >= self.capacity {
            self.stats.dropped += 1;
            return None;
        }
        let start = self.busy_until.max(arrival);
        let service = self.service.sample(rng);
        let done = start + service;
        self.busy_until = done;
        self.in_flight.push_back(done);
        self.stats.accepted += 1;
        self.stats.total_wait += start.saturating_since(arrival);
        self.stats.total_service += service;
        Some(done)
    }

    /// Backlog length as seen by an arrival at `at`.
    #[cfg(test)]
    fn backlog(&self, at: SimTime) -> usize {
        self.in_flight.iter().filter(|&&done| done > at).count()
    }

    /// Counters so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

impl Default for ServerQueue {
    fn default() -> Self {
        ServerQueue::new(ServiceModel::default(), 1200)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::rng::TestRng;

    fn fixed(us: u64) -> ServiceModel {
        ServiceModel {
            lo: SimDuration::from_micros(us),
            hi: SimDuration::from_micros(us),
        }
    }

    #[test]
    fn idle_server_serves_immediately() {
        let mut q = ServerQueue::new(fixed(100), 10);
        let mut rng = TestRng::seed_from_u64(0);
        let done = q.offer(SimTime::from_secs(1), &mut rng).unwrap();
        assert_eq!(done, SimTime::from_secs(1) + SimDuration::from_micros(100));
        assert_eq!(q.stats().mean_wait(), SimDuration::ZERO);
    }

    #[test]
    fn burst_queues_serially() {
        // N simultaneous arrivals: completion times are spaced one service
        // time apart — the synchronized-round burst behind Fig. 8.
        let mut q = ServerQueue::new(fixed(100), 1000);
        let mut rng = TestRng::seed_from_u64(0);
        let t0 = SimTime::from_secs(1);
        let dones: Vec<_> = (0..10).map(|_| q.offer(t0, &mut rng).unwrap()).collect();
        for (i, done) in dones.iter().enumerate() {
            assert_eq!(*done, t0 + SimDuration::from_micros(100) * (i as u64 + 1));
        }
        // Mean wait over the burst: (0+1+...+9)*100us / 10 = 450us.
        assert_eq!(q.stats().mean_wait(), SimDuration::from_micros(450));
    }

    #[test]
    fn full_backlog_drops() {
        let mut q = ServerQueue::new(fixed(100), 3);
        let mut rng = TestRng::seed_from_u64(0);
        let t0 = SimTime::from_secs(1);
        for _ in 0..3 {
            assert!(q.offer(t0, &mut rng).is_some());
        }
        assert!(q.offer(t0, &mut rng).is_none());
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.backlog(t0), 3);
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut q = ServerQueue::new(fixed(100), 2);
        let mut rng = TestRng::seed_from_u64(0);
        let t0 = SimTime::from_secs(1);
        assert!(q.offer(t0, &mut rng).is_some());
        assert!(q.offer(t0, &mut rng).is_some());
        assert!(q.offer(t0, &mut rng).is_none());
        // 250 us later the first request has completed: room again.
        let t1 = t0 + SimDuration::from_micros(250);
        assert!(q.offer(t1, &mut rng).is_some());
        assert_eq!(q.stats().accepted, 3);
    }

    #[test]
    fn wait_grows_linearly_with_burst_size() {
        // The Fig. 8 mechanism in miniature.
        let mean_wait = |n: u64| {
            let mut q = ServerQueue::new(fixed(85), usize::MAX >> 1);
            let mut rng = TestRng::seed_from_u64(0);
            let t0 = SimTime::from_secs(1);
            for _ in 0..n {
                q.offer(t0, &mut rng).unwrap();
            }
            q.stats().mean_wait()
        };
        let w100 = mean_wait(100);
        let w1000 = mean_wait(1000);
        let ratio = w1000.as_secs_f64() / w100.as_secs_f64();
        assert!((ratio - 10.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn saturation_rate_matches_paper_extrapolation() {
        // "even at 80 microseconds, a system of 12,500 nodes sending
        // messages every second would force the server to take 1 second to
        // process all incoming requests" (§4.5.2).
        let m = ServiceModel {
            lo: SimDuration::from_micros(80),
            hi: SimDuration::from_micros(80),
        };
        assert!((m.saturation_rate() - 12_500.0).abs() < 1.0);
        // And at the default 90 us mean, 1056 nodes saturate near 11.8 Hz
        // worth of cluster-wide traffic... 1/(90e-6 * 1056) ≈ 10.5 Hz.
        let per_node_hz = ServiceModel::default().saturation_rate() / 1056.0;
        assert!(per_node_hz > 9.0 && per_node_hz < 13.0, "{per_node_hz}");
    }

    #[test]
    fn service_sampling_within_band() {
        let m = ServiceModel::default();
        let mut rng = TestRng::seed_from_u64(3);
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!(s >= SimDuration::from_micros(80));
            assert!(s <= SimDuration::from_micros(100));
        }
        assert_eq!(m.mean(), SimDuration::from_micros(90));
    }

    #[test]
    fn drop_fraction_reported() {
        let mut q = ServerQueue::new(fixed(100), 1);
        let mut rng = TestRng::seed_from_u64(0);
        let t0 = SimTime::ZERO;
        let _ = q.offer(t0, &mut rng);
        let _ = q.offer(t0, &mut rng);
        assert!((q.stats().drop_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _ = ServerQueue::new(fixed(1), 0);
    }
}
