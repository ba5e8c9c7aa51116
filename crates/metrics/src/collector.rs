//! The one streaming collector behind Figs. 4–8.
//!
//! Turnaround, redistribution and oscillation are computed here and
//! nowhere else. The simulator calls the entry points directly where it
//! learns each fact; [`SharedCollector`] feeds the same entry points from
//! any substrate's [`TraceEvent`] stream, live or replayed, so the two
//! paths cannot drift apart. Memory is O(open round trips + nodes), no
//! hashing: every per-node table is a `Vec` indexed by node.

use std::sync::Mutex;

use penelope_trace::{EventKind, Observer, TraceEvent};
use penelope_units::{NodeId, Power, SimTime};

use crate::oscillation::OscillationStats;
use crate::redistribution::RedistributionTracker;
use crate::turnaround::TurnaroundStats;

/// What a finished collector measured.
#[derive(Clone, Debug)]
pub struct Figures {
    /// Completed round trips; trips still open count as unanswered.
    pub turnaround: TurnaroundStats,
    /// Per-node cap trajectories merged into one cluster-wide figure.
    pub oscillation: OscillationStats,
    /// The redistribution tracker, if one was installed.
    pub redistribution: Option<RedistributionTracker>,
}

/// Streaming state for every Fig. 4–8 number, one entry point per fact:
///
/// * a round trip, keyed by `(node, seq)`, is timed from the *first* send
///   of `seq` (a retransmit keeps the clock) to the applied grant for it,
///   however late;
/// * every applied grant on a tracked recipient is credited to the
///   redistribution tracker, whether or not it closed a trip;
/// * a restarted node forgets its open trips: the crash retired them;
/// * each node's actuated caps form one oscillation trajectory.
#[derive(Clone, Debug, Default)]
pub struct MetricsCollector {
    /// Per node, its open round trips as `(seq, first send)`, sorted by seq.
    open: Vec<Vec<(u64, SimTime)>>,
    /// How many trips `open` holds across all nodes.
    open_count: usize,
    turnaround: TurnaroundStats,
    oscillation: Vec<OscillationStats>,
    /// The tracker and, per node, whether it is a recipient.
    redistribution: Option<(RedistributionTracker, Vec<bool>)>,
}

impl MetricsCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credit grants applied on `recipients` toward `total` excess (clipped
    /// at `total`), with the clock starting at `from`.
    pub fn track_redistribution(
        &mut self,
        total: Power,
        recipients: impl IntoIterator<Item = NodeId>,
        from: SimTime,
    ) {
        let mut is_recipient = Vec::new();
        for node in recipients {
            let i = node.index();
            if i >= is_recipient.len() {
                is_recipient.resize(i + 1, false);
            }
            is_recipient[i] = true;
        }
        self.redistribution = Some((RedistributionTracker::new(total, from), is_recipient));
    }

    /// The redistribution tracker so far, if one is installed.
    pub fn redistribution(&self) -> Option<&RedistributionTracker> {
        self.redistribution.as_ref().map(|(tracker, _)| tracker)
    }

    /// `node` sent request `seq` at `at`.
    pub fn trip_opened(&mut self, node: NodeId, seq: u64, at: SimTime) {
        let i = node.index();
        if i >= self.open.len() {
            self.open.resize_with(i + 1, Vec::new);
        }
        let trips = &mut self.open[i];
        // Found: a retransmit, which keeps the first send's clock.
        if let Err(pos) = trips.binary_search_by_key(&seq, |&(s, _)| s) {
            trips.insert(pos, (seq, at));
            self.open_count += 1;
        }
    }

    /// A grant of `granted` for request `seq` was applied on `node` at `at`.
    pub fn trip_closed(&mut self, node: NodeId, seq: u64, at: SimTime, granted: Power) {
        if let Some(trips) = self.open.get_mut(node.index()) {
            if let Ok(pos) = trips.binary_search_by_key(&seq, |&(s, _)| s) {
                let (_, sent) = trips.remove(pos);
                self.open_count -= 1;
                self.turnaround.record(at.saturating_since(sent));
            }
        }
        if let Some((tracker, is_recipient)) = &mut self.redistribution {
            if is_recipient.get(node.index()).copied().unwrap_or(false) {
                tracker.record(at, granted);
            }
        }
    }

    /// `node` ended an iteration with its cap at `cap`.
    pub fn cap_actuated(&mut self, node: NodeId, cap: Power) {
        let i = node.index();
        if i >= self.oscillation.len() {
            self.oscillation.resize_with(i + 1, OscillationStats::new);
        }
        self.oscillation[i].record(cap);
    }

    /// `node` came back from a crash.
    pub fn node_restarted(&mut self, node: NodeId) {
        if let Some(trips) = self.open.get_mut(node.index()) {
            self.open_count -= trips.len();
            trips.clear();
        }
    }

    /// Route one event to its entry point; other kinds are ignored.
    pub fn on_event(&mut self, ev: &TraceEvent) {
        match ev.kind {
            EventKind::RequestSent { seq, .. } => self.trip_opened(ev.node, seq, ev.at),
            EventKind::GrantApplied { seq, granted, .. } => {
                self.trip_closed(ev.node, seq, ev.at, granted)
            }
            EventKind::CapActuated { cap, .. } => self.cap_actuated(ev.node, cap),
            EventKind::NodeRestarted { .. } => self.node_restarted(ev.node),
            _ => {}
        }
    }

    /// The run's figures.
    pub fn finish(self) -> Figures {
        let mut turnaround = self.turnaround;
        for _ in 0..self.open_count {
            turnaround.record_unanswered();
        }
        let mut oscillation = OscillationStats::new();
        for node in &self.oscillation {
            oscillation.merge(node);
        }
        Figures {
            turnaround,
            oscillation,
            redistribution: self.redistribution.map(|(tracker, _)| tracker),
        }
    }
}

/// A [`MetricsCollector`] listening as an [`Observer`].
#[derive(Debug)]
pub struct SharedCollector(Mutex<MetricsCollector>);

impl SharedCollector {
    /// Listen with `collector` (set up, e.g. with a redistribution tracker).
    pub fn new(collector: MetricsCollector) -> Self {
        SharedCollector(Mutex::new(collector))
    }

    /// The figures of everything heard so far.
    pub fn figures(&self) -> Figures {
        self.0
            .lock()
            .expect("a collector update panicked")
            .clone()
            .finish()
    }
}

impl Observer for SharedCollector {
    fn on_event(&self, ev: &TraceEvent) {
        self.0
            .lock()
            .expect("a collector update panicked")
            .on_event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_units::SimDuration;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn ev(node: u32, secs: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: t(secs),
            node: NodeId::new(node),
            period: secs,
            kind,
        }
    }

    fn sent(node: u32, secs: u64, seq: u64) -> TraceEvent {
        let (dst, urgent, alpha) = (NodeId::new(0), false, w(10));
        let kind = EventKind::RequestSent {
            dst,
            urgent,
            alpha,
            seq,
        };
        ev(node, secs, kind)
    }

    fn applied(node: u32, secs: u64, seq: u64, granted: Power) -> TraceEvent {
        let kind = EventKind::GrantApplied {
            seq,
            granted,
            applied: granted,
        };
        ev(node, secs, kind)
    }

    fn fold(events: &[TraceEvent]) -> Figures {
        let mut c = MetricsCollector::new();
        for e in events {
            c.on_event(e);
        }
        c.finish()
    }

    #[test]
    fn turnaround_pairs_by_node_and_seq() {
        let events = [
            sent(0, 1, 0),
            sent(1, 1, 0), // same seq, different node: independent trip
            applied(0, 3, 0, w(5)),
            applied(1, 2, 0, w(5)),
            sent(0, 5, 1), // never answered
            sent(2, 6, 0), // a retransmit below keeps this send time
            sent(2, 7, 0),
            applied(2, 9, 0, w(5)),
        ];
        let f = fold(&events).turnaround;
        assert_eq!((f.count(), f.unanswered()), (3, 1));
        assert_eq!(f.mean(), Some(SimDuration::from_secs(2))); // (2 s + 1 s + 3 s) / 3
    }

    #[test]
    fn a_restart_forgets_only_that_nodes_open_trips() {
        let restarted = ev(0, 2, EventKind::NodeRestarted { readmitted: w(100) });
        // The reborn node's late grant closes nothing.
        let events = [
            sent(0, 1, 0),
            sent(1, 1, 0),
            restarted,
            applied(0, 3, 0, w(5)),
        ];
        let f = fold(&events).turnaround;
        assert_eq!((f.count(), f.unanswered()), (0, 1));
    }

    #[test]
    fn redistribution_credits_every_grant_to_a_recipient() {
        let mut c = MetricsCollector::new();
        c.track_redistribution(w(100), [NodeId::new(1)], t(10));
        let shared = SharedCollector::new(c);
        for e in [
            applied(1, 11, 1, w(30)), // no open trip: still credited
            applied(2, 12, 0, w(30)), // not a recipient
            applied(1, 14, 2, w(70)),
        ] {
            shared.on_event(&e);
        }
        let tr = shared.figures().redistribution.expect("tracker installed");
        assert_eq!(tr.shifted(), w(100));
        assert_eq!(tr.median_time(), Some(SimDuration::from_secs(4)));
        assert_eq!(tr.total_time(), Some(SimDuration::from_secs(4)));
    }

    /// The collector's rules over one hash map keyed by `(node, seq)`.
    #[derive(Default)]
    struct HashedOracle {
        open: std::collections::HashMap<(NodeId, u64), SimTime>,
        turnaround: TurnaroundStats,
        redistribution: Option<(RedistributionTracker, std::collections::HashSet<NodeId>)>,
    }

    impl HashedOracle {
        fn on_event(&mut self, ev: &TraceEvent) {
            match ev.kind {
                EventKind::RequestSent { seq, .. } => {
                    self.open.entry((ev.node, seq)).or_insert(ev.at);
                }
                EventKind::GrantApplied { seq, granted, .. } => {
                    if let Some(sent) = self.open.remove(&(ev.node, seq)) {
                        self.turnaround.record(ev.at.saturating_since(sent));
                    }
                    if let Some((tracker, recipients)) = &mut self.redistribution {
                        if recipients.contains(&ev.node) {
                            tracker.record(ev.at, granted);
                        }
                    }
                }
                EventKind::NodeRestarted { .. } => self.open.retain(|&(n, _), _| n != ev.node),
                _ => {}
            }
        }

        fn finish(mut self) -> (TurnaroundStats, Option<RedistributionTracker>) {
            for _ in 0..self.open.len() {
                self.turnaround.record_unanswered();
            }
            (
                self.turnaround,
                self.redistribution.map(|(tracker, _)| tracker),
            )
        }
    }

    #[test]
    fn per_node_open_trips_match_a_hashed_oracle() {
        use penelope_testkit::prop::{self, vec_of};
        // Each op is (kind, node, seq, gap, watts): kinds 0..4 open, 4..8
        // close and 8 restarts. Six nodes and eight seqs make retransmits
        // of an open seq, closes of unknown, closed and older seqs, and
        // nodes past the last recipient all common.
        prop::check(
            "per-node open trips fold like a (node, seq) hash map",
            prop::Config::default(),
            vec_of((0u8..9, 0u32..6, 0u64..8, 0u64..3, 1u64..40), 0..300),
            |ops| {
                let recipients = [NodeId::new(1), NodeId::new(3)];
                let (total, from) = (w(400), t(2));
                let mut c = MetricsCollector::new();
                c.track_redistribution(total, recipients, from);
                let mut oracle = HashedOracle {
                    redistribution: Some((
                        RedistributionTracker::new(total, from),
                        recipients.into_iter().collect(),
                    )),
                    ..HashedOracle::default()
                };
                let mut secs = 0;
                for &(kind, node, seq, gap, watts) in &ops {
                    secs += gap;
                    let e = match kind {
                        0..4 => sent(node, secs, seq),
                        4..8 => applied(node, secs, seq, w(watts)),
                        _ => ev(node, secs, EventKind::NodeRestarted { readmitted: w(100) }),
                    };
                    c.on_event(&e);
                    oracle.on_event(&e);
                }
                let got = c.finish();
                let (turnaround, redistribution) = oracle.finish();
                // Debug prints every sample in order, the unanswered count
                // and the whole redistribution timeline.
                assert_eq!(format!("{:?}", got.turnaround), format!("{turnaround:?}"));
                assert_eq!(
                    format!("{:?}", got.redistribution),
                    format!("{redistribution:?}")
                );
            },
        );
    }

    #[test]
    fn oscillation_tracks_per_node_trajectories() {
        let cap = |node, at, watts| {
            let (cap, reading, pool) = (w(watts), w(watts - 10), Power::ZERO);
            ev(node, at, EventKind::CapActuated { cap, reading, pool })
        };
        // Node 0 sawtooths (2 reversals); node 1 is monotone.
        let events = [
            cap(0, 1, 100),
            cap(1, 1, 200),
            cap(0, 2, 130),
            cap(1, 2, 210),
            cap(0, 3, 100),
            cap(1, 3, 220),
            cap(0, 4, 130),
        ];
        let o = fold(&events).oscillation;
        assert_eq!((o.reversals(), o.samples()), (2, 7));
    }
}
