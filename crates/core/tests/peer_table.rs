//! Model-differential test for [`PeerTable`]: the four `NodeId`-keyed
//! maps it replaced (the decider's `timeout_streaks`, `suspected` and
//! `known_incarnations`, the engine's `acked_floor`, plus the engine's
//! cursor and success hint) are kept here, verbatim, as the oracle. Random
//! sequences of timeout / reply / digest / ack / grant / pick / rebirth
//! run against both, and after every step every query — and every event
//! emitted — must agree.

use std::collections::HashMap;
use std::sync::Arc;

use penelope_core::{
    choose_peer, initial_rr_cursor, DeciderConfig, DiscoveryStrategy, PeerTable, SuspicionDigest,
    SuspicionEntry, MAX_DIGEST_ENTRIES,
};
use penelope_testkit::prop::{self, vec_of};
use penelope_testkit::rng::TestRng;
use penelope_trace::{EventKind, RingBufferObserver, Stamper};
use penelope_units::{NodeId, SimDuration, SimTime};

const STRATEGIES: [DiscoveryStrategy; 3] = [
    DiscoveryStrategy::UniformRandom,
    DiscoveryStrategy::RoundRobin,
    DiscoveryStrategy::GossipHint { explore: 0.3 },
];

/// Cluster size and the node whose knowledge is modelled.
const N: usize = 6;
const ME: NodeId = NodeId::new(2);

/// The pre-table peer knowledge of one node, logic unchanged.
struct FourMaps {
    cfg: DeciderConfig,
    timeout_streaks: HashMap<NodeId, u32>,
    /// peer → (probe clock, incarnation suspected against).
    suspected: HashMap<NodeId, (SimTime, u64)>,
    known_incarnations: HashMap<NodeId, u64>,
    acked_floor: HashMap<NodeId, u64>,
    rr_cursor: u32,
    last_success: Option<NodeId>,
    events: Vec<EventKind>,
}

impl FourMaps {
    fn new(cfg: DeciderConfig) -> Self {
        FourMaps {
            cfg,
            timeout_streaks: HashMap::new(),
            suspected: HashMap::new(),
            known_incarnations: HashMap::new(),
            acked_floor: HashMap::new(),
            rr_cursor: initial_rr_cursor(ME.raw(), N as u32),
            last_success: None,
            events: Vec::new(),
        }
    }

    fn note_peer_timeout(&mut self, now: SimTime, peer: NodeId) {
        if self.cfg.suspect_after == 0 {
            return;
        }
        let streak = self.timeout_streaks.entry(peer).or_insert(0);
        *streak += 1;
        if *streak >= self.cfg.suspect_after {
            let fresh = !self.suspected.contains_key(&peer);
            let incarnation = self.known_incarnations.get(&peer).copied().unwrap_or(0);
            self.suspected.insert(peer, (now, incarnation));
            if fresh {
                self.events.push(EventKind::PeerSuspected { peer });
            }
        }
    }

    fn note_peer_reply(&mut self, peer: NodeId) {
        self.timeout_streaks.remove(&peer);
        if self.suspected.remove(&peer).is_some() {
            self.events.push(EventKind::PeerCleared { peer });
        }
    }

    fn is_suspected(&self, now: SimTime, peer: NodeId) -> bool {
        match self.suspected.get(&peer) {
            Some(&(since, _)) => now.saturating_since(since) < self.cfg.probe_interval,
            None => false,
        }
    }

    fn is_probing(&self, now: SimTime, peer: NodeId) -> bool {
        match self.suspected.get(&peer) {
            Some(&(since, _)) => now.saturating_since(since) >= self.cfg.probe_interval,
            None => false,
        }
    }

    fn suspicion_active(&self, now: SimTime) -> bool {
        self.suspected
            .values()
            .any(|&(since, _)| now.saturating_since(since) < self.cfg.probe_interval)
    }

    fn make_digest(&self, own_incarnation: u64) -> Option<Box<SuspicionDigest>> {
        let limit = self.cfg.gossip_digest.min(MAX_DIGEST_ENTRIES);
        if limit == 0 || (self.suspected.is_empty() && own_incarnation == 0) {
            return None;
        }
        let mut entries: Vec<SuspicionEntry> = self
            .suspected
            .iter()
            .map(|(&peer, &(_, incarnation))| SuspicionEntry { peer, incarnation })
            .collect();
        entries.sort_by_key(|e| e.peer);
        entries.truncate(limit);
        Some(Box::new(SuspicionDigest {
            incarnation: own_incarnation,
            entries,
        }))
    }

    fn refute(&mut self, peer: NodeId) {
        self.suspected.remove(&peer);
        self.timeout_streaks.remove(&peer);
        self.events.push(EventKind::SuspicionRefuted { peer });
    }

    fn observe_digest(&mut self, now: SimTime, src: NodeId, digest: &SuspicionDigest) {
        if self.cfg.gossip_digest == 0 {
            return;
        }
        let known_src = self.known_incarnations.entry(src).or_insert(0);
        if digest.incarnation > *known_src {
            *known_src = digest.incarnation;
        }
        if let Some(&(_, against)) = self.suspected.get(&src) {
            if digest.incarnation > against {
                self.refute(src);
            }
        }
        for entry in digest.entries.iter().take(MAX_DIGEST_ENTRIES) {
            let peer = entry.peer;
            if peer == ME || peer == src {
                continue;
            }
            let known = self.known_incarnations.get(&peer).copied().unwrap_or(0);
            if entry.incarnation < known {
                if self
                    .suspected
                    .get(&peer)
                    .is_some_and(|&(_, against)| against < known)
                {
                    self.refute(peer);
                }
                continue;
            }
            if entry.incarnation > known {
                self.known_incarnations.insert(peer, entry.incarnation);
            }
            match self.suspected.get_mut(&peer) {
                Some((_, against)) => *against = (*against).max(entry.incarnation),
                None => {
                    self.suspected.insert(peer, (now, entry.incarnation));
                    self.events
                        .push(EventKind::SuspicionGossiped { peer, via: src });
                }
            }
        }
    }

    fn on_ack(&mut self, src: NodeId, seq: u64) {
        let floor = self.acked_floor.entry(src).or_insert(0);
        *floor = (*floor).max(seq);
    }

    fn late_duplicate(&self, from: NodeId, seq: u64) -> bool {
        self.acked_floor
            .get(&from)
            .is_some_and(|&floor| seq <= floor)
    }

    fn on_grant(&mut self, src: NodeId, amount_is_zero: bool) {
        if amount_is_zero {
            if self.last_success == Some(src) {
                self.last_success = None;
            }
        } else {
            self.last_success = Some(src);
        }
    }

    fn tick_pick(
        &mut self,
        strategy: DiscoveryStrategy,
        rng: &mut TestRng,
        now: SimTime,
    ) -> Option<NodeId> {
        if let Some(h) = self.last_success {
            if self.timeout_streaks.get(&h).copied().unwrap_or(0) > 0 {
                self.last_success = None;
            }
        }
        let mut cursor = self.rr_cursor;
        let peer = choose_peer(
            strategy,
            rng,
            ME.index(),
            N,
            &mut cursor,
            self.last_success,
            self.suspicion_active(now),
            |p| self.is_suspected(now, p),
        );
        self.rr_cursor = cursor;
        peer
    }

    fn quiescence_gates_open(&self) -> bool {
        self.last_success.is_none() && self.suspected.is_empty()
    }

    fn reincarnate(&mut self) {
        self.timeout_streaks.clear();
        self.suspected.clear();
        self.known_incarnations.clear();
        self.acked_floor.clear();
        self.last_success = None;
    }
}

/// A digest as a peer could send it: up to five entries (one more than
/// the wire bound), some about the receiver or the sender itself.
fn digest_from(src: u32, incarnation: u64, shape: u64) -> SuspicionDigest {
    let entries = (0..shape % 6)
        .map(|i| SuspicionEntry {
            peer: NodeId::new(((u64::from(src) + 1 + i * (shape / 6 + 1)) % N as u64) as u32),
            incarnation: (incarnation + shape + i) % 5,
        })
        .collect();
    SuspicionDigest {
        incarnation,
        entries,
    }
}

#[test]
fn the_table_answers_every_query_like_the_four_maps_it_replaced() {
    // (kind, peer, x, y) steps; kind 8 and up just let time pass.
    let steps = vec_of((0u32..10, 0u32..N as u32, 0u64..7, 0u64..40), 0..80);
    let knobs = (0u32..4, 0usize..5);
    prop::check(
        "peer_table_vs_four_maps",
        prop::Config::from_env(),
        (knobs, steps),
        |((suspect_after, gossip_digest), steps)| {
            let cfg = DeciderConfig {
                suspect_after,
                gossip_digest,
                ..DeciderConfig::default()
            };
            let ring = Arc::new(RingBufferObserver::unbounded());
            let trace = Stamper::new(ring.clone().into(), cfg.period);
            let mut table = PeerTable::new(ME, N, &cfg);
            let mut maps = FourMaps::new(cfg);
            let mut now = SimTime::ZERO;
            for (i, &(kind, peer_raw, x, y)) in steps.iter().enumerate() {
                let peer = NodeId::new(peer_raw);
                now += SimDuration::from_millis(y * 250);
                match kind {
                    0 | 1 => {
                        table.note_timeout(&trace, now, peer);
                        maps.note_peer_timeout(now, peer);
                    }
                    2 => {
                        table.note_reply(&trace, now, peer);
                        maps.note_peer_reply(peer);
                    }
                    3 | 4 => {
                        let digest = digest_from(peer_raw, x, y);
                        table.merge_digest(&trace, now, peer, &digest);
                        maps.observe_digest(now, peer, &digest);
                    }
                    5 => {
                        table.note_ack(peer, x);
                        maps.on_ack(peer, x);
                    }
                    6 => {
                        table.note_grant(peer, x % 2 == 0);
                        maps.on_grant(peer, x % 2 != 0);
                    }
                    7 => {
                        let strategy = STRATEGIES[x as usize % 3];
                        let mut a = TestRng::seed_from_u64(y);
                        let mut b = a.clone();
                        assert_eq!(
                            table.pick(strategy, &mut a, now),
                            maps.tick_pick(strategy, &mut b, now),
                            "step {i}: {strategy:?} picked differently"
                        );
                    }
                    8 if x == 0 => {
                        table.reset();
                        maps.reincarnate();
                    }
                    _ => {}
                }

                let step = format!("after step {i} {:?}", steps[i]);
                for p in (0..N as u32).map(NodeId::new) {
                    assert_eq!(
                        table.is_suspected(now, p),
                        maps.is_suspected(now, p),
                        "{step}"
                    );
                    assert_eq!(table.is_probing(now, p), maps.is_probing(now, p), "{step}");
                    assert_eq!(
                        table.timeout_streak(p),
                        maps.timeout_streaks.get(&p).copied().unwrap_or(0),
                        "{step}"
                    );
                    for seq in 0..8 {
                        assert_eq!(
                            table.already_acked(p, seq),
                            maps.late_duplicate(p, seq),
                            "{step}: acked floor of {p:?} at seq {seq}"
                        );
                    }
                }
                assert_eq!(
                    table.suspicion_active(now),
                    maps.suspicion_active(now),
                    "{step}"
                );
                assert_eq!(table.suspected_count(), maps.suspected.len(), "{step}");
                assert_eq!(
                    table.selection_is_blind(),
                    maps.quiescence_gates_open(),
                    "{step}"
                );
                for own in [0, x] {
                    assert_eq!(table.digest(own), maps.make_digest(own), "{step}");
                }
                // What each strategy would pick next, on one RNG stream,
                // and what the pick leaves behind in that stream.
                for strategy in STRATEGIES {
                    let (mut t, mut a) = (table.clone(), TestRng::seed_from_u64(x ^ y));
                    let mut b = a.clone();
                    let saved = (maps.rr_cursor, maps.last_success);
                    assert_eq!(
                        t.pick(strategy, &mut a, now),
                        maps.tick_pick(strategy, &mut b, now),
                        "{step}: {strategy:?}"
                    );
                    (maps.rr_cursor, maps.last_success) = saved;
                    assert_eq!(a, b, "{step}: {strategy:?} drew differently");
                }
                let emitted: Vec<EventKind> = ring.events().iter().map(|e| e.kind).collect();
                assert_eq!(emitted, maps.events, "{step}");
            }
        },
    );
}

/// `shard_sparse` instantiates half a million engines, so the struct's
/// size is a memory budget. The four maps the table replaced were 192 of
/// the 880 bytes it used to take; this keeps them from growing back.
#[test]
fn an_engine_stays_within_its_size_budget() {
    let size = std::mem::size_of::<penelope_core::NodeEngine>();
    assert!(size <= 768, "NodeEngine grew to {size} bytes");
}
