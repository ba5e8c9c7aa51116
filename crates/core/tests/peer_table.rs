//! Model-differential test for [`PeerTable`]: the four `NodeId`-keyed
//! maps it replaced (the decider's `timeout_streaks`, `suspected` and
//! `known_incarnations`, the engine's `acked_floor`, plus the engine's
//! cursor and success hint) are kept here, verbatim, as the oracle. Random
//! sequences of timeout / reply / digest / ack / grant / pick / rebirth
//! run against both, and after every step every query — and every event
//! emitted — must agree.
//!
//! Selection has its own oracle, [`oracle_choose_peer`]: the filter-collect
//! chooser `discovery.rs` shipped before its k-th-live walk, kept here
//! verbatim (bar the round-robin lap, fixed to the ring's n − 1) and
//! drawing straight from the testkit PRNG, so it shares no code with the
//! `select` core that [`PeerTable::pick`] and [`choose_peer`] both run.

use std::collections::HashMap;
use std::sync::Arc;

use penelope_core::{
    choose_peer, initial_rr_cursor, DeciderConfig, DiscoveryStrategy, EngineConfig, NodeCtx,
    NodeParams, PeerTable, SuspicionDigest, SuspicionEntry, MAX_DIGEST_ENTRIES,
};
use penelope_testkit::prop::{self, any_u64, vec_of};
use penelope_testkit::rng::{Rng, TestRng};
use penelope_trace::{EventKind, RingBufferObserver, SharedObserver};
use penelope_units::{NodeId, SimDuration, SimTime};

const STRATEGIES: [DiscoveryStrategy; 3] = [
    DiscoveryStrategy::UniformRandom,
    DiscoveryStrategy::RoundRobin,
    DiscoveryStrategy::GossipHint { explore: 0.3 },
];

/// Largest cluster the properties model (a predicate fits one `u64`).
const MAX_N: usize = 64;

/// The context a [`PeerTable`] of node `me` is called under: `cfg`'s knobs
/// in a cluster of `n`, narrating to `obs`.
fn ctx_of(me: NodeId, n: usize, cfg: DeciderConfig, obs: SharedObserver) -> NodeCtx {
    let params = NodeParams {
        decider: cfg,
        ..NodeParams::default()
    };
    NodeCtx::new(me, n, EngineConfig::new(params), obs)
}

/// The chooser as it was before selection walked the records: collect the
/// unsuspected candidates, index the list.
#[allow(clippy::too_many_arguments)]
fn oracle_choose_peer(
    strategy: DiscoveryStrategy,
    rng: &mut TestRng,
    idx: usize,
    n: usize,
    rr_cursor: &mut u32,
    last_success: Option<NodeId>,
    suspicion_active: bool,
    is_suspected: impl Fn(NodeId) -> bool,
) -> Option<NodeId> {
    if n < 2 {
        return None;
    }
    match strategy {
        DiscoveryStrategy::UniformRandom => Some(oracle_uniform_peer(
            rng,
            idx,
            n,
            suspicion_active,
            &is_suspected,
        )),
        DiscoveryStrategy::RoundRobin => {
            let mut p = *rr_cursor;
            if p as usize >= n || p as usize == idx {
                p = oracle_next_cursor(p % n as u32, idx, n);
            }
            // Under suspicion, sweep past suspected peers (at most one
            // full lap; if everyone is suspected, keep the blind pick).
            if suspicion_active {
                for _ in 0..n - 1 {
                    if !is_suspected(NodeId::new(p)) {
                        break;
                    }
                    p = oracle_next_cursor(p, idx, n);
                }
            }
            *rr_cursor = oracle_next_cursor(p, idx, n);
            Some(NodeId::new(p))
        }
        DiscoveryStrategy::GossipHint { explore } => {
            let hint = last_success
                .filter(|h| h.index() != idx)
                .filter(|h| !(suspicion_active && is_suspected(*h)));
            match hint {
                Some(h) if !rng.gen_bool(explore.clamp(0.0, 1.0)) => Some(h),
                _ => Some(oracle_uniform_peer(
                    rng,
                    idx,
                    n,
                    suspicion_active,
                    &is_suspected,
                )),
            }
        }
    }
}

fn oracle_uniform_peer(
    rng: &mut TestRng,
    idx: usize,
    n: usize,
    suspicion_active: bool,
    is_suspected: &impl Fn(NodeId) -> bool,
) -> NodeId {
    if suspicion_active {
        let candidates: Vec<u32> = (0..n as u32)
            .filter(|&p| p as usize != idx && !is_suspected(NodeId::new(p)))
            .collect();
        if !candidates.is_empty() {
            let k = rng.gen_range(0..candidates.len());
            return NodeId::new(candidates[k]);
        }
        // Everyone is suspected: fall back to the paper's blind pick so a
        // lone survivor keeps probing instead of going mute.
    }
    let r = rng.gen_range(0..n - 1);
    let p = if r >= idx { r + 1 } else { r };
    NodeId::new(p as u32)
}

fn oracle_next_cursor(p: u32, idx: usize, n: usize) -> u32 {
    let mut next = (p + 1) % n as u32;
    if next as usize == idx {
        next = (next + 1) % n as u32;
    }
    next
}

/// Where in a cluster of `n` the modelled node sits: a third of the draws
/// put it at the low end, a third at the high end, the rest anywhere.
fn place(draw: usize, n: usize) -> usize {
    match draw % 3 {
        0 => 0,
        1 => n - 1,
        _ => draw / 3 % n,
    }
}

/// The pre-table peer knowledge of one node, logic unchanged.
struct FourMaps {
    cfg: DeciderConfig,
    /// Cluster size and the node whose knowledge is modelled.
    n: usize,
    me: NodeId,
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
    fn new(cfg: DeciderConfig, n: usize, me: NodeId) -> Self {
        FourMaps {
            cfg,
            n,
            me,
            timeout_streaks: HashMap::new(),
            suspected: HashMap::new(),
            known_incarnations: HashMap::new(),
            acked_floor: HashMap::new(),
            rr_cursor: initial_rr_cursor(me.raw(), n as u32),
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
            if peer == self.me || peer == src {
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
        let peer = oracle_choose_peer(
            strategy,
            rng,
            self.me.index(),
            self.n,
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
/// the wire bound), some about the receiver, the sender itself or an id
/// outside the cluster of `n`.
fn digest_from(src: u32, incarnation: u64, shape: u64, n: usize) -> SuspicionDigest {
    let entries = (0..shape % 6)
        .map(|i| SuspicionEntry {
            peer: NodeId::new(((u64::from(src) + 1 + i * (shape / 6 + 1)) % (n as u64 + 2)) as u32),
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
    // Any cluster size up to `MAX_N`, the modelled node at either end of
    // it or anywhere between.
    let shape = (2usize..=MAX_N, 0usize..3 * MAX_N);
    // (kind, peer, x, y) steps; kind 8 and 9 mostly let time pass — up to
    // 10 s a step against the 8 s probe interval, so suspicions stop
    // filtering mid-sequence — and kind 10 is a timeout storm over x
    // sixths of the cluster (everyone, at x = 6).
    let steps = vec_of((0u32..11, 0u32..MAX_N as u32, 0u64..7, 0u64..40), 0..80);
    let knobs = (0u32..4, 0usize..5);
    prop::check(
        "peer_table_vs_four_maps",
        prop::Config::default(),
        (shape, knobs, steps),
        |((n, me), (suspect_after, gossip_digest), steps)| {
            let me = NodeId::new(place(me, n) as u32);
            let cfg = DeciderConfig {
                suspect_after,
                gossip_digest,
                ..DeciderConfig::default()
            };
            let ring = Arc::new(RingBufferObserver::unbounded());
            let ctx = ctx_of(me, n, cfg, ring.clone().into());
            let mut table = PeerTable::new(&ctx);
            let mut maps = FourMaps::new(cfg, n, me);
            let mut now = SimTime::ZERO;
            for (i, &(kind, peer_raw, x, y)) in steps.iter().enumerate() {
                let peer_raw = peer_raw % n as u32;
                let peer = NodeId::new(peer_raw);
                now += SimDuration::from_millis(y * 250);
                match kind {
                    0 | 1 => {
                        table.note_timeout(&ctx, now, peer);
                        maps.note_peer_timeout(now, peer);
                    }
                    2 => {
                        table.note_reply(&ctx, now, peer);
                        maps.note_peer_reply(peer);
                    }
                    3 | 4 => {
                        let digest = digest_from(peer_raw, x, y, n);
                        table.merge_digest(&ctx, now, peer, &digest);
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
                            table.pick(&ctx, strategy, &mut a, now),
                            maps.tick_pick(strategy, &mut b, now),
                            "step {i}: {strategy:?} picked differently"
                        );
                    }
                    8 if x == 0 => {
                        table.reset();
                        maps.reincarnate();
                    }
                    10 => {
                        for p in (0..n as u32).filter(|&p| (u64::from(p) + y) % 6 < x) {
                            for _ in 0..suspect_after {
                                table.note_timeout(&ctx, now, NodeId::new(p));
                                maps.note_peer_timeout(now, NodeId::new(p));
                            }
                        }
                    }
                    _ => {}
                }

                let step = format!("n {n} me {me:?} after step {i} {:?}", steps[i]);
                for p in (0..n as u32 + 2).map(NodeId::new) {
                    assert_eq!(
                        table.is_suspected(&ctx, now, p),
                        maps.is_suspected(now, p),
                        "{step}"
                    );
                    assert_eq!(
                        table.is_probing(&ctx, now, p),
                        maps.is_probing(now, p),
                        "{step}"
                    );
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
                    table.suspicion_active(&ctx, now),
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
                    assert_eq!(table.digest(&ctx, own), maps.make_digest(own), "{step}");
                }
                // What each strategy would pick next, on one RNG stream,
                // and what the pick leaves behind: in that stream (the next
                // draw), in the cursor (a round-robin pick names it) and in
                // the hint (a never-exploring hint pick names it).
                for strategy in STRATEGIES {
                    let seed = (i as u64) << 16 | x << 8 | y;
                    let (mut t, mut a) = (table.clone(), TestRng::seed_from_u64(seed));
                    let mut b = a.clone();
                    let saved = (maps.rr_cursor, maps.last_success);
                    let probes = [
                        strategy,
                        DiscoveryStrategy::RoundRobin,
                        DiscoveryStrategy::GossipHint { explore: 0.0 },
                    ];
                    for probe in probes {
                        assert_eq!(
                            t.pick(&ctx, probe, &mut a, now),
                            maps.tick_pick(probe, &mut b, now),
                            "{step}: {strategy:?}, then {probe:?}"
                        );
                        assert_eq!(
                            a, b,
                            "{step}: {strategy:?}, then {probe:?} drew differently"
                        );
                    }
                    (maps.rr_cursor, maps.last_success) = saved;
                }
                let emitted: Vec<EventKind> = ring.events().iter().map(|e| e.kind).collect();
                assert_eq!(emitted, maps.events, "{step}");
            }
        },
    );
}

/// The predicate entry runs the same core as the table's pick; held to the
/// same oracle under predicates of every density, a cursor anywhere
/// (self-pointing and out of range included) and a hint anywhere: the
/// peer, the cursor and the next draw agree pick after pick.
#[test]
fn choose_peer_picks_and_draws_like_the_filter_collect_oracle() {
    let shape = (2usize..=MAX_N, 0usize..3 * MAX_N, 0u32..MAX_N as u32 + 2);
    let hint = 0u32..MAX_N as u32 + 1;
    let predicate = (any_u64(), any_u64(), 0u32..5);
    prop::check(
        "choose_peer_vs_filter_collect",
        prop::Config::default(),
        (shape, hint, predicate, any_u64()),
        |((n, idx, cursor), hint, (bits, more, density), seed)| {
            let idx = place(idx, n);
            // A hint is a peer that granted, so it names a node of the
            // cluster — possibly this one — or there is none.
            let hint = Some(hint % (n as u32 + 1))
                .filter(|&h| (h as usize) < n)
                .map(NodeId::new);
            // Suspicion from one peer, through roughly a quarter, a half
            // and three quarters of the cluster, to everyone (and, with
            // `active` off, nobody).
            let suspected = match density {
                0 => 1 << (bits % n as u64),
                1 => bits & more,
                2 => bits,
                3 => bits | more,
                _ => u64::MAX,
            };
            let is_suspected = |p: NodeId| suspected >> p.raw() & 1 == 1;
            for strategy in STRATEGIES {
                for active in [true, false] {
                    let mut a = TestRng::seed_from_u64(seed);
                    let mut b = a.clone();
                    let (mut cursor_a, mut cursor_b) = (cursor, cursor);
                    for pick in 0..n + 1 {
                        let case = format!("{strategy:?} active {active} pick {pick}");
                        assert_eq!(
                            choose_peer(
                                strategy,
                                &mut a,
                                idx,
                                n,
                                &mut cursor_a,
                                hint,
                                active,
                                is_suspected
                            ),
                            oracle_choose_peer(
                                strategy,
                                &mut b,
                                idx,
                                n,
                                &mut cursor_b,
                                hint,
                                active,
                                is_suspected
                            ),
                            "{case}"
                        );
                        assert_eq!(cursor_a, cursor_b, "{case}: cursor");
                        assert_eq!(a, b, "{case}: drew differently");
                    }
                }
            }
        },
    );
}

/// A pick walks what the node holds, never the cluster: at 2³¹ nodes a
/// handful of suspicions still answers at once — by filter-and-collect
/// each of these picks would build an 8 GiB candidate list.
#[test]
fn a_pick_costs_the_evidence_held_not_the_cluster() {
    let n = 1usize << 31;
    let cfg = DeciderConfig {
        suspect_after: 1,
        ..DeciderConfig::default()
    };
    let ring = Arc::new(RingBufferObserver::unbounded());
    let now = SimTime::from_secs(1);
    for me in [0, 5, n as u32 - 1] {
        let suspects = [0, 1, 4, 5, 6, 1 << 20, n as u32 - 2, n as u32 - 1];
        let ctx = ctx_of(NodeId::new(me), n, cfg, ring.clone().into());
        let mut table = PeerTable::new(&ctx);
        for peer in suspects {
            table.note_timeout(&ctx, now, NodeId::new(peer));
        }
        table.note_grant(NodeId::new(4), true);
        for strategy in STRATEGIES {
            let mut rng = TestRng::seed_from_u64(u64::from(me));
            for _ in 0..10_000 {
                let peer = table
                    .pick(&ctx, strategy, &mut rng, now)
                    .expect("peers exist");
                assert!(
                    peer.index() < n && peer.raw() != me,
                    "{strategy:?}: {peer:?}"
                );
                assert!(!suspects.contains(&peer.raw()), "{strategy:?}: {peer:?}");
            }
        }
    }
}

/// `shard_sparse` instantiates half a million engines, so the struct's
/// size is a memory budget: 880 bytes with four per-peer maps, 760 with
/// the [`PeerTable`], 424 once the cluster's configuration (stored two to
/// three times in every engine) moved behind one shared `Arc` and the two
/// std hash tables became `Vec`s, 392 once the decider lost its policy
/// state (a forecast, the previous reading and a bid), 376 once the pool
/// lost its lifetime urgent-serve counter (88 → 72), 352 once the
/// decider's applied-seq list became a one-word bitmap (168 → 152) and the
/// peer table's fault-only state moved behind one boxed handle (56 → 48).
/// The parts are pinned with the whole, at their real sizes, so a field
/// that grows back says where; the heap an engine holds beside them is
/// pinned in `tests/engine_heap.rs`.
#[test]
fn an_engine_stays_within_its_size_budget() {
    use penelope_core::{GrantEscrow, LocalDecider, NodeEngine, PowerPool};
    use std::mem::size_of;
    let sizes = [
        ("NodeEngine", size_of::<NodeEngine>(), 352),
        ("NodeCtx", size_of::<NodeCtx>(), 56),
        ("LocalDecider", size_of::<LocalDecider>(), 152),
        ("PeerTable", size_of::<PeerTable>(), 48),
        ("GrantEscrow<NodeId>", size_of::<GrantEscrow<NodeId>>(), 24),
        ("PowerPool", size_of::<PowerPool>(), 72),
    ];
    for (name, size, budget) in sizes {
        assert!(
            size <= budget,
            "{name} grew to {size} bytes (budget {budget})"
        );
    }
}
