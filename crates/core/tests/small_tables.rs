//! Three small tables a node keeps — the [`GrantEscrow`] array, the
//! decider's applied-seq window (one 64-bit word) and the [`PeerTable`]'s
//! acked floors — against the std hash tables they replaced, kept here as
//! oracles, and the run-to-run order bug the hashed escrow had.
//!
//! Each property drives the shipped table and its oracle through the same
//! random operation sequence and compares every return and every query
//! after every step. The escrow oracle also stamps each entry with the
//! order it was first escrowed in, because that — not a hasher's — is the
//! order [`GrantEscrow::take_expired`] must report. The window oracle
//! starts from reborn floors as well as from zero, and pins what the
//! window does with a grant for a seq never spent: it discards it, where
//! the hash set would have applied it and minted power. The acked-floor
//! oracle is interleaved with the liveness evidence the same table holds
//! (timeouts, replies, digests) and with rebirths, none of which may
//! disturb a floor except the rebirth that forgets it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use penelope_core::{
    EngineConfig, EngineInput, EngineOutput, EscrowEntry, EscrowState, GrantAck, GrantEscrow,
    LocalDecider, NodeCtx, NodeEngine, NodeParams, PeerMsg, PeerTable, PowerGrant, PowerPool,
    PowerRequest, SuspicionDigest, SuspicionEntry, TickAction, APPLIED_SEQ_WINDOW,
};
use penelope_testkit::prop::{self, vec_of};
use penelope_testkit::TestRng;
use penelope_trace::{EventKind, RingBufferObserver, SharedObserver, TraceEvent};
use penelope_units::{NodeId, Power, SimDuration, SimTime};

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

/// The escrow as it was: a hash table keyed by `(requester, seq)`. The
/// `u64` beside each entry is the order it was first escrowed in.
#[derive(Default)]
struct HashedEscrow {
    entries: HashMap<(NodeId, u64), (EscrowEntry<NodeId>, u64)>,
    births: u64,
}

impl HashedEscrow {
    fn insert(&mut self, entry: EscrowEntry<NodeId>) {
        let born = match self.entries.get(&(entry.requester, entry.seq)) {
            Some(&(_, born)) => born,
            None => {
                self.births += 1;
                self.births
            }
        };
        self.entries
            .insert((entry.requester, entry.seq), (entry, born));
    }

    fn get(&self, requester: NodeId, seq: u64) -> Option<EscrowEntry<NodeId>> {
        self.entries.get(&(requester, seq)).map(|&(e, _)| e)
    }

    fn release(&mut self, requester: NodeId, seq: u64) -> Option<EscrowEntry<NodeId>> {
        self.entries.remove(&(requester, seq)).map(|(e, _)| e)
    }

    fn expire_one(
        &mut self,
        requester: NodeId,
        seq: u64,
        now: SimTime,
    ) -> Option<EscrowEntry<NodeId>> {
        match self.get(requester, seq) {
            Some(e) if e.deadline <= now => self.release(requester, seq),
            _ => None,
        }
    }

    /// Every due entry, oldest escrowed first.
    fn take_expired(&mut self, now: SimTime) -> Vec<EscrowEntry<NodeId>> {
        let mut due: Vec<_> = self
            .entries
            .values()
            .filter(|(e, _)| e.deadline <= now)
            .copied()
            .collect();
        due.sort_by_key(|&(_, born)| born);
        for (e, _) in &due {
            self.entries.remove(&(e.requester, e.seq));
        }
        due.into_iter().map(|(e, _)| e).collect()
    }

    fn undelivered_total(&self) -> Power {
        self.entries
            .values()
            .filter(|(e, _)| e.state == EscrowState::Undelivered)
            .map(|(e, _)| e.amount)
            .sum()
    }
}

/// Requesters and seqs the escrow property draws from: 20 keys, so a
/// sequence re-inserts, releases and expires the same ones repeatedly.
const REQUESTERS: u32 = 4;
const SEQS: u64 = 5;

#[test]
fn the_escrow_answers_like_the_hashed_table_it_replaced() {
    // (kind, requester, seq, x, y) steps. Time moves in whole seconds and
    // deadlines sit 0..8 s out, so an entry is regularly looked at in the
    // very second it falls due.
    let steps = vec_of(
        (0u32..10, 0u32..REQUESTERS, 0u64..SEQS, 0u64..8, 0u64..4),
        0..60,
    );
    prop::check(
        "escrow_vs_hashed_table",
        prop::Config::with_cases(3_000),
        steps,
        |steps| {
            let mut escrow: GrantEscrow<NodeId> = GrantEscrow::new();
            let mut oracle = HashedEscrow::default();
            let mut now = SimTime::ZERO;
            for (i, &(kind, requester, seq, x, y)) in steps.iter().enumerate() {
                let step = format!("step {i} {:?}", steps[i]);
                let requester = NodeId::new(requester);
                match kind {
                    0..=2 => {
                        let state = if y % 2 == 0 {
                            EscrowState::Undelivered
                        } else {
                            EscrowState::AwaitingAck
                        };
                        let deadline = now + SimDuration::from_secs(x);
                        escrow.insert(requester, seq, w(x + 1), state, deadline);
                        oracle.insert(EscrowEntry {
                            requester,
                            seq,
                            amount: w(x + 1),
                            state,
                            deadline,
                        });
                    }
                    3 => {
                        // A re-send: state and deadline change in place.
                        let held = oracle.entries.get_mut(&(requester, seq));
                        let entry = escrow.get_mut(requester, seq);
                        assert_eq!(entry.is_some(), held.is_some(), "{step}");
                        if let (Some(entry), Some((held, _))) = (entry, held) {
                            for e in [entry, held] {
                                e.state = EscrowState::AwaitingAck;
                                e.deadline += SimDuration::from_secs(x);
                            }
                        }
                    }
                    4 => assert_eq!(
                        escrow.release(requester, seq),
                        oracle.release(requester, seq),
                        "{step}"
                    ),
                    5 => assert_eq!(
                        escrow.expire_one(requester, seq, now),
                        oracle.expire_one(requester, seq, now),
                        "{step}"
                    ),
                    6 => assert_eq!(escrow.take_expired(now), oracle.take_expired(now), "{step}"),
                    7 if x == 0 => {
                        assert_eq!(escrow.drain(), oracle.undelivered_total(), "{step}");
                        oracle.entries.clear();
                    }
                    _ => now += SimDuration::from_secs(y),
                }
                assert_eq!(escrow.len(), oracle.entries.len(), "{step}");
                assert_eq!(escrow.is_empty(), oracle.entries.is_empty(), "{step}");
                assert_eq!(
                    escrow.undelivered_total(),
                    oracle.undelivered_total(),
                    "{step}"
                );
                for r in (0..REQUESTERS).map(NodeId::new) {
                    for s in 0..SEQS {
                        assert_eq!(escrow.get(r, s).copied(), oracle.get(r, s), "{step}");
                    }
                }
            }
        },
    );
}

/// The requester's grant dedup as it was: a hash set of applied seqs under
/// a floor that only a non-zero grant advances — plus the one rule the set
/// never needed: a grant for a seq not yet spent is discarded as stale.
#[derive(Default)]
struct HashedWindow {
    applied: HashSet<u64>,
    floor: u64,
    next_seq: u64,
    granted: Power,
    stale_discards: u64,
}

impl HashedWindow {
    fn on_grant(&mut self, seq: u64, amount: Power) {
        if seq < self.floor || seq >= self.next_seq {
            self.stale_discards += 1;
            return;
        }
        if !amount.is_zero() && !self.applied.insert(seq) {
            return;
        }
        if !amount.is_zero() {
            let floor = self.next_seq.saturating_sub(APPLIED_SEQ_WINDOW);
            if floor > self.floor {
                self.floor = floor;
                self.applied.retain(|&s| s >= floor);
            }
        }
        self.granted += amount;
    }

    fn is_applied(&self, seq: u64) -> bool {
        seq < self.floor || self.applied.contains(&seq)
    }
}

/// A decider and what it needs to send requests, beside its oracle.
struct Requester {
    ctx: NodeCtx,
    decider: LocalDecider,
    peers: PeerTable,
    pool: PowerPool,
    now: SimTime,
    oracle: HashedWindow,
}

impl Requester {
    /// A requester whose seq namespace starts at `floor`, as a node reborn
    /// at that watermark does.
    fn new(floor: u64) -> Self {
        let params = NodeParams::default();
        let cfg = EngineConfig::new(params);
        let ctx = NodeCtx::new(NodeId::new(0), 4, cfg, SharedObserver::noop());
        Requester {
            decider: LocalDecider::new(&ctx, w(150)).with_seq_floor(floor),
            peers: PeerTable::new(&ctx),
            pool: PowerPool::new(params.pool),
            now: SimTime::ZERO,
            oracle: HashedWindow {
                floor,
                next_seq: floor,
                ..HashedWindow::default()
            },
            ctx,
        }
    }

    /// Send the next request: let the previous one time out, stay hungry
    /// (a reading at the safe maximum, nothing pooled), spend one seq.
    fn request(&mut self) -> u64 {
        self.now += SimDuration::from_secs(2);
        self.pool.drain();
        let reading = NodeParams::default().safe_range.max();
        let peer = Some(NodeId::new(1));
        let action = self.decider.tick(
            &self.ctx,
            self.now,
            reading,
            &mut self.pool,
            peer,
            &mut self.peers,
        );
        let TickAction::Request { seq, .. } = action else {
            panic!("a hungry decider with an empty pool requests, got {action:?}");
        };
        assert_eq!(seq, self.oracle.next_seq, "seqs are spent in order");
        self.oracle.next_seq += 1;
        seq
    }

    /// Deliver a grant to both; returns what the decider applied.
    fn grant(&mut self, seq: u64, amount: Power) -> Power {
        self.oracle.on_grant(seq, amount);
        self.decider
            .on_grant(&self.ctx, self.now, seq, amount, &mut self.pool)
    }

    fn agrees(&self, probe: u64, step: &str) {
        let (d, o) = (&self.decider, &self.oracle);
        assert_eq!(d.stats().granted, o.granted, "{step}: granted");
        assert_eq!(d.stats().stale_discards, o.stale_discards, "{step}: stale");
        assert_eq!(d.incarnation(), o.floor, "{step}: floor");
        assert_eq!(d.next_seq(), o.next_seq, "{step}: next_seq");
        assert_eq!(d.applied_seq_count(), o.applied.len(), "{step}: count");
        assert!(
            d.applied_seq_count() as u64 <= APPLIED_SEQ_WINDOW,
            "{step}: window overflowed"
        );
        // Around the floor, around the probe, and the newest few.
        let around = |s: u64| s.saturating_sub(2)..s + 3;
        let newest = o.next_seq.saturating_sub(4)..o.next_seq + 1;
        for s in around(o.floor).chain(around(probe)).chain(newest) {
            assert_eq!(d.is_applied_seq(s), o.is_applied(s), "{step}: seq {s}");
            assert_eq!(d.is_stale_grant(s), s < o.floor, "{step}: seq {s}");
        }
    }
}

/// Where a requester's seq namespace starts: a fresh node, and nodes
/// reborn at watermarks on and around the window's width and far past it.
const FLOORS: [u64; 7] = [0, 1, 63, 64, 65, 1_000, 1 << 40];

#[test]
fn the_applied_seq_window_dedups_like_the_hash_set_it_replaced() {
    // (kind, x) steps over one requester reborn at one of `FLOORS`: new
    // requests, their grants (zero and not, in and out of order),
    // redeliveries, seqs from far below the window, grants for seqs not
    // yet spent, and runs of more than a window's worth of empty-handed
    // replies — across which the floor must hold still.
    let steps = (0..FLOORS.len(), vec_of((0u32..10, 0u64..200), 0..50));
    prop::check(
        "applied_seqs_vs_hash_set",
        prop::Config::with_cases(3_000),
        steps,
        |(floor, steps)| {
            let mut r = Requester::new(FLOORS[floor]);
            let mut paid: Vec<u64> = Vec::new();
            for (i, &(kind, x)) in steps.iter().enumerate() {
                let step = format!("step {i} {:?}", steps[i]);
                let spent = r.oracle.next_seq;
                let probe = match kind {
                    // A request, answered at once with power.
                    0 | 1 => {
                        let seq = r.request();
                        r.grant(seq, w(1));
                        paid.push(seq);
                        seq
                    }
                    // A request left unanswered (it times out).
                    2 => r.request(),
                    // A late grant for any seq spent so far, recent ones
                    // and ones that have fallen below the window alike.
                    3 | 4 if spent > 0 => {
                        let seq = spent - 1 - x % spent.min(APPLIED_SEQ_WINDOW + 8);
                        let amount = if kind == 3 { w(2) } else { Power::ZERO };
                        r.grant(seq, amount);
                        if kind == 3 {
                            paid.push(seq);
                        }
                        seq
                    }
                    // A redelivery of a grant already applied.
                    5 if !paid.is_empty() => {
                        let seq = paid[paid.len() - 1 - x as usize % paid.len().min(70)];
                        r.grant(seq, w(2));
                        seq
                    }
                    // A seq from below the floor.
                    6 if r.oracle.floor > 0 => {
                        let seq = x % r.oracle.floor;
                        r.grant(seq, w(3));
                        seq
                    }
                    // More than a window of requests that all come back
                    // empty-handed, then one that is paid: the floor jumps
                    // only at the last.
                    7 => {
                        let floor = r.oracle.floor;
                        for _ in 0..APPLIED_SEQ_WINDOW + 1 + x % 8 {
                            let seq = r.request();
                            r.grant(seq, Power::ZERO);
                        }
                        assert_eq!(r.decider.incarnation(), floor, "{step}: zero grants");
                        let seq = r.request();
                        r.grant(seq, w(1));
                        paid.push(seq);
                        seq
                    }
                    // A grant for a seq no request has carried yet: no
                    // honest granter sends one. It is discarded, so it
                    // neither pays nor marks the seq, and the real grant,
                    // once the seq is spent, still applies.
                    8 => {
                        let seq = spent + x % 3;
                        let amount = if x % 2 == 0 { w(4) } else { Power::ZERO };
                        assert_eq!(r.grant(seq, amount), Power::ZERO, "{step}: unspent");
                        assert!(!r.decider.is_applied_seq(seq), "{step}: unspent marked");
                        seq
                    }
                    _ => spent,
                };
                r.agrees(probe, &step);
            }
        },
    );
}

#[test]
fn an_engine_books_a_grant_for_an_unspent_seq_as_lost() {
    // No honest granter answers a seq its requester has not spent, and
    // the window cannot remember one. The engine discards it as it does a
    // stale grant: the power is booked lost, nothing is resolved and no
    // ack tells the granter it arrived. The real grant for that seq, once
    // a request has carried it, applies as usual.
    let mut engine = NodeEngine::new(
        NodeId::new(0),
        4,
        EngineConfig::new(NodeParams::default()),
        w(150),
        SharedObserver::noop(),
    );
    let mut rng = TestRng::seed_from_u64(1);
    let mut out = Vec::new();
    let granter = NodeId::new(1);
    let grant = |seq| EngineInput::Msg {
        src: granter,
        msg: PeerMsg::Grant(PowerGrant { amount: w(5), seq }, None),
    };
    let now = SimTime::from_secs(1);
    engine.handle(now, grant(0), &mut rng, &mut out);
    assert_eq!(out, [EngineOutput::PowerLost { amount: w(5) }]);
    assert_eq!(engine.stats().stale_discards, 1);
    assert_eq!(engine.cap(), w(150));

    // Hungry with an empty pool: the tick spends seq 0.
    out.clear();
    let reading = NodeParams::default().safe_range.max();
    engine.handle(now, EngineInput::Tick { reading }, &mut rng, &mut out);
    let asked = out
        .iter()
        .any(|o| matches!(o, EngineOutput::Send { msg: PeerMsg::Request(r), .. } if r.seq == 0));
    assert!(asked, "{out:?}");
    out.clear();
    engine.handle(now, grant(0), &mut rng, &mut out);
    assert_eq!(
        out,
        [
            EngineOutput::Actuate { cap: w(155) },
            EngineOutput::Resolved {
                seq: 0,
                amount: w(5)
            },
            EngineOutput::Send {
                dst: granter,
                msg: PeerMsg::Ack(GrantAck { seq: 0 }, None),
                carried: Power::ZERO,
            },
        ]
    );
    assert_eq!(engine.stats().granted, w(5));
}

/// Peers the acked-floor property draws from (node 0 is the table's own).
const PEERS: u32 = 6;
/// Seqs the acked-floor property acks and asks about.
const ACKED_SEQS: u64 = 12;

#[test]
fn the_acked_floors_answer_like_the_hash_map_they_replaced() {
    // (kind, peer, x) steps over one node's table: acks in and out of
    // order, queries, and the liveness evidence that shares the table —
    // timeouts (the third suspects), replies that clear them, digests
    // that record incarnations and gossip suspicions — and rebirths.
    let steps = vec_of((0u32..9, 1u32..PEERS, 0u64..ACKED_SEQS), 0..60);
    prop::check(
        "acked_floors_vs_hash_map",
        prop::Config::with_cases(3_000),
        steps,
        |steps| {
            let cfg = EngineConfig::new(NodeParams::default());
            let ctx = NodeCtx::new(NodeId::new(0), 8, cfg, SharedObserver::noop());
            let mut table = PeerTable::new(&ctx);
            let mut oracle: HashMap<NodeId, u64> = HashMap::new();
            let mut now = SimTime::ZERO;
            for (i, &(kind, peer, x)) in steps.iter().enumerate() {
                let step = format!("step {i} {:?}", steps[i]);
                let peer = NodeId::new(peer);
                match kind {
                    0 | 1 => {
                        table.note_ack(peer, x);
                        let next = oracle.entry(peer).or_default();
                        *next = (*next).max(x + 1);
                    }
                    2 => assert_eq!(
                        table.already_acked(peer, x),
                        oracle.get(&peer).is_some_and(|&next| x < next),
                        "{step}"
                    ),
                    3 | 4 => table.note_timeout(&ctx, now, peer),
                    5 => table.note_reply(&ctx, now, peer),
                    6 => {
                        // From `peer`: its incarnation, and suspicions of
                        // the peers after it.
                        let entries = (peer.raw() + 1..PEERS)
                            .take(x as usize % 3)
                            .map(|p| SuspicionEntry {
                                peer: NodeId::new(p),
                                incarnation: x % 2,
                            })
                            .collect();
                        let digest = SuspicionDigest {
                            incarnation: x % 4,
                            entries,
                        };
                        table.merge_digest(&ctx, now, peer, &digest);
                    }
                    7 if x == 0 => {
                        table.reset();
                        oracle.clear();
                    }
                    _ => now += SimDuration::from_secs(x),
                }
                for p in (0..PEERS).map(NodeId::new) {
                    for seq in 0..=ACKED_SEQS {
                        let acked = oracle.get(&p).is_some_and(|&next| seq < next);
                        assert_eq!(table.already_acked(p, seq), acked, "{step}: {p:?} {seq}");
                    }
                }
            }
        },
    );
}

/// The events of one granter fed `script`, with the reclaims it ends in.
fn reclaim_run(script: &[(u32, u64, bool)]) -> Vec<TraceEvent> {
    let ring = Arc::new(RingBufferObserver::unbounded());
    let mut engine = NodeEngine::new(
        NodeId::new(0),
        8,
        EngineConfig::new(NodeParams::default()),
        w(150),
        ring.clone().into(),
    );
    engine.pool_mut().deposit(w(300));
    let mut rng = TestRng::seed_from_u64(1);
    let mut out = Vec::new();
    let now = SimTime::from_secs(1);
    for &(from, seq, delivered) in script {
        let from = NodeId::new(from);
        let request = PeerMsg::Request(PowerRequest {
            from,
            urgent: false,
            alpha: Power::ZERO,
            seq,
        });
        let input = EngineInput::Msg {
            src: from,
            msg: request,
        };
        engine.handle(now, input, &mut rng, &mut out);
        // The lossy wire: some grants are known dropped at send.
        for o in std::mem::take(&mut out) {
            if let EngineOutput::SendGrant {
                dst, amount, seq, ..
            } = o
            {
                let outcome = EngineInput::GrantOutcome {
                    requester: dst,
                    seq,
                    amount,
                    delivered,
                };
                engine.handle(now, outcome, &mut rng, &mut out);
            }
        }
        out.clear();
    }
    // Every entry falls due in the same sweep.
    let later = now + SimDuration::from_secs(60);
    engine.handle(later, EngineInput::SweepEscrow, &mut rng, &mut out);
    assert_eq!(engine.escrow_len(), 0);
    ring.events()
}

#[test]
fn a_sweep_reclaims_in_the_same_order_on_every_engine() {
    // Seven grants from one pool, five of them lost at send, all expiring
    // in one sweep. A hashed escrow handed the sweep its entries in the
    // order of a per-table hasher seed: a traced lossy run was not
    // reproducible per seed.
    let script = [
        (5, 40, false),
        (2, 7, false),
        (6, 3, true),
        (1, 7, false),
        (3, 12, false),
        (7, 1, true),
        (4, 9, false),
    ];
    let first = reclaim_run(&script);
    let reclaimed: Vec<(u32, u64)> = first
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::GrantReclaimed { requester, seq, .. } => Some((requester.raw(), seq)),
            _ => None,
        })
        .collect();
    assert_eq!(
        reclaimed,
        [(5, 40), (2, 7), (1, 7), (3, 12), (4, 9)],
        "undelivered grants come back in the order they were served"
    );
    for engine in 1..100 {
        assert_eq!(reclaim_run(&script), first, "engine {engine}");
    }
}
