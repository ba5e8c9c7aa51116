//! The two tables a node keeps as small arrays — [`GrantEscrow`] and the
//! decider's applied-seq window — against the std hash tables they
//! replaced, kept here as oracles, and the run-to-run order bug the hashed
//! escrow had.
//!
//! Both properties drive the shipped table and its oracle through the same
//! random operation sequence and compare every return and every query
//! after every step. The escrow oracle also stamps each entry with the
//! order it was first escrowed in, because that — not a hasher's — is the
//! order [`GrantEscrow::take_expired`] must report.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use penelope_core::{
    EngineConfig, EngineInput, EngineOutput, EscrowEntry, EscrowState, GrantEscrow, LocalDecider,
    NodeCtx, NodeEngine, NodeParams, PeerMsg, PeerTable, PowerPool, PowerRequest, TickAction,
    APPLIED_SEQ_WINDOW,
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
/// a floor that only a non-zero grant advances.
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
        if seq < self.floor {
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
    fn new() -> Self {
        let params = NodeParams::default();
        let cfg = EngineConfig::new(params);
        let ctx = NodeCtx::new(NodeId::new(0), 4, cfg, SharedObserver::noop());
        Requester {
            decider: LocalDecider::new(&ctx, w(150)),
            peers: PeerTable::new(&ctx),
            pool: PowerPool::new(params.pool),
            now: SimTime::ZERO,
            oracle: HashedWindow::default(),
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

    fn grant(&mut self, seq: u64, amount: Power) {
        let _ = self
            .decider
            .on_grant(&self.ctx, self.now, seq, amount, &mut self.pool);
        self.oracle.on_grant(seq, amount);
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

#[test]
fn the_applied_seq_window_dedups_like_the_hash_set_it_replaced() {
    // (kind, x) steps over one requester: new requests, their grants (zero
    // and not, in and out of order), redeliveries, seqs from far below the
    // window, and runs of more than a window's worth of empty-handed
    // replies — across which the floor must hold still.
    let steps = vec_of((0u32..9, 0u64..200), 0..50);
    prop::check(
        "applied_seqs_vs_hash_set",
        prop::Config::with_cases(3_000),
        steps,
        |steps| {
            let mut r = Requester::new();
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
                    _ => spent,
                };
                r.agrees(probe, &step);
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
