//! What a node knows about its peers, and how it picks one.
//!
//! The paper's node knows nothing about its peers — a power-hungry decider
//! "chooses at random" (§3.1) — so timeout suspicion, incarnations, digest
//! gossip, the granter's acked-seq floor and the sticky success hint are
//! all *peer knowledge*, and it lives once, in the [`PeerTable`]: a
//! 16-byte acked floor per peer the node has served, a sparse liveness
//! record per peer it holds fault evidence about (memory is O(evidence);
//! a fault-free node holds no records, and one that never granted holds
//! no floors either), plus the selection state. The decider writes it through
//! [`note_timeout`](PeerTable::note_timeout); the engine through
//! [`note_reply`](PeerTable::note_reply),
//! [`merge_digest`](PeerTable::merge_digest),
//! [`note_ack`](PeerTable::note_ack) and
//! [`note_grant`](PeerTable::note_grant).
//!
//! # Selection
//!
//! One private algorithm, `select`, implements all three
//! [`DiscoveryStrategy`] arms for both entry points. It takes the set a
//! pick must avoid as an ascending walk of ids, and the entry points differ
//! only in how they name that set: [`PeerTable::pick`] hands it the records
//! whose suspicion filters right now (already ascending by peer), so a
//! suspecting pick costs O(records held) and no allocation whatever the
//! cluster size — an event's cost stays with the nodes that hold evidence
//! of it, the per-node independence §3.1 and §4.5 argue from; the free
//! function [`choose_peer`], for a caller with a predicate and no table,
//! scans the predicate over the cluster into that list first, O(n) by
//! construction.
//!
//! The rule is *k-th live*. Rank the `n − 1` peers in id order, the node
//! itself skipped. With `m` of them excluded, the uniform arm draws `k` in
//! `0..n − 1 − m` and returns the `k`-th peer that is not: `k` bumped by
//! one for each excluded rank at or below it, in ascending order. That is
//! what indexing a collected list of the unsuspected candidates returns,
//! from the same draw over the same bound, so a seed replays
//! bit-identically against the filter-and-collect chooser this replaced
//! (`crates/core/tests/peer_table.rs` keeps that chooser as its oracle and
//! compares the RNG after every pick). When every peer is excluded the
//! draw is the paper's blind one over `0..n − 1`, so a lone survivor keeps
//! probing. `RoundRobin` takes the first live id ring-wise from its cursor
//! (the cursor's own peer when none is live), and `GossipHint` re-asks an
//! unexcluded hint or falls back to the uniform draw. With nothing
//! excluded — every fault-free run — each arm draws *exactly* as the
//! original inline code did: one index draw for uniform, one chance draw
//! for a held gossip hint. The randomness seam is [`EngineRng`], which the
//! testkit's deterministic PRNG implements by delegation.

use penelope_trace::EventKind;
use penelope_units::{NodeId, SimTime};

use crate::engine::NodeCtx;
use crate::protocol::{SuspicionDigest, SuspicionEntry, MAX_DIGEST_ENTRIES};

/// The randomness a [`NodeEngine`](crate::engine::NodeEngine) consumes:
/// exactly two draw shapes, so every substrate can plug in the testkit's
/// deterministic PRNG (or any other source) without `penelope-core`
/// depending on an RNG implementation.
///
/// Implementations MUST be draw-compatible with
/// `penelope_testkit::rng::Rng`: `gen_index(upper)` behaves as
/// `gen_range(0..upper)` and `gen_chance(p)` as `gen_bool(p)`. The
/// testkit implements this trait for `TestRng` by literal delegation,
/// which is what keeps recorded seeds replaying byte-identically across
/// the engine extraction.
pub trait EngineRng {
    /// A uniform index in `0..upper`. `upper` must be nonzero.
    fn gen_index(&mut self, upper: usize) -> usize;
    /// `true` with probability `p` (`p` must be in `[0, 1]`).
    fn gen_chance(&mut self, p: f64) -> bool;
}

impl<R: EngineRng + ?Sized> EngineRng for &mut R {
    fn gen_index(&mut self, upper: usize) -> usize {
        (**self).gen_index(upper)
    }
    fn gen_chance(&mut self, p: f64) -> bool {
        (**self).gen_chance(p)
    }
}

/// How a power-hungry Penelope decider picks which pool to query.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum DiscoveryStrategy {
    /// Uniformly random peer (the paper's design, §3.1).
    #[default]
    UniformRandom,
    /// Deterministic round-robin sweep — the ablation arm: discovery
    /// without randomness.
    RoundRobin,
    /// Gossip hints — a future-work extension: remember the pool that last
    /// granted power and re-query it, falling back to a uniformly random
    /// peer with probability `explore` (and whenever the hint goes dry).
    GossipHint {
        /// Probability of ignoring the hint and exploring randomly.
        explore: f64,
    },
}

/// Where a node's round-robin discovery cursor must start: the next node
/// ring-wise, never the node itself. The old hard-coded `1` made node
/// index 1 select *itself* on its first pick.
pub fn initial_rr_cursor(idx: u32, n: u32) -> u32 {
    (idx + 1) % n.max(1)
}

/// Pick the peer a power-hungry node at `idx` (of `n` client nodes)
/// queries this iteration. Returns `None` when the node has no peers.
///
/// This is the predicate-only entry to the [selection rule](self#selection)
/// for a caller that holds no [`PeerTable`]: `suspicion_active` says
/// whether any peer is suspected at all, `is_suspected` classifies one
/// candidate, and the predicate is only consulted when suspicion is
/// active, which keeps the nominal path's RNG draw sequence untouched. A
/// predicate can only name the excluded set one id at a time, so with
/// suspicion active this scans the whole cluster — O(n) and one `Vec` by
/// construction; [`PeerTable::pick`] names the same set by its records and
/// costs O(records).
///
/// Every arm guarantees the returned peer is never the node itself —
/// including `RoundRobin` with a self-pointing cursor, which the old
/// inline code returned verbatim.
#[allow(clippy::too_many_arguments)]
pub fn choose_peer<R: EngineRng>(
    strategy: DiscoveryStrategy,
    rng: &mut R,
    idx: usize,
    n: usize,
    rr_cursor: &mut u32,
    last_success: Option<NodeId>,
    suspicion_active: bool,
    is_suspected: impl Fn(NodeId) -> bool,
) -> Option<NodeId> {
    let excluded: Vec<u32> = if suspicion_active {
        (0..n as u32)
            .filter(|&p| p as usize != idx && is_suspected(NodeId::new(p)))
            .collect()
    } else {
        Vec::new()
    };
    let excluded = excluded.iter().copied();
    select(strategy, rng, idx, n, rr_cursor, last_success, excluded)
}

/// The one selection algorithm, behind both [`PeerTable::pick`] and
/// [`choose_peer`]: see the [module docs](self#selection). `excluded` is
/// the peers selection must avoid — ascending, distinct, below `n`, never
/// `idx` — and is walked, never indexed or collected.
fn select<R: EngineRng>(
    strategy: DiscoveryStrategy,
    rng: &mut R,
    idx: usize,
    n: usize,
    rr_cursor: &mut u32,
    last_success: Option<NodeId>,
    excluded: impl Iterator<Item = u32> + Clone,
) -> Option<NodeId> {
    if n < 2 {
        return None;
    }
    let (me, n) = (idx as u32, n as u32);
    // Selection works on the n − 1 peers ranked 0..n − 1 in id order, the
    // node itself skipped, so it never has to be merged into the walk.
    let rank = move |id: u32| id - u32::from(id > me);
    let peer = move |rank: u32| rank + u32::from(rank >= me);
    let barred = excluded.map(rank);
    let live = (n - 1) as usize - barred.clone().count();
    // §3.1: chosen at random; the decider has no liveness oracle beyond
    // its own timeout bookkeeping, so without suspicion a dead peer can be
    // picked and the request simply times out. Exactly one index draw on
    // every path.
    let uniform = |rng: &mut R| {
        peer(match live {
            // Everyone is suspected: fall back to the paper's blind pick
            // so a lone survivor keeps probing instead of going mute.
            0 => rng.gen_index(n as usize - 1) as u32,
            _ => bump_past(rng.gen_index(live) as u32, barred.clone()),
        })
    };
    Some(NodeId::new(match strategy {
        DiscoveryStrategy::UniformRandom => uniform(rng),
        DiscoveryStrategy::RoundRobin => {
            // The cursor itself must never name the node: a stale or
            // mis-seeded cursor would otherwise make the node "request
            // power from itself" and burn a period waiting for a reply
            // that can never come.
            let mut p = *rr_cursor;
            if p >= n || p == me {
                p = next_cursor(p % n, me, n);
            }
            // Under suspicion, the first live peer ring-wise from the
            // cursor; if everyone is suspected, keep the blind pick.
            if live > 0 {
                let from = rank(p);
                let mut r = bump_past(from, barred.clone().skip_while(move |&e| e < from));
                if r == n - 1 {
                    r = bump_past(0, barred.clone());
                }
                p = peer(r);
            }
            *rr_cursor = next_cursor(p, me, n);
            p
        }
        DiscoveryStrategy::GossipHint { explore } => {
            let hint = last_success
                .map(NodeId::raw)
                .filter(|&h| h != me && barred.clone().all(|e| e != rank(h)));
            match hint {
                Some(h) if !rng.gen_chance(explore.clamp(0.0, 1.0)) => h,
                _ => uniform(rng),
            }
        }
    }))
}

/// Walk `at` up the ascending `barred`: each barred rank at or below it
/// moves it up by one, the first one above it ends the walk. From a draw
/// `k` that yields the `k`-th rank (counting from zero) outside `barred` —
/// what indexing the filtered candidate list would return, without the
/// list; from a rank, over the barred ranks not below it, the first rank
/// at or above it outside `barred`.
fn bump_past(mut at: u32, barred: impl Iterator<Item = u32>) -> u32 {
    for e in barred {
        if e > at {
            break;
        }
        at += 1;
    }
    at
}

/// Advance a round-robin cursor one step, skipping the node itself.
fn next_cursor(p: u32, me: u32, n: u32) -> u32 {
    let mut next = (p + 1) % n;
    if next == me {
        next = (next + 1) % n;
    }
    next
}

/// An active suspicion of one peer.
#[derive(Clone, Copy, Debug)]
struct Suspicion {
    /// When a timeout last confirmed it (the probe clock). Older than
    /// `probe_interval` it stops filtering selection — one probe gets
    /// through — but stays until cleared, so `PeerSuspected` and
    /// `PeerCleared` strictly alternate.
    since: SimTime,
    /// The peer's incarnation it was formed against; a digest proving a
    /// newer one refutes it.
    incarnation: u64,
}

/// What this node holds about one peer's liveness. Kept small (40 bytes),
/// and only ever held under faults: a fault-free run writes none.
#[derive(Clone, Copy, Debug)]
struct PeerRecord {
    peer: NodeId,
    /// Consecutive unanswered requests; any reply zeroes it.
    timeout_streak: u32,
    suspicion: Option<Suspicion>,
    /// Newest incarnation (seq-epoch floor) a digest has shown. Gossip
    /// formed against an older one is refuted instead of adopted, so a
    /// rejoined node is never re-shunned by stale gossip.
    incarnation: u64,
}

impl PeerRecord {
    /// No evidence about `peer`: what an absent record also means.
    fn blank(peer: NodeId) -> Self {
        PeerRecord {
            peer,
            timeout_streak: 0,
            suspicion: None,
            incarnation: 0,
        }
    }

    fn is_blank(&self) -> bool {
        self.timeout_streak == 0 && self.suspicion.is_none() && self.incarnation == 0
    }
}

/// Granter-side late-duplicate guard for one requester (16 bytes): one
/// past the highest request `seq` it acknowledged a grant for. The ack
/// releases the escrow entry, so a duplicate request delayed past it
/// would be debited again and the requester's dedup would make that debit
/// vanish. Requester seqs are strictly monotone (across rebirths too), so
/// anything below `next` duplicates a completed exchange. This is the
/// one thing a fault-free donor learns about a peer, and a long run holds
/// one per peer that ever asked.
#[derive(Clone, Copy, Debug)]
struct AckedFloor {
    peer: NodeId,
    next: u64,
}

/// Insert `item` at `at` of a table every node carries: the first entry
/// gets a block of its own (a fault-free donor only ever holds one), and
/// the table grows by a quarter after it, not by doubling — under loss
/// these tables reach dozens of entries.
fn insert_sparse<T>(table: &mut Vec<T>, at: usize, item: T) {
    if table.len() == table.capacity() {
        let more = if table.is_empty() {
            1
        } else {
            table.len() / 4 + 4
        };
        table.reserve_exact(more);
    }
    table.insert(at, item);
}

/// Everything one node knows about its peers — see the [module docs](self).
///
/// Whose table it is, the size of the cluster it picks from and the three
/// knobs it runs under (`suspect_after`, `probe_interval`,
/// `gossip_digest`) are not kept here: they are the engine's and the
/// cluster's, and every call that needs one takes the [`NodeCtx`].
#[derive(Clone, Debug)]
pub struct PeerTable {
    /// One acked floor per requester this node has served, ascending by
    /// peer.
    acked: Vec<AckedFloor>,
    /// Liveness evidence, behind one word: `None` until the first timeout
    /// or digest, so a fault-free run never allocates it and no liveness
    /// query or reply there reads more than this handle.
    liveness: Option<Box<Liveness>>,
    rr_cursor: u32,
    /// The pool that last granted power (the `GossipHint` arm's hint).
    last_success: Option<NodeId>,
}

/// What the fault path has learnt about peers' liveness.
#[derive(Clone, Debug, Default)]
struct Liveness {
    /// Sparse, and ascending by peer so a digest needs no sort.
    records: Vec<PeerRecord>,
    /// How many records hold a suspicion, and how many a running timeout
    /// streak. With both zero — a run whose faults have healed — no
    /// liveness query or reply touches `records`.
    suspected: usize,
    streaking: usize,
}

impl Liveness {
    fn slot(&self, peer: NodeId) -> Result<usize, usize> {
        self.records.binary_search_by_key(&peer, |r| r.peer)
    }

    fn get(&self, peer: NodeId) -> Option<&PeerRecord> {
        self.slot(peer).ok().map(|at| &self.records[at])
    }

    /// The record for `peer`, blank if this is the first evidence of it.
    fn record_mut(&mut self, peer: NodeId) -> &mut PeerRecord {
        let at = self.slot(peer).unwrap_or_else(|at| {
            insert_sparse(&mut self.records, at, PeerRecord::blank(peer));
            at
        });
        &mut self.records[at]
    }

    /// Forget the record at `at` once it holds nothing, so memory tracks
    /// evidence, not history.
    fn prune(&mut self, at: usize) {
        if self.records[at].is_blank() {
            self.records.remove(at);
        }
    }

    /// Drop the suspicion held of `peer`, on incarnation evidence (which
    /// is itself evidence: the record stays).
    fn refute(&mut self, ctx: &NodeCtx, now: SimTime, peer: NodeId) {
        let r = self.record_mut(peer);
        r.suspicion = None;
        let streak = std::mem::take(&mut r.timeout_streak);
        self.streaking -= usize::from(streak > 0);
        self.suspected -= 1;
        ctx.emit(now, || EventKind::SuspicionRefuted { peer });
    }
}

impl PeerTable {
    /// The empty table of `ctx`'s node: its round-robin cursor starts at
    /// the next node ring-wise in `ctx`'s cluster.
    pub fn new(ctx: &NodeCtx) -> Self {
        PeerTable {
            acked: Vec::new(),
            liveness: None,
            rr_cursor: initial_rr_cursor(ctx.node.raw(), ctx.cluster_size as u32),
            last_success: None,
        }
    }

    /// Rebirth: everything learnt is forgotten. The round-robin cursor
    /// survives (the historical restart behaviour, byte-for-byte).
    pub fn reset(&mut self) {
        self.acked.clear();
        if let Some(l) = &mut self.liveness {
            l.records.clear();
            l.suspected = 0;
            l.streaking = 0;
        }
        self.last_success = None;
    }

    /// The liveness evidence, allocated on the first of it.
    fn liveness_mut(&mut self) -> &mut Liveness {
        self.liveness.get_or_insert_with(Box::default)
    }

    /// The liveness records held, ascending by peer.
    fn records(&self) -> &[PeerRecord] {
        self.liveness.as_deref().map_or(&[], |l| &l.records)
    }

    /// How many peers a suspicion is held against.
    fn suspected(&self) -> usize {
        self.liveness.as_deref().map_or(0, |l| l.suspected)
    }

    /// One request to `peer` timed out (retransmit fired or the request
    /// was abandoned): extend the streak, and at `suspect_after` (zero
    /// disables the layer) suspect the peer against the newest incarnation
    /// known for it. A repeat timeout only restarts the probe clock.
    pub fn note_timeout(&mut self, ctx: &NodeCtx, now: SimTime, peer: NodeId) {
        let suspect_after = ctx.knobs().suspect_after;
        if suspect_after == 0 {
            return;
        }
        let l = self.liveness_mut();
        let r = l.record_mut(peer);
        r.timeout_streak += 1;
        let streak = r.timeout_streak;
        let confirmed = Suspicion {
            since: now,
            incarnation: r.incarnation,
        };
        let fresh = streak >= suspect_after && r.suspicion.replace(confirmed).is_none();
        l.streaking += usize::from(streak == 1);
        if fresh {
            l.suspected += 1;
            ctx.emit(now, || EventKind::PeerSuspected { peer });
        }
    }

    /// Any reply from `peer` — even a zero grant — proves it alive: the
    /// streak resets and a suspicion is cleared.
    pub fn note_reply(&mut self, ctx: &NodeCtx, now: SimTime, peer: NodeId) {
        let Some(l) = self.liveness.as_deref_mut() else {
            return; // nothing a reply could clear
        };
        if l.suspected + l.streaking == 0 {
            return;
        }
        if let Ok(at) = l.slot(peer) {
            let r = &mut l.records[at];
            l.streaking -= usize::from(std::mem::take(&mut r.timeout_streak) > 0);
            if r.suspicion.take().is_some() {
                l.suspected -= 1;
                ctx.emit(now, || EventKind::PeerCleared { peer });
            }
            l.prune(at);
        }
    }

    /// Consecutive unanswered requests to `peer` (zero after any reply).
    pub fn timeout_streak(&self, peer: NodeId) -> u32 {
        match self.liveness.as_deref() {
            Some(l) if l.streaking > 0 => l.get(peer).map_or(0, |r| r.timeout_streak),
            _ => 0,
        }
    }

    /// `Some(filtering?)` iff `r` holds a suspicion: it filters selection
    /// while younger than `probe_interval`.
    fn filtering(ctx: &NodeCtx, now: SimTime, r: &PeerRecord) -> Option<bool> {
        let s = r.suspicion?;
        Some(now.saturating_since(s.since) < ctx.knobs().probe_interval)
    }

    /// [`filtering`](Self::filtering) for `peer`, by lookup.
    fn suspicion_of(&self, ctx: &NodeCtx, now: SimTime, peer: NodeId) -> Option<bool> {
        let l = self.liveness.as_deref()?;
        if l.suspected == 0 {
            return None;
        }
        Self::filtering(ctx, now, l.get(peer)?)
    }

    /// Is `peer` filtered out of selection right now?
    pub fn is_suspected(&self, ctx: &NodeCtx, now: SimTime, peer: NodeId) -> bool {
        self.suspicion_of(ctx, now, peer) == Some(true)
    }

    /// Has a suspicion of `peer` outlived `probe_interval`? A request sent
    /// to it now is the probe that clears (any reply) or re-confirms
    /// (another timeout) the suspicion.
    pub fn is_probing(&self, ctx: &NodeCtx, now: SimTime, peer: NodeId) -> bool {
        self.suspicion_of(ctx, now, peer) == Some(false)
    }

    /// True iff any peer is filtered right now — the gate that keeps
    /// fault-free selection on the paper's single blind draw.
    pub fn suspicion_active(&self, ctx: &NodeCtx, now: SimTime) -> bool {
        let mut all = self.records().iter();
        self.suspected() != 0 && all.any(|r| Self::filtering(ctx, now, r) == Some(true))
    }

    /// Peers a suspicion is held against (filtering or awaiting a probe).
    pub fn suspected_count(&self) -> usize {
        self.suspected()
    }

    /// The digest to piggyback on an outgoing grant or ack: the lowest
    /// `gossip_digest` suspected peers, under `own_incarnation` (the
    /// node's seq-epoch floor). `None` when gossip is off or there is
    /// nothing to say, so fault-free fresh clusters attach nothing. The
    /// box is one of this thread's spares when it has one
    /// ([`SuspicionDigest::boxed`]).
    pub fn digest(&self, ctx: &NodeCtx, own_incarnation: u64) -> Option<Box<SuspicionDigest>> {
        let limit = ctx.knobs().gossip_digest.min(MAX_DIGEST_ENTRIES);
        if limit == 0 || (self.suspected() == 0 && own_incarnation == 0) {
            return None;
        }
        let suspicions = self.records().iter().filter_map(|r| {
            let (peer, incarnation) = (r.peer, r.suspicion?.incarnation);
            Some(SuspicionEntry { peer, incarnation })
        });
        let mut digest = SuspicionDigest::boxed(own_incarnation);
        digest.entries.extend(suspicions.take(limit));
        Some(digest)
    }

    /// Merge a digest piggybacked on a message from `src` (before
    /// [`note_reply`](PeerTable::note_reply), so a refutation is credited
    /// to incarnation evidence, not the reply). Three rules, in order:
    /// 1. The digest is firsthand proof `src` lives at its incarnation:
    ///    record it, and refute a suspicion of `src` formed against an
    ///    older one (`SuspicionRefuted`).
    /// 2. An entry older than its peer's known incarnation is stale: never
    ///    adopted, and it *clears* a matching stale suspicion — old
    ///    suspicion of a rejoined node cannot circulate forever.
    /// 3. A fresh entry about an unsuspected peer is adopted secondhand
    ///    (`SuspicionGossiped`); about a suspected one it only upgrades
    ///    the stamp (probe clock kept), so a stale copy arriving later
    ///    cannot clear-then-reinfect.
    ///
    /// A no-op with gossip off, so the with/without comparison isolates
    /// exactly the dissemination layer.
    pub fn merge_digest(
        &mut self,
        ctx: &NodeCtx,
        now: SimTime,
        src: NodeId,
        digest: &SuspicionDigest,
    ) {
        if ctx.knobs().gossip_digest == 0 {
            return;
        }
        // (Incarnation zero is what an absent record already says, and it
        // refutes nothing.)
        if digest.incarnation > 0 {
            let l = self.liveness_mut();
            let r = l.record_mut(src);
            r.incarnation = r.incarnation.max(digest.incarnation);
            if r.suspicion
                .is_some_and(|s| s.incarnation < digest.incarnation)
            {
                l.refute(ctx, now, src);
            }
        }
        for entry in digest.entries.iter().take(MAX_DIGEST_ENTRIES) {
            let (peer, incarnation) = (entry.peer, entry.incarnation);
            // No one may gossip us into suspecting ourselves, and a
            // sender's claim about itself is nonsense.
            if peer == ctx.node || peer == src {
                continue;
            }
            let l = self.liveness_mut();
            let r = l.record_mut(peer);
            if incarnation < r.incarnation {
                if r.suspicion.is_some_and(|s| s.incarnation < r.incarnation) {
                    l.refute(ctx, now, peer);
                }
                continue;
            }
            r.incarnation = incarnation;
            match &mut r.suspicion {
                Some(s) => s.incarnation = s.incarnation.max(incarnation),
                None => {
                    let since = now;
                    r.suspicion = Some(Suspicion { since, incarnation });
                    l.suspected += 1;
                    let gossiped = EventKind::SuspicionGossiped { peer, via: src };
                    ctx.emit(now, || gossiped);
                }
            }
        }
    }

    /// `peer` acknowledged the grant for its request `seq`: that exchange
    /// is complete, whether or not its escrow entry was still live (a
    /// duplicated ack may land after expiry).
    pub fn note_ack(&mut self, peer: NodeId, seq: u64) {
        let next = seq.saturating_add(1);
        match self.acked.binary_search_by_key(&peer, |f| f.peer) {
            Ok(at) => self.acked[at].next = self.acked[at].next.max(next),
            Err(at) => insert_sparse(&mut self.acked, at, AckedFloor { peer, next }),
        }
    }

    /// Is `(peer, seq)` a request whose grant `peer` already acknowledged?
    pub fn already_acked(&self, peer: NodeId, seq: u64) -> bool {
        let at = self.acked.binary_search_by_key(&peer, |f| f.peer);
        at.is_ok_and(|at| seq < self.acked[at].next)
    }

    /// A grant from `src` arrived: remember a productive pool as the
    /// hint, forget one that came back dry.
    pub fn note_grant(&mut self, src: NodeId, productive: bool) {
        if productive {
            self.last_success = Some(src);
        } else if self.last_success == Some(src) {
            self.last_success = None;
        }
    }

    /// Drop the success hint (the node crashed).
    pub(crate) fn forget_hint(&mut self) {
        self.last_success = None;
    }

    /// True iff selection is the paper's blind draw — no hint, no
    /// suspicion — so a tick that sends nothing leaves this table as it
    /// found it: the one question quiescent-tick elision asks.
    #[inline]
    pub fn selection_is_blind(&self) -> bool {
        self.last_success.is_none() && self.suspected() == 0
    }

    /// Pick the peer to query this iteration by the
    /// [selection rule](self#selection), the excluded set being the
    /// records whose suspicion filters at `now`: O(records held), whatever
    /// the cluster size, and no allocation. `None` when the node has no
    /// peers.
    pub fn pick<R: EngineRng>(
        &mut self,
        ctx: &NodeCtx,
        strategy: DiscoveryStrategy,
        rng: &mut R,
        now: SimTime,
    ) -> Option<NodeId> {
        // A hint whose peer has started timing out is dropped at once,
        // not when the empty grant a crashed peer can never send arrives.
        let hint_streak = self.last_success.map(|h| self.timeout_streak(h));
        if hint_streak > Some(0) {
            self.last_success = None;
        }
        // With nothing suspected — every fault-free run — no record is
        // read. A record about this node or about an id outside the
        // cluster (a digest can carry either) excludes nothing.
        let held = if self.suspected() == 0 {
            &[][..]
        } else {
            self.records()
        };
        let excluded = held
            .iter()
            .take_while(|r| r.peer.index() < ctx.cluster_size)
            .filter(|r| r.peer != ctx.node && Self::filtering(ctx, now, r) == Some(true))
            .map(|r| r.peer.raw());
        let mut cursor = self.rr_cursor;
        let peer = select(
            strategy,
            rng,
            ctx.node.index(),
            ctx.cluster_size,
            &mut cursor,
            self.last_success,
            excluded,
        );
        self.rr_cursor = cursor;
        peer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_track_evidence_not_history() {
        let noop = penelope_trace::SharedObserver::noop();
        let ctx = NodeCtx::new(NodeId::new(0), 8, crate::EngineConfig::default(), noop);
        let mut t = PeerTable::new(&ctx);
        let (now, peer) = (SimTime::from_secs(1), NodeId::new(3));
        // An acked floor is kept apart and allocates no liveness records.
        t.note_ack(peer, 0);
        assert!(t.liveness.is_none());
        assert_eq!(t.acked.len(), 1);
        // A streak a reply cleared, and a digest that proves nothing new,
        // leave no record behind; the acked floor stays.
        t.note_timeout(&ctx, now, peer);
        assert_eq!(t.records().len(), 1);
        t.note_reply(&ctx, now, peer);
        t.merge_digest(&ctx, now, peer, &SuspicionDigest::default());
        assert!(t.records().is_empty());
        assert!(t.already_acked(peer, 0));
        assert!(!t.already_acked(peer, 1));
    }

    #[test]
    fn a_peer_record_stays_small() {
        assert_eq!(std::mem::size_of::<PeerRecord>(), 40);
        assert_eq!(std::mem::size_of::<AckedFloor>(), 16);
    }
}

/// A decider wired to the peer table and node context its calls need,
/// under the call shapes the decider had when it held both — so the
/// liveness and gossip tests that moved here with the table read as they
/// always did.
#[cfg(test)]
pub(crate) mod rig {
    use super::*;
    use crate::config::{DeciderConfig, NodeParams};
    use crate::decider::{LocalDecider, TickAction};
    use crate::pool::PowerPool;
    use crate::EngineConfig;
    use penelope_trace::SharedObserver;
    use penelope_units::{Power, PowerRange};

    #[derive(Clone, Debug)]
    pub(crate) struct Rig {
        pub(crate) d: LocalDecider,
        pub(crate) peers: PeerTable,
        pub(crate) ctx: NodeCtx,
    }

    impl Rig {
        pub(crate) fn new(cfg: DeciderConfig, initial_cap: Power, safe: PowerRange) -> Self {
            let params = NodeParams {
                decider: cfg,
                safe_range: safe,
                ..NodeParams::default()
            };
            let noop = SharedObserver::noop();
            let ctx = NodeCtx::new(NodeId::new(0), 16, EngineConfig::new(params), noop);
            Rig {
                d: LocalDecider::new(&ctx, initial_cap),
                peers: PeerTable::new(&ctx),
                ctx,
            }
        }

        pub(crate) fn with_seq_floor(mut self, floor: u64) -> Self {
            self.d = self.d.with_seq_floor(floor);
            self
        }

        pub(crate) fn with_observer(mut self, node: NodeId, obs: SharedObserver) -> Self {
            self.ctx = NodeCtx::new(node, 16, self.ctx.cfg.clone(), obs);
            self.peers = PeerTable::new(&self.ctx);
            self
        }

        pub(crate) fn config(&self) -> &DeciderConfig {
            self.ctx.knobs()
        }

        pub(crate) fn quiescent_until(&self, now: SimTime, reading: Power) -> Option<SimTime> {
            self.d.quiescent_until(&self.ctx, now, reading)
        }

        pub(crate) fn tick(
            &mut self,
            now: SimTime,
            reading: Power,
            pool: &mut PowerPool,
            peer: Option<NodeId>,
        ) -> TickAction {
            self.d
                .tick(&self.ctx, now, reading, pool, peer, &mut self.peers)
        }

        pub(crate) fn on_grant(
            &mut self,
            now: SimTime,
            seq: u64,
            amount: Power,
            pool: &mut PowerPool,
        ) -> Power {
            self.d.on_grant(&self.ctx, now, seq, amount, pool)
        }

        pub(crate) fn note_peer_reply(&mut self, now: SimTime, peer: NodeId) {
            self.peers.note_reply(&self.ctx, now, peer);
        }

        pub(crate) fn is_suspected(&self, now: SimTime, peer: NodeId) -> bool {
            self.peers.is_suspected(&self.ctx, now, peer)
        }

        pub(crate) fn suspicion_active(&self, now: SimTime) -> bool {
            self.peers.suspicion_active(&self.ctx, now)
        }

        pub(crate) fn suspected_count(&self) -> usize {
            self.peers.suspected_count()
        }

        pub(crate) fn peer_timeout_streak(&self, peer: NodeId) -> u32 {
            self.peers.timeout_streak(peer)
        }

        pub(crate) fn make_digest(&self) -> Option<Box<SuspicionDigest>> {
            self.peers.digest(&self.ctx, self.d.incarnation())
        }

        pub(crate) fn observe_digest(
            &mut self,
            now: SimTime,
            src: NodeId,
            digest: &SuspicionDigest,
        ) {
            self.peers.merge_digest(&self.ctx, now, src, digest);
        }
    }

    impl std::ops::Deref for Rig {
        type Target = LocalDecider;
        fn deref(&self) -> &LocalDecider {
            &self.d
        }
    }

    impl std::ops::DerefMut for Rig {
        fn deref_mut(&mut self) -> &mut LocalDecider {
            &mut self.d
        }
    }
}

#[cfg(test)]
mod churn_tests {
    use super::rig::Rig;
    use super::*;
    use crate::config::DeciderConfig;
    use crate::decider::TickAction;
    use crate::pool::PowerPool;
    use penelope_units::{Power, PowerRange, SimDuration};

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn safe() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A decider that suspects after 2 consecutive timeouts, no
    /// retransmits, 1 s timeout, 8 s probe interval.
    fn suspicious() -> Rig {
        let cfg = DeciderConfig {
            suspect_after: 2,
            ..Default::default()
        };
        Rig::new(cfg, w(150), safe())
    }

    /// Drive one request→timeout round against `peer`.
    fn timeout_round(d: &mut Rig, p: &mut PowerPool, now: &mut u64, peer: NodeId) {
        let a = d.tick(t(*now), w(150), p, Some(peer));
        assert!(matches!(a, TickAction::Request { .. }), "{a:?}");
        *now += 2; // past the 1 s response timeout
                   // The timeout fires at the top of this tick; the decider then
                   // re-classifies and may issue a fresh request, which we let expire
                   // on the next round.
        let _ = d.tick(t(*now), w(145), p, Some(peer)); // at margin after timeout
        *now += 1;
    }

    #[test]
    fn peer_suspected_after_consecutive_timeouts_and_cleared_by_reply() {
        let mut d = suspicious();
        let mut p = PowerPool::default();
        let peer = NodeId::new(1);
        let mut now = 1u64;
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 1);
        assert!(!d.is_suspected(t(now), peer), "one timeout is not enough");
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 2);
        assert!(d.is_suspected(t(now), peer));
        assert!(d.suspicion_active(t(now)));
        // Any reply clears both the streak and the suspicion.
        d.note_peer_reply(t(now), peer);
        assert!(!d.is_suspected(t(now), peer));
        assert_eq!(d.peer_timeout_streak(peer), 0);
        assert!(!d.suspicion_active(t(now)));
    }

    #[test]
    fn suspicion_expires_into_a_probe_after_the_interval() {
        let mut d = suspicious();
        let mut p = PowerPool::default();
        let peer = NodeId::new(2);
        let mut now = 1u64;
        timeout_round(&mut d, &mut p, &mut now, peer);
        timeout_round(&mut d, &mut p, &mut now, peer);
        let suspected_at = t(now);
        assert!(d.is_suspected(suspected_at, peer));
        // 8 s (the default probe interval) later the peer is eligible
        // again — but the suspicion entry survives, so no PeerCleared is
        // emitted and a reply still produces exactly one.
        let later = SimTime::from_secs(now + 20);
        assert!(!d.is_suspected(later, peer));
        assert!(!d.suspicion_active(later));
    }

    #[test]
    fn reply_resets_the_streak_below_threshold() {
        let mut d = suspicious();
        let mut p = PowerPool::default();
        let peer = NodeId::new(1);
        let mut now = 1u64;
        timeout_round(&mut d, &mut p, &mut now, peer);
        d.note_peer_reply(t(now), peer);
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 1);
        assert!(!d.is_suspected(t(now), peer), "streak was not consecutive");
    }

    #[test]
    fn retransmit_expiries_count_toward_the_streak() {
        // With retransmits enabled a single fully-abandoned request
        // signals several timeouts — a dead peer is suspected after one
        // abandoned request, not suspect_after of them.
        let cfg = DeciderConfig {
            max_retransmits: 2,
            suspect_after: 3,
            ..Default::default()
        };
        let mut d = Rig::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let peer = NodeId::new(4);
        let _ = d.tick(t(1), w(150), &mut p, Some(peer)); // request
        let _ = d.tick(t(2), w(150), &mut p, None); // retransmit 1
        let _ = d.tick(t(4), w(150), &mut p, None); // retransmit 2
        let _ = d.tick(t(8), w(145), &mut p, None); // abandoned
        assert_eq!(d.stats().timeouts, 1);
        assert_eq!(d.stats().retransmits, 2);
        assert_eq!(d.peer_timeout_streak(peer), 3);
        assert!(d.is_suspected(t(8), peer));
    }

    #[test]
    fn fault_free_decider_never_suspects() {
        // The byte-identity guarantee's core: without timeouts the
        // suspicion layer holds no state and emits nothing.
        use penelope_trace::RingBufferObserver;
        use std::sync::Arc;
        let ring = Arc::new(RingBufferObserver::unbounded());
        let mut d = Rig::new(DeciderConfig::default(), w(150), safe())
            .with_observer(NodeId::new(0), ring.clone().into());
        let mut p = PowerPool::default();
        for i in 0..50u64 {
            let now = t(2 * i + 1);
            if let TickAction::Request { seq, .. } =
                d.tick(now, w(150), &mut p, Some(NodeId::new(1)))
            {
                d.note_peer_reply(now + SimDuration::from_millis(5), NodeId::new(1));
                let _ = d.on_grant(now + SimDuration::from_millis(5), seq, w(1), &mut p);
            }
            p.drain();
            assert!(!d.suspicion_active(now));
        }
        assert!(!ring.events().iter().any(|e| matches!(
            e.kind,
            EventKind::PeerSuspected { .. } | EventKind::PeerCleared { .. }
        )));
    }

    #[test]
    fn suspect_after_boundary_exactly_n_timeouts() {
        // The threshold is inclusive: N−1 consecutive timeouts must leave
        // the peer trusted, the Nth flips it — no off-by-one either way.
        let cfg = DeciderConfig {
            suspect_after: 3,
            ..Default::default()
        };
        let mut d = Rig::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let peer = NodeId::new(1);
        let mut now = 1u64;
        timeout_round(&mut d, &mut p, &mut now, peer);
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 2);
        assert!(
            !d.is_suspected(t(now), peer),
            "N−1 timeouts must not suspect"
        );
        assert!(!d.suspicion_active(t(now)));
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 3);
        assert!(d.is_suspected(t(now), peer), "the Nth timeout suspects");
    }

    #[test]
    fn clear_on_reply_after_probe_expiry_emits_one_cleared() {
        // The clear-on-reply vs clear-on-probe race: once the probe
        // interval expires the peer is already eligible again
        // (is_suspected false), but the suspicion *entry* survives. A
        // reply arriving after expiry must clear it exactly once —
        // PeerSuspected/PeerCleared strictly alternate, never a double
        // clear and never a clear-less re-suspect.
        use penelope_trace::RingBufferObserver;
        use std::sync::Arc;
        let ring = Arc::new(RingBufferObserver::unbounded());
        let cfg = DeciderConfig {
            suspect_after: 2,
            ..Default::default()
        };
        let mut d =
            Rig::new(cfg, w(150), safe()).with_observer(NodeId::new(0), ring.clone().into());
        let mut p = PowerPool::default();
        let peer = NodeId::new(2);
        let mut now = 1u64;
        timeout_round(&mut d, &mut p, &mut now, peer);
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert!(d.is_suspected(t(now), peer));
        // Probe interval (8 s default) expires: eligible again, entry kept.
        let after_probe = t(now + 20);
        assert!(!d.is_suspected(after_probe, peer));
        // The probe's reply lands after expiry.
        d.note_peer_reply(after_probe, peer);
        // A second reply must not produce a second clear.
        d.note_peer_reply(after_probe + SimDuration::from_secs(1), peer);
        let events = ring.events();
        let suspected = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PeerSuspected { .. }))
            .count();
        let cleared = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PeerCleared { .. }))
            .count();
        assert_eq!((suspected, cleared), (1, 1));
        // And the streak restarted from zero: one fresh timeout is not
        // enough to re-suspect.
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 1);
    }

    #[test]
    fn all_peers_suspected_still_reports_each_individually() {
        // The decider side of the blind-uniform fallback: when every peer
        // is suspected the host's chooser sees is_suspected true for all
        // of them and suspicion_active true, which is its cue to fall
        // back to the paper's blind draw rather than return no peer. The
        // probe interval is stretched so the first suspicion cannot expire
        // while the later peers are still being timed out.
        let cfg = DeciderConfig {
            suspect_after: 2,
            probe_interval: SimDuration::from_secs(1_000),
            ..Default::default()
        };
        let mut d = Rig::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let mut now = 1u64;
        for peer in [NodeId::new(1), NodeId::new(2), NodeId::new(3)] {
            timeout_round(&mut d, &mut p, &mut now, peer);
            timeout_round(&mut d, &mut p, &mut now, peer);
            assert!(d.is_suspected(t(now), peer));
        }
        assert_eq!(d.suspected_count(), 3);
        assert!(d.suspicion_active(t(now)));
        for peer in [NodeId::new(1), NodeId::new(2), NodeId::new(3)] {
            assert!(d.is_suspected(t(now), peer));
        }
    }
}

#[cfg(test)]
mod gossip_tests {
    use super::rig::Rig;
    use super::*;
    use crate::config::DeciderConfig;
    use crate::decider::TickAction;
    use crate::pool::PowerPool;
    use penelope_trace::RingBufferObserver;
    use penelope_units::{Power, PowerRange};
    use std::sync::Arc;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn safe() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn observed() -> (Rig, Arc<RingBufferObserver>) {
        let ring = Arc::new(RingBufferObserver::unbounded());
        let d = Rig::new(DeciderConfig::default(), w(150), safe())
            .with_observer(NodeId::new(0), ring.clone().into());
        (d, ring)
    }

    fn digest_of(incarnation: u64, entries: &[(u32, u64)]) -> SuspicionDigest {
        SuspicionDigest {
            incarnation,
            entries: entries
                .iter()
                .map(|&(p, i)| SuspicionEntry {
                    peer: NodeId::new(p),
                    incarnation: i,
                })
                .collect(),
        }
    }

    /// Plant a local (timeout-born) suspicion of `peer` directly.
    fn suspect_via_timeouts(d: &mut Rig, peer: NodeId, now: &mut u64) {
        let mut p = PowerPool::default();
        while !d.is_suspected(t(*now), peer) {
            let a = d.tick(t(*now), w(150), &mut p, Some(peer));
            assert!(!matches!(a, TickAction::Deposited(_)));
            *now += 2;
            let _ = d.tick(t(*now), w(145), &mut p, Some(peer));
            *now += 1;
            p.drain();
        }
    }

    #[test]
    fn fresh_decider_builds_no_digest() {
        // Fault-free hot path: nothing suspected, zero incarnation — the
        // grant carries `None` and allocates nothing.
        let (d, _) = observed();
        assert!(d.make_digest().is_none());
    }

    #[test]
    fn disabled_gossip_builds_and_observes_nothing() {
        let cfg = DeciderConfig {
            gossip_digest: 0,
            ..Default::default()
        };
        let mut d = Rig::new(cfg, w(150), safe()).with_seq_floor(7);
        assert!(
            d.make_digest().is_none(),
            "disabled gossip attaches nothing"
        );
        d.observe_digest(t(1), NodeId::new(2), &digest_of(3, &[(1, 0)]));
        assert_eq!(d.suspected_count(), 0, "disabled gossip adopts nothing");
    }

    #[test]
    fn digest_is_sorted_bounded_and_carries_incarnation() {
        let mut d = Rig::new(DeciderConfig::default(), w(150), safe()).with_seq_floor(9);
        // Adopt six suspicions via gossip (more than MAX_DIGEST_ENTRIES).
        d.observe_digest(
            t(1),
            NodeId::new(9),
            &digest_of(1, &[(5, 0), (3, 0), (8, 0), (1, 0)]),
        );
        d.observe_digest(t(1), NodeId::new(9), &digest_of(1, &[(7, 0), (2, 0)]));
        assert_eq!(d.suspected_count(), 6);
        let digest = d.make_digest().expect("active suspicions");
        assert_eq!(digest.incarnation, 9);
        assert_eq!(digest.entries.len(), MAX_DIGEST_ENTRIES);
        let peers: Vec<u32> = digest.entries.iter().map(|e| e.peer.raw()).collect();
        let mut sorted = peers.clone();
        sorted.sort_unstable();
        assert_eq!(peers, sorted, "digest order must be deterministic");
    }

    #[test]
    fn gossip_adopts_secondhand_suspicion_once() {
        let (mut d, ring) = observed();
        let via = NodeId::new(3);
        let victim = NodeId::new(1);
        d.observe_digest(t(5), via, &digest_of(0, &[(1, 0)]));
        assert!(d.is_suspected(t(5), victim));
        // Re-delivery does not re-emit or reset the probe clock.
        d.observe_digest(t(6), via, &digest_of(0, &[(1, 0)]));
        let gossiped: Vec<_> = ring
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SuspicionGossiped { .. }))
            .cloned()
            .collect();
        assert_eq!(gossiped.len(), 1);
        assert_eq!(
            gossiped[0].kind,
            EventKind::SuspicionGossiped { peer: victim, via }
        );
    }

    #[test]
    fn gossip_about_self_or_sender_is_ignored() {
        let (mut d, _) = observed(); // node 0
        d.observe_digest(t(1), NodeId::new(2), &digest_of(0, &[(0, 0), (2, 0)]));
        assert_eq!(
            d.suspected_count(),
            0,
            "self-suspicion and sender self-claims must be dropped"
        );
    }

    #[test]
    fn senders_own_incarnation_refutes_stale_suspicion_of_it() {
        // The rejoin story: we suspected the peer while it was dead (at
        // incarnation 0); its first post-rebirth message carries its new
        // seq-epoch floor, which refutes the stale suspicion on contact.
        let (mut d, ring) = observed();
        let peer = NodeId::new(1);
        let mut now = 1u64;
        suspect_via_timeouts(&mut d, peer, &mut now);
        assert!(d.is_suspected(t(now), peer));
        d.observe_digest(t(now), peer, &digest_of(42, &[]));
        assert!(!d.is_suspected(t(now), peer));
        assert!(ring
            .events()
            .iter()
            .any(|e| e.kind == EventKind::SuspicionRefuted { peer }));
    }

    #[test]
    fn stale_thirdhand_gossip_cannot_reinfect_after_refutation() {
        // B still suspects the rejoined node A at its old incarnation and
        // keeps gossiping it; once we have seen A's newer incarnation the
        // stale entry must be rejected every time, not re-adopted.
        let (mut d, ring) = observed();
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        // Learn A's new incarnation firsthand.
        d.observe_digest(t(1), a, &digest_of(10, &[]));
        // B's stale gossip about A (formed against incarnation 3).
        d.observe_digest(t(2), b, &digest_of(0, &[(1, 3)]));
        assert!(!d.is_suspected(t(2), a), "stale gossip must not infect");
        assert_eq!(d.suspected_count(), 0);
        // Fresh gossip at A's current incarnation still works.
        d.observe_digest(t(3), b, &digest_of(0, &[(1, 10)]));
        assert!(d.is_suspected(t(3), a));
        let _ = ring;
    }

    #[test]
    fn stale_gossip_clears_an_already_adopted_stale_suspicion() {
        let (mut d, _) = observed();
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let c = NodeId::new(3);
        // Adopt B's suspicion of A at incarnation 3.
        d.observe_digest(t(1), b, &digest_of(0, &[(1, 3)]));
        assert!(d.is_suspected(t(1), a));
        // C proves A re-incarnated at 8 — via an *entry* (C suspects A at
        // 8, so C must have seen incarnation 8): the newer incarnation
        // updates our knowledge and B's re-gossip of the stale entry now
        // clears the old suspicion instead of refreshing it.
        d.observe_digest(t(2), c, &digest_of(0, &[(1, 8)]));
        d.observe_digest(t(3), b, &digest_of(0, &[(1, 3)]));
        // The suspicion standing, if any, is against incarnation 8, not 3.
        let digest = d.make_digest().expect("suspicion state");
        for e in &digest.entries {
            assert!(e.incarnation >= 8, "no suspicion below incarnation 8");
        }
    }

    #[test]
    fn local_timeout_suspicion_records_known_incarnation() {
        // A suspicion earned by timeouts is stamped with the newest
        // incarnation we know for the peer, so our own gossip about it is
        // refutable by anyone who has seen the peer more recently.
        let (mut d, _) = observed();
        let peer = NodeId::new(1);
        d.observe_digest(t(0), peer, &digest_of(6, &[]));
        let mut now = 1u64;
        suspect_via_timeouts(&mut d, peer, &mut now);
        let digest = d.make_digest().expect("suspicion held");
        assert_eq!(
            digest.entries,
            vec![SuspicionEntry {
                peer,
                incarnation: 6
            }]
        );
    }

    #[test]
    fn observe_digest_consumes_no_rng_and_emits_nothing_when_empty() {
        // Byte-identity guarantee: an empty digest (pure incarnation
        // carrier) leaves no trace in the event stream.
        let (mut d, ring) = observed();
        d.observe_digest(t(1), NodeId::new(1), &digest_of(4, &[]));
        assert!(ring.events().is_empty());
        assert_eq!(d.suspected_count(), 0);
    }
}
