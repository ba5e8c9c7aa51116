//! Sharded parallel discrete-event simulation of Penelope at mega scale.
//!
//! [`ClusterSim`](crate::cluster::ClusterSim) is a faithful single-queue
//! DES: one global event queue, a shared network RNG, full device and
//! service models. That fidelity costs a global total order, which caps
//! throughput and forbids parallelism. [`ShardedSim`] is the scale
//! substrate the §4.5 study extrapolates with: Penelope only, fault-free,
//! tracing off, and three structural changes:
//!
//! * **Sharding.** Nodes are partitioned into contiguous blocks, one
//!   shard per block, each with its own event calendar and outboxes.
//!   Shards only interact through message envelopes exchanged at
//!   deterministic barriers, so shard state is independent between
//!   barriers and shards can be driven by separate threads.
//! * **One crew per run.** [`ShardedConfig::jobs`] counts the threads
//!   that drive shards, the caller included, and a run spawns the other
//!   `jobs − 1` once: each thread owns a fixed contiguous run of shards
//!   from the first tick wave to the last round, and a `PhaseBarrier`
//!   paces them through every phase. Between phases the caller alone
//!   exchanges outboxes and picks the next bucket. The end of the run
//!   happens where the shard lives too — elided ticks settled, the audit
//!   summed, the shard's nodes folded into its fingerprint, the records
//!   freed by the thread that built them — and the caller only combines
//!   one partial per shard. `ShardedSim::run_split` says where the wall
//!   time went (`PhaseSplit`).
//! * **Conservative lookahead.** The protocol period `T` is the outer
//!   sync barrier: all ticks fire on period boundaries. Each window
//!   `[kT, (k+1)T)` is cut into buckets of width `λ_min > 0`, the
//!   minimum one-way latency, counted from `kT` (the last one is short
//!   when `λ_min` does not divide `T`), and deliveries drain in
//!   *rounds*: a round takes the earliest non-empty bucket anywhere,
//!   `[B, B + λ_min) ∩ [kT, (k+1)T)`, and every shard delivers its share
//!   of it node by node: sorted by `(dst, at, kind, src, per-src seq)`,
//!   so a drain walks its node records in memory order and each node
//!   handles its own inputs in time order. That is safe because a message
//!   generated by processing an event at `s ≥ B` arrives at
//!   `s + λ ≥ B + λ_min` and an escrow timer fires at `≥ s + T`: both are
//!   past the bucket's end, and nothing is ordered before its round
//!   comes. Outboxes are exchanged between rounds; each round closes one
//!   bucket for good and a window has `⌈T/λ_min⌉` of them, so every
//!   window terminates.
//! * **Quiescent-tick elision.** The engine vouches via
//!   [`NodeEngine::tick_quiescent_until`] that its next ticks are pure
//!   no-ops (at-margin steady state, or blocked short of the retransmit
//!   deadline). Such nodes are on no boundary's wake list; their skipped
//!   iterations are accounted in one `note_elided_ticks` call at the
//!   end of the run. Any delivery re-arms the node for the following
//!   boundary, so elision never reorders or suppresses an observable
//!   action — it only skips iterations proven to do nothing.
//!
//! **Shard-count invariance.** Every source of ordering and randomness
//! is intrinsic to nodes, never to the partition: per-node RNG streams
//! ([`node_seed`]), message latency drawn from the *sender's* stream,
//! envelopes ordered by `(dst, deliver_at, kind, src, per-src seq)`, and
//! the round's bucket computed from the global minimum. Only a node's
//! own inputs have an order that shows; how deliveries to *different*
//! nodes interleave inside one bucket does not: everything a delivery
//! generates lands in a later bucket or an outbox, both sorted when
//! their round comes; RNG streams, message seqs, digests and caps are per
//! node; the traffic tallies are sums; and each tick wave re-sorts its
//! wake list. A time-major drain of the same buckets is the same run.
//! Hence a run with `shards = 1` and one with `shards = 32` execute
//! identical per-node input sequences — `tests/shard_identity.rs` pins
//! [`ShardReport::fingerprint`] (a polynomial over global node order of
//! per-node hashes of input digest and final engine state) across shard
//! counts per seed. The polynomial is what lets each thread fold its own
//! shards: the fingerprint of two contiguous blocks is a function of
//! theirs, `fp(A‖B) = fp(A)·Q^|B| + fp(B)`. An observer attached to a
//! shard's engines would see each bucket node by node: every node's
//! timestamps stay monotone, which is what the JSONL validator checks,
//! and those of different nodes interleave only within the bucket's
//! width `λ_min`.
//!
//! Simplifications relative to `ClusterSim`, by design: requests are
//! served at network arrival (no pool service queue), the device model
//! is `reading = min(demand, cap)` (no RAPL inertia or read noise), tick
//! jitter is zero, and drops/partitions/crashes are out of scope.
//! Conservation still holds exactly and is audited at the end of every
//! run: `Σcap + Σpool + Σescrow + in-flight + lost = n · initial_cap`.
//!
//! **Bytes per node.** At 10^5–10^6 nodes the bill is memory: building
//! the cluster is first-touch page faults and tearing it down is
//! unmapping them, both paid per byte, and a sparse run is short enough
//! for the two to be a third of it. So a node nobody has written to owns
//! no engine: a donor parked at the margin is a constant until its first
//! message, and the shard holds a 4-byte slot for it. A node that *has*
//! been written to costs a 456-byte `Live` record — the 384-byte
//! [`NodeEngine`] plus RNG, demand, cap, wake time, digest and message
//! seq — built on first arrival, in arrival order. A donor that has served
//! a peer also owns 80 heap bytes (one escrow slot and one acked-floor
//! record, `penelope-core`'s "What an engine stores"), and no engine owns
//! any for its observer: the shard builds every one with
//! [`SharedObserver::noop`], which allocates nothing. The records sit in one
//! `Vec` whose capacity is reserved once at the shard's length, so a push
//! never reallocates; that leans on lazily-committed anonymous memory —
//! the reservation is as much *virtual* memory as eager columns were, but
//! only pages a record has landed on are ever resident. Each shard's
//! configuration is one `Arc<EngineConfig>` that every engine it builds
//! holds a handle to, not a 128-byte copy in each; one handle per shard,
//! so two threads never bump the same reference count. A node still
//! parked at the end is its class's probe in the audit and the
//! fingerprint: the caller settles and hashes each class's probe once, and
//! every shard adds that share for each of its parked nodes.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use penelope_core::{
    Effects, EngineConfig, EngineInput, EngineOutput, NodeEngine, NodeParams, PeerMsg,
};
use penelope_net::LatencyModel;
use penelope_testkit::rng::{node_seed, TestRng};
use penelope_trace::SharedObserver;
use penelope_units::{NodeId, Power, SimDuration, SimTime};

use crate::barrier::{AbortOnPanic, PhaseBarrier};

/// Configuration of a sharded mega-scale run.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of simulated nodes.
    pub n_nodes: usize,
    /// Number of shards the nodes are partitioned into.
    pub shards: usize,
    /// Threads driving shards, the caller included: a run spawns the
    /// other `jobs − 1` once and each owns a fixed contiguous run of
    /// shards to the end (1 = serial, no thread spawned; more than
    /// `shards` is one per shard). The schedule is identical for any
    /// value, by construction.
    pub jobs: usize,
    /// Protocol periods to simulate (ticks fire at `kT` for `k < periods`).
    pub periods: u64,
    /// Master seed; per-node streams derive via [`node_seed`].
    pub seed: u64,
    /// Every `recipient_every`-th node is power-hungry; the rest are
    /// donors that shed once and quiesce at the margin.
    pub recipient_every: usize,
    /// Initial per-node cap assignment.
    pub initial_cap: Power,
    /// Steady demand of donor nodes (below `initial_cap`).
    pub donor_demand: Power,
    /// Steady demand of recipient nodes (above `initial_cap`).
    pub recipient_demand: Power,
    /// Per-node protocol parameters.
    pub node: NodeParams,
    /// One-way message latency; its minimum is the lookahead `λ_min`
    /// and must be positive.
    pub latency: LatencyModel,
}

impl ShardedConfig {
    /// The §4.5-style mega-scale scenario: a 1-in-64 hungry minority
    /// sustains request/grant/ack traffic against a donor majority.
    /// `shed_headroom = ε` parks donors exactly at the margin after
    /// their first deposit (the cap-oscillation mitigation), which is
    /// what makes the donor majority quiescent and elidable.
    pub fn mega(n_nodes: usize, periods: u64, seed: u64) -> Self {
        let mut node = NodeParams::default();
        node.decider.shed_headroom = node.decider.epsilon;
        ShardedConfig {
            n_nodes,
            shards: 1,
            jobs: 1,
            periods,
            seed,
            recipient_every: 64,
            initial_cap: Power::from_watts_u64(160),
            donor_demand: Power::from_watts_u64(100),
            recipient_demand: Power::from_watts_u64(250),
            node,
            latency: LatencyModel::default(),
        }
    }

    /// The protocol period `T` in nanoseconds.
    fn period_ns(&self) -> u64 {
        self.node.decider.period.as_nanos().max(1)
    }

    /// Minimum one-way latency — the conservative lookahead `λ_min`.
    fn lambda_min(&self) -> SimDuration {
        match self.latency {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, .. } => lo,
        }
    }

    /// Demand class of node `i`: 0 for a donor, 1 for a recipient.
    fn class(&self, i: usize) -> usize {
        usize::from(i.is_multiple_of(self.recipient_every))
    }
}

/// Event ranks: deliveries at a timestamp precede escrow expiries at
/// the same timestamp, deterministically.
const KIND_DELIVER: u8 = 0;
const KIND_ESCROW: u8 = 1;

/// One queued event. Ordering is *intrinsic* — `(dst, at, kind, src,
/// per-src seq)` — so the processing order per node is a pure function
/// of protocol history, independent of shard count, insertion order or
/// exchange timing. The destination leads: a bucket drains node by node,
/// and the time-major order a single queue would use differs only in how
/// different nodes interleave, which nothing observes (see the module
/// doc). `msg: None` marks an escrow-deadline wake-up for
/// entry `(requester = src, seq)` on node `dst`. Tens of thousands sit
/// queued at once, so the struct holds nothing it can derive: 64 bytes.
#[derive(Clone, Debug)]
struct Ev {
    at: SimTime,
    dst: u32,
    src: u32,
    seq: u64,
    msg: Option<PeerMsg>,
}

impl Ev {
    fn kind(&self) -> u8 {
        if self.msg.is_some() {
            KIND_DELIVER
        } else {
            KIND_ESCROW
        }
    }

    fn key(&self) -> (u32, SimTime, u8, u32, u64) {
        (self.dst, self.at, self.kind(), self.src, self.seq)
    }

    /// Power travelling with the event — a grant's amount, nothing
    /// otherwise — for the in-flight term of the conservation audit.
    fn carried(&self) -> Power {
        match &self.msg {
            Some(PeerMsg::Grant(g, _)) => g.amount,
            _ => Power::ZERO,
        }
    }
}

/// A shard's pending events, filed by the round that will deliver them
/// and not ordered before it comes. Bucket `w · ⌈T/λ⌉ + (at − wT) / λ`
/// holds window `w`'s events at offsets `[jλ, (j+1)λ)`: buckets restart
/// at every period boundary, so none straddles a tick wave, and bucket
/// order is time order. `push` is an append; `take` sorts one bucket by
/// [`Ev::key`], destination first, so the round walks the shard's nodes
/// in order and hands each its inputs in time order.
struct Calendar {
    period_ns: u64,
    lambda_ns: u64,
    /// Buckets per window, `⌈T/λ⌉`.
    per_window: u64,
    buckets: BTreeMap<u64, Vec<Ev>>,
    /// The bucket the current round delivers. Lookahead puts everything
    /// that delivery generates in a later one.
    draining: Option<u64>,
}

impl Calendar {
    fn new(period_ns: u64, lambda_ns: u64) -> Self {
        Calendar {
            period_ns,
            lambda_ns,
            per_window: period_ns.div_ceil(lambda_ns),
            buckets: BTreeMap::new(),
            draining: None,
        }
    }

    fn bucket_of(&self, at: SimTime) -> u64 {
        let ns = at.as_nanos();
        (ns / self.period_ns) * self.per_window + (ns % self.period_ns) / self.lambda_ns
    }

    /// File `ev`. Panics if it lands at or before the draining bucket:
    /// that event would be delivered out of order or never.
    fn push(&mut self, ev: Ev) {
        let bucket = self.bucket_of(ev.at);
        assert!(
            self.draining.is_none_or(|d| bucket > d),
            "event at {:?} lands in bucket {bucket}, not after the draining bucket {:?}",
            ev.at,
            self.draining
        );
        self.buckets.entry(bucket).or_default().push(ev);
    }

    /// The earliest non-empty bucket, if it belongs to window `k`.
    fn first_in_window(&self, k: u64) -> Option<u64> {
        let (&first, _) = self.buckets.first_key_value()?;
        (first < (k + 1) * self.per_window).then_some(first)
    }

    /// Start draining `bucket` — the earliest non-empty one of any
    /// shard's calendar — and hand out this calendar's share of it in
    /// key order: node by node, each node's events in time order.
    fn take(&mut self, bucket: u64) -> Vec<Ev> {
        debug_assert!(self
            .buckets
            .first_key_value()
            .is_none_or(|(&first, _)| first >= bucket));
        self.draining = Some(bucket);
        let mut evs = self.buckets.remove(&bucket).unwrap_or_default();
        evs.sort_unstable_by_key(Ev::key);
        evs
    }
}

/// Where every digest starts.
const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// [`mix`]'s multiplier: odd, its bits spread (`2^64 / φ`).
const MIX_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Fold one `u64` into a rolling digest: one 64×64→128 multiply, its two
/// halves folded together. Word-wise FNV-1a, `(h ^ x)·P`, would be one
/// multiply too, but a flip of bit 63 reaches only bit 63 of its product,
/// so the same flip in two words cancels — and `drain_bucket` packs a
/// request's urgency into bit 63. Here that flip moves the high half.
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    let p = u128::from(h ^ x) * u128::from(MIX_K);
    p as u64 ^ (p >> 64) as u64
}

/// What the fingerprint takes of one node, in order.
type NodeWords = [u64; 8];

/// One node's term in the fingerprint: [`mix`] over its words.
fn node_hash(words: NodeWords) -> u64 {
    words.into_iter().fold(DIGEST_BASIS, mix)
}

/// The fingerprint's radix: odd, so no node's term is multiplied away.
const FP_Q: u64 = 0xff51_afd7_ed55_8ccd;

/// The fingerprint of a block of nodes with `hash` appended: Horner's
/// rule over node order, starting from 0 for no nodes.
#[inline]
fn horner(fp: u64, hash: u64) -> u64 {
    fp.wrapping_mul(FP_Q).wrapping_add(hash)
}

/// The fingerprint of `A‖B` from `fp(A)`, `fp(B)` and `|B|`.
fn combine(a: u64, b: u64, len_b: usize) -> u64 {
    let len_b = u32::try_from(len_b).expect("a block holds fewer than 2^32 nodes");
    a.wrapping_mul(FP_Q.wrapping_pow(len_b)).wrapping_add(b)
}

/// Smallest period boundary `≥ t`.
fn boundary_at_or_after(t: SimTime, period_ns: u64) -> SimTime {
    SimTime::from_nanos(t.as_nanos().div_ceil(period_ns) * period_ns)
}

/// One shard's transport: its event calendar, the per-destination
/// outboxes and the traffic tallies.
struct Router {
    index: usize,
    /// Nodes per shard (`ceil(n / shards)`): global node `i` lives in
    /// shard `i / chunk`.
    chunk: usize,
    queue: Calendar,
    /// Events bound for other shards, drained at barriers.
    outboxes: Vec<Vec<Ev>>,
    messages: u64,
    granted: Power,
    lost: Power,
}

/// `slot` of a node nobody has written to yet: it owns no `Live` record.
const PARKED: u32 = u32::MAX;

/// A node that owns an engine, and what the shard keeps beside it.
struct Live {
    engine: NodeEngine,
    rng: TestRng,
    demand: Power,
    /// Device-cap mirror, updated by `Actuate` outputs.
    cap: Power,
    /// Next boundary at which the node's tick must actually execute
    /// (`SimTime::MAX` = quiescent until an input arrives).
    wake_at: SimTime,
    /// Rolling [`mix`] digest of every input the node handled — the
    /// shard-invariance witness.
    digest: u64,
    /// Per-source envelope counter (the deterministic tie-break).
    msg_seq: u64,
}

impl Live {
    /// Node `i` as `t = 0` finds it, armed for its first tick: a pure
    /// function of `(cfg, i)`, so it can be built at any time.
    fn new(i: usize, cfg: &ShardedConfig, engine_cfg: &Arc<EngineConfig>) -> Live {
        Live {
            engine: NodeEngine::new(
                NodeId::new(i as u32),
                cfg.n_nodes,
                Arc::clone(engine_cfg),
                cfg.initial_cap,
                SharedObserver::noop(),
            ),
            rng: TestRng::seed_from_u64(node_seed(cfg.seed, i as u64)),
            demand: [cfg.donor_demand, cfg.recipient_demand][cfg.class(i)],
            cap: cfg.initial_cap,
            wake_at: SimTime::ZERO,
            digest: DIGEST_BASIS,
            msg_seq: 0,
        }
    }

    /// What the device reports to a tick: `min(demand, cap)`.
    fn reading(&self) -> Power {
        self.demand.min(self.cap)
    }

    /// Book the ticks elision skipped, up to `periods` in all; returns
    /// how many.
    fn settle(&mut self, periods: u64) -> u64 {
        let skipped = periods.saturating_sub(self.engine.stats().ticks);
        self.engine.note_elided_ticks(skipped);
        skipped
    }

    /// The node's share of the conservation sum: cap, pool and escrow.
    fn held(&self) -> Power {
        let e = &self.engine;
        e.cap() + e.pool().available() + e.escrowed_undelivered()
    }

    /// The node in the fingerprint: its input digest and final state.
    fn words(&self) -> NodeWords {
        let e = &self.engine;
        let st = e.stats();
        [
            self.digest,
            e.cap().milliwatts(),
            e.pool().available().milliwatts(),
            e.next_seq(),
            st.ticks,
            st.requests_sent,
            st.deposited.milliwatts(),
            st.granted.milliwatts(),
        ]
    }

    /// Run the node's tick at `t = 0` and say whether it may be deferred:
    /// it moved nothing but the node's own cap, and the engine vouches for
    /// every later tick until an input arrives — then the node sleeps. The
    /// node's RNG stream is a pure function of `(seed, id)` and nothing else
    /// draws from it before its first input, so whenever this runs the tick
    /// spends the peer-pick draw it would have spent on time.
    fn first_tick_parks(&mut self, buf: &mut Vec<EngineOutput>) -> bool {
        let reading = self.reading();
        let mut fx = FirstTickFx {
            cap: &mut self.cap,
            seen: false,
        };
        let tick = EngineInput::Tick { reading };
        self.engine
            .step(SimTime::ZERO, tick, &mut self.rng, buf, &mut fx);
        let unseen = !fx.seen;
        let vouched = self
            .engine
            .tick_quiescent_until(SimTime::ZERO, self.reading());
        if unseen && vouched == Some(SimTime::MAX) {
            self.wake_at = SimTime::MAX;
        }
        self.wake_at == SimTime::MAX
    }
}

/// What a first tick that may be deferred does: move the node's own cap.
/// Anything else — something another node, or the audit, could have seen
/// at `t = 0` — is `seen`.
struct FirstTickFx<'a> {
    cap: &'a mut Power,
    seen: bool,
}

impl Effects<TestRng> for FirstTickFx<'_> {
    fn send(&mut self, _: &mut TestRng, _: NodeId, _: PeerMsg, _: Power, _: bool) -> bool {
        self.seen = true;
        true
    }

    fn actuate(&mut self, cap: Power) {
        *self.cap = cap;
    }

    fn escrow_timer(&mut self, _: NodeId, _: u64, _: SimTime) {
        self.seen = true;
    }

    fn power_lost(&mut self, _: Power) {
        self.seen = true;
    }

    fn resolved(&mut self, _: u64, _: Power) {
        self.seen = true;
    }
}

/// One shard: a contiguous block of nodes, of which those that have been
/// written to own a `Live` record, plus its own wake lists and
/// [`Router`].
struct Shard {
    /// Global index of this shard's first node.
    base: usize,
    router: Router,
    /// The cluster's configuration, handed to every engine built here.
    /// Each shard has its own handle: the reference count its unparks and
    /// drops bump is not shared with another thread's.
    engine_cfg: Arc<EngineConfig>,
    /// Per local node, its index in `live`, or [`PARKED`].
    slot: Vec<u32>,
    /// The nodes that own an engine, in the order they got one. Reserved
    /// once at the shard's length: a push never moves a record, and pages
    /// no record has landed on are never touched.
    live: Vec<Live>,
    /// `live` indices to tick at each boundary, in arming order; an entry
    /// whose `wake_at` has moved since is stale.
    wake: BTreeMap<SimTime, Vec<u32>>,
    /// Reused engine-output buffer (the allocation-free inner loop).
    out_buf: Vec<EngineOutput>,
    executed: u64,
    /// Filled in by [`Phase::Settle`].
    settled: Settled,
}

/// What a shard's nodes and pending events add to the report, summed at
/// the end of the run by the thread that owns the shard.
#[derive(Default)]
struct Settled {
    elided: u64,
    held: Power,
    in_flight: Power,
    /// The fingerprint of the shard's nodes, in node order.
    fp: u64,
}

/// What each node of a demand class that parks adds to [`Settled`] while
/// it stays parked: its class probe's share, taken once the probe has
/// settled.
#[derive(Clone, Copy, Debug)]
struct Parked {
    elided: u64,
    held: Power,
    /// The probe's [`node_hash`].
    hash: u64,
}

/// What every thread of a run does to each shard it owns between two
/// barriers.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// Execute the ticks due at this boundary.
    Tick(SimTime),
    /// Deliver `bucket`, a bucket of the window that ends at `t_next`.
    Drain { bucket: u64, t_next: SimTime },
    /// Book elided ticks, sum the audit and fold the fingerprint into
    /// [`Shard::settled`], with `parked` per demand class that parks.
    Settle { parked: [Option<Parked>; 2] },
    /// Free the node records, and leave.
    Release,
}

impl Shard {
    fn run_phase(&mut self, phase: Phase, cfg: &ShardedConfig) {
        match phase {
            Phase::Tick(t_k) => self.tick_wave(t_k, cfg),
            Phase::Drain { bucket, t_next } => self.drain_bucket(bucket, t_next, cfg),
            Phase::Settle { parked } => self.settle(parked, cfg),
            Phase::Release => self.live = Vec::new(),
        }
    }

    /// [`Phase::Settle`]: every built node settled and hashed in `live`
    /// order, which streams through the records, then the hashes folded
    /// in node order.
    fn settle(&mut self, parked: [Option<Parked>; 2], cfg: &ShardedConfig) {
        let mut settled = Settled::default();
        let hashes: Vec<u64> = self
            .live
            .iter_mut()
            .map(|node| {
                settled.elided += node.settle(cfg.periods);
                settled.held += node.held();
                node_hash(node.words())
            })
            .collect();
        for (lid, &slot) in self.slot.iter().enumerate() {
            let hash = if slot == PARKED {
                let share = parked[cfg.class(self.base + lid)];
                let share = share.expect("only a probed class parks");
                settled.elided += share.elided;
                settled.held += share.held;
                share.hash
            } else {
                hashes[slot as usize]
            };
            settled.fp = horner(settled.fp, hash);
        }
        let pending = self.router.queue.buckets.values().flatten();
        settled.in_flight = pending.map(Ev::carried).sum();
        self.settled = settled;
    }

    #[inline]
    fn local(&self, global: u32) -> usize {
        global as usize - self.base
    }

    /// The `live` index of local node `lid`. A parked node is built here,
    /// exactly as `new` builds an eager one, and given the first tick it
    /// was owed; that tick was counted as executed when it was deferred.
    fn live_index(&mut self, lid: usize, cfg: &ShardedConfig) -> usize {
        if self.slot[lid] == PARKED {
            debug_assert!(self.live.len() < self.live.capacity());
            let mut node = Live::new(self.base + lid, cfg, &self.engine_cfg);
            let parks = node.first_tick_parks(&mut self.out_buf);
            assert!(parks, "{} parked owing a tick others see", node.engine.id());
            self.slot[lid] = self.live.len() as u32;
            self.live.push(node);
        }
        self.slot[lid] as usize
    }

    /// Execute all ticks due at the boundary `t_k`, in the order the nodes
    /// lie in `live`, and re-arm each node from the engine's quiescence
    /// verdict. Which node of a wave ticks first is unobservable: what a
    /// tick sends is ordered by its intrinsic key when its round comes.
    fn tick_wave(&mut self, t_k: SimTime, cfg: &ShardedConfig) {
        let period_ns = cfg.period_ns();
        while let Some(entry) = self.wake.first_entry() {
            if *entry.key() > t_k {
                break;
            }
            let (at, mut due) = entry.remove_entry();
            due.sort_unstable();
            for li in due {
                let node = &self.live[li as usize];
                if node.wake_at != at {
                    continue; // superseded entry (node was re-armed earlier)
                }
                let reading = node.reading();
                self.step(li as usize, t_k, EngineInput::Tick { reading }, cfg);
                // Quiescence is judged against the reading the *next* tick
                // would see (the tick may have moved the cap).
                let node = &mut self.live[li as usize];
                let wake = match node.engine.tick_quiescent_until(t_k, node.reading()) {
                    None => SimTime::from_nanos(t_k.as_nanos() + period_ns),
                    Some(u) if u == SimTime::MAX => SimTime::MAX,
                    Some(u) => boundary_at_or_after(u, period_ns)
                        .max(SimTime::from_nanos(t_k.as_nanos() + period_ns)),
                };
                node.wake_at = wake;
                if wake != SimTime::MAX {
                    self.wake.entry(wake).or_default().push(li);
                }
            }
        }
    }

    /// Deliver this shard's share of `bucket`, a bucket of the window
    /// that ends at `t_next`, in key order: node by node. New events land
    /// in later buckets (lookahead) or in outboxes.
    fn drain_bucket(&mut self, bucket: u64, t_next: SimTime, cfg: &ShardedConfig) {
        for ev in self.router.queue.take(bucket) {
            let lid = self.local(ev.dst);
            let li = self.live_index(lid, cfg);
            let mut h = self.live[li].digest;
            h = mix(h, ev.at.as_nanos());
            h = mix(h, u64::from(ev.kind()));
            h = mix(h, u64::from(ev.src));
            h = mix(h, ev.seq);
            let input = match ev.msg {
                Some(msg) => {
                    match &msg {
                        PeerMsg::Request(r) => {
                            h = mix(h, 1);
                            h = mix(h, r.seq);
                            h = mix(h, r.alpha.milliwatts() | (u64::from(r.urgent) << 63));
                        }
                        PeerMsg::Grant(g, _) => {
                            h = mix(h, 2);
                            h = mix(h, g.seq);
                            h = mix(h, g.amount.milliwatts());
                        }
                        PeerMsg::Ack(a, _) => {
                            h = mix(h, 3);
                            h = mix(h, a.seq);
                        }
                    }
                    EngineInput::Msg {
                        src: NodeId::new(ev.src),
                        msg,
                    }
                }
                None => EngineInput::EscrowDeadline {
                    requester: NodeId::new(ev.src),
                    seq: ev.seq,
                },
            };
            self.live[li].digest = h;
            self.step(li, ev.at, input, cfg);
            // Any input may end a quiescent window: wake the node for
            // the next boundary so the engine re-judges at tick time.
            let node = &mut self.live[li];
            if node.wake_at > t_next {
                node.wake_at = t_next;
                self.wake.entry(t_next).or_default().push(li as u32);
            }
        }
    }

    /// Feed one input to the `li`-th live node at `now`; what its engine
    /// decides is routed by [`ShardFx`]. Every input the engine handled
    /// counts as executed, the grant-delivery feedback included.
    fn step(&mut self, li: usize, now: SimTime, input: EngineInput, cfg: &ShardedConfig) {
        let node = &mut self.live[li];
        let mut fx = ShardFx {
            me: node.engine.id().index() as u32,
            now,
            latency: &cfg.latency,
            cap: &mut node.cap,
            msg_seq: &mut node.msg_seq,
            router: &mut self.router,
        };
        self.executed += node
            .engine
            .step(now, input, &mut node.rng, &mut self.out_buf, &mut fx);
    }
}

/// The shard's side of one engine step for global node `me`.
struct ShardFx<'a> {
    me: u32,
    now: SimTime,
    latency: &'a LatencyModel,
    cap: &'a mut Power,
    msg_seq: &'a mut u64,
    router: &'a mut Router,
}

impl Effects<TestRng> for ShardFx<'_> {
    /// Route one protocol message: latency from the *sender's* stream,
    /// per-src sequence tie-break, same-shard push or outbox. The
    /// transport is fault-free, so every message is handed to the network.
    fn send(
        &mut self,
        rng: &mut TestRng,
        dst: NodeId,
        msg: PeerMsg,
        carried: Power,
        escrowed: bool,
    ) -> bool {
        let lat = self.latency.sample(rng);
        let seq = *self.msg_seq;
        *self.msg_seq += 1;
        let r = &mut *self.router;
        r.messages += 1;
        if escrowed {
            r.granted += carried;
        }
        let ev = Ev {
            at: self.now + lat,
            dst: dst.index() as u32,
            src: self.me,
            seq,
            msg: Some(msg),
        };
        debug_assert_eq!(ev.carried(), carried, "only a grant carries power");
        let ds = dst.index() / r.chunk;
        if ds == r.index {
            r.queue.push(ev);
        } else {
            r.outboxes[ds].push(ev);
        }
        true
    }

    fn actuate(&mut self, cap: Power) {
        *self.cap = cap;
    }

    /// A node-local wake-up: the event's destination is the node itself.
    fn escrow_timer(&mut self, requester: NodeId, seq: u64, at: SimTime) {
        self.router.queue.push(Ev {
            at,
            dst: self.me,
            src: requester.index() as u32,
            seq,
            msg: None,
        });
    }

    fn power_lost(&mut self, amount: Power) {
        self.router.lost += amount;
    }

    /// No turnaround fold at this scale.
    fn resolved(&mut self, _seq: u64, _amount: Power) {}
}

/// Lock a shard. Its owner locks it during a phase and the caller between
/// phases, while every other thread waits at the barrier: the lock is
/// never contended.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard
        .lock()
        .expect("only a panic that aborts the run poisons a shard")
}

/// The threads of one run: the caller leads and `jobs − 1` workers follow,
/// each thread the owner of a fixed run of shards. A phase is two barrier
/// crossings, one to start it and one to say every shard is through;
/// with `jobs = 1` there is nobody to cross with, and none. The schedule
/// is identical for any `jobs`: shards share no state between barriers,
/// so thread interleaving cannot reorder anything.
struct Crew {
    barrier: PhaseBarrier,
    /// The phase the next start runs; the caller writes it between phases.
    next: Mutex<Phase>,
}

impl Crew {
    /// A worker's life: run its share of every phase the caller starts,
    /// up to [`Phase::Release`].
    fn follow(&self, work: impl Fn(Phase)) {
        let _abort = AbortOnPanic(&self.barrier);
        while self.barrier.wait() {
            let phase = *self
                .next
                .lock()
                .expect("nothing panics holding the next phase");
            work(phase);
            if matches!(phase, Phase::Release) || !self.barrier.wait() {
                return;
            }
        }
    }

    /// Start `phase` everywhere, run the caller's own share, and wait for
    /// the others' — but for [`Phase::Release`], which nobody reports back
    /// from. `None` if the barrier was aborted: another party panicked.
    fn lead(&self, phase: Phase, work: impl Fn(Phase)) -> Option<Lap> {
        *self
            .next
            .lock()
            .expect("nothing panics holding the next phase") = phase;
        let mut lap = Lap::default();
        self.cross(&mut lap.wait)?;
        timed(&mut lap.own, || work(phase));
        if !matches!(phase, Phase::Release) {
            self.cross(&mut lap.wait)?;
        }
        Some(lap)
    }

    /// Cross the barrier, adding the time it took to `*waited`. A caller
    /// with no crew has nobody to wait for, and crosses nothing.
    fn cross(&self, waited: &mut Duration) -> Option<()> {
        if self.barrier.parties() == 1 {
            return Some(());
        }
        timed(waited, || self.barrier.wait()).then_some(())
    }
}

/// The caller's time in one phase: its own share of the work, and its
/// waits at the barrier, mostly for the last thread to finish.
#[derive(Default)]
struct Lap {
    own: Duration,
    wait: Duration,
}

impl Lap {
    /// Add the lap to a split: its own share to `own`, its wait to `wait`.
    fn book(self, own: &mut Duration, wait: &mut Duration) {
        *own += self.own;
        *wait += self.wait;
    }
}

/// Move every outbox entry into its destination shard's calendar — the
/// barrier exchange between rounds.
fn exchange(shards: &[Mutex<Shard>]) {
    for (s, src) in shards.iter().enumerate() {
        let mut src = lock(src);
        for (d, dst) in shards.iter().enumerate() {
            if d != s && !src.router.outboxes[d].is_empty() {
                let mut dst = lock(dst);
                for ev in src.router.outboxes[d].drain(..) {
                    dst.router.queue.push(ev);
                }
            }
        }
    }
}

/// Exchange the outboxes, then pick the bucket the next round of window
/// `k` drains, if any is left.
fn next_round(shards: &[Mutex<Shard>], k: u64) -> Option<u64> {
    exchange(shards);
    shards
        .iter()
        .filter_map(|s| lock(s).router.queue.first_in_window(k))
        .min()
}

/// Run `f`, adding its wall time to `*spent`.
fn timed<T>(spent: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *spent += start.elapsed();
    out
}

/// The caller's side of a run: every tick wave and round to the horizon,
/// each phase started on every thread by `lead`, then the settle and the
/// report; [`Phase::Release`] is left to the run. `None` once `lead` is: a
/// party panicked.
fn drive(
    cfg: &ShardedConfig,
    shards: &[Mutex<Shard>],
    probe: [Option<Live>; 2],
    lead: impl Fn(Phase) -> Option<Lap>,
) -> Option<(ShardReport, PhaseSplit)> {
    let mut split = PhaseSplit::default();
    let period_ns = cfg.period_ns();
    let mut rounds = 0;
    for k in 0..cfg.periods {
        let t_next = SimTime::from_nanos((k + 1) * period_ns);
        let t_k = SimTime::from_nanos(k * period_ns);
        lead(Phase::Tick(t_k))?.book(&mut split.tick, &mut split.wait);
        while let Some(bucket) = timed(&mut split.caller, || next_round(shards, k)) {
            rounds += 1;
            lead(Phase::Drain { bucket, t_next })?.book(&mut split.drain, &mut split.wait);
        }
    }
    // A node still parked is its class's probe: settled here, and hashed
    // once for all of them. Fields evaluate in order, so the hash sees the
    // settled ticks.
    let parked = timed(&mut split.caller, || {
        probe.map(|p| {
            p.map(|mut node| Parked {
                elided: node.settle(cfg.periods),
                held: node.held(),
                hash: node_hash(node.words()),
            })
        })
    });
    lead(Phase::Settle { parked })?.book(&mut split.settle, &mut split.wait);
    let report = timed(&mut split.caller, || finalize(cfg, shards, rounds));
    Some((report, split))
}

/// Close the audit and combine the shards' fingerprints, once every shard
/// has settled.
fn finalize(cfg: &ShardedConfig, shards: &[Mutex<Shard>], rounds: u64) -> ShardReport {
    let mut executed = 0u64;
    let mut elided = 0u64;
    let mut messages = 0u64;
    let mut granted = Power::ZERO;
    let mut lost = Power::ZERO;
    let mut held = Power::ZERO;
    let mut in_flight = Power::ZERO;
    let mut engines_built = 0;
    // The fingerprint of no nodes. Shards hold contiguous index blocks, in
    // order: combining them in turn is global node order.
    let mut fp = 0;
    for shard in shards {
        let shard = lock(shard);
        executed += shard.executed;
        messages += shard.router.messages;
        granted += shard.router.granted;
        lost += shard.router.lost;
        engines_built += shard.live.len();
        elided += shard.settled.elided;
        held += shard.settled.held;
        in_flight += shard.settled.in_flight;
        fp = combine(fp, shard.settled.fp, shard.slot.len());
    }
    let budget = cfg.initial_cap * cfg.n_nodes as u64;
    ShardReport {
        n_nodes: cfg.n_nodes,
        shards: cfg.shards,
        periods: cfg.periods,
        executed_events: executed,
        elided_ticks: elided,
        rounds,
        messages,
        granted,
        lost,
        conservation_ok: held + in_flight + lost == budget,
        fingerprint: fp,
        engines_built,
    }
}

/// The sharded mega-scale simulator. Build with [`ShardedSim::new`],
/// consume with [`ShardedSim::run`].
pub struct ShardedSim {
    cfg: ShardedConfig,
    shards: Vec<Shard>,
    /// Per demand class that parks, one node of it after its first tick:
    /// what each of them is until it is written to.
    probe: [Option<Live>; 2],
}

impl ShardedSim {
    /// Build the cluster: donors and recipients interleaved by
    /// `recipient_every`, nodes partitioned into contiguous shard
    /// blocks, everyone owed a tick at `t = 0`. A demand class whose
    /// first tick is observed to do nothing another node can see, and to
    /// be its last until a message arrives, is not built: its nodes are
    /// parked, that tick deferred to the node's first arrival.
    pub fn new(cfg: ShardedConfig) -> Self {
        assert!(cfg.n_nodes >= 2, "need at least two nodes");
        assert!(
            cfg.shards >= 1 && cfg.shards <= cfg.n_nodes,
            "shards must be in 1..=n_nodes"
        );
        assert!(cfg.recipient_every >= 2, "recipient_every must be >= 2");
        assert!(
            cfg.lambda_min() > SimDuration::ZERO,
            "conservative lookahead needs a positive minimum latency"
        );
        // An escrow timer set while a bucket drains must land in a later
        // window. True of `escrow_timeout()` by formula; a policy that
        // shortened it would deliver timers out of order.
        assert!(
            cfg.node.decider.escrow_timeout() >= cfg.node.decider.period,
            "an escrow deadline must be at least one period away"
        );
        let (period_ns, lambda_ns) = (cfg.period_ns(), cfg.lambda_min().as_nanos());
        let chunk = cfg.n_nodes.div_ceil(cfg.shards);
        // One configuration for the cluster, in one allocation per shard;
        // every engine holds a handle to its shard's.
        let engine_cfg = Arc::new(EngineConfig::new(cfg.node));
        // Node 1 is a donor and node 0 a recipient whatever the mix. With
        // no period to run there is no first tick to defer.
        let probe = [1, 0].map(|i| {
            let mut node = Live::new(i, &cfg, &engine_cfg);
            (cfg.periods > 0 && node.first_tick_parks(&mut Vec::new())).then_some(node)
        });
        let mut shards = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let base = s * chunk;
            let len = cfg.n_nodes.saturating_sub(base).min(chunk);
            let mut shard = Shard {
                base,
                router: Router {
                    index: s,
                    chunk,
                    queue: Calendar::new(period_ns, lambda_ns),
                    outboxes: vec![Vec::new(); cfg.shards],
                    messages: 0,
                    granted: Power::ZERO,
                    lost: Power::ZERO,
                },
                engine_cfg: Arc::new(*engine_cfg),
                slot: vec![PARKED; len],
                live: Vec::with_capacity(len),
                wake: BTreeMap::new(),
                out_buf: Vec::with_capacity(8),
                executed: 0,
                settled: Settled::default(),
            };
            for lid in 0..len {
                if probe[cfg.class(base + lid)].is_some() {
                    shard.executed += 1; // the deferred first tick
                } else {
                    shard.slot[lid] = shard.live.len() as u32;
                    let node = Live::new(base + lid, &cfg, &shard.engine_cfg);
                    shard.live.push(node);
                }
            }
            let due = (0..shard.live.len() as u32).collect();
            shard.wake.insert(SimTime::ZERO, due);
            shards.push(shard);
        }
        ShardedSim { cfg, shards, probe }
    }

    /// Run to the configured horizon and report.
    pub fn run(self) -> ShardReport {
        self.run_split().0
    }

    /// [`ShardedSim::run`], and where its wall time went.
    pub(crate) fn run_split(self) -> (ShardReport, PhaseSplit) {
        self.run_visiting(|_| {})
    }

    /// `ShardedSim::run_split`, handing every shard to `visit` after
    /// each phase, on the thread that ran it.
    fn run_visiting(self, visit: impl Fn(&Shard) + Sync) -> (ShardReport, PhaseSplit) {
        let ShardedSim { cfg, shards, probe } = self;
        let n = shards.len();
        let jobs = cfg.jobs.clamp(1, n);
        let shards: Vec<Mutex<Shard>> = shards.into_iter().map(Mutex::new).collect();
        // Thread `r` owns shards `[r·n/jobs, (r+1)·n/jobs)`; the caller is
        // thread 0.
        let mut runs = (0..jobs).map(|r| &shards[r * n / jobs..(r + 1) * n / jobs]);
        let crew = &Crew {
            barrier: PhaseBarrier::new(jobs),
            next: Mutex::new(Phase::Release),
        };
        let work = &|own: &[Mutex<Shard>], phase| {
            for shard in own {
                let mut shard = lock(shard);
                shard.run_phase(phase, &cfg);
                visit(&shard);
            }
        };
        let own = runs.next().expect("a run has a shard");
        let (report, mut split, released) = std::thread::scope(|scope| {
            let workers: Vec<_> = runs
                .map(|run| scope.spawn(move || crew.follow(|phase| work(run, phase))))
                .collect();
            let _abort = AbortOnPanic(&crew.barrier);
            let lead = |phase| crew.lead(phase, |phase| work(own, phase));
            let ended = drive(&cfg, &shards, probe, lead).and_then(|(report, split)| {
                let released = Instant::now();
                lead(Phase::Release)?;
                Some((report, split, released))
            });
            ended.unwrap_or_else(|| {
                for worker in workers {
                    if let Err(payload) = worker.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
                unreachable!("only a panicking party aborts the barrier")
            })
        });
        // The scope has joined every worker: each freed its own records.
        split.release = released.elapsed();
        (report, split)
    }
}

/// Where a sharded run's wall time went, as the caller saw it. The parts
/// do not overlap, and what they leave of the run is building the crew
/// and starting it. Wall time, so unlike the [`ShardReport`] it differs
/// from run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PhaseSplit {
    /// The caller's own share of the tick waves: the ticks of the shards
    /// it owns.
    pub tick: Duration,
    /// The caller's own share of the drain rounds, likewise.
    pub drain: Duration,
    /// The caller's barrier crossings in tick waves, drain rounds and the
    /// settle phase: mostly waiting for the last thread to finish its
    /// share. Zero with `jobs = 1`, where there is nobody to wait for.
    pub wait: Duration,
    /// What the caller ran while every other thread waited: the outbox
    /// exchange and bucket pick after every phase, the class probes'
    /// settle and hash, and combining the shards' audits and fingerprints.
    pub caller: Duration,
    /// The caller's own share of the settle phase: its shards' elided
    /// ticks booked, audits summed and nodes folded into their
    /// fingerprints.
    pub settle: Duration,
    /// The release phase, to the last worker joined: every thread frees
    /// the records it built.
    pub release: Duration,
}

/// Outcome of a sharded run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardReport {
    /// Nodes simulated.
    pub n_nodes: usize,
    /// Shards used.
    pub shards: usize,
    /// Protocol periods simulated.
    pub periods: u64,
    /// Engine inputs actually executed (ticks, deliveries, outcomes,
    /// escrow deadlines).
    pub executed_events: u64,
    /// Decider iterations elided as engine-proven no-ops.
    pub elided_ticks: u64,
    /// Drain rounds run, each a barrier: one per non-empty lookahead
    /// bucket. Equal across shard counts and thread counts.
    pub rounds: u64,
    /// Protocol messages routed.
    pub messages: u64,
    /// Total power departed in non-zero grants.
    pub granted: Power,
    /// Power booked as permanently lost (zero on fault-free runs).
    pub lost: Power,
    /// Whether `Σcap + Σpool + Σescrow + in-flight + lost` equals the
    /// initial budget exactly.
    pub conservation_ok: bool,
    /// Fold of per-node input digests and final engine state — equal
    /// across shard counts and thread counts for the same config+seed.
    pub fingerprint: u64,
    /// Nodes that ever owned an engine: those whose first tick was not
    /// provably their last, and those something was sent to.
    pub engines_built: usize,
}

impl ShardReport {
    /// Total simulated protocol events: executed plus elided (each
    /// elided tick is a decider iteration whose effect — nothing — is
    /// fully applied).
    pub fn total_events(&self) -> u64 {
        self.executed_events + self.elided_ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_core::GrantAck;
    use penelope_testkit::prop::{self, any_u64, vec_of};
    use penelope_testkit::rng::Rng;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};
    use std::panic::AssertUnwindSafe;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    #[test]
    fn boundary_helpers() {
        let p = 1_000u64;
        assert_eq!(
            boundary_at_or_after(SimTime::from_nanos(0), p).as_nanos(),
            0
        );
        assert_eq!(
            boundary_at_or_after(SimTime::from_nanos(1), p).as_nanos(),
            1_000
        );
        assert_eq!(
            boundary_at_or_after(SimTime::from_nanos(1_000), p).as_nanos(),
            1_000
        );
    }

    /// A delivery (an ack stands in for any message) or, with
    /// `deliver == false`, an escrow-deadline timer.
    fn ev(at: u64, deliver: bool, dst: u32, src: u32, seq: u64) -> Ev {
        Ev {
            at: SimTime::from_nanos(at),
            dst,
            src,
            seq,
            msg: deliver.then_some(PeerMsg::Ack(GrantAck { seq }, None)),
        }
    }

    #[test]
    fn event_order_is_intrinsic() {
        // One bucket, filed in no particular order: what comes out is
        // the calendar's own sort, node by node — the earliest event,
        // node 9's, comes last.
        let mut cal = Calendar::new(1_000, 10);
        cal.push(ev(5, false, 0, 1, 0));
        cal.push(ev(7, true, 2, 4, 1));
        cal.push(ev(5, true, 0, 2, 7));
        cal.push(ev(3, true, 9, 9, 9));
        cal.push(ev(5, true, 0, 1, 9));
        cal.push(ev(4, true, 2, 3, 0));
        let bucket = cal.first_in_window(0).expect("six events in window 0");
        let order: Vec<(u32, u64, u8, u32, u64)> = cal
            .take(bucket)
            .iter()
            .map(|e| (e.dst, e.at.as_nanos(), e.kind(), e.src, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, 5, KIND_DELIVER, 1, 9),
                (0, 5, KIND_DELIVER, 2, 7),
                (0, 5, KIND_ESCROW, 1, 0),
                (2, 4, KIND_DELIVER, 3, 0),
                (2, 7, KIND_DELIVER, 4, 1),
                (9, 3, KIND_DELIVER, 9, 9),
            ]
        );
        assert!(cal.buckets.is_empty());
    }

    #[test]
    fn take_is_independent_of_filing_order() {
        // Outboxes reach a calendar in an order that depends on the shard
        // count; what a round hands out must not.
        prop::check(
            "calendar_filing_order",
            prop::Config::with_cases(1_000),
            (vec_of((0u64..40, any_u64()), 0..80), any_u64()),
            |(events, shuffle)| {
                // One bucket; five destinations and three sources, so
                // events tie on time, destination and source.
                let evs: Vec<Ev> = events
                    .iter()
                    .map(|&(at, r)| {
                        let (dst, src) = ((r >> 1) % 5, (r >> 4) % 3);
                        ev(at, r & 1 == 0, dst as u32, src as u32, r >> 6)
                    })
                    .collect();
                let drain = |filed: &[Ev]| -> Vec<_> {
                    let mut cal = Calendar::new(1_000, 50);
                    filed.iter().cloned().for_each(|e| cal.push(e));
                    let bucket = cal.first_in_window(0);
                    bucket.map_or(Vec::new(), |b| cal.take(b).iter().map(Ev::key).collect())
                };
                let mut shuffled = evs.clone();
                TestRng::seed_from_u64(shuffle).shuffle(&mut shuffled);
                let mut sorted: Vec<_> = evs.iter().map(Ev::key).collect();
                sorted.sort_unstable();
                assert_eq!(drain(&evs), sorted);
                assert_eq!(drain(&shuffled), sorted);
            },
        );
    }

    #[test]
    fn a_drain_builds_parked_nodes_in_node_order() {
        // Half the nodes are hungry and the donors park, so the drains
        // build donors as requests reach them. Node by node, a round
        // builds the ones it reaches in ascending id, in every shard.
        let sim = ShardedSim::new(ShardedConfig {
            shards: 2,
            recipient_every: 2,
            ..ShardedConfig::mega(2_000, 6, 7)
        });
        // Per shard, by its first node: records seen so far, and the most
        // any one phase built.
        let seen = Mutex::new(BTreeMap::<usize, (usize, usize)>::new());
        sim.run_visiting(|s| {
            let mut seen = seen.lock().expect("no panic holds this lock");
            let (known, most) = seen.entry(s.base).or_default();
            let fresh = s.live.get(*known..).unwrap_or_default();
            let ids: Vec<u32> = fresh.iter().map(|n| n.engine.id().index() as u32).collect();
            assert!(ids.is_sorted(), "shard at {}: {ids:?}", s.base);
            *most = (*most).max(ids.len());
            *known = s.live.len();
        });
        let seen = seen.into_inner().expect("no panic holds this lock");
        assert!(seen.values().all(|&(_, most)| most > 10), "{seen:?}");
    }

    #[test]
    fn an_event_is_sixty_four_bytes() {
        // Three windows of escrow timers sit queued under the live
        // messages; `shard_dense` peak RSS follows this number.
        assert!(std::mem::size_of::<Ev>() <= 64);
    }

    #[test]
    fn buckets_restart_at_every_period_boundary() {
        // T = 100, λ = 30: four buckets a window, the last 10 wide.
        let cal = Calendar::new(100, 30);
        let bucket = |at| cal.bucket_of(SimTime::from_nanos(at));
        assert_eq!(cal.per_window, 4);
        assert_eq!(
            [bucket(0), bucket(29), bucket(30), bucket(89)],
            [0, 0, 1, 2]
        );
        assert_eq!(
            [bucket(90), bucket(99), bucket(100), bucket(129)],
            [3, 3, 4, 4]
        );
        assert_eq!(bucket(399), 15);
    }

    #[test]
    #[should_panic(expected = "lands in bucket 4, not after the draining bucket Some(4)")]
    fn an_event_filed_into_the_draining_bucket_panics() {
        let mut cal = Calendar::new(100, 30);
        cal.push(ev(105, true, 0, 1, 0));
        let bucket = cal.first_in_window(1).expect("one event in window 1");
        assert_eq!(cal.take(bucket).len(), 1);
        // A message sent at 105 arrives at 135 or later; 129 is inside
        // the bucket being drained.
        cal.push(ev(129, true, 0, 1, 1));
    }

    /// `(at, kind, dst, src, seq)` as plain integers: a single queue's
    /// time-major order.
    type RawKey = (u64, u8, u32, u32, u64);

    /// The calendar beside the structure it replaced, fed the same events.
    /// The heap orders raw tuples built here field by field: it shares
    /// nothing with `Ev::key`, `Ev::kind` or `Calendar::bucket_of`.
    struct Model {
        cal: Calendar,
        heap: BinaryHeap<Reverse<RawKey>>,
        period: u64,
        lambda: u64,
        /// Latency is `lambda + r % (spread + 1)`; zero spread is
        /// `LatencyModel::Constant`.
        spread: u64,
        /// The window being drained.
        k: u64,
    }

    impl Model {
        /// Ids and seqs come from a range of three, so events tie on `at`
        /// and on every later field of the key.
        fn push(&mut self, at: u64, deliver: bool, r: u64) {
            let (dst, src, seq) = ((r % 3) as u32, (r / 3 % 3) as u32, r / 9 % 3);
            self.heap
                .push(Reverse((at, u8::from(!deliver), dst, src, seq)));
            self.cal.push(ev(at, deliver, dst, src, seq));
        }

        fn send(&mut self, now: u64, rng: &mut TestRng) {
            let lat = self.lambda + rng.next_u64() % (self.spread + 1);
            self.push(now + lat, true, rng.next_u64());
        }

        /// One round, if window `k` has a bucket left: the calendar's share
        /// must be exactly the heap's next pops, all of them inside the
        /// window, regrouped by destination with a stable sort — so each
        /// destination's own events come in the heap's order. With
        /// `spawn`, deliveries answer as an engine may: a message no
        /// sooner than `λ`, a timer no sooner than a period. Neither can
        /// land among this round's pops, so popping them all first is
        /// popping them one delivery at a time.
        fn round(&mut self, rng: &mut TestRng, spawn: bool) -> bool {
            let Some(bucket) = self.cal.first_in_window(self.k) else {
                return false;
            };
            let window = self.k * self.period..(self.k + 1) * self.period;
            let got: Vec<RawKey> = self
                .cal
                .take(bucket)
                .iter()
                .map(|e| {
                    let kind = u8::from(e.msg.is_none());
                    (e.at.as_nanos(), kind, e.dst, e.src, e.seq)
                })
                .collect();
            let mut want: Vec<RawKey> = (0..got.len())
                .map(|_| self.heap.pop().expect("the heap holds every event").0)
                .collect();
            want.sort_by_key(|&(_, _, dst, _, _)| dst);
            assert_eq!(got, want, "window {} bucket {bucket}", self.k);
            for &(at, ..) in &got {
                assert!(window.contains(&at), "{at} outside {window:?}");
                if !spawn || self.heap.len() > 2_000 {
                    continue;
                }
                match rng.next_u64() % 4 {
                    0 => {}
                    1 => self.send(at, rng),
                    2 => {
                        // A grant and its escrow deadline, three windows out.
                        self.send(at, rng);
                        self.push(at + 3 * self.period, false, rng.next_u64());
                    }
                    _ => {
                        let past = rng.next_u64() % self.lambda;
                        self.push(at + self.period + past, false, rng.next_u64());
                    }
                }
            }
            true
        }

        /// Leave window `k`, which the calendar says is empty — the heap
        /// must agree — and run the next boundary's tick wave.
        fn advance(&mut self, rng: &mut TestRng, ticks: u64) {
            self.k += 1;
            let t_k = self.k * self.period;
            assert!(
                self.heap.peek().is_none_or(|Reverse(key)| key.0 >= t_k),
                "window {} left {:?} behind",
                self.k - 1,
                self.heap.peek()
            );
            for _ in 0..ticks {
                self.send(t_k, rng);
            }
            if ticks > 2 {
                // The earliest a timer may fire: on the next boundary.
                self.push(t_k + self.period, false, rng.next_u64());
            }
        }
    }

    #[test]
    fn the_calendar_delivers_what_a_binary_heap_would() {
        // A period of 20–400 ns against a minimum latency of 1 ns to 1.5
        // periods: mostly not a divisor (a short last bucket), sometimes
        // wider than the window (one bucket a window).
        let shape = (20u64..400, 0u64..600, 0usize..3);
        let steps = vec_of((0u32..6, any_u64()), 0..60);
        prop::check(
            "calendar_vs_binary_heap",
            prop::Config::with_cases(3_000),
            (shape, steps),
            |((period, lambda, spread), steps)| {
                let lambda = 1 + lambda % (period * 3 / 2);
                let mut m = Model {
                    cal: Calendar::new(period, lambda),
                    heap: BinaryHeap::new(),
                    period,
                    lambda,
                    spread: [0, lambda.div_ceil(2), 2 * lambda][spread],
                    k: 0,
                };
                let rng = &mut TestRng::seed_from_u64(period ^ lambda);
                for _ in 0..4 {
                    m.send(0, rng);
                }
                for (kind, x) in steps {
                    let rng = &mut TestRng::seed_from_u64(x);
                    match kind {
                        // One round, or the next tick wave once the window
                        // is empty.
                        0..=3 => {
                            if !m.round(rng, true) {
                                m.advance(rng, x % 7);
                            }
                        }
                        // The rest of the window; 5 follows it with a
                        // boundary where nobody ticks.
                        _ => {
                            while m.round(rng, true) {}
                            m.advance(rng, if kind == 4 { x % 7 } else { 0 });
                        }
                    }
                }
                // Nothing is further out than a message of 3λ ≤ 4.5 periods.
                for _ in 0..6 {
                    while m.round(&mut TestRng::seed_from_u64(0), false) {}
                    m.advance(&mut TestRng::seed_from_u64(0), 0);
                }
                assert!(m.cal.buckets.is_empty() && m.heap.is_empty());
            },
        );
    }

    #[test]
    fn mega_run_conserves_elides_and_talks() {
        let r = ShardedSim::new(ShardedConfig {
            recipient_every: 4,
            ..ShardedConfig::mega(32, 20, 0xFEED)
        })
        .run();
        assert!(r.conservation_ok, "conservation violated: {r:?}");
        assert_eq!(r.lost, Power::ZERO);
        assert!(r.messages > 0, "no protocol traffic: {r:?}");
        // A quarter of all tick slots elided is a conservative floor:
        // with 1-in-4 recipients the donor majority still spends most
        // periods at the margin (observed ≈ 46% in this config; the
        // production 1-in-64 mix elides far more).
        assert!(
            r.elided_ticks > 32 * 20 / 4,
            "donor majority should be elided: {r:?}"
        );
        // Every node iterated exactly `periods` times, executed or
        // elided.
        assert!(r.total_events() >= 32 * 20);
    }

    #[test]
    fn shard_count_and_threads_do_not_change_the_run() {
        let base = ShardedConfig {
            recipient_every: 4,
            ..ShardedConfig::mega(30, 12, 0xABCD)
        };
        let one = ShardedSim::new(base.clone()).run();
        for shards in [2usize, 3, 7] {
            let r = ShardedSim::new(ShardedConfig {
                shards,
                ..base.clone()
            })
            .run();
            assert_eq!(
                r.fingerprint, one.fingerprint,
                "shards={shards} diverged from serial: {r:?} vs {one:?}"
            );
            assert_eq!(r.executed_events, one.executed_events);
            assert_eq!(r.elided_ticks, one.elided_ticks);
            assert_eq!(r.messages, one.messages);
        }
        let threaded = ShardedSim::new(ShardedConfig {
            shards: 4,
            jobs: 4,
            ..base
        })
        .run();
        assert_eq!(threaded.fingerprint, one.fingerprint);
    }

    impl ShardedSim {
        /// Build global node `i` now, as its first arrival would.
        fn unpark(&mut self, i: usize) {
            let chunk = self.shards[0].router.chunk;
            let shard = &mut self.shards[i / chunk];
            shard.live_index(i - shard.base, &self.cfg);
        }
    }

    #[test]
    fn a_donor_nobody_wrote_to_owns_no_engine() {
        let built = |sim: &ShardedSim| sim.shards.iter().map(|s| s.live.len()).sum::<usize>();
        let ticked = |sim: &ShardedSim| sim.shards.iter().map(|s| s.executed).sum::<u64>();
        // Nodes 0 and 64 are hungry and fail the probe; the 98 donors park,
        // their first ticks counted.
        let cfg = ShardedConfig {
            shards: 3,
            ..ShardedConfig::mega(100, 5, 7)
        };
        let mut sim = ShardedSim::new(cfg.clone());
        assert_eq!((built(&sim), ticked(&sim)), (2, 98));
        assert!(sim.shards.iter().all(|s| s.live.capacity() == s.slot.len()));
        let donor = sim.probe[0].as_ref().expect("the donor class parks");
        assert!(sim.probe[1].is_none(), "the hungry class parked");
        assert_eq!(donor.engine.stats().ticks, 1);
        assert!(
            donor.cap < cfg.initial_cap,
            "a donor sheds on its first tick"
        );
        // Built early, node 99 is what the probe says it is.
        sim.unpark(99);
        let (node, donor) = (&sim.shards[2].live[0], sim.probe[0].as_ref().unwrap());
        assert_eq!(built(&sim), 3);
        assert_eq!(
            ticked(&sim),
            98,
            "a replayed tick was counted when deferred"
        );
        assert_eq!(node.engine.id(), NodeId::new(99));
        assert_eq!(node.wake_at, SimTime::MAX);
        assert_eq!((node.cap, node.digest), (donor.cap, donor.digest));
        assert_eq!(
            node.engine.pool().available(),
            donor.engine.pool().available()
        );
        // With no period to run nobody ticks, so nobody is owed a tick.
        let idle = ShardedSim::new(ShardedConfig {
            periods: 0,
            ..cfg.clone()
        });
        assert_eq!((built(&idle), ticked(&idle)), (100, 0));
        // Donors that want more than they have are hungry: nothing parks.
        let starved = ShardedSim::new(ShardedConfig {
            donor_demand: cfg.recipient_demand,
            ..cfg
        });
        assert_eq!((built(&starved), ticked(&starved)), (100, 0));
    }

    #[test]
    #[should_panic(expected = "node64 parked owing a tick others see")]
    fn the_replay_refuses_a_first_tick_that_sends() {
        // Node 64 is hungry: its first tick asks a peer for power, which a
        // node built late could no longer have done at `t = 0`.
        let mut sim = ShardedSim::new(ShardedConfig::mega(100, 1, 7));
        sim.shards[0].slot[64] = PARKED;
        sim.unpark(64);
    }

    #[test]
    fn when_a_parked_node_is_built_is_unobservable() {
        // (n, seed, recipient_every, shards, periods) and which nodes to
        // build before the run: none, all, or a share of them.
        let shape = (2usize..48, any_u64(), 2usize..40, 1usize..5, 0u64..7);
        prop::check(
            "unpark_early_vs_on_arrival",
            prop::Config::with_cases(3_000),
            (shape, any_u64()),
            |((n, seed, recipient_every, shards, periods), pick)| {
                let cfg = ShardedConfig {
                    recipient_every,
                    shards: shards.min(n),
                    ..ShardedConfig::mega(n, periods, seed)
                };
                let lazy = ShardedSim::new(cfg.clone()).run();
                let mut sim = ShardedSim::new(cfg);
                let rng = &mut TestRng::seed_from_u64(pick);
                for i in 0..n {
                    if rng.next_u64() % 4 < pick % 5 {
                        sim.unpark(i);
                    }
                }
                let early = sim.run();
                assert!(early.engines_built >= lazy.engines_built);
                let but_for_the_engines = ShardReport {
                    engines_built: lazy.engines_built,
                    ..early
                };
                assert_eq!(but_for_the_engines, lazy);
                assert!(lazy.conservation_ok && lazy.lost.is_zero());
            },
        );
    }

    #[test]
    fn a_run_executes_on_jobs_threads_each_owning_its_shards() {
        let sim = ShardedSim::new(ShardedConfig {
            shards: 16,
            jobs: 3,
            ..ShardedConfig::mega(64, 3, 7)
        });
        // Per shard, by its first node: the threads it ran on, and how
        // many phases.
        let seen = Mutex::new(BTreeMap::<usize, (HashSet<ThreadId>, u64)>::new());
        let (report, _) = sim.run_visiting(|s| {
            let mut seen = seen.lock().expect("no panic holds this lock");
            let (threads, phases) = seen.entry(s.base).or_default();
            threads.insert(std::thread::current().id());
            *phases += 1;
        });
        let seen = seen.into_inner().expect("no panic holds this lock");
        let every_shard: Vec<usize> = (0..16).map(|s| s * 4).collect();
        assert_eq!(seen.keys().copied().collect::<Vec<_>>(), every_shard);
        // A tick wave per period, a drain per round, settle and release.
        let phases = report.periods + report.rounds + 2;
        assert!(seen.values().all(|(_, ran)| *ran == phases), "{seen:?}");
        // Every shard on one thread for the whole run, and three threads
        // in all: two spawned, and the caller.
        assert!(seen.values().all(|(threads, _)| threads.len() == 1));
        let threads: HashSet<ThreadId> = seen.values().flat_map(|(t, _)| t.clone()).collect();
        assert_eq!(threads.len(), 3);
        assert!(threads.contains(&std::thread::current().id()));
    }

    /// The panic `sim.run()` fails with, as a string. The run gets a thread
    /// of its own, so that a barrier nobody leaves fails this test instead
    /// of hanging the suite.
    fn panic_of(sim: ShardedSim) -> String {
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
            let payload = result.err().and_then(|p| p.downcast::<String>().ok());
            let _ = done.send(payload.map(|p| *p));
        });
        let outcome = outcome.recv_timeout(Duration::from_secs(10));
        let payload = outcome.expect("ShardedSim::run hung on a barrier a panicked thread left");
        payload.expect("the run finished, or panicked without a message")
    }

    #[test]
    fn a_panicking_shard_fails_the_run_with_its_own_payload() {
        // Nodes 0 and 64 are hungry. Marked parked, each is rebuilt when
        // its first reply arrives, and the replay refuses it: node 0 on the
        // caller's shard, node 64 on the worker's.
        for node in [0, 64] {
            let mut sim = ShardedSim::new(ShardedConfig {
                shards: 2,
                jobs: 2,
                ..ShardedConfig::mega(100, 3, 7)
            });
            sim.shards[node / 50].slot[node % 50] = PARKED;
            assert_eq!(
                panic_of(sim),
                format!("node{node} parked owing a tick others see")
            );
        }
    }

    /// `words` with bit `bit` of word `i` flipped.
    fn flipped(mut words: NodeWords, i: usize, bit: u32) -> NodeWords {
        words[i] ^= 1 << bit;
        words
    }

    #[test]
    fn a_node_hash_sees_every_bit_of_every_word() {
        prop::check(
            "node_hash_bit_flips",
            prop::Config::with_cases(3_000),
            vec_of(any_u64(), 8..9),
            |words| {
                let words: NodeWords = words.try_into().expect("eight words");
                let h = node_hash(words);
                for i in 0..8 {
                    for bit in 0..64 {
                        let one = node_hash(flipped(words, i, bit));
                        assert_ne!(one, h, "word {i} bit {bit}");
                    }
                    // Word-wise FNV-1a's blind spot: the same top-bit flip
                    // in two words, as two urgency flips would be.
                    for j in i + 1..8 {
                        let two = node_hash(flipped(flipped(words, i, 63), j, 63));
                        assert_ne!(two, h, "bit 63 of words {i} and {j}");
                    }
                }
            },
        );
    }

    #[test]
    fn a_fingerprint_combines_over_contiguous_blocks() {
        prop::check(
            "fingerprint_combine",
            prop::Config::with_cases(3_000),
            (vec_of(any_u64(), 0..200), any_u64()),
            |(hashes, cut)| {
                let fp = |block: &[u64]| block.iter().copied().fold(0, horner);
                let (a, b) = hashes.split_at(cut as usize % (hashes.len() + 1));
                assert_eq!(combine(fp(a), fp(b), b.len()), fp(&hashes));
            },
        );
    }

    /// Run a two-shard cell on `jobs` threads; check that the split fits
    /// in the run's wall time and leaves the report alone, and return it.
    fn split_of(jobs: usize) -> PhaseSplit {
        let cfg = ShardedConfig {
            shards: 2,
            jobs,
            ..ShardedConfig::mega(256, 10, 7)
        };
        let start = Instant::now();
        let (report, split) = ShardedSim::new(cfg.clone()).run_split();
        let wall = start.elapsed();
        let PhaseSplit {
            tick,
            drain,
            wait,
            caller,
            settle,
            release,
        } = split;
        assert!(
            tick + drain + wait + caller + settle + release <= wall,
            "{split:?} in {wall:?}"
        );
        assert!(caller > Duration::ZERO, "{split:?}");
        // The clock moves the split, never the report.
        assert_eq!(report, ShardedSim::new(cfg).run());
        split
    }

    #[test]
    fn a_phase_split_fits_in_its_run() {
        let split = split_of(2);
        assert!(split.wait > Duration::ZERO, "{split:?}");
    }

    #[test]
    fn a_lone_caller_waits_for_nobody() {
        let split = split_of(1);
        assert_eq!(split.wait, Duration::ZERO, "{split:?}");
        assert!(split.tick > Duration::ZERO && split.drain > Duration::ZERO);
    }
}
