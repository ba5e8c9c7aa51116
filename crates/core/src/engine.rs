//! The per-node protocol automaton behind a sans-IO API.
//!
//! [`NodeEngine`] is the *complete* Penelope node: decider (Algorithm 1),
//! pool (Algorithm 2), grant escrow and the [`PeerTable`] (everything
//! known about peers, and partner selection over it), composed into one
//! state machine that owns every protocol decision and the node's one
//! event sink. It performs no I/O and reads no clock: the hosting
//! substrate (discrete-event simulator, sharded simulator, UDP daemon)
//! pumps [`EngineInput`]s into [`NodeEngine::step`], which runs
//! the automaton and executes what it decided through the substrate's
//! [`Effects`] — sending messages, arming timers, actuating power caps.
//! The engine is the single emission site for every protocol trace event,
//! so all substrates produce the identical narrative by construction;
//! transport-layer events (`MsgSent`, `MsgRecv`, `MsgDropped`,
//! `AckDropped`, `RequestDenied` and node lifecycle) remain the driver's
//! responsibility because they describe the substrate, not the protocol.
//!
//! # The driver contract
//!
//! A driver is §3.3's interface — read power, set a cap, exchange small
//! messages — plus a transport, and nothing else. It feeds inputs to
//! [`NodeEngine::step`] and implements [`Effects`], one method per thing
//! the engine can ask of a substrate:
//!
//! * **Clock** — the driver passes `now` into every call; the engine
//!   never asks for the time.
//! * **Randomness** — the driver passes an [`EngineRng`]; the engine
//!   draws at most what peer selection needs (identical draw sequences to
//!   the historical inline code, so recorded seeds replay byte-for-byte).
//! * **Transport** — [`Effects::send`] routes a message; delivery, loss
//!   and latency are the driver's domain, and it reports whether the
//!   transport took the message. For a non-zero grant that answer is the
//!   kept-or-forwarded outcome the zero-sum transaction (§3.2) hangs on:
//!   `step` escrows the debited amount with it before doing anything
//!   else, so no driver can forget, reorder or miscount that feedback.
//! * **Timers** — [`Effects::escrow_timer`] requests a wake-up at a
//!   deadline; substrates with an event queue schedule it and feed back
//!   [`EngineInput::EscrowDeadline`], while period-polling substrates
//!   ignore it and feed [`EngineInput::SweepEscrow`] once per period.
//! * **Power** — [`Effects::actuate`] publishes the cap the decider
//!   wants enforced; the driver applies it to RAPL (or a model of it).
//! * **Accounting** — [`Effects::power_lost`] and [`Effects::resolved`]
//!   tell ledgers and turnaround folds what happened; a substrate that
//!   keeps neither says so with an empty body.
//! * **Admission** — the pool's service-queue model (service time, queue
//!   capacity, overload drops) stays in the driver: the engine serves a
//!   [`PeerMsg::Request`] the moment it is fed one, so the driver feeds
//!   it at service-completion time and emits `RequestDenied` itself on
//!   queue overflow.
//!
//! [`NodeEngine::handle`] is the primitive underneath: one input in,
//! [`EngineOutput`]s appended to a caller-supplied buffer, nothing
//! executed. The transcript tests pin the automaton through it, and a
//! harness that wants to stage outputs instead of executing them (a
//! benchmark, a model checker) calls it directly and then owes the engine
//! an [`EngineInput::GrantOutcome`] for every [`EngineOutput::SendGrant`]
//! — the obligation `step` exists to discharge. Either way the one
//! reusable buffer keeps the hot path allocation-free.
//!
//! # What an engine stores
//!
//! A sharded run holds 10^5–10^6 engines, so `size_of::<NodeEngine>()` is
//! a memory budget (352 bytes, pinned with its parts in
//! `tests/peer_table.rs`). Everything that is constant across the cluster
//! — the [`EngineConfig`]: decider knobs, pool limiter, safe range,
//! discovery strategy — is stored once per cluster behind an [`Arc`]; an
//! engine holds the 8-byte handle inside its [`NodeCtx`], beside the three
//! things that say which node this is (id, cluster size, event sink), and
//! lends that context to the decider and the peer table on every call.
//! The rest is state that differs from node to node: the decider's caps,
//! outstanding request, seq namespace and counters (152 bytes), the pool
//! (72, including the one configuration copy left — its 24-byte limiter,
//! because a [`PowerPool`] is also driven on its own), the peer table (48)
//! and the escrow (24). Nothing inside an engine hashes: the escrow is a
//! plain `Vec` of the handful of grants in flight, the decider's
//! applied-seq window is one 64-bit bitmap, and the peer table keeps
//! sorted `Vec`s — one 16-byte acked floor per peer served, and, behind a
//! one-word handle that stays empty on a fault-free run, the liveness
//! records.
//!
//! Beside those bytes an engine owns heap only once it has served a peer.
//! A fresh engine on a shared config and the no-op observer owns none; a
//! donor that has served one request and seen its ack owns 48 bytes: one
//! 32-byte escrow slot (the first grant reserves exactly one, and it is
//! kept when the ack empties the table) and one 16-byte acked floor (the
//! first floor is reserved alone, and the table grows by a quarter after
//! it). `tests/engine_heap.rs` pins both.

use std::sync::Arc;

use penelope_trace::{EventKind, SharedObserver, Stamper};
use penelope_units::{NodeId, Power, SimTime};

use crate::config::{DeciderConfig, NodeParams};
use crate::decider::{DeciderStats, LocalDecider, TickAction};
use crate::discovery::{DiscoveryStrategy, EngineRng, PeerTable};
use crate::escrow::{EscrowState, GrantEscrow};
use crate::pool::PowerPool;
use crate::protocol::{GrantAck, PeerMsg, PowerGrant, PowerRequest, SuspicionDigest};

/// Everything a [`NodeEngine`] needs to know at construction, shared by
/// every substrate so protocol parameters cannot drift between a
/// simulation and a deployment.
///
/// This is the one place seq-epoch plumbing lives: the simulator's
/// restart path, the multiplexer's restart and the daemon's
/// crash-recovery watermark all express "start the sequence namespace at `floor`" via
/// [`EngineConfig::with_seq_floor`], replacing the three per-substrate
/// spellings that preceded the engine.
///
/// It is a constant of the *cluster*: a driver builds one, wraps it in an
/// [`Arc`] and hands every engine a clone of the handle, so 128 bytes of
/// knobs are stored once, not once per node (see [`NodeCtx`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineConfig {
    /// Decider, pool and safe-range parameters (Algorithms 1 and 2).
    pub node: NodeParams,
    /// How a power-hungry decider picks which pool to query.
    pub discovery: DiscoveryStrategy,
    /// Starting sequence-namespace floor: seqs below it are permanently
    /// stale. Zero for a fresh node; a rejoining node passes its
    /// pre-crash `next_seq` watermark. Read once, when an engine is
    /// built: the floor a node lives under afterwards is its own state
    /// ([`NodeEngine::next_seq`] is the watermark it has reached).
    pub seq_floor: u64,
}

impl EngineConfig {
    /// A config with the given node parameters, default (uniform-random)
    /// discovery and a zero seq floor.
    pub fn new(node: NodeParams) -> Self {
        EngineConfig {
            node,
            discovery: DiscoveryStrategy::default(),
            seq_floor: 0,
        }
    }

    /// Select a peer-discovery strategy.
    pub fn with_discovery(mut self, discovery: DiscoveryStrategy) -> Self {
        self.discovery = discovery;
        self
    }

    /// Start the sequence namespace at `floor` instead of zero (the
    /// unified seq-epoch entry point; see the struct docs).
    pub fn with_seq_floor(mut self, floor: u64) -> Self {
        self.seq_floor = floor;
        self
    }
}

/// One stimulus for [`NodeEngine::handle`].
#[derive(Clone, Debug, PartialEq)]
pub enum EngineInput {
    /// One decider iteration: the period elapsed and the driver read the
    /// node's power. Produces an [`EngineOutput::Actuate`] and possibly a
    /// peer request.
    Tick {
        /// The power reading for this iteration.
        reading: Power,
    },
    /// A peer protocol message arrived. For [`PeerMsg::Request`] the
    /// driver feeds this at *service completion* time (after its queue
    /// admission model), not at network arrival.
    Msg {
        /// The sending node.
        src: NodeId,
        /// The message.
        msg: PeerMsg,
    },
    /// Transport feedback for an [`EngineOutput::SendGrant`]: whether the
    /// grant was handed to the network. [`NodeEngine::step`] feeds it
    /// itself; a caller of bare [`NodeEngine::handle`] MUST feed it
    /// synchronously after attempting delivery — the engine escrows the
    /// (already pool-debited) amount based on this knowledge.
    GrantOutcome {
        /// The requester the grant was addressed to.
        requester: NodeId,
        /// The request's sequence number.
        seq: u64,
        /// The granted amount.
        amount: Power,
        /// Whether the transport carried the message (`false` means the
        /// grant is known-dropped and keeps accounting weight here).
        delivered: bool,
    },
    /// A per-entry escrow timer armed by [`EngineOutput::SetEscrowTimer`]
    /// fired. Stale timers (the entry was acked or a re-send pushed its
    /// deadline out) are no-ops.
    EscrowDeadline {
        /// The requester key of the escrow entry.
        requester: NodeId,
        /// The seq key of the escrow entry.
        seq: u64,
    },
    /// Bulk escrow expiry for substrates that poll once per period
    /// instead of scheduling per-entry timers (they simply never arm the
    /// requested timers and feed this each period).
    SweepEscrow,
}

/// One effect the engine asks of its substrate: what [`NodeEngine::handle`]
/// appends to its buffer and [`NodeEngine::step`] executes through
/// [`Effects`].
#[derive(Clone, Debug, PartialEq)]
pub enum EngineOutput {
    /// Route a protocol message to a peer. `carried` is the power
    /// travelling with it (zero for requests, acks and zero grants) so
    /// accounting substrates can move it between ledgers; the driver
    /// emits the transport events (`MsgSent`, and `MsgDropped` /
    /// `AckDropped` on loss).
    Send {
        /// Destination node.
        dst: NodeId,
        /// The message to route.
        msg: PeerMsg,
        /// Power carried by the message.
        carried: Power,
    },
    /// Route a freshly served (or escrow-resent) *non-zero* grant, then
    /// synchronously feed back [`EngineInput::GrantOutcome`] with the
    /// delivery result. Split from [`EngineOutput::Send`] because the
    /// ledger treatment differs: the amount only departs the granter when
    /// the transport actually carries the message — a grant known-dropped
    /// at send keeps its accounting weight on the granter (as an
    /// undelivered escrow entry) instead of being booked as lost.
    SendGrant {
        /// Destination (the requester).
        dst: NodeId,
        /// The grant message (amount + seq + piggybacked digest).
        msg: PeerMsg,
        /// The granted amount, for the driver's ledger and the
        /// `GrantOutcome` echo.
        amount: Power,
        /// The request's sequence number, for the `GrantOutcome` echo.
        seq: u64,
    },
    /// Arm (or re-arm) a wake-up for an escrow entry's deadline; the
    /// driver feeds [`EngineInput::EscrowDeadline`] when it fires.
    /// Substrates that sweep per period may ignore this.
    SetEscrowTimer {
        /// The requester key of the escrow entry.
        requester: NodeId,
        /// The seq key of the escrow entry.
        seq: u64,
        /// When the entry expires.
        at: SimTime,
    },
    /// Apply this cap to the node's power interface.
    Actuate {
        /// The cap the decider wants enforced.
        cap: Power,
    },
    /// A non-zero grant arrived but was discarded as stale (pre-crash
    /// seq epoch, or a seq this node never spent): its power is gone —
    /// the substrate's conservation ledger must book it as lost. No ack
    /// is sent; the granter's escrow entry expires creditless.
    PowerLost {
        /// The discarded grant's amount.
        amount: Power,
    },
    /// A (non-stale) grant answered the outstanding request `seq`: the
    /// request round-trip is complete. Substrates tracking turnaround or
    /// redistribution metrics hook this; others ignore it.
    Resolved {
        /// The answered sequence number.
        seq: u64,
        /// The granted amount (zero for an empty-handed reply).
        amount: Power,
    },
}

/// The substrate side of every [`EngineOutput`]: what a driver implements,
/// and all it implements. [`NodeEngine::step`] calls these, statically
/// dispatched, in the order the engine decided; there are no default
/// bodies, so a substrate says what it does with each effect even when
/// the answer is nothing.
///
/// `R` is the driver's [`EngineRng`], handed through to
/// [`send`](Effects::send) for transports that draw from the node's own
/// stream.
pub trait Effects<R> {
    /// Hand `msg` for `dst` to the transport and report whether it took
    /// it, emitting the transport events (`MsgSent`, and `MsgDropped` /
    /// `AckDropped` on loss). `carried` is the power travelling with the
    /// message (zero for requests, acks and zero grants). `escrowed` marks
    /// a non-zero grant ([`EngineOutput::SendGrant`]): its amount leaves
    /// the granter's books only if the transport carries it, and the
    /// returned status is what the engine escrows it under; for any other
    /// message the status is not consulted. `rng` is the stream the
    /// driver passed to `step`.
    fn send(
        &mut self,
        rng: &mut R,
        dst: NodeId,
        msg: PeerMsg,
        carried: Power,
        escrowed: bool,
    ) -> bool;

    /// Apply `cap` to the node's power interface
    /// ([`EngineOutput::Actuate`]).
    fn actuate(&mut self, cap: Power);

    /// Arm (or re-arm) a wake-up at `at` for the escrow entry
    /// `(requester, seq)` ([`EngineOutput::SetEscrowTimer`]); substrates
    /// that sweep per period do nothing here.
    fn escrow_timer(&mut self, requester: NodeId, seq: u64, at: SimTime);

    /// Book `amount` as gone from the system
    /// ([`EngineOutput::PowerLost`]).
    fn power_lost(&mut self, amount: Power);

    /// The outstanding request `seq` was answered with `amount`
    /// ([`EngineOutput::Resolved`]).
    fn resolved(&mut self, seq: u64, amount: Power);
}

/// What no input changes about a node: who it is, in which cluster, under
/// whose configuration, and where it narrates.
///
/// A [`NodeEngine`] owns one and lends it to its parts: [`LocalDecider`]
/// and [`PeerTable`] keep no copy of the configuration, the node id or the
/// cluster size — every call of theirs that needs one takes the `ctx`. The
/// configuration sits behind an [`Arc`], so a cluster of any size stores
/// one [`EngineConfig`]; what an engine stores per node is this handle and
/// state that actually differs from node to node.
#[derive(Clone, Debug)]
pub struct NodeCtx {
    pub(crate) node: NodeId,
    pub(crate) cluster_size: usize,
    pub(crate) cfg: Arc<EngineConfig>,
    pub(crate) trace: Stamper,
}

impl NodeCtx {
    /// The context of node `node` in a cluster of `cluster_size` client
    /// nodes configured by `cfg`, narrating to `observer`. Pass an
    /// `Arc<EngineConfig>` clone to share one configuration between
    /// nodes; a by-value [`EngineConfig`] gets an `Arc` of its own.
    pub fn new(
        node: NodeId,
        cluster_size: usize,
        cfg: impl Into<Arc<EngineConfig>>,
        observer: SharedObserver,
    ) -> Self {
        let cfg = cfg.into();
        let trace = Stamper::new(observer, cfg.node.decider.period);
        NodeCtx {
            node,
            cluster_size,
            cfg,
            trace,
        }
    }

    /// The decider's knobs (Algorithm 1, liveness, gossip).
    #[inline]
    pub(crate) fn knobs(&self) -> &DeciderConfig {
        &self.cfg.node.decider
    }

    /// Stamp `kind()` as happening on this node at `now` and deliver it;
    /// the closure runs only when someone is listening.
    #[inline]
    pub(crate) fn emit(&self, now: SimTime, kind: impl FnOnce() -> EventKind) {
        self.trace.emit(now, self.node, kind);
    }
}

/// The complete Penelope node automaton — see the [module docs](self)
/// for the driver contract.
#[derive(Debug)]
pub struct NodeEngine {
    ctx: NodeCtx,
    decider: LocalDecider,
    pool: PowerPool,
    escrow: GrantEscrow<NodeId>,
    peers: PeerTable,
}

impl NodeEngine {
    /// Build the engine for node `id` of a cluster of `cluster_size`
    /// client nodes, starting at `initial_cap` (clamped into the safe
    /// range). Every emitted protocol event is stamped with `id` and
    /// delivered to `observer`.
    ///
    /// `cfg` is the cluster's configuration: a driver building many
    /// engines makes one `Arc<EngineConfig>` and passes a clone of it to
    /// each, so they share it; a by-value [`EngineConfig`] is accepted too
    /// and gets an `Arc` of its own.
    pub fn new(
        id: NodeId,
        cluster_size: usize,
        cfg: impl Into<Arc<EngineConfig>>,
        initial_cap: Power,
        observer: SharedObserver,
    ) -> Self {
        let ctx = NodeCtx::new(id, cluster_size, cfg, observer);
        NodeEngine {
            decider: LocalDecider::new(&ctx, initial_cap).with_seq_floor(ctx.cfg.seq_floor),
            pool: PowerPool::new(ctx.cfg.node.pool),
            escrow: GrantEscrow::new(),
            peers: PeerTable::new(&ctx),
            ctx,
        }
    }

    /// Re-point the node's event sink — the engine, its decider and its
    /// peer table all emit through it. Substrates that fan an extra trace
    /// consumer into their sink after construction (the simulator's
    /// `record_traces`) push the fanout down here.
    pub fn set_observer(&mut self, obs: SharedObserver) {
        self.ctx.trace = Stamper::new(obs, self.ctx.knobs().period);
    }

    /// The node this engine animates.
    pub fn id(&self) -> NodeId {
        self.ctx.node
    }

    /// The configuration the engine was built with — the cluster's, shared
    /// by every engine handed the same `Arc`. Its `seq_floor` is the floor
    /// this node *started* under; a [`reincarnate`](NodeEngine::reincarnate)
    /// raises the node's own floor and leaves this untouched.
    pub fn config(&self) -> &EngineConfig {
        &self.ctx.cfg
    }

    /// The cap the decider currently wants enforced.
    pub fn cap(&self) -> Power {
        self.decider.cap()
    }

    /// The local power pool (read access for snapshots and audits).
    pub fn pool(&self) -> &PowerPool {
        &self.pool
    }

    /// Mutable access to the pool, for tests and tools that seed pool
    /// state out-of-band. Protocol paths must go through
    /// [`handle`](NodeEngine::handle).
    pub fn pool_mut(&mut self) -> &mut PowerPool {
        &mut self.pool
    }

    /// Lifetime decider counters.
    pub fn stats(&self) -> DeciderStats {
        self.decider.stats()
    }

    /// True iff a peer request is in flight.
    pub fn is_blocked(&self) -> bool {
        self.decider.is_blocked()
    }

    /// The next sequence number this node will spend — the watermark a
    /// restart hands to [`EngineConfig::with_seq_floor`].
    pub fn next_seq(&self) -> u64 {
        self.decider.next_seq()
    }

    /// Escrowed power still carrying accounting weight on this node (the
    /// undelivered entries) — what conservation audits add to the node's
    /// holdings.
    pub fn escrowed_undelivered(&self) -> Power {
        self.escrow.undelivered_total()
    }

    /// Number of outstanding escrow entries.
    pub fn escrow_len(&self) -> usize {
        self.escrow.len()
    }

    /// Peers this node currently holds a suspicion against (active or
    /// awaiting clearance).
    pub fn suspected_count(&self) -> usize {
        self.peers.suspected_count()
    }

    /// Earliest future time at which a `Tick { reading }` input could do
    /// anything beyond `Actuate { cap }` (idempotent — the cap is
    /// unchanged) and one iteration-counter bump — or `None` when the
    /// very next tick may act.
    ///
    /// This is the hot-path contract mega-scale drivers elide ticks
    /// against: across a window this method vouches for, the driver may
    /// skip delivering tick inputs entirely, account them with
    /// [`note_elided_ticks`](NodeEngine::note_elided_ticks), and wake
    /// the node at the returned deadline (or earlier, on any message
    /// arrival or reading change — quiescence assumes frozen inputs).
    ///
    /// The engine layers its own gates over
    /// `LocalDecider::quiescent_until`; all must hold, else `None`:
    ///
    /// * tracing off — a real tick emits `CapActuated` (and the decider a
    ///   `Classified`) per iteration, so elision under an observer would
    ///   be visible;
    /// * partner selection blind
    ///   ([`PeerTable::selection_is_blind`]) — a held success hint makes
    ///   the pick state-dependent rather than a skippable unused draw, and
    ///   probe scheduling piggybacks on tick-time selection;
    /// * no local urgency latched — `finish_iteration` releases power on
    ///   the next tick.
    ///
    /// Elision *does* skip the per-tick partner-selection RNG draw (and
    /// round-robin cursor advance), so an eliding driver's per-node
    /// random streams diverge from a non-eliding one's. Elision is only
    /// sound where that stream is unobservable — fault-free steady state,
    /// where quiescent nodes never spend the draw. The decision itself
    /// depends only on this node's state, never on how the driver
    /// partitions nodes, so any two eliding drivers agree exactly.
    #[inline]
    pub fn tick_quiescent_until(&self, now: SimTime, reading: Power) -> Option<SimTime> {
        if self.ctx.trace.enabled() || !self.peers.selection_is_blind() || self.pool.local_urgency()
        {
            return None;
        }
        self.decider.quiescent_until(&self.ctx, now, reading)
    }

    /// Account `n` ticks elided under a
    /// [`tick_quiescent_until`](NodeEngine::tick_quiescent_until) window,
    /// keeping `stats().ticks` equal to the count a non-eliding driver
    /// would have produced.
    #[inline]
    pub fn note_elided_ticks(&mut self, n: u64) {
        self.decider.note_elided_ticks(n);
    }

    /// Rebirth in place after a crash: the node rejoins with
    /// `initial_cap`, a fresh pool and escrow, and its sequence namespace
    /// floored at the dead incarnation's watermark so stale pre-crash
    /// grants are discarded instead of double-paid. Everything learnt
    /// about peers is forgotten; the round-robin cursor survives.
    pub fn reincarnate(&mut self, initial_cap: Power) {
        let floor = self.decider.next_seq();
        self.decider = LocalDecider::new(&self.ctx, initial_cap).with_seq_floor(floor);
        self.pool = PowerPool::new(self.ctx.cfg.node.pool);
        self.escrow = GrantEscrow::new();
        self.peers.reset();
    }

    /// Crash accounting: drop the pool and escrow, returning
    /// `(pool drained, undelivered escrow drained)` so the substrate can
    /// book both as lost alongside the cap.
    pub fn retire(&mut self) -> (Power, Power) {
        self.peers.forget_hint();
        (self.pool.drain(), self.escrow.drain())
    }

    /// Advance the automaton by one input and execute everything it
    /// decided through `fx` — the one loop every substrate shares.
    ///
    /// Outputs leave `buf` by value, in order. After a
    /// [`SendGrant`](EngineOutput::SendGrant) the delivery status `fx`
    /// reported is fed straight back as the
    /// [`GrantOutcome`](EngineInput::GrantOutcome) input and the escrow
    /// timer it arms goes to `fx` too, so the debit, the send and the
    /// escrow entry are one step no driver can split. `buf` must come in
    /// empty and is left empty (capacity kept) for the next call.
    ///
    /// Returns how many inputs the engine handled: `input` itself plus one
    /// per grant outcome fed back.
    pub fn step<R: EngineRng>(
        &mut self,
        now: SimTime,
        input: EngineInput,
        rng: &mut R,
        buf: &mut Vec<EngineOutput>,
        fx: &mut impl Effects<R>,
    ) -> u64 {
        debug_assert!(buf.is_empty(), "step needs an empty output buffer");
        self.handle(now, input, rng, buf);
        let mut handled = 1;
        for out in buf.drain(..) {
            match out {
                EngineOutput::Send { dst, msg, carried } => {
                    fx.send(rng, dst, msg, carried, false);
                }
                EngineOutput::SendGrant {
                    dst,
                    msg,
                    amount,
                    seq,
                } => {
                    let delivered = fx.send(rng, dst, msg, amount, true);
                    let at = self.on_grant_outcome(now, dst, seq, amount, delivered);
                    fx.escrow_timer(dst, seq, at);
                    handled += 1;
                }
                EngineOutput::SetEscrowTimer { requester, seq, at } => {
                    fx.escrow_timer(requester, seq, at)
                }
                EngineOutput::Actuate { cap } => fx.actuate(cap),
                EngineOutput::PowerLost { amount } => fx.power_lost(amount),
                EngineOutput::Resolved { seq, amount } => fx.resolved(seq, amount),
            }
        }
        handled
    }

    /// The primitive under [`step`](NodeEngine::step): advance the
    /// automaton by one input, appending its outputs to `out` (which is
    /// NOT cleared) and executing none of them. The caller owes a
    /// [`GrantOutcome`](EngineInput::GrantOutcome) for every
    /// [`SendGrant`](EngineOutput::SendGrant) it finds there.
    pub fn handle(
        &mut self,
        now: SimTime,
        input: EngineInput,
        rng: &mut impl EngineRng,
        out: &mut Vec<EngineOutput>,
    ) {
        match input {
            EngineInput::Tick { reading } => self.on_tick(now, reading, rng, out),
            EngineInput::Msg { src, msg } => match msg {
                PeerMsg::Request(req) => self.on_request(now, req, out),
                PeerMsg::Grant(g, digest) => self.on_grant_msg(now, src, g, digest, out),
                PeerMsg::Ack(a, digest) => self.on_ack(now, src, a, digest),
            },
            EngineInput::GrantOutcome {
                requester,
                seq,
                amount,
                delivered,
            } => {
                let at = self.on_grant_outcome(now, requester, seq, amount, delivered);
                out.push(EngineOutput::SetEscrowTimer { requester, seq, at });
            }
            EngineInput::EscrowDeadline { requester, seq } => {
                if let Some(entry) = self.escrow.expire_one(requester, seq, now) {
                    self.reclaim(now, entry.requester, entry.seq, entry.amount, entry.state);
                }
            }
            EngineInput::SweepEscrow => {
                for entry in self.escrow.take_expired(now) {
                    self.reclaim(now, entry.requester, entry.seq, entry.amount, entry.state);
                }
            }
        }
    }

    /// One decider iteration (Algorithm 1).
    fn on_tick(
        &mut self,
        now: SimTime,
        reading: Power,
        rng: &mut impl EngineRng,
        out: &mut Vec<EngineOutput>,
    ) {
        let ctx = &self.ctx;
        let peer = self.peers.pick(ctx, ctx.cfg.discovery, rng, now);
        // Capture probe-ness at selection time: the tick below may refresh
        // the suspicion clock (a timeout landing this same iteration)
        // after selection already let the probe through.
        let probing = peer.is_some_and(|p| self.peers.is_probing(ctx, now, p));
        let action = self
            .decider
            .tick(ctx, now, reading, &mut self.pool, peer, &mut self.peers);
        out.push(EngineOutput::Actuate {
            cap: self.decider.cap(),
        });
        // Per-tick telemetry: the one event every iteration emits; trace
        // consumers project it into the plottable (cap, reading, pool)
        // series.
        let cap_now = self.decider.cap();
        let pool_now = self.pool.available();
        ctx.emit(now, || EventKind::CapActuated {
            cap: cap_now,
            reading,
            pool: pool_now,
        });
        if let TickAction::Request {
            dst,
            urgent,
            alpha,
            seq,
        } = action
        {
            // A request to a peer whose suspicion outlived the probe
            // interval IS the liveness probe — narrate it. Emitted here
            // (the engine is the single protocol-emission site), so the
            // event appears on every substrate with no driver changes.
            if probing {
                ctx.emit(now, || EventKind::PeerProbed { peer: dst });
            }
            out.push(EngineOutput::Send {
                dst,
                msg: PeerMsg::Request(PowerRequest {
                    from: ctx.node,
                    urgent,
                    alpha,
                    seq,
                }),
                carried: Power::ZERO,
            });
        }
    }

    /// The digest this node piggybacks on outgoing grants and acks.
    fn digest(&self) -> Option<Box<SuspicionDigest>> {
        self.peers.digest(&self.ctx, self.decider.incarnation())
    }

    /// Merge the digest a grant or ack from `src` carried, then give its
    /// box back to this thread's spares.
    fn merge_digest(&mut self, now: SimTime, src: NodeId, digest: Option<Box<SuspicionDigest>>) {
        if let Some(d) = digest {
            self.peers.merge_digest(&self.ctx, now, src, &d);
            SuspicionDigest::recycle(d);
        }
    }

    /// Queue the reply to `req`: `amount`, with the liveness digest. A
    /// non-zero amount was debited from the pool (now or on an earlier
    /// copy of the request), so it travels as a `SendGrant` and is
    /// escrowed on the delivery status; zero is fire-and-forget.
    fn reply(&self, req: &PowerRequest, amount: Power, out: &mut Vec<EngineOutput>) {
        let (dst, seq) = (req.from, req.seq);
        let msg = PeerMsg::Grant(PowerGrant { amount, seq }, self.digest());
        out.push(if amount.is_zero() {
            EngineOutput::Send {
                dst,
                msg,
                carried: amount,
            }
        } else {
            EngineOutput::SendGrant {
                dst,
                msg,
                amount,
                seq,
            }
        });
    }

    /// Serve a peer request out of the pool (Algorithm 2), with
    /// retransmit idempotence: an escrow hit means this (requester, seq)
    /// was already served — re-send the escrowed amount, never re-debit.
    fn on_request(&mut self, now: SimTime, req: PowerRequest, out: &mut Vec<EngineOutput>) {
        // Late-duplicate guard: this (requester, seq) already completed a
        // full grant/ack exchange (the ack released its escrow entry), so
        // a copy arriving now — a retransmit delayed past the ack — must
        // not be served afresh. A zero-grant reminder unblocks the
        // requester if it somehow still waits (its dedup discards it
        // otherwise).
        if self.peers.already_acked(req.from, req.seq) {
            return self.reply(&req, Power::ZERO, out);
        }
        if let Some(entry) = self.escrow.get(req.from, req.seq) {
            // Undelivered: re-send the escrowed amount. Awaiting ack: the
            // original grant is in flight or already applied; a zero
            // reminder unblocks the requester if its ack raced this
            // retransmit (duplicates of the real amount are discarded by
            // the decider's seq dedup).
            let amount = match entry.state {
                EscrowState::Undelivered => entry.amount,
                EscrowState::AwaitingAck => Power::ZERO,
            };
            return self.reply(&req, amount, out);
        }
        let urgency_before = self.pool.local_urgency();
        let amount = self.pool.handle_request(req.urgent, req.alpha);
        let urgency_after = self.pool.local_urgency();
        self.ctx.emit(now, || EventKind::RequestServed {
            requester: req.from,
            seq: req.seq,
            granted: amount,
            urgent: req.urgent,
        });
        // The urgency flag has *assignment* semantics (Algorithm 2): an
        // urgent request raises it, a non-urgent one clears it. Emitting
        // both transitions keeps raise/clear strictly alternating.
        if !urgency_before && urgency_after {
            self.ctx
                .emit(now, || EventKind::UrgencyRaised { by: req.from });
        } else if urgency_before && !urgency_after {
            self.ctx.emit(now, || EventKind::UrgencyCleared {
                released: Power::ZERO,
            });
        }
        self.reply(&req, amount, out);
    }

    /// Transport feedback for a [`EngineOutput::SendGrant`]: escrow the
    /// debited amount with the delivery knowledge the driver reports.
    /// Returns the entry's deadline, for the escrow timer.
    fn on_grant_outcome(
        &mut self,
        now: SimTime,
        requester: NodeId,
        seq: u64,
        amount: Power,
        delivered: bool,
    ) -> SimTime {
        let fresh = self.escrow.get(requester, seq).is_none();
        let deadline = now + self.ctx.knobs().escrow_timeout();
        let state = if delivered {
            EscrowState::AwaitingAck
        } else {
            EscrowState::Undelivered
        };
        self.escrow.insert(requester, seq, amount, state, deadline);
        if fresh {
            self.ctx.emit(now, || EventKind::GrantEscrowed {
                requester,
                seq,
                amount,
            });
        }
        deadline
    }

    /// A grant arrived for this node's outstanding request.
    fn on_grant_msg(
        &mut self,
        now: SimTime,
        src: NodeId,
        g: PowerGrant,
        digest: Option<Box<SuspicionDigest>>,
        out: &mut Vec<EngineOutput>,
    ) {
        // Merge piggybacked suspicion gossip first: the digest may refute
        // a stale suspicion of `src` itself, and the reply below must
        // land on the post-merge state.
        self.merge_digest(now, src, digest);
        self.peers.note_reply(&self.ctx, now, src);
        let stale = self.decider.is_stale_grant(g.seq) || self.decider.is_unspent(g.seq);
        // A redelivered copy of an already-applied grant (the granter
        // re-sends its escrowed amount when a retransmitted request races
        // the original) resolves nothing: the first delivery did. The
        // decider discards it below either way; suppressing the Resolved
        // echo keeps turnaround folds from double-counting the exchange.
        // The ack is still worth re-sending — the duplicate implies the
        // granter has not seen our ack yet.
        let redelivery = !g.amount.is_zero() && self.decider.is_applied_seq(g.seq);
        let _ = self
            .decider
            .on_grant(&self.ctx, now, g.seq, g.amount, &mut self.pool);
        if stale {
            // A pre-crash grant caught up with its reborn requester: the
            // crash already retired this node's whole pre-crash epoch, so
            // applying the grant now would pay the new epoch with the old
            // one's money. (A grant for a seq this node never spent is
            // treated the same: no honest granter sends one.) The decider
            // discarded it (counted in `stale_discards`) and the amount
            // joins the crash's losses. No ack: the granter's escrow entry
            // expires creditless, exactly as if the requester died.
            if !g.amount.is_zero() {
                out.push(EngineOutput::PowerLost { amount: g.amount });
            }
            return;
        }
        out.push(EngineOutput::Actuate {
            cap: self.decider.cap(),
        });
        self.peers.note_grant(src, !g.amount.is_zero());
        if !redelivery {
            out.push(EngineOutput::Resolved {
                seq: g.seq,
                amount: g.amount,
            });
        }
        // Commit the transfer: the granter holds the amount in escrow
        // until this ack lands (zero grants debit nothing and are never
        // escrowed, so nothing to acknowledge).
        if !g.amount.is_zero() {
            out.push(EngineOutput::Send {
                dst: src,
                msg: PeerMsg::Ack(GrantAck { seq: g.seq }, self.digest()),
                carried: Power::ZERO,
            });
        }
    }

    /// An ack arrived for a grant this node escrowed.
    fn on_ack(
        &mut self,
        now: SimTime,
        src: NodeId,
        a: GrantAck,
        digest: Option<Box<SuspicionDigest>>,
    ) {
        self.merge_digest(now, src, digest);
        if let Some(entry) = self.escrow.release(src, a.seq) {
            // An ack proves delivery, so the entry cannot still be
            // carrying accounting weight on the granter.
            debug_assert_eq!(entry.state, EscrowState::AwaitingAck);
        }
        // Whether or not the entry was still escrowed: any later copy of
        // the request must not be served afresh.
        self.peers.note_ack(src, a.seq);
    }

    /// An escrow entry expired: if it is still known undelivered the
    /// granter takes its power back; an awaiting-ack entry expires
    /// without credit (the power either reached the requester, whose ack
    /// was lost, or died with it — both already accounted elsewhere).
    fn reclaim(
        &mut self,
        now: SimTime,
        requester: NodeId,
        seq: u64,
        amount: Power,
        state: EscrowState,
    ) {
        if state == EscrowState::Undelivered {
            self.pool.deposit(amount);
            self.ctx.emit(now, || EventKind::GrantReclaimed {
                requester,
                seq,
                amount,
            });
        }
    }
}
