//! The local decider: Algorithm 1 and the requester's own seq
//! bookkeeping. What the node knows about its *peers* lives in the
//! [`PeerTable`], which [`LocalDecider::tick`] — the one place a request
//! timeout is detected — reports each timeout to.
//!
//! The decider holds what differs from node to node — caps, the
//! outstanding request, the seq namespace, counters — and nothing else:
//! its knobs ([`DeciderConfig`](crate::DeciderConfig)), the safe range,
//! the node id and the event sink are the cluster's and the engine's, and
//! reach every call that needs them as a [`NodeCtx`].

use penelope_trace::{EventKind, NodeClass};
use penelope_units::{NodeId, Power, SimTime};

use crate::discovery::PeerTable;
use crate::engine::NodeCtx;
use crate::pool::PowerPool;

/// The decider's per-iteration classification of its node (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classification {
    /// Reading more than ε below the cap: the node has excess power.
    Excess,
    /// Reading within ε of the cap: the node is power-hungry.
    Hungry,
    /// Reading exactly at `cap − ε` (Algorithm 1's strict comparisons leave
    /// this point unclassified).
    AtMargin,
}

/// Classify a reading against a cap with margin ε, exactly as Algorithm 1:
/// `P < C − ε` → excess, `P > C − ε` → hungry, equality → neither.
pub fn classify(reading: Power, cap: Power, epsilon: Power) -> Classification {
    // Compare in added form to avoid unsigned underflow when ε > cap.
    let lhs = reading + epsilon;
    if lhs < cap {
        Classification::Excess
    } else if lhs > cap {
        Classification::Hungry
    } else {
        Classification::AtMargin
    }
}

impl Classification {
    /// The trace-vocabulary equivalent of this classification.
    pub(crate) fn as_trace(self) -> NodeClass {
        match self {
            Classification::Excess => NodeClass::Excess,
            Classification::Hungry => NodeClass::Hungry,
            Classification::AtMargin => NodeClass::AtMargin,
        }
    }
}

/// What a decider iteration decided to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickAction {
    /// Excess: the cap was lowered and this much was deposited locally.
    Deposited(Power),
    /// Hungry with a non-empty local pool: withdrew this much locally.
    TookLocal(Power),
    /// Hungry with an empty local pool: send this request to `dst`'s pool.
    Request {
        /// The randomly chosen peer to query.
        dst: NodeId,
        /// Urgency of the request.
        urgent: bool,
        /// Power needed to return to the initial cap (urgent only).
        alpha: Power,
        /// Sequence number to match the grant against.
        seq: u64,
    },
    /// Nothing to do: at the margin, no peer available, or still blocked on
    /// an earlier request.
    Idle,
}

#[derive(Clone, Copy, Debug)]
struct Outstanding {
    seq: u64,
    sent_at: SimTime,
    /// Where the request went and what it asked for, kept so a timed-out
    /// request can be retransmitted verbatim (same `seq`, same α).
    dst: NodeId,
    urgent: bool,
    alpha: Power,
    /// How many times this request has been (re)sent minus one; the wait
    /// before attempt `k + 1` is `response_timeout · 2^k`.
    attempt: u32,
}

/// Per-decider lifetime counters, exposed for the metrics layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeciderStats {
    /// Iterations executed.
    pub ticks: u64,
    /// Requests sent to peers.
    pub requests_sent: u64,
    /// Of which urgent.
    pub urgent_sent: u64,
    /// Requests abandoned after the response timeout.
    pub timeouts: u64,
    /// Timed-out requests retransmitted instead of abandoned.
    pub retransmits: u64,
    /// Total power deposited into the local pool.
    pub deposited: Power,
    /// Total power received in grants (applied + re-deposited overflow).
    pub granted: Power,
    /// Total power released due to a peer's urgent request (the
    /// `localUrgency` inducement).
    pub urgency_released: Power,
    /// Grants discarded because their `seq` sat below the decider's floor:
    /// pre-crash grants addressed to a reborn node, or redeliveries older
    /// than the applied-seq window.
    pub stale_discards: u64,
}

/// How many recent applied sequence numbers are remembered exactly; grants
/// older than this window below `next_seq` are rejected wholesale (treated
/// as already applied), which is what keeps [`LocalDecider`]'s dedup list
/// O(outstanding) instead of O(lifetime requests). The decider has at most
/// one request outstanding and the escrow deadline spans a handful of
/// periods, so a legitimate late grant is always far younger than this.
pub const APPLIED_SEQ_WINDOW: u64 = 64;

/// Algorithm 1: the per-node feedback controller.
///
/// The decider is substrate-agnostic: each period the host calls
/// [`tick`](LocalDecider::tick) with the average power reading and a
/// uniformly random peer, delivers any [`TickAction::Request`] it returns,
/// and feeds the reply to [`on_grant`](LocalDecider::on_grant). After any
/// call the host applies [`cap`](LocalDecider::cap) to the hardware.
///
/// While a request is outstanding the decider is *blocked* (the paper's
/// implementation waits synchronously for the pool's reply); a tick that
/// arrives first returns [`TickAction::Idle`], and the request is abandoned
/// after [`response_timeout`](crate::DeciderConfig::response_timeout) so a
/// crashed peer cannot wedge the node.
#[derive(Clone, Debug)]
pub struct LocalDecider {
    initial_cap: Power,
    cap: Power,
    outstanding: Option<Outstanding>,
    next_seq: u64,
    /// Sequence numbers whose non-zero grant has already been applied.
    /// A lossy transport can redeliver a grant (the granter re-sends its
    /// escrowed amount when a retransmitted request arrives); applying it
    /// twice would mint power, so redeliveries are discarded by `seq`.
    /// Bounded: seqs below `seq_floor` are rejected without lookup, so
    /// this never holds more than [`APPLIED_SEQ_WINDOW`] of them — few
    /// enough that a scan beats hashing, in the order they were applied.
    applied_seqs: Vec<u64>,
    /// Grants with `seq < seq_floor` are stale and discarded. Raised in two
    /// ways: a restarted node adopts its pre-crash `next_seq` watermark here
    /// (the seq-epoch rule — stale pre-crash grants and escrow re-sends can
    /// never double-pay the reborn node), and ordinary operation advances it
    /// to `next_seq − APPLIED_SEQ_WINDOW` so `applied_seqs` stays bounded.
    seq_floor: u64,
    stats: DeciderStats,
}

impl LocalDecider {
    /// Create the decider of `ctx`'s node with the given initial cap,
    /// clamped into the configuration's safe range.
    pub fn new(ctx: &NodeCtx, initial_cap: Power) -> Self {
        let cap = ctx.cfg.node.safe_range.clamp(initial_cap);
        LocalDecider {
            initial_cap: cap,
            cap,
            outstanding: None,
            next_seq: 0,
            applied_seqs: Vec::new(),
            seq_floor: 0,
            stats: DeciderStats::default(),
        }
    }

    /// Start the sequence namespace at `floor` instead of zero: seqs below
    /// it are permanently stale. A restarted node passes its pre-crash
    /// `next_seq` watermark here so the reborn decider never reuses a seq
    /// its dead predecessor already spent — a retransmitted or escrowed
    /// pre-crash grant arriving late is discarded instead of double-paying.
    pub fn with_seq_floor(mut self, floor: u64) -> Self {
        self.next_seq = floor;
        self.seq_floor = floor;
        self
    }

    /// The node-level cap the decider currently wants enforced (`C_t`).
    pub fn cap(&self) -> Power {
        self.cap
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DeciderStats {
        self.stats
    }

    /// True iff a request is in flight.
    pub fn is_blocked(&self) -> bool {
        self.outstanding.is_some()
    }

    /// The next sequence number this decider will spend — the watermark a
    /// restart hands to [`with_seq_floor`](LocalDecider::with_seq_floor).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Would a grant for `seq` be discarded as stale (pre-crash epoch or
    /// below the applied-seq window)? Hosts that account power in flight
    /// must book a stale grant's amount as lost, since `on_grant` will
    /// apply none of it.
    pub fn is_stale_grant(&self, seq: u64) -> bool {
        seq < self.seq_floor
    }

    /// Size of the applied-seq dedup list — bounded by
    /// [`APPLIED_SEQ_WINDOW`], proven in the memory-boundedness test.
    pub fn applied_seq_count(&self) -> usize {
        self.applied_seqs.len()
    }

    /// Has the non-zero grant for `seq` already been applied? True for
    /// seqs in the dedup list *or* below the floor (everything below the
    /// floor is treated as already paid). Hosts use this to recognise a
    /// redelivered grant *before* handing it to
    /// [`on_grant`](LocalDecider::on_grant), e.g. to avoid double-reporting
    /// a resolution the first delivery already reported.
    pub fn is_applied_seq(&self, seq: u64) -> bool {
        seq < self.seq_floor || self.applied_seqs.contains(&seq)
    }

    /// This decider's own incarnation counter: the persistent seq-epoch
    /// floor. Monotone within a life (the applied-seq window only ever
    /// advances it) and raised past the pre-crash `next_seq` watermark on
    /// every rebirth, so a digest carrying it is proof of how recently its
    /// sender was (re)alive.
    pub fn incarnation(&self) -> u64 {
        self.seq_floor
    }

    /// Earliest future time at which [`tick`](LocalDecider::tick) could do
    /// anything beyond counting one iteration and returning
    /// [`TickAction::Idle`] — or `None` when the very next tick may act.
    ///
    /// Two decider states are *quiescent*:
    ///
    /// * **Blocked, deadline pending** — a request is in flight and its
    ///   attempt-scaled timeout has not elapsed. Every tick strictly
    ///   before `sent_at + response_timeout · 2^attempt` takes the early
    ///   `Idle` return in [`tick`](LocalDecider::tick) without touching
    ///   any state, so the decider is quiescent until exactly that
    ///   deadline (the tick *at* the deadline retransmits or abandons).
    /// * **At the margin** — no request outstanding and
    ///   [`classify`]`(reading, cap, ε)` is
    ///   [`AtMargin`](Classification::AtMargin): Algorithm 1's strict
    ///   comparisons leave the node unclassified and the iteration is a
    ///   pure no-op, for as long as the reading holds —
    ///   [`SimTime::MAX`].
    ///
    /// A host eliding ticks across such a window must keep the lifetime
    /// counters truthful with
    /// [`note_elided_ticks`](LocalDecider::note_elided_ticks) and must
    /// re-evaluate quiescence on *any* other input (reading change, cap
    /// change, grant, incoming request, digest): quiescence is a
    /// statement about ticks under frozen inputs, nothing more. Excess
    /// and hungry classifications are never quiescent, and the
    /// margin case assumes tracing is off (the skipped `Classified`
    /// emissions are observable) — observer-bearing hosts must not elide.
    #[inline]
    pub(crate) fn quiescent_until(
        &self,
        ctx: &NodeCtx,
        now: SimTime,
        reading: Power,
    ) -> Option<SimTime> {
        let cfg = ctx.knobs();
        if let Some(out) = self.outstanding {
            let wait = cfg.response_timeout * (1u64 << out.attempt.min(16));
            let due = out.sent_at + wait;
            return (now < due).then_some(due);
        }
        (classify(reading, self.cap, cfg.epsilon) == Classification::AtMargin)
            .then_some(SimTime::MAX)
    }

    /// Account `n` ticks a host elided after proving them quiescent via
    /// `quiescent_until`. Each elided
    /// tick would have executed as a pure `Idle` iteration, so only the
    /// iteration counter moves — every other observable is untouched by
    /// construction.
    #[inline]
    pub fn note_elided_ticks(&mut self, n: u64) {
        self.stats.ticks += n;
    }

    /// One iteration of Algorithm 1.
    ///
    /// * `ctx` — the node's identity, knobs, safe range and event sink.
    /// * `now` — current virtual time.
    /// * `reading` — average power since the previous tick.
    /// * `pool` — the co-located power pool.
    /// * `peer` — a peer chosen uniformly at random by the host (or `None`
    ///   if no peer is reachable); consulted only if a request is needed.
    /// * `peers` — told of each elapsed wait on the outstanding request,
    ///   before the retransmit or abandonment it causes is narrated.
    pub fn tick(
        &mut self,
        ctx: &NodeCtx,
        now: SimTime,
        reading: Power,
        pool: &mut PowerPool,
        peer: Option<NodeId>,
        peers: &mut PeerTable,
    ) -> TickAction {
        let cfg = ctx.knobs();
        self.stats.ticks += 1;

        // A decider blocked on an in-flight request does not iterate; once
        // the (attempt-scaled) timeout passes the request is retransmitted
        // verbatim while attempts remain, then abandoned.
        if let Some(out) = self.outstanding {
            let wait = cfg.response_timeout * (1u64 << out.attempt.min(16));
            if now.saturating_since(out.sent_at) >= wait {
                // Every elapsed wait (retransmit or abandonment) is one
                // timeout signal against the peer the request went to.
                peers.note_timeout(ctx, now, out.dst);
                if out.attempt < cfg.max_retransmits {
                    self.outstanding = Some(Outstanding {
                        sent_at: now,
                        attempt: out.attempt + 1,
                        ..out
                    });
                    self.stats.retransmits += 1;
                    ctx.emit(now, || EventKind::RequestSent {
                        dst: out.dst,
                        urgent: out.urgent,
                        alpha: out.alpha,
                        seq: out.seq,
                    });
                    return TickAction::Request {
                        dst: out.dst,
                        urgent: out.urgent,
                        alpha: out.alpha,
                        seq: out.seq,
                    };
                }
                self.outstanding = None;
                self.stats.timeouts += 1;
                ctx.emit(now, || EventKind::RequestTimeout { seq: out.seq });
            } else {
                return TickAction::Idle;
            }
        }

        let classification = classify(reading, self.cap, cfg.epsilon);
        let cap_before = self.cap;
        ctx.emit(now, || EventKind::Classified {
            class: classification.as_trace(),
            reading,
            cap: cap_before,
        });
        let action = match classification {
            Classification::Excess => {
                // Δ = C − P; lower the cap *before* exposing the power.
                // The safe range floors the new cap; only what was actually
                // shed is deposited, keeping the exchange zero-sum. An
                // optional headroom parks the cap above the reading (never
                // above the current cap).
                let new_cap = (reading + cfg.shed_headroom)
                    .min(self.cap)
                    .max(ctx.cfg.node.safe_range.min());
                let freed = self.cap.saturating_sub(new_cap);
                self.cap = new_cap;
                pool.deposit(freed);
                self.stats.deposited += freed;
                let pool_after = pool.available();
                ctx.emit(now, || EventKind::PoolDeposit {
                    amount: freed,
                    pool: pool_after,
                });
                TickAction::Deposited(freed)
            }
            Classification::Hungry => {
                if !pool.available().is_zero() {
                    // Local pool first: Δ = min(Pool, getMaxSize(Pool)).
                    let delta = pool.take_local();
                    let pool_after = pool.available();
                    ctx.emit(now, || EventKind::PoolWithdraw {
                        amount: delta,
                        pool: pool_after,
                    });
                    let applied = self.raise_cap(ctx, now, delta, pool);
                    TickAction::TookLocal(applied)
                } else if let Some(dst) = peer {
                    // Urgent iff below the initial cap; α only rides on
                    // urgent requests.
                    let urgent = cfg.enable_urgency && self.cap < self.initial_cap;
                    let alpha = if urgent {
                        self.initial_cap - self.cap
                    } else {
                        Power::ZERO
                    };
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.outstanding = Some(Outstanding {
                        seq,
                        sent_at: now,
                        dst,
                        urgent,
                        alpha,
                        attempt: 0,
                    });
                    self.stats.requests_sent += 1;
                    if urgent {
                        self.stats.urgent_sent += 1;
                    }
                    ctx.emit(now, || EventKind::RequestSent {
                        dst,
                        urgent,
                        alpha,
                        seq,
                    });
                    TickAction::Request {
                        dst,
                        urgent,
                        alpha,
                        seq,
                    }
                } else {
                    TickAction::Idle
                }
            }
            Classification::AtMargin => TickAction::Idle,
        };

        self.finish_iteration(ctx, now, classification, pool);
        action
    }

    /// Deliver a pool's grant. Returns the amount applied to the cap; any
    /// surplus beyond the safe maximum is re-deposited locally so no budget
    /// leaks. Grants arriving after the timeout are still honoured (the
    /// power was already debited from the sender's pool).
    ///
    /// Idempotent per `seq`: a lossy transport can deliver the same
    /// non-zero grant twice (the granter re-sends its escrowed amount when
    /// a retransmitted request races the original grant); the redelivery is
    /// discarded and contributes nothing, so one debit can never pay twice.
    pub fn on_grant(
        &mut self,
        ctx: &NodeCtx,
        now: SimTime,
        seq: u64,
        amount: Power,
        pool: &mut PowerPool,
    ) -> Power {
        if seq < self.seq_floor {
            // Stale epoch: a pre-crash grant addressed to this node's dead
            // predecessor, or a redelivery older than the applied window.
            // Either way the seq is treated as already paid; the host books
            // the amount as lost (see `is_stale_grant`).
            self.stats.stale_discards += 1;
            return Power::ZERO;
        }
        if !amount.is_zero() {
            if self.applied_seqs.contains(&seq) {
                return Power::ZERO; // duplicate redelivery; already paid
            }
            self.applied_seqs.push(seq);
            // Low-watermark prune: everything below the window is rejected
            // by the floor check above, so remembering it exactly is
            // redundant — the list stays O(window), not O(lifetime).
            let floor = self.next_seq.saturating_sub(APPLIED_SEQ_WINDOW);
            if floor > self.seq_floor {
                self.seq_floor = floor;
                self.applied_seqs.retain(|&s| s >= floor);
            }
        }
        if let Some(out) = self.outstanding {
            if out.seq == seq {
                self.outstanding = None;
            }
        }
        self.stats.granted += amount;
        let applied = self.raise_cap(ctx, now, amount, pool);
        ctx.emit(now, || EventKind::GrantApplied {
            seq,
            granted: amount,
            applied,
        });
        applied
    }

    /// Raise the cap by `delta`, clamped to the safe maximum; overflow goes
    /// back into the local pool.
    fn raise_cap(
        &mut self,
        ctx: &NodeCtx,
        now: SimTime,
        delta: Power,
        pool: &mut PowerPool,
    ) -> Power {
        let new_cap = (self.cap + delta).min(ctx.cfg.node.safe_range.max());
        let applied = new_cap - self.cap;
        let overflow = delta - applied;
        self.cap = new_cap;
        if !overflow.is_zero() {
            pool.deposit(overflow);
            let pool_after = pool.available();
            ctx.emit(now, || EventKind::PoolDeposit {
                amount: overflow,
                pool: pool_after,
            });
        }
        applied
    }

    /// Algorithm 1's final step: if the co-located pool served an urgent
    /// request, release power down to the initial cap — unless this node is
    /// itself urgent, in which case the flag persists until it is not.
    fn finish_iteration(
        &mut self,
        ctx: &NodeCtx,
        now: SimTime,
        classification: Classification,
        pool: &mut PowerPool,
    ) {
        if !pool.local_urgency() {
            return;
        }
        let self_urgent = classification == Classification::Hungry && self.cap < self.initial_cap;
        if self_urgent {
            return;
        }
        let _ = pool.consume_local_urgency();
        let mut released = Power::ZERO;
        if self.cap > self.initial_cap {
            let delta = self.cap - self.initial_cap;
            self.cap = self.initial_cap;
            pool.deposit(delta);
            self.stats.urgency_released += delta;
            released = delta;
            let pool_after = pool.available();
            ctx.emit(now, || EventKind::PoolDeposit {
                amount: delta,
                pool: pool_after,
            });
        }
        ctx.emit(now, || EventKind::UrgencyCleared { released });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeciderConfig;
    use crate::discovery::rig::Rig;
    use penelope_testkit::prop::{self, vec_of};
    use penelope_units::{PowerRange, SimDuration};

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn mw(x: u64) -> Power {
        Power::from_milliwatts(x)
    }

    fn safe() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    fn decider(initial_w: u64) -> Rig {
        Rig::new(DeciderConfig::default(), w(initial_w), safe())
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn classify_matches_algorithm_one() {
        let eps = w(5);
        assert_eq!(classify(w(100), w(150), eps), Classification::Excess);
        assert_eq!(classify(w(146), w(150), eps), Classification::Hungry);
        assert_eq!(classify(w(150), w(150), eps), Classification::Hungry);
        assert_eq!(classify(w(145), w(150), eps), Classification::AtMargin);
    }

    #[test]
    fn classify_handles_epsilon_larger_than_cap() {
        // ε > C: P + ε > C for any P ≥ 0 unless... P + ε can equal C only
        // if ε ≤ C. Here every reading is hungry.
        assert_eq!(classify(Power::ZERO, w(3), w(5)), Classification::Hungry);
    }

    #[test]
    fn quiescent_at_margin_is_open_ended_and_tick_agrees() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let margin = w(150) - d.config().epsilon;
        assert_eq!(d.quiescent_until(t(1), margin), Some(SimTime::MAX));
        // The vouched-for tick really is a pure Idle no-op.
        let before = d.stats();
        assert_eq!(
            d.tick(t(1), margin, &mut p, Some(NodeId::new(3))),
            TickAction::Idle
        );
        assert_eq!(d.cap(), w(150));
        assert_eq!(p.available(), Power::ZERO);
        assert_eq!(d.stats().ticks, before.ticks + 1);
        assert_eq!(d.stats().requests_sent, before.requests_sent);
        // Off the margin, quiescence ends immediately.
        assert_eq!(d.quiescent_until(t(1), w(100)), None);
        assert_eq!(d.quiescent_until(t(1), w(150)), None);
    }

    #[test]
    fn quiescent_while_blocked_ends_exactly_at_the_retransmit_deadline() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        // Go hungry with an empty pool: a request goes out at t=1.
        assert!(matches!(
            d.tick(t(1), w(150), &mut p, Some(NodeId::new(4))),
            TickAction::Request { .. }
        ));
        let due = t(1) + d.config().response_timeout;
        assert_eq!(d.quiescent_until(t(1), w(150)), Some(due));
        let just_before = due - SimDuration::from_nanos(1);
        assert_eq!(d.quiescent_until(just_before, w(150)), Some(due));
        // At the deadline the tick acts (retransmit/abandon): not quiescent.
        assert_eq!(d.quiescent_until(due, w(150)), None);
        // Eliding the in-window ticks matches really executing them:
        // each is a counted Idle.
        let mut ticked = d.clone();
        for step in 1..=3u64 {
            let at = t(1) + SimDuration::from_millis(step);
            assert!(at < due, "steps stay inside the window");
            assert_eq!(
                ticked.tick(at, w(150), &mut p, Some(NodeId::new(4))),
                TickAction::Idle
            );
        }
        d.note_elided_ticks(3);
        assert_eq!(d.stats(), ticked.stats());
        assert_eq!(d.cap(), ticked.cap());
        assert_eq!(d.is_blocked(), ticked.is_blocked());
    }

    #[test]
    fn excess_lowers_cap_to_reading_and_deposits() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let action = d.tick(t(1), w(100), &mut p, None);
        assert_eq!(action, TickAction::Deposited(w(50)));
        assert_eq!(d.cap(), w(100));
        assert_eq!(p.available(), w(50));
    }

    #[test]
    fn excess_respects_safe_floor() {
        let mut d = decider(100);
        let mut p = PowerPool::default();
        // Reading 20 W but safe floor is 80 W: cap stops at 80, only 20 W freed.
        let action = d.tick(t(1), w(20), &mut p, None);
        assert_eq!(action, TickAction::Deposited(w(20)));
        assert_eq!(d.cap(), w(80));
        assert_eq!(p.available(), w(20));
    }

    #[test]
    fn hungry_takes_from_local_pool_first() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        p.deposit(w(200));
        let action = d.tick(t(1), w(148), &mut p, Some(NodeId::new(9)));
        // 10% of 200 = 20 W taken locally; no network request.
        assert_eq!(action, TickAction::TookLocal(w(20)));
        assert_eq!(d.cap(), w(170));
        assert_eq!(p.available(), w(180));
    }

    #[test]
    fn hungry_with_empty_pool_sends_request() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let action = d.tick(t(1), w(149), &mut p, Some(NodeId::new(4)));
        match action {
            TickAction::Request {
                dst,
                urgent,
                alpha,
                seq,
            } => {
                assert_eq!(dst, NodeId::new(4));
                assert!(!urgent); // at initial cap, not below it
                assert_eq!(alpha, Power::ZERO);
                assert_eq!(seq, 0);
            }
            other => panic!("expected request, got {other:?}"),
        }
        assert!(d.is_blocked());
    }

    #[test]
    fn below_initial_request_is_urgent_with_alpha() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        // Drop the cap via an excess tick.
        let _ = d.tick(t(1), w(100), &mut p, None);
        p.drain(); // pretend another node took the excess
        let action = d.tick(t(2), w(100), &mut p, Some(NodeId::new(2)));
        match action {
            TickAction::Request { urgent, alpha, .. } => {
                assert!(urgent);
                assert_eq!(alpha, w(50)); // 150 − 100
            }
            other => panic!("expected urgent request, got {other:?}"),
        }
    }

    #[test]
    fn hungry_with_no_peer_is_idle() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        assert_eq!(d.tick(t(1), w(150), &mut p, None), TickAction::Idle);
        assert!(!d.is_blocked());
    }

    #[test]
    fn at_margin_is_idle() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        assert_eq!(d.tick(t(1), w(145), &mut p, None), TickAction::Idle);
        assert_eq!(d.cap(), w(150));
    }

    #[test]
    fn blocked_decider_skips_iterations_until_timeout() {
        let cfg = DeciderConfig {
            response_timeout: SimDuration::from_secs(2),
            ..Default::default()
        };
        let mut d = Rig::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let _ = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)));
        assert!(d.is_blocked());
        // One second later: still blocked.
        assert_eq!(
            d.tick(t(2), w(150), &mut p, Some(NodeId::new(1))),
            TickAction::Idle
        );
        // Two more seconds: timeout expired; decider resumes and re-requests.
        let action = d.tick(t(3), w(150), &mut p, Some(NodeId::new(2)));
        assert!(
            matches!(action, TickAction::Request { seq: 1, .. }),
            "{action:?}"
        );
        assert_eq!(d.stats().timeouts, 1);
    }

    #[test]
    fn grant_raises_cap_and_unblocks() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        let applied = d.on_grant(t(2), seq, w(20), &mut p);
        assert_eq!(applied, w(20));
        assert_eq!(d.cap(), w(170));
        assert!(!d.is_blocked());
    }

    #[test]
    fn zero_grant_unblocks_without_cap_change() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        assert_eq!(d.on_grant(t(2), seq, Power::ZERO, &mut p), Power::ZERO);
        assert_eq!(d.cap(), w(150));
        assert!(!d.is_blocked());
    }

    #[test]
    fn grant_overflow_beyond_safe_max_is_redeposited() {
        let mut d = decider(290);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(290), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        let applied = d.on_grant(t(2), seq, w(30), &mut p);
        assert_eq!(applied, w(10)); // 290 → 300 (safe max)
        assert_eq!(d.cap(), w(300));
        assert_eq!(p.available(), w(20)); // surplus conserved locally
    }

    #[test]
    fn late_grant_after_timeout_still_applied() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        // Timeout passes; decider re-iterates.
        let _ = d.tick(t(3), w(100), &mut p, None);
        let cap_before = d.cap();
        let applied = d.on_grant(t(4), seq, w(7), &mut p);
        assert_eq!(applied, w(7));
        assert_eq!(d.cap(), cap_before + w(7));
    }

    #[test]
    fn timed_out_request_is_retransmitted_with_backoff() {
        let cfg = DeciderConfig {
            max_retransmits: 2,
            ..Default::default()
        };
        let mut d = Rig::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let TickAction::Request { seq, dst, .. } =
            d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        assert_eq!(seq, 0);
        // First timeout (1 s): retransmit, same seq, same dst.
        let a = d.tick(t(2), w(150), &mut p, Some(NodeId::new(7)));
        assert_eq!(
            a,
            TickAction::Request {
                dst,
                urgent: false,
                alpha: Power::ZERO,
                seq: 0
            },
            "retransmit must reuse the original seq and dst"
        );
        // Backoff doubled: one second later it is still waiting...
        assert_eq!(d.tick(t(3), w(150), &mut p, None), TickAction::Idle);
        // ...but two seconds after the retransmit it fires again.
        let a = d.tick(t(4), w(150), &mut p, None);
        assert!(matches!(a, TickAction::Request { seq: 0, .. }), "{a:?}");
        // Attempts exhausted: 4 s of backoff, then a plain timeout and a
        // fresh request with the next seq.
        assert_eq!(d.tick(t(6), w(150), &mut p, None), TickAction::Idle);
        let a = d.tick(t(8), w(150), &mut p, Some(NodeId::new(1)));
        assert!(matches!(a, TickAction::Request { seq: 1, .. }), "{a:?}");
        let s = d.stats();
        assert_eq!(s.retransmits, 2);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.requests_sent, 2, "retransmits are not new requests");
    }

    #[test]
    fn duplicate_nonzero_grant_is_discarded() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        assert_eq!(d.on_grant(t(2), seq, w(20), &mut p), w(20));
        let cap = d.cap();
        let granted = d.stats().granted;
        // The transport redelivers the same grant: nothing may change.
        assert_eq!(d.on_grant(t(3), seq, w(20), &mut p), Power::ZERO);
        assert_eq!(d.cap(), cap);
        assert_eq!(p.available(), Power::ZERO);
        assert_eq!(d.stats().granted, granted);
    }

    #[test]
    fn zero_grants_are_not_deduplicated() {
        // A zero "reminder" grant unblocks without marking the seq as paid,
        // so the real (late) grant still applies — the late-grant guarantee
        // survives the idempotence layer.
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        assert_eq!(d.on_grant(t(2), seq, Power::ZERO, &mut p), Power::ZERO);
        assert!(!d.is_blocked());
        assert_eq!(d.on_grant(t(3), seq, w(9), &mut p), w(9));
        assert_eq!(d.cap(), w(159));
    }

    #[test]
    fn local_urgency_triggers_release_to_initial() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        // Raise the cap above initial via a local take.
        p.deposit(w(300));
        let _ = d.tick(t(1), w(150), &mut p, None); // takes 30 W → cap 180
        assert_eq!(d.cap(), w(180));
        // A peer's urgent request hits our pool.
        let _ = p.handle_request(true, w(50));
        // Next iteration at the margin (reading = cap − ε = 175): the node
        // is not itself urgent → must release down to 150.
        let before_pool = p.available();
        let _ = d.tick(t(2), w(175), &mut p, None);
        assert_eq!(d.cap(), w(150));
        assert_eq!(p.available(), before_pool + w(30));
        assert_eq!(d.stats().urgency_released, w(30));
        assert!(!p.local_urgency());
    }

    #[test]
    fn urgent_node_does_not_release_and_flag_persists() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        // Cap below initial: excess tick down to 100 W.
        let _ = d.tick(t(1), w(100), &mut p, None);
        p.drain();
        // Peer urgent request sets our flag.
        let _ = p.handle_request(true, w(10));
        // We are hungry below initial (urgent ourselves): no release.
        let action = d.tick(t(2), w(100), &mut p, Some(NodeId::new(1)));
        assert!(matches!(action, TickAction::Request { urgent: true, .. }));
        assert_eq!(d.cap(), w(100));
        assert!(p.local_urgency(), "flag persists while self-urgent");
    }

    #[test]
    fn release_noop_when_at_or_below_initial_clears_flag() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let _ = p.handle_request(true, w(10)); // sets flag, pool empty
        let _ = d.tick(t(1), w(145), &mut p, None); // at margin, cap == initial
        assert_eq!(d.cap(), w(150));
        assert!(
            !p.local_urgency(),
            "flag cleared even though nothing to release"
        );
    }

    #[test]
    fn initial_cap_clamped_to_safe_range() {
        let d = Rig::new(DeciderConfig::default(), w(999), safe());
        assert_eq!(d.cap(), w(300));
        assert_eq!(d.d.initial_cap, w(300));
        let d = Rig::new(DeciderConfig::default(), w(1), safe());
        assert_eq!(d.d.initial_cap, w(80));
    }

    #[test]
    fn stats_accumulate() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let _ = d.tick(t(1), w(100), &mut p, None); // deposit 50 → cap 100
        let _ = d.tick(t(2), w(100), &mut p, Some(NodeId::new(1))); // hungry: local take (5 W) → cap 105
        p.drain();
        let a = d.tick(t(3), w(102), &mut p, Some(NodeId::new(1))); // hungry below initial → urgent request
        assert!(matches!(a, TickAction::Request { urgent: true, .. }));
        let s = d.stats();
        assert_eq!(s.ticks, 3);
        assert_eq!(s.deposited, w(50));
        assert_eq!(s.requests_sent, 1);
        assert_eq!(s.urgent_sent, 1);
    }

    #[test]
    fn observer_sees_the_full_iteration_narrative() {
        use penelope_trace::{EventKind, NodeClass, RingBufferObserver};
        use std::sync::Arc;

        let ring = Arc::new(RingBufferObserver::unbounded());
        let mut d = decider(150).with_observer(NodeId::new(3), ring.clone().into());
        let mut p = PowerPool::default();

        // Excess tick: classified + deposit.
        let _ = d.tick(t(1), w(100), &mut p, None);
        // Hungry tick with empty-ish pool drained: request sent.
        p.drain();
        let TickAction::Request { seq, .. } = d.tick(t(2), w(100), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        // Grant applied.
        let _ = d.on_grant(t(3), seq, w(20), &mut p);

        let events = ring.events();
        assert!(events.iter().all(|e| e.node == NodeId::new(3)));
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert!(matches!(
            kinds[0],
            EventKind::Classified {
                class: NodeClass::Excess,
                ..
            }
        ));
        assert!(matches!(kinds[1], EventKind::PoolDeposit { amount, .. } if amount == w(50)));
        assert!(matches!(
            kinds[2],
            EventKind::Classified {
                class: NodeClass::Hungry,
                ..
            }
        ));
        assert!(matches!(
            kinds[3],
            EventKind::RequestSent { urgent: true, .. }
        ));
        assert!(
            matches!(kinds[4], EventKind::GrantApplied { granted, applied, .. }
                if granted == w(20) && applied == w(20))
        );
        // Period stamps follow the 1 s default period.
        assert_eq!(events[0].period, 1);
        assert_eq!(events[4].period, 3);
    }

    #[test]
    fn observer_sees_timeout_and_urgency_clear() {
        use penelope_trace::{EventKind, RingBufferObserver};
        use std::sync::Arc;

        let ring = Arc::new(RingBufferObserver::unbounded());
        let mut d = decider(150).with_observer(NodeId::new(0), ring.clone().into());
        let mut p = PowerPool::default();
        let _ = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1))); // request
        let _ = d.tick(t(3), w(145), &mut p, None); // timeout fires, then at-margin
        assert!(ring
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::RequestTimeout { seq: 0 })));

        // Urgency release: raise cap above initial, then a peer's urgent
        // request sets the flag; the release emits deposit + cleared.
        ring.take();
        p.deposit(w(300));
        let _ = d.tick(t(4), w(146), &mut p, None); // hungry: local take → cap 180
        let _ = p.handle_request(true, w(50));
        let _ = d.tick(t(5), w(175), &mut p, None); // at margin → release to 150
        let events = ring.events();
        let released: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::UrgencyCleared { released } => Some(released),
                _ => None,
            })
            .collect();
        assert_eq!(released, vec![w(30)]);
    }

    #[test]
    fn cap_plus_pool_conserved_locally() {
        // A closed single-node system where grants come from a budget
        // ledger: cap + pool + ledger + in-flight is invariant and the cap
        // stays in the safe range. Each op is a tick (tag 0) at a reading
        // in milliwatts, or the delivery of the newest pending grant.
        prop::check(
            "cap_plus_pool_conserved_locally",
            prop::Config::default(),
            vec_of((0u8..2, 0u64..400_000u64), 1..300),
            |ops| {
                let mut d = decider(150);
                let mut p = PowerPool::default();
                let mut ledger = Power::from_watts_u64(10_000);
                let invariant = d.cap() + p.available() + ledger;
                let mut now = 0u64;
                let mut pending: Vec<(u64, Power)> = Vec::new();
                for (tag, reading_mw) in ops {
                    now += 1;
                    if tag == 0 {
                        let action = d.tick(
                            SimTime::from_secs(now),
                            mw(reading_mw),
                            &mut p,
                            Some(NodeId::new(1)),
                        );
                        if let TickAction::Request {
                            seq, urgent, alpha, ..
                        } = action
                        {
                            // Serve from the ledger like a remote pool would.
                            let give = if urgent {
                                ledger.min(alpha)
                            } else {
                                ledger.min(w(3))
                            };
                            ledger -= give;
                            pending.push((seq, give));
                        }
                    } else if let Some((seq, give)) = pending.pop() {
                        let _ = d.on_grant(SimTime::from_secs(now), seq, give, &mut p);
                    }
                    let in_flight: Power = pending.iter().map(|&(_, g)| g).sum();
                    assert_eq!(d.cap() + p.available() + ledger + in_flight, invariant);
                    assert!(safe().contains(d.cap()));
                }
            },
        );
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;
    use crate::config::DeciderConfig;
    use crate::discovery::rig::Rig;
    use penelope_units::{PowerRange, SimDuration};

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn safe() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn seq_floor_discards_stale_grants_without_paying() {
        let mut d = Rig::new(DeciderConfig::default(), w(150), safe()).with_seq_floor(10);
        let mut p = PowerPool::default();
        assert!(d.is_stale_grant(9));
        assert!(!d.is_stale_grant(10));
        let cap = d.cap();
        assert_eq!(d.on_grant(t(1), 9, w(25), &mut p), Power::ZERO);
        assert_eq!(d.cap(), cap);
        assert_eq!(p.available(), Power::ZERO);
        assert_eq!(d.stats().stale_discards, 1);
        assert_eq!(d.stats().granted, Power::ZERO);
        // The namespace continues above the floor: the first fresh request
        // spends seq 10, which its grant matches normally.
        let a = d.tick(t(2), w(150), &mut p, Some(NodeId::new(1)));
        assert!(matches!(a, TickAction::Request { seq: 10, .. }), "{a:?}");
        assert_eq!(d.on_grant(t(3), 10, w(5), &mut p), w(5));
    }

    #[test]
    fn applied_seqs_stay_bounded_over_many_grants() {
        // Satellite regression: the dedup set is O(window), not
        // O(lifetime requests). Drive far more grant cycles than the
        // window and watch the set stay small while dedup still works.
        let mut d = Rig::new(DeciderConfig::default(), w(150), safe());
        let mut p = PowerPool::default();
        for i in 0..(APPLIED_SEQ_WINDOW * 160) {
            let now = SimTime::from_secs(2 * i + 1);
            // Reading pinned at the safe max keeps the node power-hungry
            // (within ε of its cap) no matter how far grants raise it.
            let a = d.tick(now, w(300), &mut p, Some(NodeId::new(1)));
            let TickAction::Request { seq, .. } = a else {
                panic!("expected request at iteration {i}, got {a:?}")
            };
            let granted = d.on_grant(now + SimDuration::from_millis(5), seq, w(1), &mut p);
            // Cap saturates at the safe max; the overflow goes to the
            // pool, so the grant is always "applied" from dedup's view.
            assert!(granted <= w(1));
            // A redelivery of the same seq must still be rejected.
            assert_eq!(
                d.on_grant(now + SimDuration::from_millis(6), seq, w(1), &mut p),
                Power::ZERO
            );
            assert!(
                d.applied_seq_count() as u64 <= APPLIED_SEQ_WINDOW,
                "dedup set grew to {} entries after {} grants",
                d.applied_seq_count(),
                i + 1
            );
            // Shed everything back so the node stays hungry.
            p.drain();
        }
        assert_eq!(d.stats().stale_discards, 0, "no in-window grant was stale");
    }

    #[test]
    fn grants_below_the_pruned_window_are_rejected_not_forgotten() {
        // The prune must advance the *floor*, not merely forget entries:
        // a redelivery from below the window would otherwise double-pay.
        let mut d = Rig::new(DeciderConfig::default(), w(100), safe());
        let mut p = PowerPool::default();
        let mut first_seq = None;
        for i in 0..(APPLIED_SEQ_WINDOW + 8) {
            let now = SimTime::from_secs(2 * i + 1);
            let TickAction::Request { seq, .. } = d.tick(now, w(300), &mut p, Some(NodeId::new(1)))
            else {
                panic!("expected request")
            };
            first_seq.get_or_insert(seq);
            let _ = d.on_grant(now + SimDuration::from_millis(5), seq, w(1), &mut p);
            p.drain();
        }
        let stale = first_seq.unwrap();
        assert!(d.is_stale_grant(stale), "first seq fell below the window");
        let cap = d.cap();
        assert_eq!(d.on_grant(t(10_000), stale, w(50), &mut p), Power::ZERO);
        assert_eq!(d.cap(), cap);
        assert!(d.stats().stale_discards >= 1);
    }
}

#[cfg(test)]
mod shed_headroom_tests {
    use super::*;
    use crate::config::DeciderConfig;
    use crate::discovery::rig::Rig;
    use penelope_units::{PowerRange, SimDuration};

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    #[test]
    fn headroom_parks_node_at_margin() {
        // With shed_headroom = ε, an excess node lands exactly at the
        // margin: next tick with the same reading classifies AtMargin, so
        // it neither churns its own pool nor sends requests.
        let cfg = DeciderConfig {
            shed_headroom: w(5), // == default ε
            ..Default::default()
        };
        let mut d = Rig::new(cfg, w(160), PowerRange::from_watts(80, 300));
        let mut p = PowerPool::default();
        let a1 = d.tick(SimTime::from_secs(1), w(100), &mut p, None);
        assert_eq!(a1, TickAction::Deposited(w(55))); // 160 - (100+5)
        assert_eq!(d.cap(), w(105));
        let a2 = d.tick(SimTime::from_secs(2), w(100), &mut p, None);
        assert_eq!(a2, TickAction::Idle, "node should rest at the margin");
        assert_eq!(d.cap(), w(105));
    }

    #[test]
    fn zero_headroom_reproduces_algorithm_one() {
        // The paper's verbatim behaviour: C = P, and the node is then
        // power-hungry (P > C − ε), dipping into its own pool.
        let mut d = Rig::new(
            DeciderConfig::default(),
            w(160),
            PowerRange::from_watts(80, 300),
        );
        let mut p = PowerPool::default();
        let _ = d.tick(SimTime::from_secs(1), w(100), &mut p, None);
        assert_eq!(d.cap(), w(100));
        let a = d.tick(SimTime::from_secs(2), w(100), &mut p, None);
        assert!(matches!(a, TickAction::TookLocal(_)), "{a:?}");
    }

    #[test]
    fn headroom_never_raises_cap() {
        // Excess with a huge headroom cannot push the cap above its
        // current value.
        let cfg = DeciderConfig {
            shed_headroom: w(500),
            ..Default::default()
        };
        let mut d = Rig::new(cfg, w(160), PowerRange::from_watts(80, 300));
        let mut p = PowerPool::default();
        let a = d.tick(SimTime::from_secs(1), w(100), &mut p, None);
        assert_eq!(a, TickAction::Deposited(Power::ZERO));
        assert_eq!(d.cap(), w(160));
    }

    #[test]
    fn urgency_disabled_sends_plain_requests() {
        let cfg = DeciderConfig {
            enable_urgency: false,
            response_timeout: SimDuration::from_secs(1),
            ..Default::default()
        };
        let mut d = Rig::new(cfg, w(160), PowerRange::from_watts(80, 300));
        let mut p = PowerPool::default();
        let _ = d.tick(SimTime::from_secs(1), w(100), &mut p, None); // cap → 100
        p.drain();
        let a = d.tick(SimTime::from_secs(2), w(100), &mut p, Some(NodeId::new(1)));
        match a {
            TickAction::Request { urgent, alpha, .. } => {
                assert!(!urgent, "urgency disabled but request was urgent");
                assert_eq!(alpha, Power::ZERO);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }
}
