//! Engine-seam transcript tests: scripted [`EngineInput`] sequences fed
//! to [`NodeEngine::handle`], asserting the *exact* [`EngineOutput`]
//! transcript at every step. These pin the sans-IO contract itself —
//! which effects the drivers must execute, in which order — so a change
//! that silently reorders or drops an output fails here before any
//! substrate-level conformance suite has to diagnose it.

use std::sync::Arc;

use penelope_core::{
    EngineConfig, EngineInput, EngineOutput, GrantAck, NodeEngine, NodeParams, PeerMsg, PowerGrant,
    PowerRequest,
};
use penelope_testkit::TestRng;
use penelope_trace::{EventKind, RingBufferObserver, SharedObserver};
use penelope_units::{NodeId, Power, SimTime};

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// A two-node engine with default parameters and a 150 W assignment.
fn engine() -> NodeEngine {
    NodeEngine::new(
        n(0),
        2,
        EngineConfig::new(NodeParams::default()),
        w(150),
        SharedObserver::noop(),
    )
}

/// Drive one input and return the outputs it appended.
fn step(e: &mut NodeEngine, now: SimTime, input: EngineInput) -> Vec<EngineOutput> {
    let mut rng = TestRng::seed_from_u64(7);
    let mut out = Vec::new();
    e.handle(now, input, &mut rng, &mut out);
    out
}

fn request(from: u32, urgent: bool, alpha: u64, seq: u64) -> EngineInput {
    EngineInput::Msg {
        src: n(from),
        msg: PeerMsg::Request(PowerRequest {
            from: n(from),
            urgent,
            alpha: w(alpha),
            seq,
        }),
    }
}

fn grant_msg(src: u32, amount: u64, seq: u64) -> EngineInput {
    EngineInput::Msg {
        src: n(src),
        msg: PeerMsg::Grant(
            PowerGrant {
                amount: w(amount),
                seq,
            },
            None,
        ),
    }
}

#[test]
fn serving_a_request_emits_one_grant_then_escrows_on_outcome() {
    let mut e = engine();
    e.pool_mut().deposit(w(40));

    // An urgent request for 25 W against a 40 W pool: exactly one
    // SendGrant, nothing else — the escrow timer only appears after the
    // driver reports the delivery outcome.
    let out = step(&mut e, t(1), request(1, true, 25, 0));
    assert_eq!(
        out,
        vec![EngineOutput::SendGrant {
            dst: n(1),
            msg: PeerMsg::Grant(
                PowerGrant {
                    amount: w(25),
                    seq: 0
                },
                None
            ),
            amount: w(25),
            seq: 0,
        }]
    );
    assert_eq!(
        e.pool().available(),
        w(15),
        "grant must debit the pool once"
    );

    // The synchronous feedback arms the escrow timer at now + the
    // documented timeout (2 × response_timeout + period = 3 s here).
    let out = step(
        &mut e,
        t(1),
        EngineInput::GrantOutcome {
            requester: n(1),
            seq: 0,
            amount: w(25),
            delivered: true,
        },
    );
    assert_eq!(
        out,
        vec![EngineOutput::SetEscrowTimer {
            requester: n(1),
            seq: 0,
            at: t(4),
        }]
    );
    assert_eq!(e.escrow_len(), 1);
}

#[test]
fn back_to_back_urgent_requests_raise_urgency_once() {
    // Algorithm 2 *assigns* `localUrgency`: a second urgent request finds
    // the flag already up, so only the first one raises it, and the
    // stream's raise/clear pairs stay alternating.
    let ring = Arc::new(RingBufferObserver::unbounded());
    let mut e = NodeEngine::new(
        n(0),
        3,
        EngineConfig::new(NodeParams::default()),
        w(150),
        ring.clone().into(),
    );
    e.pool_mut().deposit(w(40));
    step(&mut e, t(1), request(1, true, 10, 1));
    step(&mut e, t(1), request(2, true, 10, 1));
    let kinds: Vec<EventKind> = ring.events().iter().map(|ev| ev.kind).collect();
    let served = kinds
        .iter()
        .filter(|k| matches!(k, EventKind::RequestServed { urgent: true, .. }))
        .count();
    let raised = kinds
        .iter()
        .filter(|k| matches!(k, EventKind::UrgencyRaised { .. }))
        .count();
    assert_eq!((served, raised), (2, 1), "{kinds:?}");
}

#[test]
fn duplicate_requests_get_a_zero_reminder_never_a_second_debit() {
    let mut e = engine();
    e.pool_mut().deposit(w(40));
    let _ = step(&mut e, t(1), request(1, true, 25, 0));
    let _ = step(
        &mut e,
        t(1),
        EngineInput::GrantOutcome {
            requester: n(1),
            seq: 0,
            amount: w(25),
            delivered: true,
        },
    );

    // Retransmit of an already-delivered (awaiting-ack) request: a
    // zero-amount reminder Grant on the plain Send path — no SendGrant,
    // no pool debit, no new escrow entry.
    let out = step(&mut e, t(2), request(1, true, 25, 0));
    assert_eq!(
        out,
        vec![EngineOutput::Send {
            dst: n(1),
            msg: PeerMsg::Grant(
                PowerGrant {
                    amount: Power::ZERO,
                    seq: 0
                },
                None
            ),
            carried: Power::ZERO,
        }]
    );
    assert_eq!(e.pool().available(), w(15));
    assert_eq!(e.escrow_len(), 1);

    // The ack releases the escrow silently.
    let out = step(
        &mut e,
        t(2),
        EngineInput::Msg {
            src: n(1),
            msg: PeerMsg::Ack(GrantAck { seq: 0 }, None),
        },
    );
    assert_eq!(out, vec![]);
    assert_eq!(e.escrow_len(), 0);
}

#[test]
fn undelivered_grants_resend_in_full_and_expire_back_into_the_pool() {
    let mut e = engine();
    e.pool_mut().deposit(w(40));
    let _ = step(&mut e, t(1), request(1, true, 25, 0));
    let _ = step(
        &mut e,
        t(1),
        EngineInput::GrantOutcome {
            requester: n(1),
            seq: 0,
            amount: w(25),
            delivered: false,
        },
    );
    assert_eq!(e.escrowed_undelivered(), w(25));

    // A retransmitted request finds the known-dropped grant and re-sends
    // it in full (still the escrowed 25 W, not a fresh pool debit).
    let out = step(&mut e, t(2), request(1, true, 25, 0));
    assert_eq!(
        out,
        vec![EngineOutput::SendGrant {
            dst: n(1),
            msg: PeerMsg::Grant(
                PowerGrant {
                    amount: w(25),
                    seq: 0
                },
                None
            ),
            amount: w(25),
            seq: 0,
        }]
    );
    assert_eq!(e.pool().available(), w(15), "resend must not re-debit");
    let _ = step(
        &mut e,
        t(2),
        EngineInput::GrantOutcome {
            requester: n(1),
            seq: 0,
            amount: w(25),
            delivered: false,
        },
    );

    // A timer that fires before the (re-armed) deadline is a no-op.
    let out = step(
        &mut e,
        t(3),
        EngineInput::EscrowDeadline {
            requester: n(1),
            seq: 0,
        },
    );
    assert_eq!(out, vec![]);
    assert_eq!(e.escrow_len(), 1);

    // Past the deadline, a sweep re-credits the undelivered amount.
    let out = step(&mut e, t(10), EngineInput::SweepEscrow);
    assert_eq!(out, vec![]);
    assert_eq!(e.escrow_len(), 0);
    assert_eq!(
        e.pool().available(),
        w(40),
        "expired undelivered grant returns"
    );
}

#[test]
fn a_hungry_tick_requests_power_and_the_grant_resolves_it() {
    let mut e = engine();

    // Reading within ε of the cap, empty pool: the tick actuates the
    // unchanged cap and asks the only peer for power.
    let out = step(&mut e, t(1), EngineInput::Tick { reading: w(149) });
    assert_eq!(
        out,
        vec![
            EngineOutput::Actuate { cap: w(150) },
            EngineOutput::Send {
                dst: n(1),
                msg: PeerMsg::Request(PowerRequest {
                    from: n(0),
                    urgent: false,
                    alpha: Power::ZERO,
                    seq: 0,
                }),
                carried: Power::ZERO,
            },
        ]
    );
    assert!(e.is_blocked());

    // The grant raises the cap, resolves the round-trip and commits the
    // transfer with an ack — in exactly that order.
    let out = step(&mut e, t(2), grant_msg(1, 20, 0));
    assert_eq!(
        out,
        vec![
            EngineOutput::Actuate { cap: w(170) },
            EngineOutput::Resolved {
                seq: 0,
                amount: w(20)
            },
            EngineOutput::Send {
                dst: n(1),
                msg: PeerMsg::Ack(GrantAck { seq: 0 }, None),
                carried: Power::ZERO,
            },
        ]
    );
    assert!(!e.is_blocked());
    assert_eq!(e.cap(), w(170));
}

#[test]
fn a_zero_grant_resolves_without_an_ack() {
    let mut e = engine();
    let _ = step(&mut e, t(1), EngineInput::Tick { reading: w(149) });

    // Empty-handed reply: the round-trip resolves, nothing to acknowledge.
    let out = step(&mut e, t(2), grant_msg(1, 0, 0));
    assert_eq!(
        out,
        vec![
            EngineOutput::Actuate { cap: w(150) },
            EngineOutput::Resolved {
                seq: 0,
                amount: Power::ZERO
            },
        ]
    );
}

#[test]
fn stale_grants_are_discarded_as_lost_power() {
    // A node reborn with a seq floor of 5: a pre-crash grant (seq 2)
    // catching up with it must be booked as lost, not applied — and no
    // ack may leak back to the granter.
    let mut e = NodeEngine::new(
        n(0),
        2,
        EngineConfig::new(NodeParams::default()).with_seq_floor(5),
        w(150),
        SharedObserver::noop(),
    );
    let out = step(&mut e, t(1), grant_msg(1, 10, 2));
    assert_eq!(out, vec![EngineOutput::PowerLost { amount: w(10) }]);
    assert_eq!(e.cap(), w(150), "stale power must not raise the cap");
}
