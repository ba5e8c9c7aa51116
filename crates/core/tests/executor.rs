//! [`NodeEngine::step`] against the primitive it wraps: for the same
//! inputs, the effects it runs are exactly the outputs [`NodeEngine::handle`]
//! appends when a driver feeds the grant outcome back by hand — the loop
//! every substrate used to carry — and the engine ends in the same state.
//! The substrate suites pin the executor through real transports; this
//! pins it where it lives.

use penelope_core::{
    Effects, EngineConfig, EngineInput, EngineOutput, NodeEngine, NodeParams, PeerMsg, PowerRequest,
};
use penelope_testkit::TestRng;
use penelope_trace::SharedObserver;
use penelope_units::{NodeId, Power, SimTime};

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

/// Node 0 of two, 150 W assigned, 40 W pooled.
fn granter() -> NodeEngine {
    let mut e = NodeEngine::new(
        NodeId::new(0),
        2,
        EngineConfig::new(NodeParams::default()),
        w(150),
        SharedObserver::noop(),
    );
    e.pool_mut().deposit(w(40));
    e
}

fn urgent_request(seq: u64) -> EngineInput {
    let from = NodeId::new(1);
    EngineInput::Msg {
        src: from,
        msg: PeerMsg::Request(PowerRequest {
            from,
            urgent: true,
            alpha: w(25),
            seq,
        }),
    }
}

/// Records every effect as the output it came from; `carries` is the
/// transport's answer to every send.
struct Recorder {
    carries: bool,
    seen: Vec<EngineOutput>,
}

impl Effects<TestRng> for Recorder {
    fn send(
        &mut self,
        _: &mut TestRng,
        dst: NodeId,
        msg: PeerMsg,
        carried: Power,
        escrowed: bool,
    ) -> bool {
        self.seen.push(match (&msg, escrowed) {
            (PeerMsg::Grant(g, _), true) => EngineOutput::SendGrant {
                dst,
                amount: carried,
                seq: g.seq,
                msg,
            },
            _ => EngineOutput::Send { dst, msg, carried },
        });
        self.carries
    }

    fn actuate(&mut self, cap: Power) {
        self.seen.push(EngineOutput::Actuate { cap });
    }

    fn escrow_timer(&mut self, requester: NodeId, seq: u64, at: SimTime) {
        self.seen
            .push(EngineOutput::SetEscrowTimer { requester, seq, at });
    }

    fn power_lost(&mut self, amount: Power) {
        self.seen.push(EngineOutput::PowerLost { amount });
    }

    fn resolved(&mut self, seq: u64, amount: Power) {
        self.seen.push(EngineOutput::Resolved { seq, amount });
    }
}

/// The hand-written loop: `handle`, then a `GrantOutcome` for every
/// `SendGrant`, outputs collected in execution order.
fn by_hand(
    e: &mut NodeEngine,
    now: SimTime,
    input: EngineInput,
    carries: bool,
) -> Vec<EngineOutput> {
    let mut rng = TestRng::seed_from_u64(7);
    let mut out = Vec::new();
    e.handle(now, input, &mut rng, &mut out);
    let mut i = 0;
    while i < out.len() {
        if let EngineOutput::SendGrant {
            dst, amount, seq, ..
        } = out[i]
        {
            let outcome = EngineInput::GrantOutcome {
                requester: dst,
                seq,
                amount,
                delivered: carries,
            };
            e.handle(now, outcome, &mut rng, &mut out);
        }
        i += 1;
    }
    out
}

#[test]
fn step_runs_the_effects_handle_plus_hand_fed_feedback_would() {
    for carries in [true, false] {
        let (mut stepped, mut driven) = (granter(), granter());
        let mut rng = TestRng::seed_from_u64(7);
        let mut buf = Vec::new();
        // Serve, a retransmit of the same request, then a tick.
        let script = |k: u64| match k {
            0 | 1 => urgent_request(5),
            _ => EngineInput::Tick { reading: w(120) },
        };
        for k in 0..3 {
            let now = SimTime::from_secs(k);
            let mut fx = Recorder {
                carries,
                seen: Vec::new(),
            };
            let handled = stepped.step(now, script(k), &mut rng, &mut buf, &mut fx);
            assert!(buf.is_empty(), "step leaves the buffer empty for reuse");
            let expected = by_hand(&mut driven, now, script(k), carries);
            assert_eq!(fx.seen, expected, "input {k}, carries={carries}");
            let grants = expected
                .iter()
                .filter(|o| matches!(o, EngineOutput::SendGrant { .. }))
                .count() as u64;
            assert_eq!(handled, 1 + grants, "input {k}: one more per outcome fed");
        }
        assert_eq!(stepped.escrow_len(), 1);
        assert_eq!(stepped.escrow_len(), driven.escrow_len());
        assert_eq!(stepped.pool().available(), driven.pool().available());
        assert_eq!(stepped.cap(), driven.cap());
        // A grant the transport refused keeps its weight on the granter.
        let held = if carries { Power::ZERO } else { w(25) };
        assert_eq!(stepped.escrowed_undelivered(), held);
        assert_eq!(driven.escrowed_undelivered(), held);
    }
}
