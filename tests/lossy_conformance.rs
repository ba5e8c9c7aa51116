//! Conservation under sustained random message loss.
//!
//! These tests drive the grant escrow/ack reliability layer: every peer
//! message (request, grant, ack) is dropped with a fixed probability on
//! every link, no node dies, and the peer protocol must still account for
//! every milliwatt — a dropped grant is escrowed by the granter and
//! re-credited to its pool, never booked as `lost`.
//!
//! `assert_conformant` holds every run here to what loss must not break:
//! nothing is booked `lost` at any cut (no node dies), every cut and the
//! end state sum to the budget, the event stream debits each request
//! once and applies each grant once, and the fault plane really fired.
//! Loss-only runs are also held to a consistent cut at every period.

use penelope::conformance::{
    assert_conformant, lossy_scenario, lossy_wire_scenario, MultiplexedDaemon, Scenario,
    SimSubstrate, SUBSTRATES,
};
use penelope_trace::EventKind;

/// Drop rates (in permille) the sweep runs.
const DROP_RATES_PERMILLE: [u16; 3] = [50, 200, 500];

/// Holds `scenario` conformant on both legs; without wire delay, both
/// legs vouch for every cut, so zero-sum holds at every period.
fn conformant_on_both_legs(scenario: &Scenario) {
    for leg in SUBSTRATES {
        let run = assert_conformant(leg, scenario);
        let consistent = run.snapshots.iter().all(|cut| cut.consistent_cut);
        let (case, leg) = (&scenario.name, leg.name());
        assert!(
            consistent || scenario.jitter_ms > 0,
            "{case} on {leg}: inconsistent cut"
        );
    }
}

#[test]
fn drop_rate_sweep_loses_zero_peer_power_on_sim_and_daemon() {
    for drop_permille in DROP_RATES_PERMILLE {
        let seed = 0x5EED_1055 + u64::from(drop_permille);
        conformant_on_both_legs(&lossy_scenario(seed, drop_permille, 12));
    }
}

#[test]
fn long_run_at_20_percent_loss_conserves_every_period() {
    // The §4.2-length acceptance run: 40 decision periods at the paper's
    // evaluated 20 % drop rate, on both substrates.
    conformant_on_both_legs(&lossy_scenario(0x5EED_2042, 200, 40));
}

#[test]
fn daemon_wire_faults_duplicate_delay_and_still_conserve() {
    // 10 % loss, 15 % duplication and up to 5 ms of per-datagram delay,
    // so copies and slow originals overtake later sends. Duplicate grants
    // must be absorbed idempotently and duplicate requests must never
    // double-grant. Forty periods send enough that every wire leg is
    // expected to fire at least 20 times, so `NonVacuous` holds each of
    // the daemon's counters to firing.
    let scenario = lossy_wire_scenario(0x5EED_D0B1, 100, 150, 5, 40);
    let [_, daemon] = SUBSTRATES.map(|leg| assert_conformant(leg, &scenario));
    let (duplicated, delayed) = (daemon.duplicated, daemon.delayed);
    assert!(
        duplicated > Some(0) && delayed > Some(0),
        "duplicated {duplicated:?}, delayed {delayed:?}"
    );
}

#[test]
fn sim_runs_the_loss_leg_of_wire_faults() {
    // The simulator cannot reorder or duplicate, but it must still honor
    // the loss leg of a wire-fault scenario (held to firing by
    // `NonVacuous`), and say it counts no copies or delays rather than
    // report a fake zero.
    let scenario = lossy_wire_scenario(0x5EED_D0B2, 200, 150, 5, 40);
    let [sim, _] = SUBSTRATES.map(|leg| assert_conformant(leg, &scenario));
    assert_eq!((sim.duplicated, sim.delayed), (None, None));
}

#[test]
fn lossy_sim_actually_drops_and_escrows() {
    // At 50 % loss the trace must show real escrow activity, and at
    // least one grant reclaimed after its retransmit window also went
    // dark; that it shows real drops is `assert_conformant`'s.
    let scenario = lossy_scenario(0x5EED_3050, 500, 20);
    let events = assert_conformant(&SimSubstrate, &scenario).events;
    let count = |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();

    let escrowed = count(&|k| matches!(k, EventKind::GrantEscrowed { .. }));
    let reclaimed = count(&|k| matches!(k, EventKind::GrantReclaimed { .. }));
    assert!(escrowed > 0, "no grants escrowed at 50% loss");
    assert!(
        reclaimed > 0,
        "no grants reclaimed at 50% loss over {} periods ({escrowed} escrows)",
        scenario.periods
    );
}

#[test]
fn daemon_leg_runs_the_scenarios_retransmits() {
    // `lossy_scenario` retries (two retransmits per request); the daemon
    // adapter must forward that instead of running the daemon default of
    // none. A retransmit re-sends the same (node, seq), so a repeated pair
    // among the `RequestSent` events is one.
    let scenario = lossy_scenario(0x5EED_DAE1, 200, 12);
    assert_eq!(scenario.cfg.node.decider.max_retransmits, 2);
    let run = assert_conformant(&MultiplexedDaemon, &scenario);
    let mut sent: Vec<(u32, u64)> = run
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RequestSent { seq, .. } => Some((e.node.raw(), seq)),
            _ => None,
        })
        .collect();
    let requests = sent.len();
    sent.sort_unstable();
    sent.dedup();
    assert!(
        requests > sent.len(),
        "no retransmit among {requests} requests at 200‰ loss"
    );
}

#[test]
fn lossless_scenario_has_no_escrow_reclaims() {
    // With no loss every grant is acked promptly; escrow entries must be
    // released by acks, never by deadline expiry.
    let scenario = lossy_scenario(0x5EED_0000, 0, 10);
    let run = assert_conformant(&SimSubstrate, &scenario);
    let reclaimed = run
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GrantReclaimed { .. }))
        .count();
    assert_eq!(reclaimed, 0, "grants reclaimed in a lossless run");
}
