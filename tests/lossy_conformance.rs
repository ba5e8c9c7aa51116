//! Conservation under sustained random message loss.
//!
//! These tests drive the grant escrow/ack reliability layer: every peer
//! message (request, grant, ack) is dropped with a fixed probability on
//! every link, no node dies, and the peer protocol must still account for
//! every milliwatt — a dropped grant is escrowed by the granter and
//! re-credited to its pool, never booked as `lost`.
//!
//! `check_run` holds every run here to what loss must not break: nothing
//! is booked `lost` at any cut (no node dies), every cut and the end
//! state sum to the budget, and the event stream debits each request
//! once and applies each grant once. The tests below add what is
//! specific to loss: that the fault plane really fired.

use penelope::conformance::{
    check_run, lossy_scenario, lossy_wire_scenario, MultiplexedDaemon, Scenario, SimSubstrate,
    Substrate, SubstrateRun,
};
use penelope_trace::EventKind;

/// Drop rates (in permille) the sweep runs.
const DROP_RATES_PERMILLE: [u16; 3] = [50, 200, 500];

/// Run `scenario` on `substrate`, assert `check_run` finds nothing, and
/// return the run.
fn conformant_run(scenario: &Scenario, substrate: &dyn Substrate) -> SubstrateRun {
    let run = substrate
        .run(scenario)
        .unwrap_or_else(|e| panic!("{} failed to run {}: {e}", substrate.name(), scenario.name));
    let violations = check_run(scenario, &run);
    assert!(
        violations.is_empty(),
        "{} violated invariants on {} (seed {:#x}): {violations:#?}",
        substrate.name(),
        scenario.name,
        scenario.cfg.seed
    );
    run
}

#[test]
fn drop_rate_sweep_loses_zero_peer_power_on_sim_and_daemon() {
    for drop_permille in DROP_RATES_PERMILLE {
        let scenario = lossy_scenario(0x5EED_1055 + u64::from(drop_permille), drop_permille, 12);
        for substrate in [&SimSubstrate as &dyn Substrate, &MultiplexedDaemon] {
            conformant_run(&scenario, substrate);
        }
    }
}

#[test]
fn long_run_at_20_percent_loss_conserves_every_period() {
    // The §4.2-length acceptance run: 40 decision periods at the paper's
    // evaluated 20 % drop rate, on both substrates.
    let scenario = lossy_scenario(0x5EED_2042, 200, 40);
    conformant_run(&scenario, &SimSubstrate);
    conformant_run(&scenario, &MultiplexedDaemon);
}

#[test]
fn lossy_sim_actually_drops_and_escrows() {
    // Guard against the sweep passing vacuously: at 50 % loss the trace
    // must show real drops, real escrow activity, and at least one grant
    // reclaimed after its retransmit window also went dark.
    let scenario = lossy_scenario(0x5EED_3050, 500, 20);
    let events = SimSubstrate.run(&scenario).expect("lossy sim runs").events;
    let count = |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();

    let dropped = count(&|k| matches!(k, EventKind::MsgDropped { .. }));
    let escrowed = count(&|k| matches!(k, EventKind::GrantEscrowed { .. }));
    let reclaimed = count(&|k| matches!(k, EventKind::GrantReclaimed { .. }));
    assert!(dropped > 0, "no messages dropped at 50% loss");
    assert!(escrowed > 0, "no grants escrowed at 50% loss");
    assert!(
        reclaimed > 0,
        "no grants reclaimed at 50% loss over {} periods ({dropped} drops, {escrowed} escrows)",
        scenario.periods
    );
}

#[test]
fn daemon_lossy_leg_drops_real_datagrams_and_loses_no_power() {
    // The daemon substrate used to *silently ignore* the scenario's drop
    // rate — every "lossy" daemon run was lossless. Now the FaultySocket
    // shim drops real loopback datagrams, so this leg must show
    // non-vacuous drop counts while still conserving power: a grant the
    // shim reports dropped is escrowed as undelivered and reclaimed at
    // the deadline, so nothing is ever booked as lost.
    //
    // Bit-identical replay of the *drop schedule* per seed is pinned in
    // penelope-net's shim tests; `check_run` holds the run to zero lost
    // power at every cut and an exact end balance.
    let scenario = lossy_scenario(0x5EED_DAE0, 200, 12);
    let run = conformant_run(&scenario, &MultiplexedDaemon);
    let drops = run.injected_drops();
    assert!(
        drops >= 1,
        "vacuous lossy daemon run: shim injected no drops at 200‰"
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
    let run = conformant_run(&scenario, &MultiplexedDaemon);
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
fn daemon_wire_faults_duplicate_delay_and_still_conserve() {
    // The reorder/duplication legs of the socket shim, previously never
    // exercised by any conformance scenario: 10 % loss, 15 % duplication,
    // up to 5 ms of per-datagram delay (so copies and slow originals
    // overtake later sends). Duplicate grants must be absorbed
    // idempotently — the engine's seq dedup plus the granter-side
    // acked-floor guard — and duplicate requests must never double-grant,
    // so the run must conserve power like any other lossy run.
    let scenario = lossy_wire_scenario(0x5EED_D0B1, 100, 150, 5, 12);
    let run = conformant_run(&scenario, &MultiplexedDaemon);

    // Non-vacuity: all three fault legs must have actually fired. Before
    // these counters existed a mis-wired shim could silently run the
    // "reordering" sweep over a perfectly behaved wire.
    let duplicated = run
        .duplicated
        .expect("the daemon substrate counts shim duplications");
    let delayed = run
        .delayed
        .expect("the daemon substrate counts shim delays");
    let drops = run.injected_drops();
    assert!(
        duplicated >= 1,
        "vacuous duplication leg: shim duplicated nothing at 150‰"
    );
    assert!(delayed >= 1, "vacuous delay leg: shim delayed nothing");
    assert!(drops >= 1, "vacuous loss leg: shim dropped nothing at 100‰");
}

#[test]
fn sim_runs_the_loss_leg_of_wire_faults() {
    // The simulator cannot reorder or duplicate, but it must still honor
    // the loss leg of a wire-fault scenario (and conserve exactly, as for
    // plain Lossy).
    let scenario = lossy_wire_scenario(0x5EED_D0B2, 200, 150, 5, 12);
    let run = conformant_run(&scenario, &SimSubstrate);
    assert!(run.injected_drops() >= 1, "sim ran the loss leg vacuously");
    // Honest reporting: this transport cannot duplicate, and must say so
    // rather than report a fake zero.
    assert_eq!(run.duplicated, None);
    assert_eq!(run.delayed, None);
}

#[test]
fn lossless_scenario_has_no_escrow_reclaims() {
    // With no loss every grant is acked promptly; escrow entries must be
    // released by acks, never by deadline expiry.
    let scenario = lossy_scenario(0x5EED_0000, 0, 10);
    let run = conformant_run(&scenario, &SimSubstrate);
    let reclaimed = run
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GrantReclaimed { .. }))
        .count();
    assert_eq!(reclaimed, 0, "grants reclaimed in a lossless run");
}
