//! Conservation under sustained random message loss.
//!
//! These tests drive the grant escrow/ack reliability layer: every peer
//! message (request, grant, ack) is dropped with a fixed probability on
//! every link, no node dies, and the peer protocol must still account for
//! every milliwatt — a dropped grant is escrowed by the granter and
//! re-credited to its pool, never booked as `lost`.
//!
//! The swept drop rate can be pinned from the environment for CI matrix
//! jobs: `PENELOPE_DROP_RATE=0.2 cargo test --test lossy_conformance`
//! runs only that rate instead of the full sweep.

use penelope::conformance::{
    check_run, lossy_scenario, lossy_wire_scenario, LockstepRuntime, MultiplexedDaemon, Scenario,
    SimSubstrate, Substrate,
};
use penelope_trace::EventKind;

/// Drop rates (in permille) to sweep, or the single rate pinned by the
/// `PENELOPE_DROP_RATE` environment variable (as a probability, e.g.
/// "0.2").
fn drop_rates_permille() -> Vec<u16> {
    match std::env::var("PENELOPE_DROP_RATE") {
        Ok(v) => {
            let rate: f64 = v
                .parse()
                .unwrap_or_else(|e| panic!("PENELOPE_DROP_RATE {v:?} is not a probability: {e}"));
            assert!(
                (0.0..=1.0).contains(&rate),
                "PENELOPE_DROP_RATE {rate} outside [0, 1]"
            );
            vec![(rate * 1000.0).round() as u16]
        }
        Err(_) => vec![50, 200, 500],
    }
}

/// Run `scenario` on `substrate` and assert the full invariant set plus
/// the lossy-specific guarantees: `lost` is exactly zero in every
/// snapshot, every consistent cut sums to the initial budget, and the
/// end state drains back to exactly the budget.
fn assert_zero_peer_loss(scenario: &Scenario, substrate: &dyn Substrate) {
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

    for snap in &run.snapshots {
        assert!(
            snap.lost.is_zero(),
            "{} booked {:?} lost at period {} of {} (seed {:#x})",
            substrate.name(),
            snap.lost,
            snap.period,
            scenario.name,
            scenario.cfg.seed
        );
        if snap.consistent_cut {
            assert_eq!(
                snap.accounted_live(),
                scenario.cfg.budget,
                "{} period {} does not conserve the budget (seed {:#x})",
                substrate.name(),
                snap.period,
                scenario.cfg.seed
            );
        }
    }
    assert_eq!(
        run.final_total,
        scenario.cfg.budget,
        "{} final total drifted from the budget on {} (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.cfg.seed
    );
}

#[test]
fn drop_rate_sweep_loses_zero_peer_power_on_sim_and_lockstep() {
    let sim = SimSubstrate;
    let runtime = LockstepRuntime;
    for drop_permille in drop_rates_permille() {
        let scenario = lossy_scenario(0x5EED_1055 + u64::from(drop_permille), drop_permille, 12);
        for substrate in [&sim as &dyn Substrate, &runtime] {
            assert_zero_peer_loss(&scenario, substrate);
        }
    }
}

#[test]
fn long_run_at_20_percent_loss_conserves_every_period() {
    // The §4.2-length acceptance run: 40 decision periods at the paper's
    // evaluated 20 % drop rate, on both deterministic substrates.
    let scenario = lossy_scenario(0x5EED_2042, 200, 40);
    assert_zero_peer_loss(&scenario, &SimSubstrate);
    assert_zero_peer_loss(&scenario, &LockstepRuntime);
}

#[test]
fn lossy_sim_actually_drops_and_escrows() {
    // Guard against the sweep passing vacuously: at 50 % loss the trace
    // must show real drops, real escrow activity, and at least one grant
    // reclaimed after its retransmit window also went dark.
    let scenario = lossy_scenario(0x5EED_3050, 500, 20);
    let (_, events) = SimSubstrate
        .run_recorded(&scenario)
        .expect("lossy sim runs");
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
fn lossy_lockstep_actually_drops_and_escrows() {
    let scenario = lossy_scenario(0x5EED_3051, 500, 20);
    let (_, events) = LockstepRuntime
        .run_recorded(&scenario)
        .expect("lossy lockstep runs");
    let dropped = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MsgDropped { .. }))
        .count();
    let escrowed = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GrantEscrowed { .. }))
        .count();
    assert!(dropped > 0, "no messages dropped at 50% loss");
    assert!(escrowed > 0, "no grants escrowed at 50% loss");
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
    // penelope-net's shim tests; here the wall clock decides how many
    // datagrams consume that schedule, so we assert the invariants and
    // non-vacuousness rather than an exact count.
    let scenario = lossy_scenario(0x5EED_DAE0, 200, 12);
    let run = MultiplexedDaemon
        .run(&scenario)
        .expect("daemon lossy leg runs");

    let violations = check_run(&scenario, &run);
    assert!(
        violations.is_empty(),
        "daemon violated invariants on {} (seed {:#x}): {violations:#?}",
        scenario.name,
        scenario.cfg.seed
    );

    let drops = run
        .injected_drops
        .expect("the daemon substrate counts injected drops");
    assert!(
        drops >= 1,
        "vacuous lossy daemon run: shim injected no drops at 200‰"
    );

    // Zero lost power under pure message loss: nothing died, so nothing
    // may be retired — on any snapshot.
    for snap in &run.snapshots {
        assert!(
            snap.lost.is_zero(),
            "daemon booked {:?} lost at period {} under pure loss",
            snap.lost,
            snap.period
        );
    }
    // Conservation on the free-running substrate: grants in flight at
    // shutdown may undercount the total, but it can never exceed the
    // budget.
    assert!(
        run.final_total <= scenario.cfg.budget,
        "daemon minted power under loss: {:?} > {:?}",
        run.final_total,
        scenario.cfg.budget
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
    let (run, events) = MultiplexedDaemon
        .run_recorded(&scenario)
        .expect("daemon lossy leg runs");
    let violations = check_run(&scenario, &run);
    assert!(violations.is_empty(), "{violations:#?}");
    let mut sent: Vec<(u32, u64)> = events
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
    let run = MultiplexedDaemon
        .run(&scenario)
        .expect("daemon wire-fault leg runs");

    let violations = check_run(&scenario, &run);
    assert!(
        violations.is_empty(),
        "daemon violated invariants on {} (seed {:#x}): {violations:#?}",
        scenario.name,
        scenario.cfg.seed
    );

    // Non-vacuity: all three fault legs must have actually fired. Before
    // these counters existed a mis-wired shim could silently run the
    // "reordering" sweep over a perfectly behaved wire.
    let duplicated = run
        .duplicated
        .expect("the daemon substrate counts shim duplications");
    let delayed = run
        .delayed
        .expect("the daemon substrate counts shim delays");
    let drops = run.injected_drops.expect("drop counting");
    assert!(
        duplicated >= 1,
        "vacuous duplication leg: shim duplicated nothing at 150‰"
    );
    assert!(delayed >= 1, "vacuous delay leg: shim delayed nothing");
    assert!(drops >= 1, "vacuous loss leg: shim dropped nothing at 100‰");

    // Pure wire faults kill nobody: nothing may ever be booked lost, and
    // duplicated grants must not mint power.
    for snap in &run.snapshots {
        assert!(
            snap.lost.is_zero(),
            "daemon booked {:?} lost at period {} under wire faults",
            snap.lost,
            snap.period
        );
    }
    assert!(
        run.final_total <= scenario.cfg.budget,
        "daemon minted power under duplication: {:?} > {:?}",
        run.final_total,
        scenario.cfg.budget
    );
}

#[test]
fn sim_and_lockstep_run_the_loss_leg_of_wire_faults() {
    // The deterministic substrates cannot reorder or duplicate, but they
    // must still honor the loss leg of a wire-fault scenario (and conserve
    // exactly, as for plain Lossy).
    let scenario = lossy_wire_scenario(0x5EED_D0B2, 200, 150, 5, 12);
    for substrate in [&SimSubstrate as &dyn Substrate, &LockstepRuntime] {
        assert_zero_peer_loss(&scenario, substrate);
        let run = substrate.run(&scenario).expect("runs");
        assert!(
            run.injected_drops.expect("counted") >= 1,
            "{} ran the loss leg vacuously",
            substrate.name()
        );
        // Honest reporting: these transports cannot duplicate, and must
        // say so rather than report a fake zero.
        assert_eq!(run.duplicated, None);
        assert_eq!(run.delayed, None);
    }
}

#[test]
fn lossless_scenario_has_no_escrow_reclaims() {
    // With no loss every grant is acked promptly; escrow entries must be
    // released by acks, never by deadline expiry.
    let scenario = lossy_scenario(0x5EED_0000, 0, 10);
    let (_, events) = SimSubstrate
        .run_recorded(&scenario)
        .expect("lossless sim runs");
    let reclaimed = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GrantReclaimed { .. }))
        .count();
    assert_eq!(reclaimed, 0, "grants reclaimed in a lossless run");
    assert_zero_peer_loss(&scenario, &SimSubstrate);
}
