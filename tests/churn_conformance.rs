//! Conservation and liveness under node churn: crash → timeout-driven
//! suspicion → restart rejoin.
//!
//! The churn scenario kills one node mid-run and revives it several
//! periods later at its initial cap, re-admitted *from the lost-power
//! ledger*. The invariants under test:
//!
//! * **Zero-sum at every consistent cut** — live power + lost power equals
//!   the initial budget before, during, and after the outage; the restart
//!   mints nothing (`check_run`, on every run here).
//! * **Bounded re-admission** — the restart moves exactly
//!   `min(initial cap, lost)` back from `lost` to live, never more than
//!   the crash retired.
//! * **Sequence-epoch safety** — grants addressed to the pre-crash
//!   incarnation are discarded by the reborn decider (non-vacuously: the
//!   stale-grant test arranges for one to actually land), and no node's
//!   request seq ever rewinds (`check_run`).
//! * **Liveness** — request timeouts drive peer suspicion, so survivors
//!   stop hammering the dead node and the restarted node reconverges to
//!   its fair share.

use penelope::conformance::{
    at_period, check_run, churn_scenario, MultiplexedDaemon, Scenario, SimSubstrate, Substrate,
};
use penelope_net::LatencyModel;
use penelope_sim::{ClusterSim, DiscoveryStrategy, FaultAction, FaultScript};
use penelope_trace::EventKind;
use penelope_units::{NodeId, Power, SimDuration, SimTime};
use penelope_workload::Phase;

/// Drop rates (in permille) the churn sweep runs under.
const DROP_RATES_PERMILLE: [u16; 2] = [0, 200];

/// The churned node index in [`churn_scenario`].
const CHURNED: u32 = 1;

/// Run `scenario` on `substrate` and assert `check_run` finds nothing,
/// plus the churn-specific guarantees: the kill retires power into `lost`,
/// the restart re-admits exactly `min(initial cap, lost)` back out of it
/// (the single decrease `lost` ever takes), and the node's liveness
/// follows an alive → dead → alive pattern with no other transitions.
fn assert_churn_conserves(scenario: &Scenario, substrate: &dyn Substrate) {
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

    // `lost` rises when the node dies (its cap, pool and escrow are
    // retired, plus any in-flight remnants addressed to it), then takes
    // exactly one decrease — the restart — of exactly
    // min(initial cap, lost): zero-sum re-admission.
    let mut decreases = Vec::new();
    let mut prev = Power::ZERO;
    for snap in &run.snapshots {
        if snap.lost < prev {
            decreases.push((snap.period, prev - snap.lost, prev));
        }
        prev = snap.lost;
    }
    assert_eq!(
        decreases.len(),
        1,
        "{} on {}: expected exactly one lost-ledger decrease (the restart), got {decreases:?} (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.cfg.seed
    );
    let (period, readmitted, lost_before) = decreases[0];
    let expected = scenario.budget_per_node().min(lost_before);
    assert_eq!(
        readmitted,
        expected,
        "{} on {}: restart at period {period} re-admitted {readmitted:?}, expected min(initial cap {:?}, lost {lost_before:?}) (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.budget_per_node(),
        scenario.cfg.seed
    );

    // Liveness pattern: alive, then one contiguous dead window, then
    // alive through to the end.
    let alive: Vec<bool> = run
        .snapshots
        .iter()
        .map(|s| s.nodes[CHURNED as usize].alive)
        .collect();
    assert!(alive.first() == Some(&true), "node {CHURNED} dead at start");
    assert!(
        alive.last() == Some(&true),
        "{} on {}: node {CHURNED} never came back (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.cfg.seed
    );
    assert!(
        alive.iter().any(|a| !a),
        "{} on {}: node {CHURNED} was never observed dead (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.cfg.seed
    );
    let transitions = alive.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(
        transitions,
        2,
        "{} on {}: liveness flapped: {alive:?} (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.cfg.seed
    );
    assert!(run.final_alive[CHURNED as usize], "dead in final state");
}

#[test]
fn churn_sweep_conserves_on_sim_and_lockstep() {
    // Runs the simulator and the multiplexed daemon leg; the name
    // predates the daemon leg and is kept so the test keeps its id.
    for drop_permille in DROP_RATES_PERMILLE {
        let scenario = churn_scenario(0x5EED_C402 + u64::from(drop_permille), drop_permille, 16);
        for substrate in [&SimSubstrate as &dyn Substrate, &MultiplexedDaemon] {
            assert_churn_conserves(&scenario, substrate);
        }
    }
}

#[test]
fn restarted_node_reconverges_to_fair_share() {
    // The §4.2-length acceptance run: after rejoining at period 10, the
    // churned node has 30 periods to climb back. By then every node runs
    // a hungry phase, so the cluster is oversubscribed and the fair share
    // is exactly the per-node budget.
    let scenario = churn_scenario(0x5EED_C440, 0, 40);
    let fair = scenario.budget_per_node();
    let band = Power::from_watts_u64(50);
    for substrate in [&SimSubstrate as &dyn Substrate, &MultiplexedDaemon] {
        let run = substrate
            .run(&scenario)
            .unwrap_or_else(|e| panic!("{} failed: {e}", substrate.name()));
        assert!(run.final_alive[CHURNED as usize]);
        let cap = run.final_caps[CHURNED as usize];
        let dev = if cap > fair { cap - fair } else { fair - cap };
        assert!(
            dev <= band,
            "{}: churned node ended at {cap:?}, more than {band:?} from fair share {fair:?} (seed {:#x})",
            substrate.name(),
            scenario.cfg.seed
        );
    }
}

/// A hand-rolled four-node scenario for the tests below: `hungry` says
/// which nodes run a flat 220 W demand; the rest idle at 100 W and keep
/// depositing excess into their pools.
fn direct_scenario(seed: u64, name: &str, periods: u64, hungry: &[usize]) -> Scenario {
    let demands = (0..4).map(|i| {
        let demand = if hungry.contains(&i) { 220 } else { 100 };
        vec![Phase::new(Power::from_watts_u64(demand), 120.0)]
    });
    Scenario::new(name, seed, periods, demands)
}

#[test]
fn stale_pre_crash_grant_is_discarded_not_double_paid() {
    // Non-vacuous sequence-epoch test. The hungry node drains its local
    // pool for the first seven periods and sends its next peer request at
    // the t=8 s tick; with 400 ms links that request is served (and the
    // grant sent) around t=8.4 s and the grant lands around t=8.8 s.
    // Killing at 8.1 s and restarting at 8.3 s puts the rebirth between
    // the request and the grant *send* — the transport refuses sends to a
    // dead destination, so the node must already be reborn when the
    // granter replies — and the grant then reaches the *new* incarnation
    // carrying a pre-crash sequence number. The reborn decider's seq
    // floor must discard it (the amount is returned to the ledger as
    // lost, not applied) — otherwise the node would be paid its
    // re-admitted cap *and* the stale grant: minting.
    let mut scenario = direct_scenario(0x5EED_57A1, "stale-grant", 15, &[1]);
    scenario.cfg.latency = LatencyModel::Constant(SimDuration::from_millis(400));
    scenario.faults = FaultScript::kill_restart(
        NodeId::new(1),
        SimTime::ZERO + SimDuration::from_millis(8100),
        SimTime::ZERO + SimDuration::from_millis(8300),
    );
    // The reborn node's decider counters are the evidence, so this drives
    // the simulator itself rather than its adapter.
    let mut sim = ClusterSim::new(scenario.cfg.clone(), scenario.profiles.clone());
    sim.install_faults(&scenario.faults);
    // Conservation is asserted inside the simulator after every event, so
    // completing the run already proves the stale grant was not minted.
    sim.advance_to(SimTime::ZERO + SimDuration::from_secs(15));
    let stats = sim
        .decider_stats(NodeId::new(1))
        .expect("node 1 runs a Penelope decider");
    assert!(
        stats.stale_discards >= 1,
        "no stale pre-crash grant ever reached the reborn node — the \
         sequence-epoch test is vacuous (stats: {stats:?})"
    );
}

#[test]
fn gossip_hint_rediversifies_after_hinted_peer_dies() {
    // Regression test for the sticky-hint liveness bug: under GossipHint
    // discovery every hungry node learns that node 0 (the only node with
    // excess) is the place to ask, and before the fix kept re-querying it
    // forever after it died — each request eating a full timeout. Now the
    // first timeout on the hinted peer clears the hint and repeated
    // timeouts suspect it, so traffic must re-diversify onto live peers.
    let mut scenario = direct_scenario(0x5EED_4055, "sticky-hint", 30, &[1, 2, 3]);
    scenario.cfg.discovery = DiscoveryStrategy::GossipHint { explore: 0.1 };
    scenario.faults = FaultScript::kill_node_at(at_period(8), NodeId::new(0));
    let events = SimSubstrate.run(&scenario).expect("sim runs").events;
    // The dead hinted peer must end up suspected by at least one survivor.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PeerSuspected { peer } if peer == NodeId::new(0))),
        "no survivor ever suspected the dead hinted peer"
    );
    // Once hints are cleared and suspicion kicks in (give it until t=14 s:
    // hint clear after the first 1 s timeout, suspicion after three), the
    // survivors' requests must spread over live peers instead of hammering
    // the corpse. Suspicion un-suspects for a probe every 8 s, so a
    // trickle to node 0 is expected — but it must be a minority.
    let cutoff = at_period(14);
    for node in 1..4u32 {
        let dsts: Vec<NodeId> = events
            .iter()
            .filter(|e| e.node == NodeId::new(node) && e.at >= cutoff)
            .filter_map(|e| match e.kind {
                EventKind::RequestSent { dst, .. } => Some(dst),
                _ => None,
            })
            .collect();
        assert!(
            !dsts.is_empty(),
            "node {node} stopped requesting after the hinted peer died"
        );
        let to_dead = dsts.iter().filter(|d| **d == NodeId::new(0)).count();
        assert!(
            to_dead * 2 < dsts.len(),
            "node {node} still sent {to_dead}/{} requests to the dead hinted peer",
            dsts.len()
        );
        let live_peers: std::collections::HashSet<NodeId> = dsts
            .iter()
            .copied()
            .filter(|d| *d != NodeId::new(0))
            .collect();
        assert!(
            live_peers.len() >= 2,
            "node {node} did not re-diversify: live destinations {live_peers:?}"
        );
    }
}

#[test]
fn churn_daemon_restarts_on_the_same_address_with_a_seq_watermark() {
    // Runs on the multiplexed daemon leg, where a restart reincarnates the
    // engine under its sequence watermark with the re-admitted cap; the
    // name is kept from when this leg was per-node daemons rebinding their
    // address, which `udp_cluster`'s
    // `a_daemon_restarted_on_its_address_rejoins_above_its_watermark` now
    // covers. Held to the invariants and the zero-sum re-admission.
    let scenario = churn_scenario(0x5EED_C4DA, 0, 16);
    assert_churn_conserves(&scenario, &MultiplexedDaemon);
}

#[test]
fn churn_daemon_keeps_one_seq_watermark_per_node() {
    // A script can kill two nodes and restart the first. The adapter once
    // kept a single watermark for the cluster, so node 1 would have come
    // back on node 2's — a donor that never sent a request, so zero —
    // below its own pre-crash seqs: the stale-grant minting hole
    // `DaemonConfig::initial_seq` exists to close. Node 1 is the only
    // hungry node, so its request stream is long on both sides of the
    // outage.
    let mut scenario = direct_scenario(0x5EED_C4DB, "churn-two-kills", 16, &[1]);
    scenario.faults = FaultScript::none()
        .at(at_period(5), FaultAction::Kill(NodeId::new(1)))
        .at(at_period(7), FaultAction::Kill(NodeId::new(2)))
        .restart_at(at_period(9), NodeId::new(1));
    // `check_run` holds node 1's request seqs to never rewinding.
    let run = MultiplexedDaemon
        .run(&scenario)
        .expect("daemon substrate runs");
    let violations = check_run(&scenario, &run);
    assert!(violations.is_empty(), "{violations:#?}");
    assert_eq!(run.final_alive, [true, true, false, true]);

    // Non-vacuity: node 1 requested in both incarnations, on either side
    // of its rebirth.
    let node_1 = run.events.iter().filter(|e| e.node == NodeId::new(1));
    let (mut before, mut after, mut reborn) = (0, 0, false);
    for e in node_1 {
        match e.kind {
            EventKind::NodeRestarted { .. } => reborn = true,
            EventKind::RequestSent { .. } if reborn => after += 1,
            EventKind::RequestSent { .. } => before += 1,
            _ => {}
        }
    }
    assert!(
        before > 0 && after > 0,
        "node 1 did not request on both sides of its outage ({before} before, {after} after)"
    );
}

#[test]
fn fault_free_churn_scenario_config_matches_lossy_defaults() {
    // The churn scenario must not perturb the nominal protocol: at zero
    // drop rate its simulator config differs from the lossy zero-drop
    // config only in the fault script, so fault-free event streams stay
    // byte-identical across scenario families.
    let a = churn_scenario(0x5EED_0001, 0, 12).cfg;
    let b = penelope::conformance::lossy_scenario(0x5EED_0001, 0, 12).cfg;
    assert_eq!(
        a.node.decider.max_retransmits,
        b.node.decider.max_retransmits
    );
    assert_eq!(a.node.decider.suspect_after, b.node.decider.suspect_after);
    assert_eq!(a.node.decider.probe_interval, b.node.decider.probe_interval);
    assert_eq!(a.seed, b.seed);
}

#[test]
fn a_killed_granter_retires_its_undelivered_escrow_everywhere() {
    // Node 0 donates to three hungry peers over links that are cut from
    // period 3: each grant it debits dies on the wire and waits in its
    // escrow as undelivered until the deadline sweep. Killed a period
    // later, it must retire that escrow with its cap and pool — else the
    // power is neither live, in flight nor lost, and zero-sum fails at
    // the cut after the kill.
    let mut scenario = direct_scenario(0x5EED_C4DC, "kill-with-escrow", 8, &[1, 2, 3]);
    let donor = NodeId::new(0);
    for peer in [1, 2, 3].map(NodeId::new) {
        scenario.faults = scenario.faults.partition_link_at(at_period(3), donor, peer);
    }
    scenario.faults = scenario.faults.at(at_period(4), FaultAction::Kill(donor));
    for substrate in [&SimSubstrate as &dyn Substrate, &MultiplexedDaemon] {
        let run = substrate.run(&scenario).expect("runs");
        let violations = check_run(&scenario, &run);
        assert!(
            violations.is_empty(),
            "{}: {violations:#?}",
            substrate.name()
        );
        assert!(!run.final_alive[0]);
    }
    // Non-vacuity on the daemon leg, whose cut after period 3 — the round
    // pumped until quiet — precedes the kill: the donor held undelivered
    // escrow when it died.
    let run = MultiplexedDaemon.run(&scenario).expect("runs");
    assert!(
        !run.snapshots[3].in_flight.is_zero(),
        "daemon: no grant was stranded before the kill"
    );
}
