//! The decider duel, end to end: urgency vs predictive vs market on
//! identical seeded diurnal workloads, across two substrates.
//!
//! Leg 1 runs the full experiment harness duel on the discrete-event
//! simulator (`penelope_experiments::duel`): per policy, mean
//! request→grant turnaround, Jain's fairness index over integrated caps,
//! makespan, and the non-vacuity counters (bids placed, forecast jumps).
//!
//! Leg 2 re-runs all three policies on the lockstep threaded runtime —
//! real OS threads, real message passing — over the same diurnal demand
//! family, folding the same metrics out of the same observer event
//! stream. The point of the second substrate is the paper's portability
//! claim applied to the policy seam: the *ranking* is a property of the
//! policies, not of the execution substrate that happened to run them.
//!
//! ```text
//! cargo run --release --example decider_duel
//! cargo run --release --example decider_duel -- --out DUEL.txt
//! PENELOPE_EFFORT=smoke cargo run --release --example decider_duel
//! ```

use penelope::conformance::{LockstepRuntime, Scenario, Substrate};
use penelope::experiments::{duel, Effort};
use penelope_core::DeciderPolicy;
use penelope_metrics::{jain_from_events, turnaround_from_events, TextTable};
use penelope_units::SimTime;
use penelope_workload::diurnal::{self, DiurnalConfig};

const SEED: u64 = 0x00E1_0DE1;
const LOCKSTEP_NODES: usize = 4;
const LOCKSTEP_PERIODS: u64 = 24;

/// The lockstep leg's scenario: the diurnal demand family (one decision
/// period per slot, two days) on the conformance harness's cluster, every
/// decider running `policy`.
fn lockstep_scenario(policy: DeciderPolicy) -> Scenario {
    let cfg = DiurnalConfig {
        seed: SEED,
        day_secs: 12.0,
        ..DiurnalConfig::default()
    };
    let demands = diurnal::cluster(&cfg, LOCKSTEP_NODES)
        .into_iter()
        .map(|profile| profile.phases);
    let name = format!("duel-lockstep-{}", policy.name());
    let mut s = Scenario::new(name, SEED, LOCKSTEP_PERIODS, demands);
    s.cfg.node.decider.policy = policy;
    s
}

struct LockstepLine {
    policy: DeciderPolicy,
    mean_turnaround_ms: Option<f64>,
    grants: usize,
    jain: Option<f64>,
}

fn lockstep_leg(policy: DeciderPolicy) -> LockstepLine {
    let (_, events) = LockstepRuntime
        .run_recorded(&lockstep_scenario(policy))
        .unwrap_or_else(|e| panic!("lockstep leg for {}: {e}", policy.name()));
    let turnaround = turnaround_from_events(&events);
    LockstepLine {
        policy,
        mean_turnaround_ms: turnaround.mean().map(|d| d.as_secs_f64() * 1e3),
        grants: turnaround.count(),
        jain: jain_from_events(&events, SimTime::from_secs(LOCKSTEP_PERIODS)),
    }
}

fn render_lockstep(lines: &[LockstepLine]) -> String {
    let mut t = TextTable::new(vec!["policy", "turnaround (ms)", "grants", "Jain"]);
    for l in lines {
        t.row(vec![
            l.policy.name().to_string(),
            l.mean_turnaround_ms
                .map_or_else(|| "-".into(), |v| format!("{v:.2}")),
            format!("{}", l.grants),
            l.jain.map_or_else(|| "-".into(), |v| format!("{v:.4}")),
        ]);
    }
    let fairest = lines
        .iter()
        .max_by(|a, b| {
            a.jain
                .unwrap_or(f64::NEG_INFINITY)
                .total_cmp(&b.jain.unwrap_or(f64::NEG_INFINITY))
        })
        .expect("lines");
    format!(
        "Lockstep leg ({LOCKSTEP_NODES} threads, {LOCKSTEP_PERIODS} periods, same seed/diurnal family)\n{}\nfairest on lockstep: {}\n",
        t.render(),
        fairest.policy.name()
    )
}

fn main() {
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!("unknown argument {other:?}; usage: decider_duel [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let effort = Effort::from_env();
    println!("decider_duel: effort={effort:?} seed={SEED:#x}");

    // Leg 1: the simulator duel (full metrics + non-vacuity evidence).
    let sim_result = duel::run_seeded(effort, SEED);
    let mut report = sim_result.render();

    // Leg 2: the lockstep threaded runtime over the same demand family.
    let lockstep: Vec<LockstepLine> = duel::contenders().into_iter().map(lockstep_leg).collect();
    report.push('\n');
    report.push_str(&render_lockstep(&lockstep));

    print!("{report}");

    // Sanity the artifact is not vacuous before anyone archives it: both
    // substrates must have completed grants under every policy.
    for e in &sim_result.entries {
        assert!(
            e.grants > 0,
            "sim leg: {} completed no grants",
            e.policy.name()
        );
    }
    for l in &lockstep {
        assert!(
            l.grants > 0,
            "lockstep leg: {} completed no grants",
            l.policy.name()
        );
    }

    if let Some(path) = out {
        std::fs::write(&path, &report).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
}
