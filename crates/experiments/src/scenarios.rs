//! Shared scenario builders.

use penelope_core::DeciderConfig;
use penelope_sim::{ClusterConfig, SystemKind};
use penelope_units::{NodeId, Power, SimTime};
use penelope_workload::{npb, PerfModel, Phase, Profile};

/// Build the paper's real-cluster workload layout for one application pair:
/// app `a` on the first half of the nodes, app `b` on the second half
/// (§4.1), with profile work compressed by `time_scale`.
pub(crate) fn pair_workloads(
    a: &Profile,
    b: &Profile,
    nodes: usize,
    time_scale: f64,
) -> Vec<Profile> {
    assert!(
        nodes >= 2 && nodes.is_multiple_of(2),
        "need an even node count"
    );
    let a = a.scaled(time_scale);
    let b = b.scaled(time_scale);
    let mut v = Vec::with_capacity(nodes);
    for _ in 0..nodes / 2 {
        v.push(a.clone());
    }
    for _ in 0..nodes / 2 {
        v.push(b.clone());
    }
    v
}

/// The subset of application pairs used at a given effort, deterministic
/// and spread across the suite (stride sampling of the 36 pairs).
pub fn pair_subset(count: usize) -> Vec<(Profile, Profile)> {
    let all = npb::all_pairs();
    let count = count.min(all.len());
    if count == all.len() {
        return all;
    }
    // Integer stride: `i·n/count` yields `count` distinct, monotonically
    // increasing indices reaching into the tail of the suite. The old
    // float version aliased adjacent picks for some counts (truncation
    // mapped two `i`s to the same index) and never sampled the last pair.
    (0..count)
        .map(|i| all[i * all.len() / count].clone())
        .collect()
}

/// Cluster config for the Fig. 2/3 experiments at a given per-socket cap
/// (the paper tests 60–100 W per socket, 2 sockets per node).
pub(crate) fn paper_cluster_config(
    system: SystemKind,
    per_socket_cap_w: u64,
    nodes: usize,
    seed: u64,
) -> ClusterConfig {
    let budget = Power::from_watts_u64(per_socket_cap_w * 2 * nodes as u64);
    let mut cfg = ClusterConfig::paper_defaults(system, budget);
    cfg.seed = seed;
    cfg
}

/// The end-of-application scale scenario (§4.5): half the cluster (the
/// *donors*) runs an application that completes early, releasing its power;
/// the other half (the *recipients*) stays power-hungry. Parameterized by
/// an application pair so the 36-pair sweep yields a distribution, as in
/// the paper's box plots.
#[derive(Clone, Debug)]
pub struct ScaleScenario {
    /// Client node count (half donors, half recipients).
    pub nodes: usize,
    /// Decider iteration frequency.
    pub frequency_hz: f64,
    /// When the donors' application completes.
    pub donor_finish: SimTime,
    /// Demand of each recipient while hungry.
    pub recipient_demand: Power,
    /// Initial per-node cap.
    pub initial_cap: Power,
    /// Excess released per donor once idle (initial cap decays to the 80 W
    /// safe floor).
    pub excess_per_donor: Power,
    /// RNG seed.
    pub seed: u64,
}

impl ScaleScenario {
    /// Build the scenario for application pair `(a, b)`: `a`'s nominal
    /// runtime sets when the donors finish (compressed into 5–15 s), `b`'s
    /// mean demand sets how hungry the recipients are.
    pub fn for_pair(a: &Profile, b: &Profile, nodes: usize, frequency_hz: f64, seed: u64) -> Self {
        assert!(
            nodes >= 2 && nodes.is_multiple_of(2),
            "need an even node count"
        );
        // Map a's nominal runtime (≈120–400 s) into a 5–15 s donor phase.
        let rt = a.nominal_runtime_secs();
        let donor_secs = 5.0 + 10.0 * ((rt - 100.0) / 300.0).clamp(0.0, 1.0);
        // Map b's mean demand (≈148–245 W) into a 240–280 W recipient
        // appetite so every recipient can absorb its share of the excess.
        let mean_b = b.mean_demand().as_watts();
        let rec = 240.0 + 40.0 * ((mean_b - 148.0) / 100.0).clamp(0.0, 1.0);
        ScaleScenario {
            nodes,
            frequency_hz,
            donor_finish: SimTime::from_nanos((donor_secs * 1e9) as u64),
            recipient_demand: Power::from_watts(rec),
            initial_cap: Power::from_watts_u64(160),
            excess_per_donor: Power::from_watts_u64(80),
            seed,
        }
    }

    /// The per-node workload profiles: donors hold `initial − ε` (stable —
    /// neither hungry nor excess) until they finish, recipients grind at
    /// their demand far beyond the horizon.
    pub fn workloads(&self, epsilon: Power, horizon: SimTime) -> Vec<Profile> {
        let perf = PerfModel::default();
        let donor_demand = self.initial_cap - epsilon;
        let donor = Profile::new(
            "donor",
            vec![Phase::new(
                donor_demand,
                self.donor_finish.as_secs_f64().max(0.5),
            )],
            perf,
        );
        let recipient = Profile::new(
            "recipient",
            vec![Phase::new(
                self.recipient_demand,
                horizon.as_secs_f64() * 4.0,
            )],
            perf,
        );
        let mut v = Vec::with_capacity(self.nodes);
        for _ in 0..self.nodes / 2 {
            v.push(donor.clone());
        }
        for _ in 0..self.nodes / 2 {
            v.push(recipient.clone());
        }
        v
    }

    /// Cluster config for this scenario under `system`.
    pub fn config(&self, system: SystemKind) -> ClusterConfig {
        let budget = self.initial_cap * self.nodes as u64;
        let mut cfg = ClusterConfig::paper_defaults(system, budget);
        cfg.node.decider = DeciderConfig {
            epsilon: cfg.node.decider.epsilon,
            ..DeciderConfig::at_frequency(self.frequency_hz)
        };
        cfg.seed = self.seed;
        // The scale study replays profiles; deciders "no longer interact
        // with hardware" (§4.5), so drop the RAPL actuation lag.
        cfg.rapl.actuation_delay = penelope_units::SimDuration::ZERO;
        cfg.management_overhead = 0.0;
        cfg
    }

    /// Total excess that becomes available when the donors finish.
    pub fn total_excess(&self) -> Power {
        self.excess_per_donor * (self.nodes as u64 / 2)
    }

    /// The recipient node ids (second half of the cluster).
    pub fn recipients(&self) -> Vec<NodeId> {
        (self.nodes / 2..self.nodes)
            .map(|i| NodeId::new(i as u32))
            .collect()
    }

    /// A horizon long enough for redistribution to complete at this
    /// frequency: the donors finish, then we allow 200 decider periods
    /// (plus slack) for the power to move.
    pub fn horizon(&self) -> SimTime {
        let period = 1.0 / self.frequency_hz;
        self.donor_finish + penelope_units::SimDuration::from_secs_f64(200.0 * period + 20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_workload::npb;

    #[test]
    fn pair_workloads_split_halves() {
        let v = pair_workloads(&npb::ep(), &npb::dc(), 6, 0.5);
        assert_eq!(v.len(), 6);
        assert_eq!(v[0].name, "EP");
        assert_eq!(v[3].name, "DC");
        assert!(
            (v[0].nominal_runtime_secs() - npb::ep().nominal_runtime_secs() * 0.5).abs() < 1e-9
        );
    }

    #[test]
    fn pair_subset_is_spread_and_deterministic() {
        let s = pair_subset(8);
        assert_eq!(s.len(), 8);
        assert_eq!(pair_subset(8).len(), 8);
        // First pair of the full set is included, and the subset spans it.
        assert_eq!(s[0].0.name, npb::all_pairs()[0].0.name);
        assert_eq!(pair_subset(100).len(), 36);
    }

    #[test]
    fn pair_subset_picks_are_distinct_at_every_count() {
        let all = npb::all_pairs();
        let name = |p: &(Profile, Profile)| format!("{}+{}", p.0.name, p.1.name);
        for count in 1..=all.len() {
            let s = pair_subset(count);
            assert_eq!(s.len(), count, "count {count}");
            let mut names: Vec<String> = s.iter().map(name).collect();
            names.dedup();
            assert_eq!(names.len(), count, "aliased picks at count {count}");
        }
        // The sample must reach the tail of the suite: at any count ≥ 2
        // the last pick lands in the back half, and the full sweep ends
        // on the final pair.
        let s = pair_subset(2);
        assert_eq!(name(&s[1]), name(&all[all.len() / 2]));
        let s = pair_subset(all.len());
        assert_eq!(name(s.last().unwrap()), name(all.last().unwrap()));
    }

    #[test]
    fn scale_scenario_parameters_in_range() {
        for (a, b) in npb::all_pairs() {
            let sc = ScaleScenario::for_pair(&a, &b, 44, 1.0, 0);
            let d = sc.donor_finish.as_secs_f64();
            assert!((5.0..=15.0).contains(&d), "{} donor {d}", a.name);
            let r = sc.recipient_demand.as_watts();
            assert!((240.0..=280.0).contains(&r), "{} recipient {r}", b.name);
            assert_eq!(sc.total_excess(), Power::from_watts_u64(80 * 22));
            assert_eq!(sc.recipients().len(), 22);
            assert!(sc.horizon() > sc.donor_finish);
        }
    }

    #[test]
    fn scale_workloads_shape() {
        let sc = ScaleScenario::for_pair(&npb::ep(), &npb::cg(), 8, 2.0, 1);
        let w = sc.workloads(Power::from_watts_u64(5), sc.horizon());
        assert_eq!(w.len(), 8);
        assert_eq!(w[0].name, "donor");
        assert_eq!(w[7].name, "recipient");
        // Donor demand sits exactly at the margin: initial − ε.
        assert_eq!(w[0].peak_demand(), Power::from_watts_u64(155));
    }
}
