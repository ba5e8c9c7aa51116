//! The names the benchmark reports: six workloads, the end-to-end metrics
//! every workload produces, and the per-layer ledger.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step. Each per-layer row carries its prediction:
//! which end-to-end metric it should move ("→") and where the prediction
//! is no change ("flat").

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when it improved).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (old - new) / old.abs(),
            Better::Lower => (new - old) / old.abs(),
        }
    }
}

/// One workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `ShardedSim`, 500 000 nodes, 1-in-64 hungry, two shards on two threads.
    ShardSparse,
    /// `ShardedSim`, 32 768 nodes, every second node hungry, serial.
    ShardDense,
    /// `ClusterSim`, Penelope, the scale-study grid at 1 056 nodes.
    DesP2p,
    /// The same grid under the centralized SLURM-style server.
    DesCentral,
    /// The multiplexed daemon, 10 000 nodes over loopback UDP, lossless.
    MuxSoak,
    /// The multiplexed daemon, 2 048 nodes behind a 5 % lossy shim.
    MuxLossy,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::ShardSparse,
        Workload::ShardDense,
        Workload::DesP2p,
        Workload::DesCentral,
        Workload::MuxSoak,
        Workload::MuxLossy,
    ];

    /// The workload's name on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShardSparse => "shard_sparse",
            Workload::ShardDense => "shard_dense",
            Workload::DesP2p => "des_p2p",
            Workload::DesCentral => "des_central",
            Workload::MuxSoak => "mux_soak",
            Workload::MuxLossy => "mux_lossy",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ShardSparse => "500k nodes, 98% of ticks elided: wake heap, barrier, outbox exchange and thread spawn do the work, the engine almost none; only row where shard scaling and bytes per node show",
            Workload::ShardDense => "32k nodes, half hungry, serial: engine inputs and the delivery heap dominate, elision buys little; the low-noise row for engine-cost changes",
            Workload::DesP2p => "full-fidelity single-queue DES at the paper's 1056-node scale study: event queue, SimNet, RAPL model, workload state and NodeEngine all on the path",
            Workload::DesCentral => "same DES loop with the P2P engine bypassed and the centralized server and its queue doing the work; holds the paper's server saturation",
            Workload::MuxSoak => "10k engines behind real loopback datagrams: wire encode/decode, two syscalls per frame and the reactor dominate; the wall-clock latency row",
            Workload::MuxLossy => "same reactor on the fault path: lossy shim, timeouts, escrow sweeps, suspicion and gossip from the first lost frame; mux_soak must stay flat when this moves",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it is, for the glossary.
    pub what: &'static str,
}

/// The end-to-end metrics. Every workload produces every one of them.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "constructor time, each call's median repetition, in reference seconds (see node_periods_per_s): `ShardedSim::new`; sum of `ClusterSim` builds over the cells; `run_multiplexed` outer wall minus `MuxSummary::wall_s`",
    },
    EndToEnd {
        name: "node_periods_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "simulated node-periods per reference second of the run call, from each call's median repetition: `n·periods/wall` (shard), `Σ_cells n·sim_secs·f / Σ wall` (des), `n·rounds/MuxSummary::wall_s` (mux). A reference second is a wall second at the host speed at which the reference kernel takes its nominal 4.9 ms: each call's wall time is divided by the reference kernel's time around it over nominal (`host.ref_slowdown`); `shard_sparse`, on two threads, reports its fastest repetition in wall seconds. Deliberately not events per second: a change that removes events must not read as a slowdown. `sim_s_per_wall_s` is this over `n·f`",
    },
    EndToEnd {
        name: "msgs_per_node_period",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
        what: "protocol messages put on the simulated or loopback network per node-period (`ShardReport::messages`, `NetStats::offered`, frames sent + injected drops). Exact per seed: a change that only claims speed leaves it identical",
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.005,
        what: "1 − failed/attempted, both printed: power not lost over budget (shard); requests answered over requests sent (des); frames the kernel delivered over frames it accepted (mux — injected drops are input, not failure)",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        what: "`VmHWM` of the workload's own process",
    },
];

/// One per-layer metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name, prefixed with the layer (crate) it belongs to.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload, and
    /// where the prediction is no change.
    pub moves: &'static str,
}

const fn ns(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
        moves,
    }
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const ENGINE_MSG: &str =
    "→ node_periods_per_s on shard_dense first, des_p2p and mux_soak second; flat on des_central";
const ENGINE_TICK: &str =
    "→ node_periods_per_s on des_p2p (every node ticks every period); flat on shard_sparse (elided)";
const LOSSY: &str = "→ node_periods_per_s on mux_lossy; flat on mux_soak";
const WIRE: &str =
    "→ node_periods_per_s and daemon.mux.rtt_p50_us on mux_soak; flat on every simulator workload";
const DES: &str = "→ node_periods_per_s on des_p2p and des_central; flat on shard_* and mux_*";
const CENTRAL: &str = "→ node_periods_per_s on des_central only";
const TRACE: &str = "paid on no workload while the sink is the no-op";

/// The per-layer ledger. Timings are the median ns per call over at least
/// 2·10^5 calls timed in batches; probe rows come from fixed cells that
/// every traced run repeats, so the ledger reads the same whichever
/// workload's traced run it is taken from (the `model.`, `host.` and
/// `bench.` rows excepted).
pub const PER_LAYER: [PerLayer; 95] = [
    // core
    ns("core.engine.new_ns", "→ setup_s on shard_sparse"),
    row("core.engine.bytes_per_node", "B", Better::Lower, "→ peak_rss_mib on shard_sparse"),
    row("core.engine.size_of_bytes", "B", Better::Lower, "→ peak_rss_mib on shard_sparse"),
    ns("core.engine.tick_margin_ns", ENGINE_TICK),
    ns("core.engine.tick_excess_ns", ENGINE_TICK),
    ns("core.engine.tick_hungry_ns", ENGINE_MSG),
    ns("core.engine.msg_request_ns", ENGINE_MSG),
    ns("core.engine.grant_outcome_ns", ENGINE_MSG),
    ns("core.engine.msg_grant_ns", ENGINE_MSG),
    ns("core.engine.msg_ack_ns", ENGINE_MSG),
    ns("core.engine.sweep_escrow_ns", LOSSY),
    ns("core.engine.escrow_deadline_ns", "→ node_periods_per_s on des_p2p"),
    ns("core.engine.tick_hungry_suspect_ns", LOSSY),
    ns("core.discovery.choose_peer_ns", ENGINE_MSG),
    ns("core.discovery.choose_peer_suspect_ns", LOSSY),
    ns("core.pool.handle_request_ns", ENGINE_MSG),
    ns("core.escrow.insert_release_ns", ENGINE_MSG),
    ns("core.escrow.take_expired_ns", LOSSY),
    row("core.engine.allocs_per_input", "count", Better::Lower, ENGINE_MSG),
    ns("core.engine.input_mean_ns", "call-weighted mean of the input kinds above in the mix the bench-owned table ran; the unit cost the shard and mux models use"),
    // daemon
    ns("daemon.wire.encode_request_ns", WIRE),
    ns("daemon.wire.encode_request_bid_ns", WIRE),
    ns("daemon.wire.encode_grant_ns", WIRE),
    ns("daemon.wire.encode_grant_digest_ns", LOSSY),
    ns("daemon.wire.encode_ack_ns", WIRE),
    ns("daemon.wire.decode_request_ns", WIRE),
    ns("daemon.wire.decode_request_bid_ns", WIRE),
    ns("daemon.wire.decode_grant_ns", WIRE),
    ns("daemon.wire.decode_grant_digest_ns", LOSSY),
    ns("daemon.wire.decode_ack_ns", WIRE),
    row("daemon.wire.allocs_per_encode", "count", Better::Lower, WIRE),
    ns("daemon.mux.ns_per_frame", "→ node_periods_per_s on mux_soak"),
    ns("daemon.mux.ns_per_input", "→ node_periods_per_s on mux_soak"),
    row("daemon.mux.frames_per_node_round", "count", Better::Lower, "→ msgs_per_node_period on mux_soak"),
    ns("daemon.mux.setup_ns_per_node", "→ setup_s on mux_soak"),
    row("daemon.mux.rtt_p50_us", "us", Better::Lower, "the daemon's grant round trip, wall clock; moves with daemon.wire.* and net.udp.*"),
    row("daemon.mux.rtt_p99_us", "us", Better::Lower, "the daemon's grant round-trip tail, wall clock"),
    row("daemon.mux.rtt_p999_us", "us", Better::Lower, "moved ±15 % between identical runs; read with care"),
    row("daemon.mux.sys_cpu_share", "ratio", Better::Lower, "→ host.cpu_sys_s on mux_soak: the share of the probe's CPU spent in the kernel"),
    row("daemon.mux.lossy_rtt_p50_us", "us", Better::Lower, LOSSY),
    row("daemon.mux.lossy_rtt_p99_us", "us", Better::Lower, LOSSY),
    row("daemon.mux.lossy_slowdown", "ratio", Better::Lower, "ns per input, lossy over lossless at the same N and rounds → node_periods_per_s on mux_lossy"),
    // net
    ns("net.udp.loopback_ns_per_datagram", "the floor under daemon.mux.ns_per_frame and daemon.mux.rtt_p50_us; host, not repository"),
    ns("net.shim.passthrough_send_ns", "→ node_periods_per_s on mux_soak"),
    ns("net.shim.faulty_send_ns", LOSSY),
    ns("net.simnet.route_ns", DES),
    ns("net.latency.sample_ns", DES),
    // sim
    ns("sim.event_queue.push_pop_ns_1k", DES),
    ns("sim.event_queue.push_pop_ns_100k", "the same queue at a depth no workload reaches yet; flat everywhere today"),
    ns("sim.cluster.new_ns_per_node", "→ setup_s on des_*"),
    ns("sim.cluster.p2p_ns_per_event", "→ node_periods_per_s on des_p2p"),
    ns("sim.cluster.central_ns_per_event", CENTRAL),
    row("sim.cluster.p2p_events", "count", Better::Lower, "exact per seed; → node_periods_per_s on des_p2p when a change removes events"),
    row("sim.cluster.central_events", "count", Better::Lower, "exact per seed; → node_periods_per_s on des_central when a change removes events"),
    ns("sim.cluster.donor_phase_ns_per_event", "→ node_periods_per_s on des_p2p (margin ticks, no traffic)"),
    ns("sim.cluster.redist_phase_ns_per_event", "→ node_periods_per_s on des_p2p (requests, grants, acks)"),
    row("sim.cluster.sim_s_per_wall_s", "ratio", Better::Higher, "node_periods_per_s on des_p2p in other units"),
    row("sim.cluster.p2p_turnaround_us", "us", Better::Lower, "simulated, exact per seed (Figs. 7-8); a speed-only change leaves it identical"),
    row("sim.cluster.central_turnaround_us", "us", Better::Lower, "simulated, exact per seed (Figs. 7-8); a speed-only change leaves it identical"),
    row("sim.cluster.p2p_redist_s", "s", Better::Lower, "simulated, exact per seed (Fig. 5); a speed-only change leaves it identical"),
    row("sim.cluster.central_redist_s", "s", Better::Lower, "simulated, exact per seed (Fig. 5); a speed-only change leaves it identical"),
    ns("sim.shard.new_ns_per_node", "→ setup_s on shard_sparse"),
    ns("sim.shard.sparse_ns_per_executed", "→ node_periods_per_s on shard_sparse"),
    ns("sim.shard.dense_ns_per_executed", "→ node_periods_per_s on shard_dense"),
    row("sim.shard.sparse_elided_share", "ratio", Better::Higher, "→ node_periods_per_s on shard_sparse; flat on shard_dense"),
    row("sim.shard.dense_msgs_per_node_period", "count", Better::Lower, "→ msgs_per_node_period on shard_dense"),
    row("sim.shard.sparse_transient_share", "ratio", Better::Lower, "wall of the first quarter of the periods over the whole run: how much of shard_sparse is the start-up wave"),
    row("sim.shard.partition_overhead_2", "ratio", Better::Lower, "two shards over one on one thread, minus one → node_periods_per_s on shard_sparse"),
    row("sim.shard.sparse_par_speedup_2", "ratio", Better::Higher, "→ node_periods_per_s on shard_sparse; flat on shard_dense (serial)"),
    row("sim.shard.dense_par_speedup_2", "ratio", Better::Higher, "what shard_dense would gain from a second thread; no workload runs it"),
    ns("sim.shard.driver_ns_per_executed", "wall minus executed × mean engine-input cost, per input: what the driver, not the protocol, costs → node_periods_per_s on shard_dense"),
    // slurm
    ns("slurm.server.on_request_ns", CENTRAL),
    ns("slurm.queue.offer_ns", CENTRAL),
    row("slurm.queue.saturation_rate_rps", "1/s", Better::Higher, "ServiceModel::saturation_rate, the paper's 11 800 (§4.5.2); an input, not a cost"),
    row("slurm.queue.drop_fraction_f24", "ratio", Better::Lower, "simulated, exact per seed: the centralized server's drops at 24 Hz → ok_share on des_central"),
    // power, workload
    ns("power.rapl.read_ns", DES),
    ns("power.rapl.set_cap_ns", DES),
    ns("workload.state.current_demand_ns", DES),
    // trace
    ns("trace.emit_noop_ns", TRACE),
    ns("trace.emit_counter_ns", TRACE),
    ns("trace.emit_ring_ns", TRACE),
    ns("trace.emit_jsonl_ns", TRACE),
    row("trace.des_counter_overhead_share", "ratio", Better::Lower, "one des_p2p cell with a CounterObserver attached over the same cell without"),
    // experiments
    row("experiments.sweep.par_speedup_2", "ratio", Better::Higher, "four des_p2p cells (1-8 Hz) through par_map_adaptive(2) over serial; no workload runs the sweep in parallel"),
    // model, host, bench
    row("model.explained_share", "ratio", Better::Higher, "predicted wall (counts × the unit costs above) over measured wall, for the workload this traced run ran"),
    row("model.predicted_node_periods_per_s", "1/s", Better::Higher, "the rate the unit costs predict, printed next to the measured one, for this run's workload"),
    row("model.measured_node_periods_per_s", "1/s", Better::Higher, "node_periods_per_s of this run's instrumentation-off repetitions"),
    row("host.cpu_user_s", "s", Better::Lower, "user CPU (all threads) of the run calls of one repetition of this run's workload, median"),
    row("host.cpu_sys_s", "s", Better::Lower, "system CPU of the same calls; on mux_* it is the two syscalls per frame"),
    row("host.cpu_ns_per_node_period", "ns", Better::Lower, "user + system CPU per node-period from each call's median repetition, in reference seconds: what node_periods_per_s hides when two threads run (shard_sparse) or the kernel does the work (mux_*)"),
    row("host.nproc", "count", Better::Higher, "cores the run could use"),
    row("host.ref_slowdown", "ratio", Better::Lower, "the reference kernel's median time around this run's calls over its nominal 4.9 ms: the factor every reported second was divided by; 1.3-1.5 while the sandbox's neighbours are busy"),
    row("bench.trace_overhead_share", "ratio", Better::Lower, "repetition wall with spans and allocation counting on over off, minus one, for this run's workload"),
    row("bench.reps", "count", Better::Higher, "timed repetitions of this run's workload, instrumentation on plus off"),
    row("bench.ledger_wall_s", "s", Better::Lower, "wall time the ledger itself took in this run"),
];

/// The two metric tables of `README.md`, as markdown
/// (`run.sh --glossary`): the README is pasted from here, so a row added
/// to the catalog cannot be missing from the glossary.
pub fn glossary() -> String {
    let mut out =
        String::from("| name | unit | better | bound | definition |\n|---|---|---|---|---|\n");
    for m in END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.word(),
            m.bound,
            m.what
        );
    }
    out += "\n| name | unit | better | prediction |\n|---|---|---|---|\n";
    for m in PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.word(),
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    }

    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = crate::adapter::json_parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("list present")
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
                .collect()
        };
        let ours = |it: &mut dyn Iterator<Item = &'static str>| -> Vec<String> {
            it.map(str::to_string).collect()
        };
        assert_eq!(
            names("workloads"),
            ours(&mut Workload::ALL.iter().map(|w| w.name()))
        );
        for (w, j) in Workload::ALL
            .iter()
            .zip(json.get("workloads").unwrap().as_array().unwrap())
        {
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why()));
        }
        assert_eq!(
            names("end_to_end"),
            ours(&mut END_TO_END.iter().map(|m| m.name))
        );
        assert_eq!(
            names("per_layer"),
            ours(&mut PER_LAYER.iter().map(|m| m.name))
        );
        for (m, j) in END_TO_END
            .iter()
            .zip(json.get("end_to_end").unwrap().as_array().unwrap())
        {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(j.get("better").unwrap().as_str(), Some(m.better.word()));
            assert_eq!(j.get("bound").unwrap().as_f64(), Some(m.bound));
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worsening(100.0, 90.0) < 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 1.0), 0.0);
    }
}
