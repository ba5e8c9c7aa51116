//! The per-layer ledger: single-layer unit costs timed in batches, and
//! fixed probe cells that split a substrate's wall time by variant.
//!
//! Everything here is timed from outside the program. The ledger is the
//! same code at the same sizes in every traced run, so its rows read the
//! same whichever workload's traced run they are taken from.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{
    self, BatchTimer, DesCell, DesOptions, DesSystem, MuxCell, MuxCounts, ShardCell,
};
use crate::host;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{des_sliced, mux_check, timed};

/// Calls behind every unit cost, at least.
pub const MIN_CALLS: usize = 200_000;

/// The sparse probe: the `shard_sparse` scenario at a size four variants
/// of it fit in a second.
const SPARSE_PROBE: ShardCell = ShardCell {
    nodes: 200_000,
    periods: 120,
    recipient_every: 64,
    shards: 2,
    jobs: 2,
    seed: 0,
};
/// The dense probe: the `shard_dense` scenario, a third of its periods.
const DENSE_PROBE: ShardCell = ShardCell {
    nodes: 32_768,
    periods: 5,
    recipient_every: 2,
    shards: 1,
    jobs: 1,
    seed: 0,
};
/// Engines built to read bytes per node off the resident set.
const BYTES_PROBE_NODES: usize = 100_000;
/// The lossless mux probe the `daemon.mux.*` rows come from.
const MUX_PROBE: MuxCell = MuxCell {
    nodes: 4_096,
    rounds: 25,
    seed: 0,
    loss_permille: None,
};
/// The lossy probe, and the lossless cell of the same size it is held
/// against.
const MUX_LOSSY_PROBE: MuxCell = MuxCell {
    nodes: 2_048,
    rounds: 12,
    seed: 0,
    loss_permille: Some(50),
};

/// One timed batch.
#[derive(Clone, Copy, Debug)]
struct Batch {
    calls: usize,
    ns: u64,
    allocs: u64,
}

/// Collects the batches [`adapter::micro_layers`] times.
#[derive(Debug, Default)]
pub struct Recorder {
    batches: BTreeMap<&'static str, Vec<Batch>>,
}

impl BatchTimer for Recorder {
    fn time(&mut self, name: &'static str, calls: usize, body: &mut dyn FnMut()) {
        let allocs = host::allocs();
        let start = Instant::now();
        body();
        let ns = start.elapsed().as_nanos() as u64;
        let allocs = host::allocs() - allocs;
        if calls > 0 {
            self.batches
                .entry(name)
                .or_default()
                .push(Batch { calls, ns, allocs });
        }
    }
}

impl Recorder {
    /// Median ns per call over the operation's batches. Short batches (the
    /// tail of a stage) are left out when full ones exist: a handful of
    /// calls is mostly timer.
    pub fn ns_per_call(&self, name: &str) -> Option<f64> {
        let batches = self.batches.get(name)?;
        let largest = batches.iter().map(|b| b.calls).max()?;
        let per_call: Vec<f64> = batches
            .iter()
            .filter(|b| b.calls * 2 >= largest)
            .map(|b| b.ns as f64 / b.calls as f64)
            .collect();
        Some(stats::median(&per_call))
    }

    /// Calls timed under `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.batches
            .get(name)
            .map_or(0, |b| b.iter().map(|b| b.calls).sum())
    }

    /// Allocations per call over every operation whose name passes `keep`.
    fn allocs_per_call(&self, keep: impl Fn(&str) -> bool) -> f64 {
        let (mut allocs, mut calls) = (0u64, 0usize);
        for (name, batches) in &self.batches {
            if keep(name) {
                allocs += batches.iter().map(|b| b.allocs).sum::<u64>();
                calls += batches.iter().map(|b| b.calls).sum::<usize>();
            }
        }
        allocs as f64 / calls.max(1) as f64
    }

    /// Call-weighted mean of the unit costs whose names pass `keep`: the
    /// cost of "one engine input" in the mix the lab ran.
    fn mean_ns(&self, keep: impl Fn(&str) -> bool) -> f64 {
        let (mut ns, mut calls) = (0.0, 0usize);
        for name in self.batches.keys().filter(|n| keep(n)) {
            let n = self.calls(name);
            ns += self.ns_per_call(name).unwrap_or(0.0) * n as f64;
            calls += n;
        }
        ns / calls.max(1) as f64
    }
}

/// The ledger's rows by name.
pub type Rows = BTreeMap<&'static str, f64>;

/// The engine inputs the lab records in its sweep mode: the mix a dense
/// cluster runs.
fn is_engine_input(name: &str) -> bool {
    name.starts_with("core.engine.")
        && !name.ends_with("new_ns")
        && !name.ends_with("suspect_ns")
        && !name.ends_with("escrow_deadline_ns")
}

/// Run the whole ledger. `Err` names the correctness check that failed.
pub fn run(seed: u64, spans: &mut Spans) -> Result<Rows, String> {
    let mut rows = Rows::new();
    let mut rec = Recorder::default();

    let open = spans.enter(|| "ledger.micro".into());
    host::count_allocs(true);
    let facts = adapter::micro_layers(seed, MIN_CALLS, &mut rec);
    host::count_allocs(false);
    spans.exit(open, &[]);
    let facts = facts.map_err(|e| format!("loopback sockets of the ledger: {e}"))?;
    if !facts.lab_conserved {
        return Err("the ledger's engine table did not conserve its budget".into());
    }
    for name in rec.batches.keys() {
        rows.insert(name, rec.ns_per_call(name).expect("recorded"));
    }
    rows.insert("core.engine.size_of_bytes", facts.engine_size_of as f64);
    rows.insert(
        "core.engine.allocs_per_input",
        rec.allocs_per_call(is_engine_input),
    );
    rows.insert(
        "daemon.wire.allocs_per_encode",
        rec.allocs_per_call(|n| n.starts_with("daemon.wire.encode_")),
    );
    rows.insert(
        "slurm.queue.saturation_rate_rps",
        facts.slurm_saturation_rps,
    );
    let (bytes, _) = timed(spans, "probe.engine_bytes", || {
        adapter::engine_bytes_per_node(BYTES_PROBE_NODES)
    });
    rows.insert("core.engine.bytes_per_node", bytes);

    let engine_mean_ns = rec.mean_ns(is_engine_input);
    rows.insert("core.engine.input_mean_ns", engine_mean_ns);
    shard_probes(seed, engine_mean_ns, spans, &mut rows)?;
    des_probes(seed, spans, &mut rows)?;
    mux_probes(seed, spans, &mut rows)?;
    Ok(rows)
}

fn shard_probe(
    cell: ShardCell,
    spans: &mut Spans,
) -> Result<(adapter::ShardCounts, f64, f64), String> {
    let name = format!(
        "variant[n={},shards={},jobs={},periods={}]",
        cell.nodes, cell.shards, cell.jobs, cell.periods
    );
    let open = spans.enter(|| name.clone());
    let (built, setup_s) = timed(spans, "new", || adapter::shard_new(&cell));
    let (counts, run_s) = timed(spans, "run", || adapter::shard_run(built));
    spans.exit(
        open,
        &[("executed", counts.executed), ("elided", counts.elided)],
    );
    if !counts.conservation_ok {
        return Err(format!("shard probe {name} broke conservation"));
    }
    Ok((counts, setup_s, run_s))
}

fn shard_probes(
    seed: u64,
    engine_mean_ns: f64,
    spans: &mut Spans,
    rows: &mut Rows,
) -> Result<(), String> {
    let open = spans.enter(|| "probe.shard".into());
    let sparse = ShardCell {
        seed,
        ..SPARSE_PROBE
    };
    // The first build of a session pays first-touch page faults the later
    // ones do not: build once, unrecorded, before anything is timed.
    drop(adapter::shard_new(&sparse));
    let (s22, setup_s, wall_22) = shard_probe(sparse, spans)?;
    let (s21, _, wall_21) = shard_probe(ShardCell { jobs: 1, ..sparse }, spans)?;
    let (s11, _, wall_11) = shard_probe(
        ShardCell {
            shards: 1,
            jobs: 1,
            ..sparse
        },
        spans,
    )?;
    let (_, _, wall_quarter) = shard_probe(
        ShardCell {
            periods: sparse.periods / 4,
            ..sparse
        },
        spans,
    )?;
    if s22.fingerprint != s21.fingerprint || s22.fingerprint != s11.fingerprint {
        return Err("sparse probe: fingerprint depends on shards or jobs".into());
    }
    rows.insert(
        "sim.shard.new_ns_per_node",
        setup_s * 1e9 / sparse.nodes as f64,
    );
    rows.insert(
        "sim.shard.sparse_ns_per_executed",
        wall_22 * 1e9 / s22.executed as f64,
    );
    rows.insert(
        "sim.shard.sparse_elided_share",
        s22.elided as f64 / (s22.elided + s22.executed) as f64,
    );
    rows.insert("sim.shard.sparse_transient_share", wall_quarter / wall_22);
    rows.insert("sim.shard.partition_overhead_2", wall_21 / wall_11 - 1.0);
    rows.insert("sim.shard.sparse_par_speedup_2", wall_21 / wall_22);

    let dense = ShardCell {
        seed,
        ..DENSE_PROBE
    };
    let (d11, _, dense_11) = shard_probe(dense, spans)?;
    let (d21, _, dense_21) = shard_probe(ShardCell { shards: 2, ..dense }, spans)?;
    let (d22, _, dense_22) = shard_probe(
        ShardCell {
            shards: 2,
            jobs: 2,
            ..dense
        },
        spans,
    )?;
    if d11.fingerprint != d21.fingerprint || d11.fingerprint != d22.fingerprint {
        return Err("dense probe: fingerprint depends on shards or jobs".into());
    }
    let per_executed = dense_11 * 1e9 / d11.executed as f64;
    rows.insert("sim.shard.dense_ns_per_executed", per_executed);
    rows.insert(
        "sim.shard.dense_msgs_per_node_period",
        d11.messages as f64 / dense.node_periods(),
    );
    rows.insert("sim.shard.dense_par_speedup_2", dense_21 / dense_22);
    rows.insert(
        "sim.shard.driver_ns_per_executed",
        per_executed - engine_mean_ns,
    );
    spans.exit(open, &[]);
    Ok(())
}

/// The grid cell at `hz` for the first application pair.
fn cell_at(cells: &[DesCell], hz: f64) -> &DesCell {
    cells
        .iter()
        .find(|c| c.frequency_hz == hz && c.pair == 0)
        .expect("frequency on the paper's axis")
}

fn des_probes(seed: u64, spans: &mut Spans, rows: &mut Rows) -> Result<(), String> {
    let open = spans.enter(|| "probe.des".into());
    let cells = adapter::des_cells(seed, 1);
    let plain = DesOptions::default();

    // Peer-to-peer at 8 Hz, the middle of the frequency axis.
    let p2p_cell = cell_at(&cells, 8.0);
    let (p2p, setup_s, [donor_s, redist_s]) = des_sliced(DesSystem::P2p, p2p_cell, plain, spans);
    // The same cell stopped at the donors' finish counts the first
    // slice's events (the simulator reports events only when it ends).
    let donor_events = {
        let mut built = adapter::des_new(DesSystem::P2p, p2p_cell, plain);
        built.advance_to_donor_finish();
        built.finish().events
    };
    let wall = donor_s + redist_s;
    rows.insert(
        "sim.cluster.new_ns_per_node",
        setup_s * 1e9 / p2p_cell.nodes() as f64,
    );
    rows.insert("sim.cluster.p2p_events", p2p.events as f64);
    rows.insert(
        "sim.cluster.p2p_ns_per_event",
        wall * 1e9 / p2p.events as f64,
    );
    rows.insert(
        "sim.cluster.donor_phase_ns_per_event",
        donor_s * 1e9 / donor_events.max(1) as f64,
    );
    rows.insert(
        "sim.cluster.redist_phase_ns_per_event",
        redist_s * 1e9 / (p2p.events - donor_events).max(1) as f64,
    );
    rows.insert("sim.cluster.sim_s_per_wall_s", p2p.sim_secs / wall);
    rows.insert("sim.cluster.p2p_turnaround_us", p2p.turnaround_us);
    rows.insert("sim.cluster.p2p_redist_s", p2p.redist_s);

    // What a counting observer costs the same cell, whole-run to whole-run.
    let (bare, bare_s) = timed(spans, "cell[f=8,observer=none]", || {
        adapter::des_new(DesSystem::P2p, p2p_cell, plain).run()
    });
    let counted_opts = DesOptions {
        counter_observer: true,
        ..plain
    };
    let (counted, counted_s) = timed(spans, "cell[f=8,observer=counter]", || {
        adapter::des_new(DesSystem::P2p, p2p_cell, counted_opts).run()
    });
    if bare.events != p2p.events || counted.events != p2p.events {
        return Err("p2p probe: event count depends on slicing or on the observer".into());
    }
    if counted.observed_events.unwrap_or(0) == 0 {
        return Err("p2p probe: the counter observer saw no event".into());
    }
    rows.insert("trace.des_counter_overhead_share", counted_s / bare_s - 1.0);

    // Centralized at 24 Hz, where the paper's server saturates.
    let central_cell = cell_at(&cells, 24.0);
    let (central, _, slices) = des_sliced(DesSystem::Central, central_cell, plain, spans);
    rows.insert("sim.cluster.central_events", central.events as f64);
    rows.insert(
        "sim.cluster.central_ns_per_event",
        slices.iter().sum::<f64>() * 1e9 / central.events as f64,
    );
    rows.insert("sim.cluster.central_turnaround_us", central.turnaround_us);
    rows.insert("sim.cluster.central_redist_s", central.redist_s);
    rows.insert(
        "slurm.queue.drop_fraction_f24",
        central
            .server_drop_fraction
            .ok_or("central probe: no server queue in the report")?,
    );
    if !(p2p.conservation_ok && central.conservation_ok) {
        return Err("des probe broke conservation".into());
    }

    // The four lowest frequencies of the grid: a sweep small enough to
    // repeat in every traced run, large enough that two workers have
    // something to share.
    let ((serial_s, par_s), _) = timed(spans, "sweep[4 cells,serial+par2]", || {
        adapter::des_sweep_serial_vs_par(DesSystem::P2p, &cells[..4])
    });
    rows.insert("experiments.sweep.par_speedup_2", serial_s / par_s);
    spans.exit(open, &[]);
    Ok(())
}

fn mux_probe(cell: MuxCell, spans: &mut Spans) -> Result<(MuxCounts, f64, host::CpuTime), String> {
    let name = format!(
        "mux[n={},rounds={},loss={}]",
        cell.nodes,
        cell.rounds,
        cell.loss_permille.unwrap_or(0)
    );
    let cpu = host::cpu_time();
    let (counts, outer_s) = timed(spans, &name, || adapter::mux_run(&cell));
    let cpu = host::cpu_time().since(cpu);
    let counts = counts.map_err(|e| format!("{name}: {e}"))?;
    mux_check(&cell, &counts)?;
    Ok((counts, outer_s, cpu))
}

fn rtt_us(sorted: &[u64], p: stats::PerMyriad) -> f64 {
    stats::nearest_rank(sorted, p) as f64 / 1e3
}

fn mux_probes(seed: u64, spans: &mut Spans, rows: &mut Rows) -> Result<(), String> {
    let open = spans.enter(|| "probe.mux".into());
    let cell = MuxCell { seed, ..MUX_PROBE };
    let (m, outer_s, cpu) = mux_probe(cell, spans)?;
    let wall_ns = m.wall_s * 1e9;
    let mut rtt = m.rtt_ns.clone();
    rtt.sort_unstable();
    rows.insert("daemon.mux.ns_per_frame", wall_ns / m.frames_sent as f64);
    rows.insert("daemon.mux.ns_per_input", wall_ns / m.events as f64);
    rows.insert(
        "daemon.mux.frames_per_node_round",
        m.frames_sent as f64 / cell.node_periods(),
    );
    rows.insert(
        "daemon.mux.setup_ns_per_node",
        (outer_s - m.wall_s) * 1e9 / cell.nodes as f64,
    );
    rows.insert("daemon.mux.rtt_p50_us", rtt_us(&rtt, 5_000));
    rows.insert("daemon.mux.rtt_p99_us", rtt_us(&rtt, 9_900));
    rows.insert("daemon.mux.rtt_p999_us", rtt_us(&rtt, 9_990));
    rows.insert(
        "daemon.mux.sys_cpu_share",
        cpu.sys_s / cpu.total_s().max(1e-9),
    );

    let lossy_cell = MuxCell {
        seed,
        ..MUX_LOSSY_PROBE
    };
    let (lossy, _, _) = mux_probe(lossy_cell, spans)?;
    let (lossless, _, _) = mux_probe(
        MuxCell {
            loss_permille: None,
            ..lossy_cell
        },
        spans,
    )?;
    let mut rtt = lossy.rtt_ns.clone();
    rtt.sort_unstable();
    rows.insert("daemon.mux.lossy_rtt_p50_us", rtt_us(&rtt, 5_000));
    rows.insert("daemon.mux.lossy_rtt_p99_us", rtt_us(&rtt, 9_900));
    rows.insert(
        "daemon.mux.lossy_slowdown",
        (lossy.wall_s / lossy.events as f64) / (lossless.wall_s / lossless.events as f64),
    );
    spans.exit(open, &[]);
    Ok(())
}

/// Predicted wall nanoseconds per node-period building blocks, read off
/// the ledger for the workload models.
pub struct UnitCosts<'a>(pub &'a Rows);

impl UnitCosts<'_> {
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Call-weighted mean cost of an engine input in the lab's mix.
    pub fn engine_input_ns(&self) -> f64 {
        self.get("core.engine.input_mean_ns")
    }

    /// Mean cost of a peer message input (request, grant, ack).
    pub fn engine_msg_ns(&self) -> f64 {
        (self.get("core.engine.msg_request_ns")
            + self.get("core.engine.msg_grant_ns")
            + self.get("core.engine.msg_ack_ns"))
            / 3.0
    }

    /// Mean cost of a tick (margin, excess and hungry weighted alike).
    pub fn engine_tick_ns(&self) -> f64 {
        (self.get("core.engine.tick_margin_ns")
            + self.get("core.engine.tick_excess_ns")
            + self.get("core.engine.tick_hungry_ns"))
            / 3.0
    }

    /// What every DES tick pays outside the manager: a power read, a cap
    /// write and a demand lookup.
    pub fn des_tick_io_ns(&self) -> f64 {
        self.get("power.rapl.read_ns")
            + self.get("power.rapl.set_cap_ns")
            + self.get("workload.state.current_demand_ns")
    }

    /// One pop and push on the global event queue at the DES's depth.
    pub fn event_queue_ns(&self) -> f64 {
        self.get("sim.event_queue.push_pop_ns_1k")
    }

    /// Routing one message through `SimNet`.
    pub fn route_ns(&self) -> f64 {
        self.get("net.simnet.route_ns")
    }

    /// The centralized server's queue admission plus its grant decision.
    pub fn central_request_ns(&self) -> f64 {
        self.get("slurm.queue.offer_ns") + self.get("slurm.server.on_request_ns")
    }

    /// One mux frame: encode, two syscalls over loopback, decode (request,
    /// grant and ack frames weighted alike).
    pub fn mux_frame_ns(&self) -> f64 {
        let codec: f64 = ["request", "grant", "ack"]
            .iter()
            .map(|k| {
                self.get(&format!("daemon.wire.encode_{k}_ns"))
                    + self.get(&format!("daemon.wire.decode_{k}_ns"))
            })
            .sum();
        codec / 3.0 + self.get("net.udp.loopback_ns_per_datagram")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_medians_full_batches_and_counts_calls() {
        let mut r = Recorder::default();
        for ns in [100, 300, 200] {
            r.batches.entry("op").or_default().push(Batch {
                calls: 100,
                ns,
                allocs: 50,
            });
        }
        // A 3-call tail batch must not drag the median.
        r.batches.get_mut("op").unwrap().push(Batch {
            calls: 3,
            ns: 3_000,
            allocs: 0,
        });
        assert_eq!(r.ns_per_call("op"), Some(2.0));
        assert_eq!(r.calls("op"), 303);
        assert!((r.allocs_per_call(|n| n == "op") - 150.0 / 303.0).abs() < 1e-12);
        assert_eq!(r.ns_per_call("missing"), None);
    }
}
