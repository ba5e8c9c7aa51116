//! The six workloads: what one repetition runs and what it must get right.
//!
//! Every workload is a closed loop — the simulators are batch jobs, and
//! the reactor never has more than `adapter::MUX_WINDOW` frames in flight
//! — driven by one generator thread. Sizes are fixed; a run repeats them
//! on fresh instances until its time is up, so a faster machine measures
//! more repetitions, never a different workload.

use std::time::Instant;

use crate::adapter::{
    self, DesCell, DesCounts, DesOptions, DesSystem, MuxCell, MuxCounts, ShardCell,
};
use crate::catalog::Workload;
use crate::host::{self, CpuTime};
use crate::spans::Spans;

/// Pairs of the application-pair subset the DES grid uses.
const DES_PAIRS: usize = 2;

/// How much of a workload one call runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The workload as defined.
    Full,
    /// One tenth of the periods, rounds or cells: the discarded warm-up
    /// pass. It is needed — the first 500k-node build of a process pays
    /// 2.2 s of first-touch page faults against 0.28 s afterwards.
    WarmUp,
}

/// What one repetition measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Rep {
    /// Simulated node-periods.
    pub node_periods: f64,
    /// The calls one by one — a build and a run per DES cell, a single
    /// pair for the other substrates — so the report can correct each for
    /// the host's speed around it.
    pub parts: Vec<Part>,
    /// Protocol messages put on the network.
    pub messages: u64,
    /// `ok_share` numerator and denominator.
    pub ok: (u64, u64),
    /// Work counts the model multiplies unit costs by.
    pub work: Work,
    /// Grant round trips, wall-clock ns (mux only).
    pub rtt_ns: Vec<u64>,
    /// Counts that must repeat exactly across repetitions of one seed: the
    /// workload's `fidelity` block.
    pub exact: Vec<(&'static str, String)>,
}

impl Rep {
    /// Wall seconds of the constructor call(s).
    pub fn setup_s(&self) -> f64 {
        self.parts.iter().map(|p| p.setup_s).sum()
    }

    /// Wall seconds of the run call(s).
    pub fn run_s(&self) -> f64 {
        self.parts.iter().map(|p| p.run_s).sum()
    }

    /// CPU of the run call(s).
    pub fn cpu(&self) -> CpuTime {
        self.parts
            .iter()
            .fold(CpuTime::default(), |acc, p| CpuTime {
                user_s: acc.user_s + p.cpu.user_s,
                sys_s: acc.sys_s + p.cpu.sys_s,
            })
    }
}

/// One constructor call and run call of a repetition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Part {
    /// Wall seconds of the constructor.
    pub setup_s: f64,
    /// Wall seconds of the run call.
    pub run_s: f64,
    /// CPU the process used during the run call, all threads.
    pub cpu: CpuTime,
    /// Seconds the reference kernel took around the two calls: the mean of
    /// the sample before them and the sample after.
    pub ref_s: f64,
}

/// Time `f` on the wall clock and the process CPU clock.
fn timed_cpu<R>(f: impl FnOnce() -> R) -> (R, f64, CpuTime) {
    let cpu = host::cpu_time();
    let start = Instant::now();
    let r = f();
    let run_s = start.elapsed().as_secs_f64();
    (r, run_s, host::cpu_time().since(cpu))
}

/// Samples the reference kernel between the calls of a repetition: once
/// before the first call, and once after every call, which is also the
/// sample before the next.
struct RefClock {
    last: f64,
}

impl RefClock {
    fn start(spans: &mut Spans) -> Self {
        RefClock {
            last: timed(spans, "reference", host::reference_s).0,
        }
    }

    /// Reference seconds around the call just made.
    fn around(&mut self, spans: &mut Spans) -> f64 {
        let after = timed(spans, "reference", host::reference_s).0;
        let mean = (self.last + after) / 2.0;
        self.last = after;
        mean
    }
}

/// The counts a workload's cost model is built from.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Work {
    /// Engine inputs executed (shard, mux) or DES events.
    pub events: u64,
    /// Requests sent (DES).
    pub requests: u64,
    /// Protocol messages put on the network.
    pub messages: u64,
}

impl Workload {
    fn shard_cell(self, seed: u64, scale: Scale) -> ShardCell {
        let (cell, warm_periods) = match self {
            Workload::ShardSparse => (
                ShardCell {
                    nodes: 500_000,
                    periods: 250,
                    recipient_every: 64,
                    shards: 2,
                    jobs: 2,
                    seed,
                },
                25,
            ),
            _ => (
                ShardCell {
                    nodes: 32_768,
                    periods: 8,
                    recipient_every: 2,
                    shards: 1,
                    jobs: 1,
                    seed,
                },
                1,
            ),
        };
        match scale {
            Scale::Full => cell,
            Scale::WarmUp => ShardCell {
                periods: warm_periods,
                ..cell
            },
        }
    }

    fn mux_cell(self, seed: u64, scale: Scale) -> MuxCell {
        let cell = match self {
            Workload::MuxSoak => MuxCell {
                nodes: 10_000,
                rounds: 15,
                seed,
                loss_permille: None,
            },
            _ => MuxCell {
                nodes: 2_048,
                rounds: 20,
                seed,
                loss_permille: Some(50),
            },
        };
        match scale {
            Scale::Full => cell,
            Scale::WarmUp => MuxCell {
                rounds: cell.rounds / 10,
                ..cell
            },
        }
    }

    fn des_system(self) -> DesSystem {
        match self {
            Workload::DesCentral => DesSystem::Central,
            _ => DesSystem::P2p,
        }
    }

    /// Threads the workload runs on, sockets it opens, and its closed-loop
    /// window, for the environment record.
    pub fn shape(self) -> (usize, usize, String) {
        match self {
            Workload::ShardSparse => (2, 0, "batch job: one run call at a time".into()),
            Workload::ShardDense | Workload::DesP2p | Workload::DesCentral => {
                (1, 0, "batch job: one run call at a time".into())
            }
            Workload::MuxSoak | Workload::MuxLossy => (
                1,
                2,
                format!(
                    "at most {} frames in flight, drained to {}",
                    adapter::MUX_WINDOW,
                    adapter::MUX_DRAIN_TO
                ),
            ),
        }
    }

    /// Checks that run once per process, untimed, before any repetition.
    pub fn preflight(self, seed: u64, spans: &mut Spans) -> Result<(), String> {
        match self {
            Workload::ShardSparse if crate::host::nproc() < 2 => Err(
                "shard_sparse runs two shards on two threads; with fewer than 2 cores its numbers would measure the scheduler"
                    .into(),
            ),
            Workload::DesP2p | Workload::DesCentral => {
                // One cell with the conservation ledger audited after
                // every event: the 1 Hz cell, the grid's fewest events.
                let open = spans.enter(|| "check[invariants]".into());
                let cells = adapter::des_cells(seed, DES_PAIRS);
                let opts = DesOptions {
                    check_invariants: true,
                    ..DesOptions::default()
                };
                let counts = adapter::des_new(self.des_system(), &cells[0], opts).run();
                spans.exit(open, &[("events", counts.events)]);
                if counts.conservation_ok {
                    Ok(())
                } else {
                    Err(format!("{}: conservation broke under check_invariants", self.name()))
                }
            }
            _ => Ok(()),
        }
    }

    /// Run one repetition on fresh instances. With spans enabled the DES
    /// cells are driven in two `advance_to` slices; otherwise in one
    /// `run` call, as users run them.
    pub fn rep(self, seed: u64, scale: Scale, spans: &mut Spans) -> Result<Rep, String> {
        match self {
            Workload::ShardSparse | Workload::ShardDense => {
                shard_rep(self, self.shard_cell(seed, scale), spans)
            }
            Workload::DesP2p | Workload::DesCentral => {
                let cells = adapter::des_cells(seed, DES_PAIRS);
                let cells = match scale {
                    Scale::Full => &cells[..],
                    Scale::WarmUp => &cells[..cells.len().div_ceil(10)],
                };
                des_rep(self, cells, spans)
            }
            Workload::MuxSoak | Workload::MuxLossy => mux_rep(self.mux_cell(seed, scale), spans),
        }
    }
}

/// Time `f`, recording a span named `name` around it.
pub fn timed<R>(spans: &mut Spans, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let open = spans.enter(|| name.to_string());
    let start = Instant::now();
    let r = f();
    let s = start.elapsed().as_secs_f64();
    spans.exit(open, &[]);
    (r, s)
}

/// Run one DES cell in two `advance_to` slices split at the donors'
/// finish; returns the counts, build seconds and the two slices' seconds.
pub fn des_sliced(
    system: DesSystem,
    cell: &DesCell,
    opts: DesOptions,
    spans: &mut Spans,
) -> (DesCounts, f64, [f64; 2]) {
    let open = spans.enter(|| format!("cell[f={},pair={}]", cell.frequency_hz, cell.pair));
    let (mut built, setup_s) = timed(spans, "new", || adapter::des_new(system, cell, opts));
    let ((), donor_s) = timed(spans, "slice[donor]", || built.advance_to_donor_finish());
    let ((), redist_s) = timed(spans, "slice[redist]", || built.advance_to_horizon());
    let counts = built.finish();
    spans.exit(open, &[("events", counts.events)]);
    (counts, setup_s, [donor_s, redist_s])
}

/// Check one multiplexed run's accounting; `Err` names what failed.
pub fn mux_check(cell: &MuxCell, c: &MuxCounts) -> Result<(), String> {
    if c.accounted_mw > c.budget_mw {
        return Err(format!(
            "mux minted power: {} mW accounted, {} mW budget",
            c.accounted_mw, c.budget_mw
        ));
    }
    if c.wire_lost == 0 && c.accounted_mw != c.budget_mw {
        return Err(format!(
            "mux lost power without losing a frame: {} of {} mW",
            c.accounted_mw, c.budget_mw
        ));
    }
    if c.send_failed != 0 {
        return Err(format!("{} loopback sends failed", c.send_failed));
    }
    if c.rtt_ns.is_empty() {
        return Err("no grant round trip completed".into());
    }
    if cell.loss_permille.is_some() && c.injected_drops == 0 {
        return Err("lossy cell dropped nothing".into());
    }
    Ok(())
}

fn shard_rep(w: Workload, cell: ShardCell, spans: &mut Spans) -> Result<Rep, String> {
    let mut clock = RefClock::start(spans);
    let (built, setup_s) = timed(spans, "new", || adapter::shard_new(&cell));
    let open = spans.enter(|| "run".into());
    let (c, run_s, cpu) = timed_cpu(|| adapter::shard_run(built));
    spans.exit(open, &[("executed", c.executed), ("elided", c.elided)]);
    let ref_s = clock.around(spans);
    if !c.conservation_ok {
        return Err(format!(
            "{}: ShardReport::conservation_ok is false",
            w.name()
        ));
    }
    Ok(Rep {
        node_periods: cell.node_periods(),
        parts: vec![Part {
            setup_s,
            run_s,
            cpu,
            ref_s,
        }],
        messages: c.messages,
        ok: (c.budget_mw - c.lost_mw, c.budget_mw),
        work: Work {
            events: c.executed,
            messages: c.messages,
            ..Work::default()
        },
        rtt_ns: Vec::new(),
        exact: vec![
            ("fingerprint", format!("{:016x}", c.fingerprint)),
            ("executed", c.executed.to_string()),
            ("elided", c.elided.to_string()),
            ("messages", c.messages.to_string()),
            ("lost_mw", c.lost_mw.to_string()),
        ],
    })
}

fn des_rep(w: Workload, cells: &[DesCell], spans: &mut Spans) -> Result<Rep, String> {
    let system = w.des_system();
    let mut clock = RefClock::start(spans);
    let mut rep = Rep {
        node_periods: 0.0,
        parts: Vec::with_capacity(cells.len()),
        messages: 0,
        ok: (0, 0),
        work: Work::default(),
        rtt_ns: Vec::new(),
        exact: Vec::new(),
    };
    let mut turnaround_us = Vec::with_capacity(cells.len());
    let mut redist_s = Vec::with_capacity(cells.len());
    for cell in cells {
        let (c, setup_s, run_s, cpu) = if spans.enabled() {
            let cpu = host::cpu_time();
            let (c, setup_s, slices) = des_sliced(system, cell, DesOptions::default(), spans);
            // The CPU includes the cell's build: a millisecond in a hundred.
            let cpu = host::cpu_time().since(cpu);
            (c, setup_s, slices.iter().sum(), cpu)
        } else {
            let start = Instant::now();
            let built = adapter::des_new(system, cell, DesOptions::default());
            let setup_s = start.elapsed().as_secs_f64();
            let (c, run_s, cpu) = timed_cpu(|| built.run());
            (c, setup_s, run_s, cpu)
        };
        rep.parts.push(Part {
            setup_s,
            run_s,
            cpu,
            ref_s: clock.around(spans),
        });
        if !c.conservation_ok {
            return Err(format!(
                "{}: RunReport::conservation_ok is false at {} Hz",
                w.name(),
                cell.frequency_hz
            ));
        }
        rep.node_periods += c.node_periods;
        rep.messages += c.messages;
        rep.ok.0 += c.answered;
        rep.ok.1 += c.answered + c.unanswered;
        rep.work.events += c.events;
        rep.work.requests += c.answered + c.unanswered;
        rep.work.messages += c.messages;
        turnaround_us.push(c.turnaround_us);
        redist_s.push(c.redist_s);
    }
    // Figs. 7-8 average turnaround over the pairs; Fig. 5 takes the
    // median redistribution time.
    let mean_turnaround = turnaround_us.iter().sum::<f64>() / turnaround_us.len() as f64;
    rep.exact = vec![
        ("events", rep.work.events.to_string()),
        ("requests", rep.ok.1.to_string()),
        ("unanswered", (rep.ok.1 - rep.ok.0).to_string()),
        ("messages", rep.messages.to_string()),
        ("node_periods", format!("{:.3}", rep.node_periods)),
        ("sim_turnaround_us", format!("{mean_turnaround:.6}")),
        (
            "sim_redist_s",
            format!("{:.9}", crate::stats::median(&redist_s)),
        ),
    ];
    Ok(rep)
}

fn mux_rep(cell: MuxCell, spans: &mut Spans) -> Result<Rep, String> {
    let mut clock = RefClock::start(spans);
    let open = spans.enter(|| "run_multiplexed".into());
    let (c, outer_s, cpu) = timed_cpu(|| adapter::mux_run(&cell));
    let c = c.map_err(|e| format!("run_multiplexed: {e}"))?;
    spans.exit(open, &[("events", c.events), ("frames", c.frames_sent)]);
    let ref_s = clock.around(spans);
    mux_check(&cell, &c)?;
    let attempted = c.frames_sent + c.send_failed;
    Ok(Rep {
        node_periods: cell.node_periods(),
        parts: vec![Part {
            // The reactor times its own round loop; what is left of the
            // call is socket and engine-table construction.
            setup_s: outer_s - c.wall_s,
            run_s: c.wall_s,
            cpu,
            ref_s,
        }],
        messages: c.frames_sent + c.injected_drops + c.send_failed,
        ok: (attempted - c.wire_lost - c.send_failed, attempted),
        work: Work {
            events: c.events,
            messages: c.frames_sent,
            ..Work::default()
        },
        exact: vec![
            ("events", c.events.to_string()),
            ("frames_sent", c.frames_sent.to_string()),
            ("frames_delivered", c.frames_delivered.to_string()),
            ("injected_drops", c.injected_drops.to_string()),
            ("rtt_samples", c.rtt_ns.len().to_string()),
        ],
        rtt_ns: c.rtt_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_periods_per_substrate_on_hand_computed_cells() {
        // shard: n · periods.
        let shard = Workload::ShardDense.shard_cell(1, Scale::Full);
        assert_eq!(shard.node_periods(), 32_768.0 * 8.0);
        assert_eq!(
            Workload::ShardSparse
                .shard_cell(1, Scale::WarmUp)
                .node_periods(),
            500_000.0 * 25.0
        );
        // mux: n · rounds.
        let mux = Workload::MuxLossy.mux_cell(1, Scale::Full);
        assert_eq!(mux.node_periods(), 2_048.0 * 20.0);
        assert_eq!(Workload::MuxSoak.mux_cell(1, Scale::WarmUp).rounds, 1);
        // des: n · simulated seconds · f, summed over cells. The 1 Hz cell
        // of the first pair, run for real: the report's node-periods must
        // be 1056 nodes × the simulated seconds × 1 Hz.
        let cells = adapter::des_cells(7, DES_PAIRS);
        assert_eq!(cells.len(), 16);
        assert_eq!((cells[0].frequency_hz, cells[0].nodes()), (1.0, 1056));
        let c = adapter::des_new(DesSystem::P2p, &cells[0], DesOptions::default()).run();
        assert!((c.node_periods - 1056.0 * c.sim_secs * 1.0).abs() < 1e-6);
        assert!(
            c.sim_secs > 5.0,
            "donors run at least five simulated seconds"
        );
        // Rate arithmetic on a hand-made repetition: 2000 node-periods in
        // half a second is 4000 per second.
        assert_eq!(crate::run::rate(2_000.0, 0.5), 4_000.0);
    }
}
