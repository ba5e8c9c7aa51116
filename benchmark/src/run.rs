//! One run of one workload in this process: warm up, repeat for the given
//! seconds, check, and reduce the repetitions to the reported metrics.

use std::path::PathBuf;
use std::time::Instant;

use crate::catalog::{Workload, END_TO_END, PER_LAYER};
use crate::host;
use crate::ledger::{self, Rows, UnitCosts};
use crate::results::{Metric, RunDetail};
use crate::spans::Spans;
use crate::stats::{self, Summary};
use crate::workloads::{Part, Rep, Scale};

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Where the span file goes.
    pub out_dir: PathBuf,
}

/// Fewest timed repetitions of an untraced run.
const MIN_REPS: usize = 3;
/// The share of a traced run's seconds its own repetitions may use; the
/// ledger takes the rest.
const TRACED_REP_SHARE: f64 = 0.35;

/// Work per second.
pub fn rate(work: f64, seconds: f64) -> f64 {
    work / seconds
}

fn timed_rep(args: &RunArgs, label: String, spans: &mut Spans) -> Result<Rep, String> {
    let open = spans.enter(|| label);
    let rep = args.workload.rep(args.seed, Scale::Full, spans)?;
    spans.exit(open, &[("work_events", rep.work.events)]);
    Ok(rep)
}

/// Seconds one sample of the reference kernel (`host::reference_s`) takes
/// on the two-core sandbox this benchmark was sized on while its
/// neighbours are quiet. Reported seconds are seconds at this speed.
pub const REFERENCE_NOMINAL_S: f64 = 0.0049;

/// How a workload's repetitions become the seconds it reports.
///
/// The sandbox is a slice of a shared host, and its speed moves in level
/// shifts of 30-45 % that last seconds to minutes: the same `mux_lossy`
/// cell took 0.21 s in one quarter of an hour and 0.41 s in the next. No
/// statistic over the repetitions of one run removes a shift that outlasts
/// the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Timing {
    /// One thread: each call divided by the reference kernel's time around
    /// it over nominal, then the median repetition. The kernel slows with
    /// these workloads (their ratio held within 1 % across the shift
    /// above); what is left goes both ways — with quiet neighbours the
    /// host has short faster bursts — so the median is the steady value.
    ReferenceMedian,
    /// Two threads on two cores (`shard_sparse`): wall seconds, fastest
    /// repetition. One thread's reference samples one core, and over
    /// twenty runs the workload slowed as the 0.48th power of the kernel,
    /// so the correction would add more than it removes. With no core
    /// left over, whatever else the machine does takes time from the
    /// workload: interference only adds, and the fastest repetition is
    /// the one closest to what the code costs.
    WallFastest,
}

impl Timing {
    fn of(w: Workload) -> Self {
        if w.shape().0 == 1 {
            Timing::ReferenceMedian
        } else {
            Timing::WallFastest
        }
    }

    /// `seconds` of a call of `part`, as this timing counts them.
    fn seconds(self, part: &Part, seconds: f64) -> f64 {
        match self {
            Timing::ReferenceMedian => seconds * REFERENCE_NOMINAL_S / part.ref_s,
            Timing::WallFastest => seconds,
        }
    }

    /// One whole repetition's `f`, call by call.
    fn rep(self, rep: &Rep, f: impl Fn(&Part) -> f64) -> f64 {
        rep.parts.iter().map(|p| self.seconds(p, f(p))).sum()
    }

    /// The reported repetition of every call, summed: for each call (a DES
    /// cell, or the one call of the other substrates) the median or the
    /// fastest of `f` over the repetitions.
    fn typical_calls(self, reps: &[Rep], f: impl Fn(&Part) -> f64) -> f64 {
        (0..reps[0].parts.len())
            .map(|k| {
                let values: Vec<f64> = reps
                    .iter()
                    .map(|t| self.seconds(&t.parts[k], f(&t.parts[k])))
                    .collect();
                match self {
                    Timing::ReferenceMedian => stats::median(&values),
                    Timing::WallFastest => values.iter().copied().fold(f64::INFINITY, f64::min),
                }
            })
            .sum()
    }

    /// A timing metric of a set of repetitions: the value from each call's
    /// reported repetition, the median and quartiles over whole
    /// repetitions; `of_seconds` turns seconds into the metric.
    fn metric(
        self,
        reps: &[Rep],
        f: impl Fn(&Part) -> f64,
        of_seconds: impl Fn(f64) -> f64,
    ) -> Summary {
        Summary {
            value: of_seconds(self.typical_calls(reps, &f)),
            ..per_rep(reps, |t| of_seconds(self.rep(t, &f)))
        }
    }
}

/// How much slower than nominal the host ran: the median over all calls of
/// the reference kernel's time around them, over its nominal time.
fn host_slowdown(reps: &[Rep]) -> f64 {
    let samples: Vec<f64> = reps
        .iter()
        .flat_map(|t| t.parts.iter().map(|p| p.ref_s))
        .collect();
    stats::median(&samples) / REFERENCE_NOMINAL_S
}

/// Every exact count must repeat across the repetitions of one seed.
fn check_exact(reps: &[Rep]) -> Result<(), String> {
    let first = &reps[0].exact;
    for (i, t) in reps.iter().enumerate().skip(1) {
        if let Some((a, b)) = first.iter().zip(&t.exact).find(|(a, b)| a != b) {
            return Err(format!(
                "repetition {i} is not a replay of repetition 0: {} was {}, now {}",
                a.0, a.1, b.1
            ));
        }
    }
    Ok(())
}

fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Summary {
    let values: Vec<f64> = reps.iter().map(f).collect();
    Summary::of(&values).expect("at least one repetition")
}

/// Run the workload; `Err` is a failed correctness check, and the caller
/// prints it and exits non-zero without a result line.
pub fn run(args: &RunArgs) -> Result<RunDetail, String> {
    if args.traced {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &RunArgs) -> Result<RunDetail, String> {
    let mut spans = Spans::new(false);
    args.workload.preflight(args.seed, &mut spans)?;
    args.workload.rep(args.seed, Scale::WarmUp, &mut spans)?;
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let mut rep = timed_rep(args, String::new(), &mut spans)?;
        // One repetition's round trips are sample enough (10^5 and more);
        // holding every repetition's would make the benchmark's own
        // buffers a third of a mux run's peak resident set.
        if !reps.is_empty() {
            rep.rtt_ns = Vec::new();
        }
        reps.push(rep);
    }
    check_exact(&reps)?;

    let first = &reps[0];
    let clock = Timing::of(args.workload);
    let (ok_num, ok_den) = reps
        .iter()
        .fold((0u64, 0u64), |acc, t| (acc.0 + t.ok.0, acc.1 + t.ok.1));
    let values = [
        clock.metric(&reps, |p| p.setup_s, |s| s),
        clock.metric(&reps, |p| p.run_s, |s| rate(first.node_periods, s)),
        Summary::single(first.messages as f64 / first.node_periods, reps.len()),
        Summary::single(ok_num as f64 / ok_den as f64, reps.len()),
        Summary::single(host::peak_rss_mib(), 1),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, summary)| Metric {
            name: m.name.to_string(),
            unit: m.unit.to_string(),
            summary,
        })
        .collect();
    let mut notes = vec![
        format!(
            "ok_share = {ok_num}/{ok_den}; sim_s_per_wall_s is node_periods_per_s over nodes × frequency"
        ),
        format!(
            "host ran at {:.3}x its nominal time per reference kernel ({}); in wall seconds the median repetition made {:.4e} node-periods per second and set up in {:.4e} s",
            host_slowdown(&reps),
            match clock {
                Timing::ReferenceMedian => "corrected for, median repetition",
                Timing::WallFastest => "not corrected for, fastest repetition: two threads",
            },
            per_rep(&reps, |t| rate(t.node_periods, t.run_s())).median,
            per_rep(&reps, Rep::setup_s).median,
        ),
    ];
    notes.extend(rtt_note(&reps));
    Ok(detail(args, &reps, metrics, notes))
}

/// The grant round-trip line of a mux run: the first repetition's
/// samples, nearest rank, the median and the highest percentile the sample
/// count supports.
fn rtt_note(reps: &[Rep]) -> Option<String> {
    let mut pooled = reps[0].rtt_ns.clone();
    if pooled.is_empty() {
        return None;
    }
    pooled.sort_unstable();
    let tail = stats::highest_supported_percentile(pooled.len()).unwrap_or(5_000);
    Some(format!(
        "grant RTT over {} samples: p50 {:.1} us, p99 {:.1} us, p{} {:.1} us (highest percentile with 10 samples beyond it)",
        pooled.len(),
        stats::nearest_rank(&pooled, 5_000) as f64 / 1e3,
        stats::nearest_rank(&pooled, 9_900) as f64 / 1e3,
        tail as f64 / 100.0,
        stats::nearest_rank(&pooled, tail) as f64 / 1e3,
    ))
}

fn detail(args: &RunArgs, reps: &[Rep], metrics: Vec<Metric>, notes: Vec<String>) -> RunDetail {
    let (threads, sockets, window) = args.workload.shape();
    RunDetail {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        traced: args.traced,
        seconds: args.seconds,
        reps: reps.len(),
        threads,
        sockets,
        window,
        // Operations are the timed entry-point calls; one that returned an
        // error or failed a check would have ended the run above.
        attempted: reps.len() as u64,
        failed: 0,
        metrics,
        fidelity: reps[0]
            .exact
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        notes,
    }
}

fn run_traced(args: &RunArgs) -> Result<RunDetail, String> {
    let mut spans = Spans::new(true);
    let root = spans.enter(|| "run".into());
    args.workload.preflight(args.seed, &mut spans)?;
    let open = spans.enter(|| "warmup".into());
    args.workload.rep(args.seed, Scale::WarmUp, &mut spans)?;
    spans.exit(open, &[]);

    // Repetitions in pairs: instrumentation off (no spans, no allocation
    // counting — what the untraced binary runs), then on.
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || start.elapsed().as_secs_f64() < args.seconds * TRACED_REP_SHARE {
        spans.set_enabled(false);
        plain.push(timed_rep(args, String::new(), &mut spans)?);
        spans.set_enabled(true);
        host::count_allocs(true);
        let i = traced.len();
        let rep = timed_rep(args, format!("rep[{i}]"), &mut spans);
        host::count_allocs(false);
        traced.push(rep?);
    }
    let reps: Vec<Rep> = plain.into_iter().chain(traced).collect();
    check_exact(&reps)?;
    let (plain, traced) = reps.split_at(reps.len() / 2);

    let ledger_start = Instant::now();
    let mut rows = ledger::run(args.seed, &mut spans)?;
    rows.insert("bench.ledger_wall_s", ledger_start.elapsed().as_secs_f64());

    let fastest_wall = |reps: &[Rep]| {
        reps.iter()
            .map(|t| t.setup_s() + t.run_s())
            .fold(f64::INFINITY, f64::min)
    };
    let clock = Timing::of(args.workload);
    let run_s = clock.typical_calls(plain, |p| p.run_s);
    let measured = rate(plain[0].node_periods, run_s);
    let predicted_s = predicted_run_s(args.workload, &plain[0], &rows);
    rows.insert("model.explained_share", predicted_s / run_s);
    rows.insert(
        "model.predicted_node_periods_per_s",
        rate(plain[0].node_periods, predicted_s),
    );
    rows.insert("model.measured_node_periods_per_s", measured);
    rows.insert("host.cpu_user_s", per_rep(&reps, |t| t.cpu().user_s).median);
    rows.insert("host.cpu_sys_s", per_rep(&reps, |t| t.cpu().sys_s).median);
    rows.insert(
        "host.cpu_ns_per_node_period",
        clock.typical_calls(plain, |p| p.cpu.total_s()) * 1e9 / plain[0].node_periods,
    );
    rows.insert("host.ref_slowdown", host_slowdown(&reps));
    rows.insert("host.nproc", host::nproc() as f64);
    rows.insert(
        "bench.trace_overhead_share",
        fastest_wall(traced) / fastest_wall(plain) - 1.0,
    );
    rows.insert("bench.reps", reps.len() as f64);

    spans.exit(root, &[]);
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| {
            let path = args
                .out_dir
                .join(format!("spans-{}.jsonl", args.workload.name()));
            let file = std::io::BufWriter::new(std::fs::File::create(path)?);
            spans.write_jsonl(args.workload.name(), file)
        })
        .map_err(|e| {
            format!(
                "writing the span file under {}: {e}",
                args.out_dir.display()
            )
        })?;

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = *rows
                .get(m.name)
                .ok_or_else(|| format!("the ledger produced no {}", m.name))?;
            Ok(Metric {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                summary: Summary::single(value, 1),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let notes = vec![format!(
        "model: predicted {predicted_s:.3} s of the {run_s:.3} s run call; spans: {} recorded",
        spans.spans().len()
    )];
    Ok(detail(args, &reps, metrics, notes))
}

/// Predicted wall seconds of the workload's run call: its work counts
/// times the ledger's unit costs, the way §4.5.2 predicts 11 800 req/s
/// from one 85 µs service time.
fn predicted_run_s(w: Workload, rep: &Rep, rows: &Rows) -> f64 {
    let c = UnitCosts(rows);
    let work = &rep.work;
    let ticks = rep.node_periods;
    let events = work.events as f64;
    let msgs = work.messages as f64;
    let ns = match w {
        // Executed engine inputs at the lab's mean input cost; elided
        // ticks are priced at zero, which is the claim elision makes.
        Workload::ShardSparse | Workload::ShardDense => events * c.engine_input_ns(),
        Workload::DesP2p => {
            events * c.event_queue_ns()
                + ticks * (c.des_tick_io_ns() + c.engine_tick_ns())
                + msgs * (c.route_ns() + c.engine_msg_ns())
        }
        Workload::DesCentral => {
            events * c.event_queue_ns()
                + ticks * c.des_tick_io_ns()
                + msgs * c.route_ns()
                + work.requests as f64 * c.central_request_ns()
        }
        // Engine inputs, plus a frame's codec and syscalls per message.
        Workload::MuxSoak | Workload::MuxLossy => {
            events * c.engine_input_ns() + msgs * c.mux_frame_ns()
        }
    };
    ns / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::CpuTime;
    use crate::workloads::Work;

    fn rep(parts: &[(f64, f64)]) -> Rep {
        Rep {
            node_periods: 1_000.0,
            parts: parts
                .iter()
                .map(|&(run_s, ref_s)| Part {
                    setup_s: run_s / 10.0,
                    run_s,
                    cpu: CpuTime::default(),
                    ref_s,
                })
                .collect(),
            messages: 0,
            ok: (1, 1),
            work: Work::default(),
            rtt_ns: Vec::new(),
            exact: Vec::new(),
        }
    }

    #[test]
    fn reference_seconds_on_hand_computed_repetitions() {
        let nominal = REFERENCE_NOMINAL_S;
        // Two calls, three repetitions. The host ran at nominal speed in
        // the first, at half speed in the second (every call takes twice
        // as long, and so does the reference kernel), and the third has
        // one outlier the median drops.
        let reps = [
            rep(&[(1.0, nominal), (3.0, nominal)]),
            rep(&[(2.0, 2.0 * nominal), (6.0, 2.0 * nominal)]),
            rep(&[(1.0, nominal), (9.0, nominal)]),
        ];
        let on = Timing::of(Workload::ShardDense);
        assert!((on.typical_calls(&reps, |p| p.run_s) - 4.0).abs() < 1e-12);
        assert!((on.rep(&reps[1], |p| p.run_s) - 4.0).abs() < 1e-12);
        let m = on.metric(&reps, |p| p.run_s, |s| rate(1_000.0, s));
        assert!((m.value - 250.0).abs() < 1e-9);
        assert_eq!(m.n, 3);
        assert!((host_slowdown(&reps) - 1.0).abs() < 1e-12);
        // Two threads: wall seconds as they are, fastest repetition.
        let off = Timing::of(Workload::ShardSparse);
        assert!((off.typical_calls(&reps, |p| p.run_s) - 4.0).abs() < 1e-12);
        assert!((off.rep(&reps[1], |p| p.run_s) - 8.0).abs() < 1e-12);
    }
}
