//! The repository benchmark: six workloads over both simulators and the
//! multiplexed daemon, end-to-end metrics every workload produces, and a
//! per-layer cost ledger — all timed from outside the program.
//!
//! Two binaries share this library. `pbench` measures the end-to-end
//! metrics; `pbench-traced` is the same code behind a counting allocator
//! and records spans, and produces the per-layer ledger. `run.sh` builds
//! both and picks one. See `README.md` for the glossary and how to run,
//! compare and read the span file.

pub mod adapter;
pub mod catalog;
pub mod compare;
pub mod host;
pub mod ledger;
pub mod results;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use catalog::Workload;
use results::{Env, ResultsFile, RunDetail};
use run::RunArgs;

/// Which binary is running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// `pbench`: no instrumentation, end-to-end metrics.
    Untraced,
    /// `pbench-traced`: counting allocator and spans, per-layer metrics.
    Traced,
}

const USAGE: &str = "usage:
  run.sh --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
  run.sh [--seed N] [--workload W] [--seconds S] [--traced] [--label L]
                                                       the suite; writes out/results-L.json
  run.sh --compare A.json B.json                         compare two results files
  run.sh --glossary                                      the README's metric tables, from the catalog
workloads: shard_sparse shard_dense des_p2p des_central mux_soak mux_lossy";

/// Default seed of the suite.
const DEFAULT_SEED: u64 = 20_220_829;
/// Default seconds per run, as in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced_suite: bool,
    compare: Option<(PathBuf, PathBuf)>,
    glossary: bool,
    out_dir: Option<PathBuf>,
    detail: Option<PathBuf>,
    label: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                cli.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                cli.seed = Some(
                    value(&mut it, flag)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--traced" => cli.traced_suite = true,
            "--compare" => {
                cli.compare = Some((value(&mut it, flag)?.into(), value(&mut it, flag)?.into()));
            }
            "--glossary" => cli.glossary = true,
            "--out" => cli.out_dir = Some(value(&mut it, flag)?.into()),
            "--detail" => cli.detail = Some(value(&mut it, flag)?.into()),
            "--label" => cli.label = Some(value(&mut it, flag)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Entry point of both binaries.
pub fn main_with(flavor: Flavor) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.glossary {
        print!("{}", catalog::glossary());
        Ok(ExitCode::SUCCESS)
    } else if let Some((a, b)) = &cli.compare {
        compare_files(a, b)
    } else if cli.trace.is_some() {
        single_run(flavor, &cli)
    } else {
        suite(&cli)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn out_dir(cli: &Cli) -> PathBuf {
    cli.out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out"))
}

fn print_run(d: &RunDetail) {
    println!(
        "{} seed={} {} reps={} threads={} sockets={} nproc={} ({})",
        d.workload,
        d.seed,
        if d.traced { "traced" } else { "untraced" },
        d.reps,
        d.threads,
        d.sockets,
        host::nproc(),
        d.window
    );
    for m in &d.metrics {
        println!(
            "  {:<40} {:>16.6e} {:<6} median {:.4e} q1 {:.4e} q3 {:.4e} n {}",
            m.name,
            m.summary.value,
            m.unit,
            m.summary.median,
            m.summary.q1,
            m.summary.q3,
            m.summary.n
        );
    }
    for (k, v) in &d.fidelity {
        println!("  fidelity.{k} = {v}");
    }
    for n in &d.notes {
        println!("  note: {n}");
    }
}

/// One workload, in this process; the result line goes last.
fn single_run(flavor: Flavor, cli: &Cli) -> Result<ExitCode, String> {
    let traced = cli.trace.expect("single run");
    if traced != (flavor == Flavor::Traced) {
        return Err("--trace 1 runs in pbench-traced, --trace 0 in pbench; run.sh picks".into());
    }
    let args = RunArgs {
        workload: cli.workload.ok_or("--trace needs --workload")?,
        seed: cli.seed.ok_or("--trace needs --seed")?,
        seconds: cli.seconds.ok_or("--trace needs --seconds")?,
        traced,
        out_dir: out_dir(cli),
    };
    let detail = run::run(&args)?;
    let line = detail.contract_line()?;
    if let Some(path) = &cli.detail {
        std::fs::write(path, detail.to_json().to_string())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    print_run(&detail);
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Run `workload` in a child process of its own, so its peak resident set
/// is its own, and read its detail file back.
fn child_run(
    cli: &Cli,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunDetail, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name(if traced { "pbench-traced" } else { "pbench" });
    let dir = out_dir(cli);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let detail = dir.join(format!(
        "detail-{}-{}.json",
        workload.name(),
        if traced { "layers" } else { "e2e" }
    ));
    let status = Command::new(&bin)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&dir)
        .arg("--detail")
        .arg(&detail)
        .status()
        .map_err(|e| format!("starting {}: {e}", bin.display()))?;
    if !status.success() {
        return Err(format!(
            "{} {} exited with {status}",
            bin.display(),
            workload.name()
        ));
    }
    let doc = std::fs::read_to_string(&detail)
        .map_err(|e| format!("reading {}: {e}", detail.display()))?;
    RunDetail::from_json(&adapter::json_parse(&doc)?)
}

/// Every workload (or the one named), each in its own process; writes the
/// results file.
fn suite(cli: &Cli) -> Result<ExitCode, String> {
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(DEFAULT_SECONDS);
    let workloads: Vec<Workload> = match cli.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut runs = Vec::new();
    for &w in &workloads {
        runs.push(child_run(cli, w, seed, seconds, false)?);
    }
    if cli.traced_suite {
        for &w in &workloads {
            runs.push(child_run(cli, w, seed, seconds, true)?);
        }
    }
    let file = ResultsFile {
        env: Env::capture(),
        runs,
    };
    let label = cli.label.as_deref().unwrap_or("latest");
    let path = out_dir(cli).join(format!("results-{label}.json"));
    std::fs::write(&path, file.render()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nenvironment: {:?}", file.env);
    println!("results written to {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn compare_files(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| {
        let doc =
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        ResultsFile::parse(&doc).map_err(|e| format!("{}: {e}", p.display()))
    };
    let c = compare::compare(&load(a)?, &load(b)?);
    print!("{}", c.text);
    Ok(if c.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
