//! What a run reports, the one-line result the harness reads, and the
//! results file a whole suite is kept in.

use crate::adapter::{json_parse, JsonValue as Json};
use crate::host;
use crate::stats::Summary;

/// Schema tag of the results file.
pub const SCHEMA: &str = "penelope-benchmark/v1";

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in the catalog.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median, quartiles and sample count.
    pub summary: Summary,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDetail {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics).
    pub traced: bool,
    /// Seconds asked for.
    pub seconds: f64,
    /// Timed repetitions behind each median.
    pub reps: usize,
    /// Threads the workload ran on.
    pub threads: usize,
    /// Sockets it had open.
    pub sockets: usize,
    /// Its closed-loop window, in words.
    pub window: String,
    /// Timed entry-point calls.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// The metrics, in catalog order.
    pub metrics: Vec<Metric>,
    /// Exact counts of one repetition; a change that only claims speed
    /// leaves this block byte-identical.
    pub fidelity: Vec<(String, String)>,
    /// Free-form lines for the human reader.
    pub notes: Vec<String>,
}

fn num(n: f64) -> Json {
    Json::Num(n)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn f64_of(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

fn u64_of(j: &Json, key: &str) -> Result<u64, String> {
    field(j, key)?
        .as_u64()
        .ok_or_else(|| format!("{key:?} is not a whole number"))
}

fn str_of(j: &Json, key: &str) -> Result<String, String> {
    Ok(field(j, key)?
        .as_str()
        .ok_or_else(|| format!("{key:?} is not a string"))?
        .to_string())
}

fn arr_of<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(j, key)?
        .as_array()
        .ok_or_else(|| format!("{key:?} is not a list"))
}

impl RunDetail {
    /// The line the harness reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric a value as measured and a unit.
    pub fn contract_line(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.summary.value.is_finite() {
                return Err(format!("{} is not a finite number", m.name));
            }
            metrics.push((
                m.name.clone(),
                obj(vec![
                    ("value", num(m.summary.value)),
                    ("unit", text(&m.unit)),
                ]),
            ));
        }
        Ok(obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string())
    }

    /// The run as a JSON object of the results file.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                obj(vec![
                    ("name", text(&m.name)),
                    ("unit", text(&m.unit)),
                    ("value", num(m.summary.value)),
                    ("median", num(m.summary.median)),
                    ("q1", num(m.summary.q1)),
                    ("q3", num(m.summary.q3)),
                    ("n", num(m.summary.n as f64)),
                ])
            })
            .collect();
        // Exact counts stay strings: a fingerprint does not fit an f64.
        let fidelity = self
            .fidelity
            .iter()
            .map(|(k, v)| (k.clone(), text(v)))
            .collect();
        obj(vec![
            ("workload", text(&self.workload)),
            ("seed", text(&self.seed.to_string())),
            ("traced", Json::Bool(self.traced)),
            ("seconds", num(self.seconds)),
            ("reps", num(self.reps as f64)),
            ("threads", num(self.threads as f64)),
            ("sockets", num(self.sockets as f64)),
            ("closed_loop_window", text(&self.window)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Json::Arr(metrics)),
            ("fidelity", Json::Obj(fidelity)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| text(n)).collect()),
            ),
        ])
    }

    /// Read a run back from the results file.
    pub fn from_json(j: &Json) -> Result<RunDetail, String> {
        let metrics = arr_of(j, "metrics")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: str_of(m, "name")?,
                    unit: str_of(m, "unit")?,
                    summary: Summary {
                        value: f64_of(m, "value")?,
                        median: f64_of(m, "median")?,
                        q1: f64_of(m, "q1")?,
                        q3: f64_of(m, "q3")?,
                        n: u64_of(m, "n")? as usize,
                    },
                })
            })
            .collect::<Result<_, String>>()?;
        let fidelity = match field(j, "fidelity")? {
            Json::Obj(members) => members
                .iter()
                .map(|(k, v)| {
                    let v = v.as_str().ok_or("fidelity values are strings")?;
                    Ok((k.clone(), v.to_string()))
                })
                .collect::<Result<_, String>>()?,
            _ => return Err("\"fidelity\" is not an object".into()),
        };
        Ok(RunDetail {
            workload: str_of(j, "workload")?,
            seed: str_of(j, "seed")?
                .parse()
                .map_err(|e| format!("seed: {e}"))?,
            traced: field(j, "traced")?
                .as_bool()
                .ok_or("\"traced\" is not a boolean")?,
            seconds: f64_of(j, "seconds")?,
            reps: u64_of(j, "reps")? as usize,
            threads: u64_of(j, "threads")? as usize,
            sockets: u64_of(j, "sockets")? as usize,
            window: str_of(j, "closed_loop_window")?,
            attempted: u64_of(j, "attempted")?,
            failed: u64_of(j, "failed")?,
            metrics,
            fidelity,
            notes: arr_of(j, "notes")?
                .iter()
                .map(|n| n.as_str().map(str::to_string).ok_or("notes are strings"))
                .collect::<Result<_, _>>()?,
        })
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Where and with what a results file was measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Env {
    /// Cores available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `rustc -V` of the build, as `run.sh` recorded it.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git repository.
    pub commit: String,
}

impl Env {
    /// Read the environment; `run.sh` passes what only the shell knows.
    pub fn capture() -> Env {
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Env {
            nproc: host::nproc(),
            cpu_model: host::cpu_model(),
            rustc: var("PENELOPE_BENCH_RUSTC"),
            commit: var("PENELOPE_BENCH_COMMIT"),
        }
    }
}

/// A whole suite: the environment and one run per (workload, traced).
#[derive(Clone, Debug, PartialEq)]
pub struct ResultsFile {
    /// Where it was measured.
    pub env: Env,
    /// The runs, untraced before traced, in workload order.
    pub runs: Vec<RunDetail>,
}

impl ResultsFile {
    /// Render as one JSON document.
    pub fn render(&self) -> String {
        obj(vec![
            ("schema", text(SCHEMA)),
            (
                "env",
                obj(vec![
                    ("nproc", num(self.env.nproc as f64)),
                    ("cpu_model", text(&self.env.cpu_model)),
                    ("rustc", text(&self.env.rustc)),
                    ("commit", text(&self.env.commit)),
                ]),
            ),
            (
                "runs",
                Json::Arr(self.runs.iter().map(RunDetail::to_json).collect()),
            ),
        ])
        .to_string()
    }

    /// Parse a document [`render`](Self::render) wrote.
    pub fn parse(doc: &str) -> Result<ResultsFile, String> {
        let j = json_parse(doc)?;
        let schema = str_of(&j, "schema")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let env = field(&j, "env")?;
        Ok(ResultsFile {
            env: Env {
                nproc: u64_of(env, "nproc")? as usize,
                cpu_model: str_of(env, "cpu_model")?,
                rustc: str_of(env, "rustc")?,
                commit: str_of(env, "commit")?,
            },
            runs: arr_of(&j, "runs")?
                .iter()
                .map(RunDetail::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The untraced run of `workload`.
    pub fn end_to_end(&self, workload: &str) -> Option<&RunDetail> {
        self.runs
            .iter()
            .find(|r| r.workload == workload && !r.traced)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_run(workload: &str, rate: f64) -> RunDetail {
        RunDetail {
            workload: workload.into(),
            seed: u64::MAX,
            traced: false,
            seconds: 10.0,
            reps: 5,
            threads: 2,
            sockets: 0,
            window: "batch job".into(),
            attempted: 5,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "node_periods_per_s".into(),
                    unit: "1/s".into(),
                    summary: Summary {
                        value: rate * 1.02,
                        median: rate,
                        q1: rate * 0.99,
                        q3: rate * 1.01,
                        n: 5,
                    },
                },
                Metric {
                    name: "ok_share".into(),
                    unit: "ratio".into(),
                    summary: Summary::single(1.0, 5),
                },
            ],
            fidelity: vec![("fingerprint".into(), "ffffffffffffffff".into())],
            notes: vec!["a \"quoted\" note".into()],
        }
    }

    #[test]
    fn results_file_round_trips() {
        let file = ResultsFile {
            env: Env {
                nproc: 2,
                cpu_model: "Some CPU @ 2.10GHz".into(),
                rustc: "rustc 1.95.0".into(),
                commit: "unknown".into(),
            },
            runs: vec![
                sample_run("shard_sparse", 1.234_567_890_123e8),
                sample_run("mux_soak", 0.1 + 0.2),
            ],
        };
        let doc = file.render();
        assert_eq!(ResultsFile::parse(&doc), Ok(file.clone()));
        // Rendering is a fixed point: parse → render gives the same bytes.
        assert_eq!(ResultsFile::parse(&doc).unwrap().render(), doc);
        assert!(file.end_to_end("mux_soak").is_some());
        assert!(file.end_to_end("des_p2p").is_none());
        assert!(ResultsFile::parse("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = sample_run("shard_sparse", 2.5e6).contract_line().unwrap();
        let j = json_parse(&line).unwrap();
        let Json::Obj(members) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("attempted").unwrap().as_u64(), Some(5));
        let m = j.get("metrics").unwrap().get("node_periods_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(2.5e6 * 1.02));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
        assert!(!line.contains('\n'));

        let mut bad = sample_run("shard_sparse", f64::NAN);
        assert!(bad.contract_line().is_err());
        bad.metrics.clear();
        bad.failed = 1;
        assert!(bad.contract_line().unwrap().contains("\"correct\":false"));
    }
}
