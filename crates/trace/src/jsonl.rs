//! JSONL export and schema validation.
//!
//! One event per line, rendered by `TraceEvent::to_jsonl`. The schema is
//! deliberately flat so shell tooling (`jq`, `grep`) works on it directly:
//!
//! ```json
//! {"t_ns":1000000000,"node":2,"period":1,"kind":"request_sent","dst":0,"urgent":false,"alpha_mw":0,"seq":3}
//! ```
//!
//! `t_ns`, `node`, `period` and `kind` are always present; the remaining
//! fields depend on `kind`. Power is integer milliwatts (`*_mw`), time is
//! nanoseconds.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::{TraceEvent, KIND_NAMES};
use crate::observer::Observer;

/// Streams every event to a writer as JSONL.
pub struct JsonlObserver<W: Write + Send> {
    out: Mutex<W>,
}

impl JsonlObserver<BufWriter<File>> {
    /// Create (truncating) `path` and stream events into it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlObserver::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlObserver<W> {
    /// Stream events into `writer`.
    pub fn new(writer: W) -> Self {
        JsonlObserver {
            out: Mutex::new(writer),
        }
    }

    /// Flush the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().unwrap().flush()
    }
}

impl<W: Write + Send> Observer for JsonlObserver<W> {
    fn on_event(&self, ev: &TraceEvent) {
        let mut out = self.out.lock().unwrap();
        // Trace export is best-effort: a full disk should not take the
        // power-management protocol down with it.
        let _ = writeln!(out, "{}", ev.to_jsonl());
    }
}

impl<W: Write + Send> fmt::Debug for JsonlObserver<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlObserver").finish_non_exhaustive()
    }
}

/// Summary returned by [`validate_jsonl`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Number of event lines validated.
    pub events: usize,
    /// Events per node id.
    pub per_node: HashMap<u32, usize>,
}

/// Validate a JSONL trace against the schema: every line carries `t_ns`,
/// `node`, `period` and a known `kind`, and per-node timestamps never go
/// backwards. Returns a summary, or a message naming the first offending
/// line.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let mut summary = JsonlSummary::default();
    let mut last_t: HashMap<u32, u64> = HashMap::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(format!("line {lineno}: not a JSON object: {line}"));
        }
        let t = field_u64(line, "t_ns")
            .ok_or_else(|| format!("line {lineno}: missing or malformed \"t_ns\""))?;
        let node = field_u64(line, "node")
            .ok_or_else(|| format!("line {lineno}: missing or malformed \"node\""))?;
        field_u64(line, "period")
            .ok_or_else(|| format!("line {lineno}: missing or malformed \"period\""))?;
        let kind = field_str(line, "kind")
            .ok_or_else(|| format!("line {lineno}: missing or malformed \"kind\""))?;
        if !KIND_NAMES.contains(&kind) {
            return Err(format!("line {lineno}: unknown kind \"{kind}\""));
        }
        let node = u32::try_from(node).map_err(|_| format!("line {lineno}: node id too large"))?;
        if let Some(&prev) = last_t.get(&node) {
            if t < prev {
                return Err(format!(
                    "line {lineno}: node {node} timestamp went backwards ({t} < {prev})"
                ));
            }
        }
        last_t.insert(node, t);
        summary.events += 1;
        *summary.per_node.entry(node).or_insert(0) += 1;
    }
    Ok(summary)
}

/// Extract the raw text of `"key":` from a flat one-line JSON object.
fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .find(|(i, c)| {
            if rest[..*i].starts_with('"') {
                *c == '"' && *i > 0
            } else {
                *c == ',' || *c == '}'
            }
        })
        .map(|(i, c)| if c == '"' { i + 1 } else { i })?;
    Some(&rest[..end])
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field_raw(line, key)?.parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let raw = field_raw(line, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use penelope_units::{NodeId, Power, SimTime};

    fn ev(t: u64, node: u32, seq: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_millis(t),
            node: NodeId::new(node),
            period: t / 1000,
            kind: EventKind::RequestSent {
                dst: NodeId::new(1 - node),
                urgent: false,
                alpha: Power::ZERO,
                seq,
            },
        }
    }

    #[test]
    fn observer_writes_validatable_lines() {
        let obs = JsonlObserver::new(Vec::new());
        obs.on_event(&ev(1000, 0, 1));
        obs.on_event(&ev(1000, 1, 1));
        obs.on_event(&ev(2000, 0, 2));
        let text = String::from_utf8(obs.out.into_inner().unwrap()).unwrap();
        let summary = validate_jsonl(&text).expect("valid trace");
        assert_eq!(summary.events, 3);
        assert_eq!(summary.per_node[&0], 2);
        assert_eq!(summary.per_node[&1], 1);
    }

    #[test]
    fn missing_field_is_rejected() {
        let err = validate_jsonl("{\"node\":0,\"period\":0,\"kind\":\"request_sent\"}")
            .expect_err("missing t_ns");
        assert!(err.contains("t_ns"), "{err}");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let err = validate_jsonl("{\"t_ns\":0,\"node\":0,\"period\":0,\"kind\":\"mystery\"}")
            .expect_err("unknown kind");
        assert!(err.contains("mystery"), "{err}");
    }

    #[test]
    fn backwards_per_node_time_is_rejected() {
        let obs = JsonlObserver::new(Vec::new());
        obs.on_event(&ev(2000, 0, 1));
        obs.on_event(&ev(1000, 0, 2));
        let text = String::from_utf8(obs.out.into_inner().unwrap()).unwrap();
        let err = validate_jsonl(&text).expect_err("backwards time");
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn interleaved_nodes_are_independent_clocks() {
        let obs = JsonlObserver::new(Vec::new());
        obs.on_event(&ev(5000, 0, 1));
        obs.on_event(&ev(1000, 1, 1)); // node 1 starts later in the file but earlier in time
        obs.on_event(&ev(6000, 0, 2));
        let text = String::from_utf8(obs.out.into_inner().unwrap()).unwrap();
        assert!(validate_jsonl(&text).is_ok());
    }

    #[test]
    fn empty_and_blank_lines_are_ignored() {
        assert_eq!(validate_jsonl("\n\n").unwrap().events, 0);
    }
}
