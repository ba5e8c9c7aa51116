//! Spans recorded by the benchmark around its calls into the program.
//!
//! The traced run keeps one span per boundary the benchmark can see
//! (`run → setup | warmup | rep[i] → cell[..] → slice[k]`), in memory, and
//! writes them as JSONL when the run ends. Counts taken at the same
//! boundary travel with the span, so a ratio such as ns per event is
//! formed from numbers measured in one place.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval. `parent` is the span that was open when this one
/// began, which is the span that caused it: the benchmark is
/// single-threaded at every boundary it records.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based identifier, unique within a run.
    pub id: u32,
    /// Enclosing span, 0 for the root.
    pub parent: u32,
    /// Boundary name, e.g. `rep[2]` or `cell[f=8,pair=1]`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Counts taken when the span closed.
    pub counts: Vec<(&'static str, u64)>,
}

/// Handle of an open span; closing out of order is a bug in the caller.
#[derive(Debug)]
#[must_use = "an open span must be closed with Spans::exit"]
pub struct Open(u32);

/// The in-memory recorder. A disabled recorder (the untraced runs, and the
/// instrumentation-off repetitions of a traced run) records nothing and
/// costs one branch per boundary.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording on or off between repetitions. Spans already
    /// open stay open and close normally.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: impl FnOnce() -> String) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name: name(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close `open`, attaching the counts taken at this boundary.
    pub fn exit(&mut self, open: Open, counts: &[(&'static str, u64)]) {
        if open.0 == 0 {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans closed out of order");
        let span = &mut self.spans[open.0 as usize - 1];
        span.end_ns = end_ns;
        span.counts.extend_from_slice(counts);
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span: the span's fields, its self time,
    /// and its counts.
    pub fn write_jsonl(&self, workload: &str, mut w: impl Write) -> io::Result<()> {
        let self_ns = self_times(&self.spans);
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            write!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                span.id, span.parent, span.name, workload, span.start_ns, span.end_ns, self_ns
            )?;
            for (key, value) in &span.counts {
                write!(w, ",\"{key}\":{value}")?;
            }
            writeln!(w, "}}")?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent never overlap here (one thread
/// records them), so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            covered[s.parent as usize - 1] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // run[0,100] → rep[10,90] → cell[20,50], cell[50,70]
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 90),
            span(3, 2, 20, 50),
            span(4, 2, 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
        // Self times add back up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut s = Spans::new(true);
        let run = s.enter(|| "run".into());
        let rep = s.enter(|| "rep[0]".into());
        s.exit(rep, &[("events", 7)]);
        s.exit(run, &[]);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, 1);
        assert_eq!(s.spans()[1].counts, vec![("events", 7)]);
        assert!(s.spans()[0].end_ns >= s.spans()[1].end_ns);
        let mut out = Vec::new();
        s.write_jsonl("w", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"events\":7"));

        let mut off = Spans::new(false);
        let o = off.enter(|| unreachable!("name built while disabled"));
        off.exit(o, &[("x", 1)]);
        assert!(off.spans().is_empty());
    }
}
