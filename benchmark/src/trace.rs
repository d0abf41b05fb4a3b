//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's own code, around its calls into
//! the workspace: name, start, end, the span that caused it, and an
//! operation count. They stay in memory and are written once, when the
//! run ends. Every span of one process invocation shares `run_id`.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span (its position in the span file).
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start_us: u64,
    end_us: u64,
    count: u64,
}

/// The span sink of one traced run.
pub struct Tracer {
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(run_id: String) -> Tracer {
        Tracer {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Records one finished span; `count` is the number of operations the
    /// interval covered (events, frames, probe iterations).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
            count,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is not known yet (a parent recorded before
    /// its children so they can name it); close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, start: Instant) -> SpanId {
        self.record(name, parent, start, start, 0)
    }

    pub fn close(&mut self, id: SpanId, end: Instant, count: u64) {
        let end_us = self.us(end);
        let span = &mut self.spans[id];
        span.end_us = end_us;
        span.count = count;
    }

    /// Total duration of the spans called `name`, seconds.
    #[cfg(test)]
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e6)
            .sum()
    }

    /// The span file: one JSON object, spans in recording order, times in
    /// microseconds since the tracer was created.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"run_id\": \"{}\", \"unit\": \"us\", \"spans\": [",
            self.run_id
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"count\": {}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.start_us,
                s.end_us,
                s.count
            );
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_sum() {
        let mut t = Tracer::new("w-1".to_string());
        let t0 = Instant::now();
        let root = t.open("workload", None, t0);
        t.record(
            "scenarios.slice",
            Some(root),
            t0,
            t0 + Duration::from_millis(2),
            7,
        );
        t.record(
            "scenarios.slice",
            Some(root),
            t0 + Duration::from_millis(2),
            t0 + Duration::from_millis(5),
            9,
        );
        t.close(root, t0 + Duration::from_millis(5), 16);
        assert!((t.total_s("scenarios.slice") - 0.005).abs() < 1e-4);
        assert!((t.total_s("workload") - 0.005).abs() < 1e-4);
        let json = t.to_json();
        assert!(json.contains("\"run_id\": \"w-1\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"count\": 16"));
    }
}
