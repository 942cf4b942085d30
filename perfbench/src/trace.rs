//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! request it belongs to.  Spans stay in memory during a run and are written
//! out as JSON lines when the run ends.  With tracing off every call is a
//! no-op, so the untraced run pays nothing but a branch.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    /// Index into `Tracer::labels` (what the span ran on, e.g. a layer and
    /// kernel family); `None` for unlabelled spans.
    label: Option<usize>,
    start: Instant,
    end: Option<Instant>,
    parent: Option<SpanId>,
    req: Option<u64>,
}

/// The span log of one benchmark process.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    labels: Vec<String>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), spans: Vec::new(), labels: Vec::new() }
    }

    /// Opens a span starting at `start`; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        req: Option<u64>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { name, label: None, start, end: None, parent, req });
        Some(SpanId(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end = Some(end);
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: Option<u64>,
    ) -> Option<SpanId> {
        let id = self.open(name, start, parent, req);
        self.close(id, end);
        id
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, req);
        out
    }

    /// Attaches a label to a recorded span.
    pub fn label(&mut self, id: Option<SpanId>, label: &str) {
        if let Some(SpanId(i)) = id {
            let index = match self.labels.iter().position(|l| l == label) {
                Some(index) => index,
                None => {
                    self.labels.push(label.to_string());
                    self.labels.len() - 1
                }
            };
            self.spans[i].label = Some(index);
        }
    }

    /// Durations in seconds of every closed span called `name`, in record
    /// order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end.map(|end| end.saturating_duration_since(s.start).as_secs_f64()))
            .collect()
    }

    /// Summed duration in seconds of every closed span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line: `id`, `name`,
    /// `label`, `start_us` and `end_us` (from tracer creation), `parent`
    /// and `req`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            line.clear();
            let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let _ = write!(line, "{{\"id\":{id},\"name\":\"{}\"", span.name);
            if let Some(label) = span.label {
                let _ = write!(line, ",\"label\":\"{}\"", self.labels[label]);
            }
            let _ = write!(line, ",\"start_us\":{:.3}", us(span.start));
            if let Some(end) = span.end {
                let _ = write!(line, ",\"end_us\":{:.3}", us(end));
            }
            if let Some(SpanId(parent)) = span.parent {
                let _ = write!(line, ",\"parent\":{parent}");
            }
            if let Some(req) = span.req {
                let _ = write!(line, ",\"req\":{req}");
            }
            line.push_str("}\n");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}
