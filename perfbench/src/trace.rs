//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! made), the id of the span that caused it and the request id it
//! belongs to. Spans stay in memory and are written out as JSON lines
//! when the run ends.
//!
//! The benchmark times layers from outside, through their public
//! functions, so a request's inner layers are timed by replaying the
//! same request one layer deeper: the replay is recorded as a child of
//! the outer span, with the same request id. A span's self time is its
//! duration minus the summed duration of its children.

use crate::util::json_str;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
        id
    }

    /// Reserves a span id for a parent whose children are recorded
    /// before it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under an id taken from [`Tracer::reserve`].
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
    }

    /// Runs `f` inside a span; returns its result, the span id and the
    /// duration.
    pub fn span<T>(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, u64, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let id = self.record(name, req, parent, t0, t1);
        (out, id, t1 - t0)
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.req,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Span-tree queries over a snapshot.
pub struct Tree {
    spans: Vec<Span>,
    children: BTreeMap<u64, Vec<usize>>,
}

impl Tree {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        Self { spans, children }
    }

    /// Self time (µs) of one span: its duration minus its children's.
    pub fn self_us(&self, span: &Span) -> f64 {
        let covered: f64 = self
            .children
            .get(&span.id)
            .map_or(0.0, |c| c.iter().map(|&i| self.spans[i].dur_us()).sum());
        span.dur_us() - covered
    }

    /// Per request id, the summed self time of every span named in
    /// `names` (one layer may own several span names).
    pub fn self_by_req(&self, names: &[&str]) -> BTreeMap<u64, f64> {
        let mut out: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *out.entry(s.req).or_default() += self.self_us(s);
        }
        out
    }

    /// Per request id, the summed duration of spans with these names.
    pub fn dur_by_req(&self, names: &[&str]) -> BTreeMap<u64, f64> {
        let mut out: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *out.entry(s.req).or_default() += s.dur_us();
        }
        out
    }
}
