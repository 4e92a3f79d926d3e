//! Outside-in tracing: wall-clock spans recorded from the benchmark's
//! own files, around the calls it makes into each layer's public
//! functions. Spans stay in memory; the Chrome-trace JSON and the
//! per-name table are produced once the run ends.
//!
//! A span name is `layer.function`; the part before the first dot is
//! the crate the call enters.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};
use shs_des::stats;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.function`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Which traced repeat recorded it.
    pub repeat: u32,
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations (ns).
    pub total_ns: u64,
    /// Sum of durations minus the part child spans cover (ns).
    pub self_ns: u64,
    /// Every duration (ns).
    pub durations: Vec<f64>,
}

impl NameStats {
    /// Mean duration (ns), 0 when nothing was recorded.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Percentile `p` (0–100) of the durations (ns), 0 when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.durations.is_empty() {
            0.0
        } else {
            stats::percentile(&self.durations, p)
        }
    }
}

/// The in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    repeat: u32,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            repeat: 0,
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on belong to repeat `id`.
    pub fn begin_repeat(&mut self, id: u32) {
        self.repeat = id;
    }

    /// Run `f` inside a span named `name`; spans `f` records through the
    /// tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            repeat: self.repeat,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals; self time is a span's duration minus the part
    /// of it its direct children cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
            e.durations.push(dur as f64);
        }
        out
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
    /// one complete event per span, one track per traced repeat.
    pub fn chrome_json(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                json!({
                    "name": s.name,
                    "cat": s.name.split('.').next().unwrap_or(s.name),
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": (s.end_ns - s.start_ns) as f64 / 1e3,
                    "pid": 1,
                    "tid": s.repeat,
                    "args": {
                        "id": i,
                        "parent": if s.parent == NO_PARENT { Value::Null } else { json!(s.parent) },
                    },
                })
            })
            .collect();
        json!({ "traceEvents": events, "displayTimeUnit": "ns" })
    }
}
