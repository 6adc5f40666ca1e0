//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! A span has a name, a start, a wall duration and the span that caused
//! it; its self time is its wall time minus the time its child spans
//! cover (children of one span run one after another on its thread, so
//! their durations never overlap). Records stay in memory, up to
//! [`MAX_RECORDS`]; per-name aggregates always update. Everything is
//! written out once, when the run ends.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Span records kept for the trace file; later spans still aggregate.
pub const MAX_RECORDS: usize = 10_000;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Record {
    /// Layer boundary name.
    pub name: &'static str,
    /// Index of the causing span, if it was stored.
    pub parent: Option<usize>,
    /// Start, in microseconds since the recorder was created.
    pub start_us: u64,
    /// Wall duration in microseconds.
    pub wall_us: u64,
    /// Wall duration minus the time covered by child spans.
    pub self_us: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    /// Spans closed.
    pub count: u64,
    /// Total wall microseconds.
    pub wall_us: u64,
    /// Total self microseconds.
    pub self_us: u64,
}

#[derive(Debug, Default)]
struct Log {
    records: Vec<Record>,
    aggregates: BTreeMap<&'static str, Aggregate>,
}

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    log: Mutex<Log>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            log: Mutex::new(Log::default()),
        }
    }
}

impl Spans {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a root span.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.open(name, None)
    }

    fn open<'a>(&'a self, name: &'static str, parent: Option<&'a Span<'a>>) -> Span<'a> {
        let started = Instant::now();
        let mut log = self.log.lock().expect("span log poisoned");
        let index = (log.records.len() < MAX_RECORDS).then(|| {
            log.records.push(Record {
                name,
                parent: parent.and_then(|p| p.index),
                start_us: started.duration_since(self.origin).as_micros() as u64,
                wall_us: 0,
                self_us: 0,
            });
            log.records.len() - 1
        });
        Span {
            spans: self,
            index,
            name,
            parent,
            started,
            child_us: Cell::new(0),
        }
    }

    /// Per-name totals, sorted by name.
    pub fn aggregates(&self) -> BTreeMap<&'static str, Aggregate> {
        self.log
            .lock()
            .expect("span log poisoned")
            .aggregates
            .clone()
    }

    /// The stored records and aggregates as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let log = self.log.lock().expect("span log poisoned");
        let mut out = String::new();
        for (i, r) in log.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"type\":\"bench_span\",\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"wall_us\":{},\"self_us\":{}}}\n",
                r.name, r.start_us, r.wall_us, r.self_us
            ));
        }
        for (name, a) in &log.aggregates {
            out.push_str(&format!(
                "{{\"type\":\"bench_span_total\",\"name\":\"{name}\",\"count\":{},\"wall_us\":{},\"self_us\":{}}}\n",
                a.count, a.wall_us, a.self_us
            ));
        }
        out
    }
}

/// An open span; closes when dropped.
#[derive(Debug)]
pub struct Span<'a> {
    spans: &'a Spans,
    index: Option<usize>,
    name: &'static str,
    parent: Option<&'a Span<'a>>,
    started: Instant,
    child_us: Cell<u64>,
}

impl Span<'_> {
    /// Open a span caused by this one.
    pub fn child<'b>(&'b self, name: &'static str) -> Span<'b> {
        self.spans.open(name, Some(self))
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let wall_us = self.started.elapsed().as_micros() as u64;
        let self_us = wall_us.saturating_sub(self.child_us.get());
        if let Some(parent) = self.parent {
            parent.child_us.set(parent.child_us.get() + wall_us);
        }
        // A poisoned log only loses this span; never panic in drop.
        if let Ok(mut log) = self.spans.log.lock() {
            if let Some(i) = self.index {
                log.records[i].wall_us = wall_us;
                log.records[i].self_us = self_us;
            }
            let agg = log.aggregates.entry(self.name).or_default();
            agg.count += 1;
            agg.wall_us += wall_us;
            agg.self_us += self_us;
        }
    }
}

/// Open a child of `parent` when tracing, nothing otherwise.
pub fn child<'b>(parent: &'b Option<Span<'_>>, name: &'static str) -> Option<Span<'b>> {
    parent.as_ref().map(|p| p.child(name))
}

/// Open a root span when tracing, nothing otherwise.
pub fn root<'a>(spans: Option<&'a Spans>, name: &'static str) -> Option<Span<'a>> {
    spans.map(|s| s.span(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new();
        {
            let outer = spans.span("outer");
            {
                let _inner = outer.child("inner");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let agg = spans.aggregates();
        let outer = agg["outer"];
        let inner = agg["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.wall_us >= 5_000);
        assert!(outer.self_us <= outer.wall_us - inner.wall_us);
        assert!(spans.to_jsonl().contains("\"parent\":0"));
    }
}
