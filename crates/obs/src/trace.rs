//! The span tracer: cheap scoped spans recorded into per-request trace
//! trees, aggregated into per-stage latency histograms.
//!
//! A [`Tracer`] hands out [`Trace`]s (one per request / training run);
//! a trace hands out [`SpanGuard`]s that time a scope on drop. Spans
//! opened while another span of the same trace is open become its
//! children, so the natural lexical nesting of the code
//! (`admission → cache lookup → plan fetch → device execution →
//! refine`) becomes the trace tree with no explicit parent plumbing.
//!
//! Everything is bounded: the tracer keeps the most recent
//! [`TRACE_BUFFER`] trace trees (a ring) and each trace stores at most
//! [`MAX_SPANS_PER_TRACE`] span records (later spans are still timed
//! and aggregated, just not stored). Per-stage aggregates
//! ([`Tracer::stage_stats`]) are [`LogHistogram`]s and always update,
//! including from hot paths that skip tree recording entirely
//! ([`Tracer::record_stage`]).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::histogram::LogHistogram;
use crate::json_escape;
use crate::sync::{lock_recover, read_recover, write_recover};

/// Trace trees retained (ring buffer; older trees are evicted).
pub const TRACE_BUFFER: usize = 1024;
/// Span records stored per trace; spans past the cap are timed and
/// aggregated but not stored in the tree.
pub const MAX_SPANS_PER_TRACE: usize = 4096;
/// Sentinel span index for spans past the storage cap.
const UNSTORED: usize = usize::MAX;

/// One closed (or still-open) span inside a trace tree.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage name (`cache`, `plan`, `admission`, `execute`, `refine`,
    /// `episode`, `batch_forward`, `update`, ...).
    pub name: String,
    /// Index of the parent span within the trace, if nested.
    pub parent: Option<usize>,
    /// Start offset from the trace's start, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration, in microseconds (0 until closed).
    pub wall_us: u64,
    /// Simulated device seconds attributed to this span.
    pub device_secs: f64,
    /// Whether the span's guard was dropped.
    pub closed: bool,
}

/// A completed trace tree.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The trace label (`serve.submit`, `train.candidate`, ...).
    pub label: String,
    /// Stored span records (parents precede children).
    pub spans: Vec<SpanRecord>,
    /// Spans opened on this trace (stored or not).
    pub opened: usize,
    /// Spans closed on this trace.
    pub closed: usize,
}

impl TraceRecord {
    /// Structural well-formedness: every opened span was closed, every
    /// stored record is marked closed, and every parent index points at
    /// an earlier span of the same trace (no orphans, no unclosed
    /// spans).
    pub fn well_formed(&self) -> bool {
        self.opened == self.closed
            && self
                .spans
                .iter()
                .enumerate()
                .all(|(i, s)| s.closed && s.parent.is_none_or(|p| p < i))
    }
}

struct TracerInner {
    traces: Mutex<VecDeque<TraceRecord>>,
    stages: RwLock<HashMap<String, Arc<LogHistogram>>>,
}

/// The shared span tracer. Cloning is cheap; all clones feed one
/// buffer and one set of stage aggregates.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                traces: Mutex::new(VecDeque::new()),
                stages: RwLock::new(HashMap::new()),
            }),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("traces", &lock_recover(&self.inner.traces).len())
            .finish()
    }
}

impl Tracer {
    /// A fresh tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new trace. The trace's tree is published to the tracer
    /// when the last handle (trace or span guard) drops.
    pub fn trace(&self, label: impl Into<String>) -> Trace {
        Trace {
            shared: Arc::new(TraceShared {
                tracer: self.clone(),
                label: label.into(),
                started: Instant::now(),
                state: Mutex::new(TraceState {
                    spans: Vec::new(),
                    stack: Vec::new(),
                    opened: 0,
                    closed: 0,
                }),
            }),
        }
    }

    /// Record a stage duration directly into the per-stage aggregate,
    /// bypassing tree storage — the hot-path hook for worker threads
    /// (device execution) and inner training loops.
    pub fn record_stage(&self, name: &str, wall: Duration) {
        self.stage_histogram(name).record_duration(wall);
    }

    fn stage_histogram(&self, name: &str) -> Arc<LogHistogram> {
        if let Some(h) = read_recover(&self.inner.stages).get(name) {
            return Arc::clone(h);
        }
        let mut stages = write_recover(&self.inner.stages);
        Arc::clone(
            stages
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(LogHistogram::new())),
        )
    }

    /// The retained trace trees, oldest first.
    pub fn recent_traces(&self) -> Vec<TraceRecord> {
        lock_recover(&self.inner.traces).iter().cloned().collect()
    }

    /// Per-stage latency aggregates, sorted by stage name.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        let stages = read_recover(&self.inner.stages);
        let mut out: Vec<StageStats> = stages
            .iter()
            .map(|(name, h)| StageStats {
                name: name.clone(),
                count: h.count(),
                mean_us: h.mean(),
                p50_us: h.quantile(0.50),
                p95_us: h.quantile(0.95),
                p99_us: h.quantile(0.99),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Export retained traces and stage aggregates as JSONL: one
    /// `{"type":"span",...}` line per stored span and one
    /// `{"type":"stage",...}` line per aggregate.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for (ti, trace) in self.recent_traces().iter().enumerate() {
            for (si, s) in trace.spans.iter().enumerate() {
                let parent = match s.parent {
                    Some(p) => p.to_string(),
                    None => "null".to_string(),
                };
                out.push_str(&format!(
                    "{{\"type\":\"span\",\"trace\":{ti},\"label\":\"{}\",\"span\":{si},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"wall_us\":{},\"device_secs\":{:.6},\"well_formed\":{}}}\n",
                    json_escape(&trace.label),
                    json_escape(&s.name),
                    s.start_us,
                    s.wall_us,
                    s.device_secs,
                    trace.well_formed(),
                ));
            }
        }
        for s in self.stage_stats() {
            out.push_str(&format!(
                "{{\"type\":\"stage\",\"name\":\"{}\",\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}\n",
                json_escape(&s.name),
                s.count,
                s.mean_us,
                s.p50_us,
                s.p95_us,
                s.p99_us,
            ));
        }
        out
    }

    fn publish(&self, record: TraceRecord) {
        let mut traces = lock_recover(&self.inner.traces);
        if traces.len() >= TRACE_BUFFER {
            traces.pop_front();
        }
        traces.push_back(record);
    }
}

/// Per-stage latency summary (microseconds).
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage name.
    pub name: String,
    /// Recorded spans.
    pub count: u64,
    /// Exact mean.
    pub mean_us: u64,
    /// Median estimate.
    pub p50_us: u64,
    /// 95th percentile estimate.
    pub p95_us: u64,
    /// 99th percentile estimate.
    pub p99_us: u64,
}

struct TraceState {
    spans: Vec<SpanRecord>,
    /// Indices of currently-open stored spans (lexical nesting).
    stack: Vec<usize>,
    opened: usize,
    closed: usize,
}

struct TraceShared {
    tracer: Tracer,
    label: String,
    started: Instant,
    state: Mutex<TraceState>,
}

impl Drop for TraceShared {
    fn drop(&mut self) {
        let state = lock_recover(&self.state);
        let record = TraceRecord {
            label: self.label.clone(),
            spans: state.spans.clone(),
            opened: state.opened,
            closed: state.closed,
        };
        drop(state);
        self.tracer.publish(record);
    }
}

/// One trace tree under construction. Dropping the trace (after all its
/// span guards) publishes the tree to the tracer.
#[derive(Clone)]
pub struct Trace {
    shared: Arc<TraceShared>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("label", &self.shared.label)
            .finish()
    }
}

impl Trace {
    /// Open a span. Spans opened while another span of this trace is
    /// open nest under it. The span closes (and is timed) when the
    /// guard drops.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        let start = Instant::now();
        let start_us = start
            .saturating_duration_since(self.shared.started)
            .as_micros() as u64;
        let name = name.into();
        let mut state = lock_recover(&self.shared.state);
        state.opened += 1;
        let (index, overflow_name) = if state.spans.len() < MAX_SPANS_PER_TRACE {
            let parent = state.stack.last().copied();
            let index = state.spans.len();
            state.spans.push(SpanRecord {
                name,
                parent,
                start_us,
                wall_us: 0,
                device_secs: 0.0,
                closed: false,
            });
            state.stack.push(index);
            (index, None)
        } else {
            // Past the storage cap: the span is still timed, counted,
            // and aggregated under its own stage name, just not stored.
            (UNSTORED, Some(name))
        };
        drop(state);
        SpanGuard {
            shared: Arc::clone(&self.shared),
            index,
            started: start,
            device_secs: 0.0,
            overflow_name,
        }
    }

    /// The trace label.
    pub fn label(&self) -> &str {
        &self.shared.label
    }
}

/// Times a scope; closing (dropping) records the span's wall time into
/// its trace tree and the tracer's per-stage aggregate.
pub struct SpanGuard {
    shared: Arc<TraceShared>,
    index: usize,
    started: Instant,
    device_secs: f64,
    overflow_name: Option<String>,
}

impl SpanGuard {
    /// Attribute simulated device seconds to this span.
    pub fn set_device_secs(&mut self, secs: f64) {
        self.device_secs = secs;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let wall = self.started.elapsed();
        let mut state = lock_recover(&self.shared.state);
        state.closed += 1;
        let stage_name: String;
        if self.index == UNSTORED {
            stage_name = self
                .overflow_name
                .take()
                .unwrap_or_else(|| "overflow".into());
        } else {
            // Unwind the open stack down to (and including) this span:
            // a guard dropped out of order closes its nested children's
            // stack entries too (their own drops are then no-ops on the
            // stack but still close their records).
            while let Some(top) = state.stack.pop() {
                if top == self.index {
                    break;
                }
            }
            let record = &mut state.spans[self.index];
            record.wall_us = wall.as_micros() as u64;
            record.device_secs = self.device_secs;
            record.closed = true;
            stage_name = record.name.clone();
        }
        drop(state);
        self.shared.tracer.record_stage(&stage_name, wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_lexically_and_close_well_formed() {
        let tracer = Tracer::new();
        {
            let trace = tracer.trace("request");
            let _outer = trace.span("execute");
            {
                let mut inner = trace.span("device");
                inner.set_device_secs(1.5);
            }
            let _sibling = trace.span("refine");
        }
        let traces = tracer.recent_traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert!(t.well_formed(), "{t:?}");
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0), "device nests under execute");
        assert_eq!(t.spans[2].parent, Some(0), "refine is execute's sibling");
        assert!((t.spans[1].device_secs - 1.5).abs() < 1e-12);
        assert!(t.spans.iter().all(|s| s.closed));
    }

    #[test]
    fn stage_aggregates_collect_across_traces() {
        let tracer = Tracer::new();
        for _ in 0..10 {
            let trace = tracer.trace("t");
            let _s = trace.span("cache");
        }
        tracer.record_stage("cache", Duration::from_micros(50));
        let stats = tracer.stage_stats();
        let cache = stats.iter().find(|s| s.name == "cache").unwrap();
        assert_eq!(cache.count, 11);
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let tracer = Tracer::new();
        for i in 0..(TRACE_BUFFER + 10) {
            let trace = tracer.trace(format!("t{i}"));
            let _s = trace.span("x");
        }
        let traces = tracer.recent_traces();
        assert_eq!(traces.len(), TRACE_BUFFER);
        assert_eq!(
            traces.last().unwrap().label,
            format!("t{}", TRACE_BUFFER + 9)
        );
    }

    #[test]
    fn span_overflow_still_counts_and_stays_well_formed() {
        let tracer = Tracer::new();
        {
            let trace = tracer.trace("big");
            for _ in 0..(MAX_SPANS_PER_TRACE + 5) {
                let _s = trace.span("step");
            }
        }
        let t = &tracer.recent_traces()[0];
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(t.opened, MAX_SPANS_PER_TRACE + 5);
        assert!(t.well_formed());
    }

    #[test]
    fn export_jsonl_has_span_and_stage_lines() {
        let tracer = Tracer::new();
        {
            let trace = tracer.trace("serve.submit");
            let _a = trace.span("cache");
        }
        let jsonl = tracer.export_jsonl();
        assert!(jsonl.contains("\"type\":\"span\""), "{jsonl}");
        assert!(jsonl.contains("\"type\":\"stage\""), "{jsonl}");
        assert!(jsonl.contains("\"name\":\"cache\""), "{jsonl}");
    }
}
