//! # zeus-obs
//!
//! The unified observability plane: one metric namespace and one span
//! tracer shared by the serving, training, and data planes.
//!
//! Zeus's value claim is quantitative — throughput/latency/F1
//! trade-offs — yet each plane historically kept private telemetry
//! (`ServeMetrics`, `FeatureCache` hit/miss, bench JSON). This crate is
//! the measurement substrate that absorbs them:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and log-bucketed
//!   bounded-memory histograms behind lock-free typed handles
//!   ([`Counter`], [`Gauge`], [`Histogram`]), snapshotted into one
//!   serializable [`ObsSnapshot`] (`serve.admit.shed`, `train.steps`,
//!   `cache.result.hit`, ...).
//! * [`Tracer`] — cheap scoped spans recorded into per-request trace
//!   trees with wall plus simulated-device time, aggregated into
//!   per-stage p50/p95/p99 and exportable as JSONL (`zeus trace`).
//! * [`StageClock`] / [`ExplainReport`] — contiguous stage timing for
//!   `EXPLAIN ANALYZE`: stages partition the end-to-end interval, so
//!   their sum equals the measured latency by construction.
//! * [`sync`] — poison-recovering lock helpers, so a panicked worker
//!   can never wedge telemetry.
//! * [`keys`] — the central metric-key registry every plane registers
//!   handles through; `zeus lint` rejects string-literal keys that are
//!   not in it.
//!
//! Everything here is `std`-only, allocation-light on the hot path
//! (atomic bumps for counters and histogram records), and safe to leave
//! enabled by default: a plane that observes itself must not perturb
//! the determinism invariants it reports on (no RNG, no global state).

#![warn(missing_docs)]

pub mod explain;
pub mod histogram;
pub mod keys;
pub mod registry;
pub mod sync;
pub mod trace;

pub use explain::{ExplainReport, StageClock, StageTiming};
pub use histogram::LogHistogram;
pub use registry::{
    Counter, Gauge, Histogram, MetricSample, MetricValue, MetricsRegistry, ObsSnapshot,
};
pub use trace::{SpanGuard, SpanRecord, StageStats, Trace, TraceRecord, Tracer};

/// The one handle a plane threads through its layers: a metric registry
/// plus a span tracer. Cloning is cheap (both are `Arc`-backed) and all
/// clones observe one shared state.
#[derive(Debug, Clone, Default)]
pub struct ObsHub {
    /// The shared metric namespace.
    pub metrics: MetricsRegistry,
    /// The shared span tracer.
    pub tracer: Tracer,
}

impl ObsHub {
    /// A fresh hub with an empty registry and tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Export the whole plane as JSONL: one `{"type":"span",...}` line
    /// per recorded span, one `{"type":"stage",...}` line per aggregated
    /// stage, and one `{"type":"metric",...}` line per registered metric
    /// — a single machine-readable artifact for `zeus trace --json` and
    /// the CI smoke gates.
    pub fn export_jsonl(&self) -> String {
        let mut out = self.tracer.export_jsonl();
        out.push_str(&self.metrics.snapshot().to_jsonl());
        out
    }

    /// Convenience: counters for the training plane
    /// (`train.episodes/steps/updates` and `train.target_memo.*`) plus the
    /// tracer, the bundle a [`DqnTrainer`]-style hot loop hooks into.
    ///
    /// [`DqnTrainer`]: https://docs.rs/zeus-rl
    pub fn train_obs(&self) -> TrainObs {
        TrainObs {
            episodes: self.metrics.counter(keys::TRAIN_EPISODES),
            steps: self.metrics.counter(keys::TRAIN_STEPS),
            updates: self.metrics.counter(keys::TRAIN_UPDATES),
            target_memo_hits: self.metrics.counter(keys::TRAIN_TARGET_MEMO_HITS),
            target_memo_misses: self.metrics.counter(keys::TRAIN_TARGET_MEMO_MISSES),
            tracer: self.tracer.clone(),
        }
    }
}

/// Pre-registered handles for the training plane's hot loops: the
/// trainer bumps these without ever touching the registry's lock.
#[derive(Debug, Clone)]
pub struct TrainObs {
    /// Completed training episodes (`train.episodes`).
    pub episodes: Counter,
    /// Environment steps taken (`train.steps`).
    pub steps: Counter,
    /// Gradient updates performed (`train.updates`).
    pub updates: Counter,
    /// Next states whose target-network row was memoized
    /// (`train.target_memo.hits`).
    pub target_memo_hits: Counter,
    /// Next states the target network evaluated
    /// (`train.target_memo.misses`).
    pub target_memo_misses: Counter,
    /// The shared tracer (per-stage aggregates + trace trees).
    pub tracer: Tracer,
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
