//! Typed requests and responses.
//!
//! A client submits an [`zeus_core::query::ActionQuery`] with a
//! [`Priority`]; the server answers over a typed channel with exactly one
//! message: the assembled, canonically-ordered [`QueryOutcome`].

use std::sync::mpsc;
use std::time::Duration;

use zeus_core::query::ActionQuery;
use zeus_core::result::QueryResult;
use zeus_core::ExecutorKind;
use zeus_video::VideoId;

use crate::refine::{QueryRefiner, SegmentHit};

/// Server-assigned query identifier (monotonic per server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Admission-control priority classes, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Latency-sensitive dashboard/interactive queries.
    Interactive,
    /// Normal application traffic.
    Standard,
    /// Throughput-oriented background analytics.
    Batch,
}

impl Priority {
    /// All classes, highest priority first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Index into per-class tables (0 = highest).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Final outcome of a served query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Server-assigned id.
    pub id: QueryId,
    /// The query as submitted.
    pub query: ActionQuery,
    /// Priority class the query was served at.
    pub priority: Priority,
    /// The engine that executed it.
    pub executor: ExecutorKind,
    /// Evaluated result (F1 / precision / recall / simulated throughput),
    /// assembled in canonical video order so the outcome is independent of
    /// scheduling.
    pub result: QueryResult,
    /// Per-frame predictions per video, sorted by video id (byte-exact
    /// comparison target for the serial-equivalence property; always the
    /// *unrefined* execution, independent of extended-ZQL clauses).
    pub labels: Vec<(VideoId, Vec<bool>)>,
    /// The answer set the query returns: predicted segments after any
    /// extended-ZQL refinement (`WINDOW`/`AND NOT`/`ORDER BY`/`LIMIT`).
    /// Populated at delivery for `submit_ir` submissions (a classic IR
    /// gets every predicted run in canonical order); left empty for
    /// plain `submit` outcomes, whose callers read `labels`/`result`.
    pub answer: Vec<SegmentHit>,
    /// Whether the outcome was answered from the result cache.
    pub from_cache: bool,
    /// Wall-clock latency from submission to completion.
    pub latency: Duration,
}

/// Receiving half of a query's typed response channel: it carries the
/// query's one [`QueryOutcome`].
///
/// When the submission carried extended-ZQL clauses, the stream holds the
/// compiled [`QueryRefiner`] and applies it on delivery: the outcome's
/// [`QueryOutcome::answer`] is computed from its labels (filter + order +
/// limit). The raw `labels` pass through untouched — the cached execution
/// and the serial-equivalence contract are refinement-independent.
#[derive(Debug)]
pub struct ResponseStream {
    id: QueryId,
    rx: mpsc::Receiver<QueryOutcome>,
    refiner: Option<QueryRefiner>,
    /// Sampled request trace: `wait` times its `execute`/`refine` spans
    /// on it, and the trace tree publishes when the stream drops.
    trace: Option<zeus_obs::Trace>,
}

impl ResponseStream {
    pub(crate) fn new(id: QueryId, rx: mpsc::Receiver<QueryOutcome>) -> Self {
        ResponseStream {
            id,
            rx,
            refiner: None,
            trace: None,
        }
    }

    /// Attach an answer-set refiner (extended-ZQL submissions). An
    /// identity refiner still marks the stream as IR-submitted, so its
    /// outcomes carry the canonical answer set.
    pub(crate) fn with_refiner(mut self, refiner: QueryRefiner) -> Self {
        self.refiner = Some(refiner);
        self
    }

    /// Attach a request trace (sampled submissions).
    pub(crate) fn with_trace(mut self, trace: zeus_obs::Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Block for the raw (unrefined) outcome — the `execute` half of
    /// [`ResponseStream::wait`], split out so `EXPLAIN ANALYZE` can time
    /// execution and refinement separately.
    ///
    /// Panics if the server dropped the channel without answering (a
    /// server bug — every admitted query is answered).
    pub(crate) fn wait_raw(&self) -> QueryOutcome {
        self.rx
            .recv()
            .unwrap_or_else(|_| panic!("server dropped response stream for {}", self.id))
    }

    /// Apply this stream's refiner to a raw outcome — the `refine` half
    /// of [`ResponseStream::wait`]. The answer set is computed only for
    /// IR submissions: plain `submit` callers read labels/result and
    /// should not pay a corpus-sized scan they never use.
    pub(crate) fn refine_outcome(&self, mut outcome: QueryOutcome) -> QueryOutcome {
        if let Some(refiner) = &self.refiner {
            outcome.answer = refiner.answer(&outcome.labels);
        }
        outcome
    }

    /// Block for the query's outcome and return it refined.
    ///
    /// Panics if the server dropped the channel without answering (a
    /// server bug — every admitted query is answered).
    pub fn wait(self) -> QueryOutcome {
        let raw = {
            let _span = self.trace.as_ref().map(|t| t.span("execute"));
            self.wait_raw()
        };
        let _span = self.trace.as_ref().map(|t| t.span("refine"));
        self.refine_outcome(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_indices_are_ordered() {
        assert_eq!(Priority::ALL.len(), 3);
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert!(Priority::Interactive < Priority::Batch);
    }

    #[test]
    fn stream_drains_to_done() {
        let (tx, rx) = mpsc::channel();
        let stream = ResponseStream::new(QueryId(7), rx);
        tx.send(QueryOutcome {
            id: QueryId(7),
            query: ActionQuery::new(zeus_video::ActionClass::LeftTurn, 0.8).unwrap(),
            priority: Priority::Standard,
            executor: ExecutorKind::ZeusSliding,
            result: QueryResult {
                method: "Zeus-Sliding".into(),
                f1: 1.0,
                precision: 1.0,
                recall: 1.0,
                throughput_fps: 10.0,
                elapsed_secs: 1.0,
                invocations: 1,
                histogram: zeus_core::result::ConfigHistogram::new(),
            },
            labels: vec![],
            answer: vec![],
            from_cache: false,
            latency: Duration::from_millis(3),
        })
        .unwrap();
        let outcome = stream.wait();
        assert_eq!(outcome.id, QueryId(7));
        assert!(!outcome.from_cache);
    }
}
