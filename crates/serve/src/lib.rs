//! # zeus-serve
//!
//! A concurrent query-serving subsystem for the Zeus VDBMS: the
//! production layer the paper stops short of (§6.4 ends at one-shot
//! inter-video parallelism).
//!
//! ## Architecture: admission → schedule → execute → cache → respond
//!
//! ```text
//!             submit(query, priority)
//!                      │
//!            ┌─────────▼─────────┐   hit
//!            │   ResultCache     ├────────► ResponseStream (cached outcome)
//!            │  (LRU, keyed by   │
//!            │ query×corpus×exec)│
//!            └─────────┬─────────┘ miss
//!            ┌─────────▼─────────┐  none
//!            │    PlanStore      ├────────► AdmitError::NoPlan
//!            │ (memory → .zpln)  │
//!            └─────────┬─────────┘
//!            ┌─────────▼─────────┐  full
//!            │  AdmissionQueue   ├────────► AdmitError::QueueFull (shed)
//!            │ (bounded, 3-class │
//!            │  weighted RR)     │
//!            └─────────┬─────────┘
//!            ┌─────────▼──────────────────────┐
//!            │ worker pool (N × SimClock)     │
//!            │  owner claims per-video parts; │
//!            │  idle workers steal from the   │
//!            │  board; last finisher          │
//!            │  assembles canonically         │
//!            └─────────┬──────────────────────┘
//!                      ▼
//!            ResponseStream: one QueryOutcome
//! ```
//!
//! * [`admission`] — the bounded priority queue with load shedding.
//! * [`plans`] — plan reuse over the [`zeus_core::catalog::PlanCatalog`]
//!   so repeated queries never re-train.
//! * [`pool`] — the work-stealing worker pool, one simulated device
//!   clock per worker.
//! * [`cache`] — the LRU result cache.
//! * [`quota`] — per-tenant token-bucket quotas with fair-share load
//!   shedding (the multi-tenant contract the fleet router enforces).
//! * [`metrics`] — p50/p95/p99 latency, throughput, shed/hit counters.
//! * [`request`] — typed requests and the one-outcome response channel.
//! * [`server`] — [`ZeusServer`], tying it together.
//! * [`workload`] — open-loop (Poisson) and closed-loop drivers.
//!
//! ## Determinism
//!
//! Execution is deterministic per video, subtasks run on fresh clocks,
//! and assembly merges in canonical video order — so a query's
//! [`QueryOutcome`] is byte-identical whether it ran on one device or
//! sixteen, interleaved with a hundred other queries or alone. The
//! property tests in `tests/` pin this down.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod metrics;
pub mod plans;
pub mod pool;
pub mod quota;
pub mod refine;
pub mod request;
pub mod server;
pub mod workload;

pub use admission::{AdmissionQueue, AdmitError};
pub use cache::{CacheKey, CachedExecution, CorpusId, ResultCache};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use plans::{PlanRefused, PlanStore};
pub use quota::{Decision, FairShareGate, QuotaSpec, TenantId};
pub use refine::{compute_exclude_spans, ExcludeSpans, QueryRefiner, SegmentHit};
pub use request::{Priority, QueryId, QueryOutcome, ResponseStream};
pub use server::{priority_for_budget, servable, ServeConfig, ServeError, ZeusServer};
pub use workload::{run_closed_loop, run_open_loop, WorkloadReport, WorkloadSpec};
pub use zeus_obs::{ExplainReport, ObsHub, ObsSnapshot, StageTiming};
