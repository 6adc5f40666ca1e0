//! # Zeus
//!
//! A Rust reproduction of *Zeus: Efficiently Localizing Actions in Videos
//! using Reinforcement Learning* (SIGMOD 2022).
//!
//! **The supported entry point is [`api::ZeusSession`]** — a fluent,
//! declarative façade (`session.query("ZQL ...")?.run()`) with typed
//! errors and the extended ZQL dialect (`LIMIT`, `WINDOW`,
//! `latency_budget`, `ORDER BY confidence`, `AND NOT`). See
//! `examples/quickstart.rs` for a five-minute tour and
//! `examples/serving.rs` for the serving layer.
//!
//! The underlying workspace crates remain available for
//! internals-level work:
//!
//! * [`api`] — the session façade, typed [`api::ZeusError`], extended
//!   ZQL.
//! * [`nn`] — neural-network substrate (tensors, layers, optimizers).
//! * [`sim`] — simulated device clock and calibrated cost models.
//! * [`video`] — synthetic video corpus, annotations, and datasets.
//! * [`apfg`] — the Adaptive Proxy Feature Generator and proxy models.
//! * [`rl`] — the DQN agent, replay buffer, and reward functions.
//! * [`core`] — the Zeus query planner, executor, baselines, and metrics.
//! * [`serve`] — the concurrent query-serving subsystem (admission
//!   control, device-pool scheduling, result caching).
//! * [`fleet`] — the sharded multi-tenant serving fleet (rendezvous
//!   routing, per-tenant quotas, hot plan replication).
//! * [`obs`] — the observability plane (metrics registry, span tracer,
//!   `EXPLAIN ANALYZE` reports, the central metric-key registry).
//! * [`lint`] — workspace static analysis (`zeus lint`): concurrency,
//!   determinism, and observability invariants, CI-gated.

#![warn(missing_docs)]
pub use zeus_apfg as apfg;
pub use zeus_api as api;
pub use zeus_core as core;
pub use zeus_fleet as fleet;
pub use zeus_lint as lint;
pub use zeus_nn as nn;
pub use zeus_obs as obs;
pub use zeus_rl as rl;
pub use zeus_serve as serve;
pub use zeus_sim as sim;
pub use zeus_video as video;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use zeus_apfg::Configuration;
    pub use zeus_api::{
        parse_zql, ExecutorKind, OrderBy, Query, QueryIr, QueryResponse, SegmentHit, ZeusError,
        ZeusSession,
    };
    pub use zeus_core::baselines::QueryEngine;
    pub use zeus_core::config::ConfigSpace;
    pub use zeus_core::metrics::EvalReport;
    pub use zeus_core::planner::{PlannerOptions, QueryPlanner};
    pub use zeus_core::query::ActionQuery;
    pub use zeus_fleet::{FleetConfig, FleetRouter, QuotaSpec, TenantId};
    pub use zeus_obs::{ExplainReport, MetricsRegistry, ObsHub, ObsSnapshot, Tracer};
    pub use zeus_serve::{CorpusId, PlanStore, Priority, ServeConfig, WorkloadSpec, ZeusServer};
    pub use zeus_video::datasets::{ConfigFamily, DatasetKind, DatasetProfile, SyntheticDataset};
    pub use zeus_video::source::{DataError, DataSource, SharedSource};
}
