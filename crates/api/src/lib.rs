//! # zeus-api
//!
//! The unified, declarative entry point to the Zeus VDBMS — the layer
//! the paper's §1 promises ("users provide a query and an accuracy
//! target; the system picks the plan") and the only supported public
//! API of this workspace.
//!
//! Three pieces:
//!
//! * [`ZeusSession`] — a fluent façade over corpus generation, the query
//!   planner, the plan store/catalog, and the serving engine. Build one
//!   with [`ZeusSession::builder`], then call
//!   `session.query("ZQL ...")?.run()`. `session.serve(config)` starts a
//!   [`zeus_serve::ZeusServer`] sharing the session's plans.
//! * [`ZeusError`] — the workspace-wide typed error. Every layer's
//!   failure (`ParseError`, `PlanError`, `AdmitError`, `ServeError`,
//!   `CatalogError`, I/O) converts into it; no layer panics on user
//!   input.
//! * The extended ZQL dialect ([`zeus_core::query::parse_zql`]) —
//!   `LIMIT`, `WINDOW [t0, t1]`, `latency_budget <= Xms`,
//!   `ORDER BY confidence`, and `AND NOT` class predicates, compiled
//!   into a [`QueryIr`] consumed by both the planner and
//!   `ZeusServer::submit_ir`. See the grammar in
//!   [`zeus_core::query`]'s module docs.
//!
//! ```no_run
//! use zeus_api::ZeusSession;
//! use zeus_video::DatasetKind;
//!
//! let session = ZeusSession::builder()
//!     .dataset(DatasetKind::Bdd100k)
//!     .scale(0.2)
//!     .seed(42)
//!     .build()?;
//! let response = session
//!     .query(
//!         "SELECT segment_ids FROM UDF(video) \
//!          WHERE action_class = 'cross-right' AND accuracy >= 85% \
//!          ORDER BY confidence LIMIT 10",
//!     )?
//!     .run()?;
//! println!("F1 {:.3}, {} segments", response.result.f1, response.answer.len());
//! # Ok::<(), zeus_api::ZeusError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod session;

pub use error::ZeusError;
pub use session::{Query, QueryResponse, ZeusSession, ZeusSessionBuilder};

// Re-export the vocabulary types a session caller needs.
pub use zeus_core::query::{parse_zql, ActionQuery, OrderBy, ParseError, QueryIr};
pub use zeus_core::ExecutorKind;
pub use zeus_fleet::{FleetConfig, FleetError, FleetRouter, Routed};
pub use zeus_obs::{ExplainReport, MetricsRegistry, ObsHub, ObsSnapshot, StageTiming, Tracer};
pub use zeus_serve::quota::{FairShareGate, QuotaSpec, TenantId};
pub use zeus_serve::{CorpusId, Priority, SegmentHit, ServeConfig};
pub use zeus_video::{
    ConfigFamily, DataError, DataSource, DatasetKind, DatasetProfile, SyntheticDataset,
};
