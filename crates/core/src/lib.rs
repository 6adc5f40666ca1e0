//! # zeus-core
//!
//! The Zeus VDBMS: the paper's primary contribution.
//!
//! * [`query`] — the SQL-ish action-query language of §1.
//! * [`config`] — Configuration spaces per dataset (Table 4) and the
//!   fastness normalisation of §4.4.
//! * [`planner`] — the query planner (§4): per-configuration cost
//!   profiling (Table 2), static-configuration selection, RL training with
//!   accuracy-aware aggregate rewards (Algorithms 1 & 2), and training-cost
//!   accounting (Table 6).
//! * [`mod@env`] — the video-traversal MDP (§4.1).
//! * [`baselines`] — the five §6.1 techniques: Frame-PP, Segment-PP,
//!   Zeus-Sliding, Zeus-Heuristic, and Zeus-RL (the system).
//! * [`metrics`] — the IoU-windowed segment F1 of §2.1.
//! * [`result`] — execution results, configuration histograms
//!   (Figures 12b/14), and evaluated query results.
//! * [`parallel`] — the inter-video parallel executor extension sketched
//!   in §6.4, and [`parallel::run_jobs`], the one fork-join.
//! * [`training`] — the training plane: the candidate portfolio trained
//!   across [`parallel::run_jobs`] workers, one rollout per candidate.
//! * [`cache`] — the APFG feature cache the candidates' rollouts share
//!   (§5's pre-processing).

#![warn(missing_docs)]
pub mod baselines;
pub mod cache;
pub mod catalog;
pub mod config;
pub mod env;
pub mod metrics;
pub mod parallel;
pub mod planner;
pub mod query;
pub mod result;
pub mod training;

pub use baselines::{ExecutorKind, QueryEngine};
pub use cache::FeatureCache;
pub use catalog::PlanCatalog;
pub use config::{ConfigSpace, KnobMask};
pub use metrics::{EvalProtocol, EvalReport};
pub use planner::{
    ConfigProfile, PlanError, PlannerOptions, QueryPlan, QueryPlanner, TrainingCosts,
};
pub use query::{parse_zql, ActionQuery, OrderBy, ParseError, QueryIr};
pub use result::{ConfigHistogram, ExecutionResult, QueryResult};
pub use training::{CandidateJob, CandidateOutcome, TrainingEngine, TrainingOptions};
