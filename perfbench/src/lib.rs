//! The Zeus benchmark: three workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced run.
//!
//! * `plan-paper6` — cold planning of the paper's six Figure 8 queries
//!   (profiling, portfolio training, validation), then serial Zeus-RL
//!   execution of the chosen plans on the test split.
//! * `serve-cold` — a closed loop of 2 clients against a 2-worker
//!   [`zeus::serve::ZeusServer`] whose result cache is smaller than the
//!   template set, so every submission executes.
//! * `fleet-warm` — Zipf-skewed multi-tenant refined-ZQL traffic through
//!   a 2-shard [`zeus::fleet::FleetRouter`] whose caches hold the whole
//!   working set.
//!
//! Every layer is a black box: the benchmark times its own calls into
//! public functions and reads the counters and stage aggregates the
//! program already exports through [`zeus::obs::ObsHub`]. See
//! `perfbench/README.md` for the metric-to-layer map.

pub mod catalog;
pub mod driver;
pub mod fleet;
pub mod host;
pub mod layers;
pub mod paper;
pub mod report;
pub mod serving;
pub mod spans;
pub mod stats;

use std::time::Duration;

pub use report::{Metrics, Report};

/// Seed every workload generates its corpora from. Corpora are fixed so
/// that runs on different workload seeds do the same amount of work; the
/// workload seed drives the traffic (query order, template targets,
/// refinement clauses, tenant and corpus mix).
pub const CORPUS_SEED: u64 = 2022;

/// Concurrency cap shared by every workload: client threads, server
/// workers and portfolio training workers.
pub const MAX_THREADS: usize = 2;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold planning of the six paper queries.
    PlanPaper6,
    /// Cache-missing closed-loop serving.
    ServeCold,
    /// Cache-hitting fleet traffic.
    FleetWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PlanPaper6,
        Workload::ServeCold,
        Workload::FleetWarm,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanPaper6 => "plan-paper6",
            Workload::ServeCold => "serve-cold",
            Workload::FleetWarm => "fleet-warm",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Corpus scale of the workload (the smoke size shrinks it).
    pub fn scale(self, smoke: bool) -> f64 {
        match (self, smoke) {
            (Workload::PlanPaper6, _) => paper::SCALE,
            (Workload::ServeCold, false) => serving::SCALE,
            (Workload::ServeCold, true) => serving::SMOKE_SCALE,
            (Workload::FleetWarm, false) => fleet::SCALE,
            (Workload::FleetWarm, true) => fleet::SMOKE_SCALE,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget of the run.
    pub budget: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke size: tiny inputs and planner options, for the test suite.
    pub smoke: bool,
}

/// Run one workload and return its report.
pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload {
        Workload::PlanPaper6 => paper::run(cfg),
        Workload::ServeCold => serving::run(cfg),
        Workload::FleetWarm => fleet::run(cfg),
    }
}
