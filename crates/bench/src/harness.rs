//! Shared experiment driver: dataset → plan → engine → evaluated results.

use zeus_core::baselines::QueryEngine;
use zeus_core::planner::{PlannerOptions, QueryPlan, QueryPlanner};
use zeus_core::query::ActionQuery;
use zeus_core::result::QueryResult;
use zeus_core::{EvalProtocol, ExecutorKind};
use zeus_video::video::Split;
use zeus_video::{ActionClass, DatasetKind, SyntheticDataset, Video};

/// Default corpus scale for the reproduction harness. Keeps per-dataset
/// statistics (Table 3) intact while shrinking video counts so that the
/// full table/figure sweep finishes in minutes on a laptop. Paper-scale
/// (1.0) runs are supported via `ExperimentContext::with_scale`.
pub const DEFAULT_SCALE: f64 = 0.60;

/// Default corpus seed (fixed for bit-reproducible tables).
pub const DEFAULT_SEED: u64 = 2022;

/// One method's evaluated outcome on a query — a point in Figure 8's
/// throughput-vs-F1 plane.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Which technique.
    pub kind: ExecutorKind,
    /// The evaluated result.
    pub result: QueryResult,
}

/// A fully-planned experiment: dataset, query, trained plan.
pub struct ExperimentContext {
    /// The generated corpus.
    pub dataset: SyntheticDataset,
    /// Scale the corpus was generated at.
    pub scale: f64,
    /// Seed the corpus was generated with.
    pub seed: u64,
    /// The planned query.
    pub query: ActionQuery,
    /// Planner options used.
    pub options: PlannerOptions,
    /// The trained plan.
    pub plan: QueryPlan,
}

impl ExperimentContext {
    /// Plan a query on a dataset at the default reproduction scale.
    pub fn new(kind: DatasetKind, classes: Vec<ActionClass>, target: f64) -> Self {
        Self::with_scale(
            kind,
            classes,
            target,
            DEFAULT_SCALE,
            PlannerOptions::default(),
        )
    }

    /// Plan with explicit scale and planner options.
    pub fn with_scale(
        kind: DatasetKind,
        classes: Vec<ActionClass>,
        target: f64,
        scale: f64,
        options: PlannerOptions,
    ) -> Self {
        let dataset = kind.generate(scale, DEFAULT_SEED);
        let query = ActionQuery::multi(classes, target).unwrap();
        let planner = QueryPlanner::new(&dataset, options.clone());
        let plan = planner.plan(&query);
        ExperimentContext {
            dataset,
            scale,
            seed: DEFAULT_SEED,
            query,
            options,
            plan,
        }
    }

    /// The evaluation protocol for this dataset.
    pub fn protocol(&self) -> EvalProtocol {
        EvalProtocol::for_family(self.dataset.family())
    }

    /// Test-split videos.
    pub fn test_videos(&self) -> Vec<&Video> {
        self.dataset.store.split(Split::Test)
    }

    /// Build the engine for one technique from the current plan.
    pub fn engine(&self, kind: ExecutorKind) -> Box<dyn QueryEngine + Send + Sync> {
        QueryPlanner::new(&self.dataset, self.options.clone()).build_engine(&self.plan, kind)
    }

    /// Run one technique on the test split and evaluate it.
    pub fn run(&self, kind: ExecutorKind) -> QueryResult {
        let videos = self.test_videos();
        let exec = self.engine(kind).execute(&videos);
        let report = exec.evaluate(&videos, &self.query.classes, self.protocol());
        QueryResult::from_parts(kind.name(), &exec, &report)
    }

    /// Run all five techniques (Figure 8's per-query sweep).
    pub fn run_all(&self) -> Vec<MethodOutcome> {
        ExecutorKind::ALL
            .into_iter()
            .map(|kind| MethodOutcome {
                kind,
                result: self.run(kind),
            })
            .collect()
    }
}

/// The paper's six evaluation queries (§6.1) with their Figure 8 accuracy
/// targets (0.85 for BDD100K, 0.75 for Thumos14/ActivityNet, §6.2).
pub fn paper_queries() -> Vec<(DatasetKind, ActionClass, f64)> {
    vec![
        (DatasetKind::Bdd100k, ActionClass::CrossRight, 0.85),
        (DatasetKind::Bdd100k, ActionClass::LeftTurn, 0.85),
        (DatasetKind::Thumos14, ActionClass::PoleVault, 0.75),
        (DatasetKind::Thumos14, ActionClass::CleanAndJerk, 0.75),
        (DatasetKind::ActivityNet, ActionClass::IroningClothes, 0.75),
        (DatasetKind::ActivityNet, ActionClass::TennisServe, 0.75),
    ]
}
