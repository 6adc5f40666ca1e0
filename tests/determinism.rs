//! Determinism: the whole pipeline is bit-reproducible for fixed seeds —
//! the property the benchmark harness relies on.

use zeus::core::baselines::ExecutorKind;
use zeus::core::planner::{PlannerOptions, QueryPlanner};
use zeus::core::query::ActionQuery;
use zeus::video::video::Split;
use zeus::video::{ActionClass, DatasetKind};

fn fast_options() -> PlannerOptions {
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 3;
    options.trainer.warmup = 128;
    options.candidates.truncate(1);
    options
}

#[test]
fn planning_and_execution_are_bit_reproducible() {
    let run = || {
        let dataset = DatasetKind::Bdd100k.generate(0.12, 77);
        let query = ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap();
        let planner = QueryPlanner::new(&dataset, fast_options());
        let plan = planner.plan(&query);
        let test = dataset.store.split(Split::Test);
        let exec = planner
            .build_engine(&plan, ExecutorKind::ZeusRl)
            .execute(&test);
        let report = exec.evaluate(&test, &query.classes, plan.protocol);
        (
            plan.sliding_config,
            plan.max_accuracy.to_bits(),
            exec.clock.elapsed_secs().to_bits(),
            report.f1().to_bits(),
            exec.labels.clone(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "sliding config must be deterministic");
    assert_eq!(a.1, b.1, "max accuracy must be bit-identical");
    assert_eq!(a.2, b.2, "simulated time must be bit-identical");
    assert_eq!(a.3, b.3, "F1 must be bit-identical");
    assert_eq!(a.4, b.4, "per-frame labels must be identical");
}

#[test]
fn different_seeds_change_the_corpus_but_not_the_contracts() {
    for seed in [1u64, 2, 3] {
        let dataset = DatasetKind::Thumos14.generate(0.05, seed);
        let query = ActionQuery::new(ActionClass::PoleVault, 0.75).unwrap();
        let planner = QueryPlanner::new(&dataset, fast_options());
        let plan = planner.plan(&query);
        assert_eq!(plan.profiles.len(), 27);
        assert!(plan.space.len() >= 2);
        assert!(plan.max_accuracy > 0.0 && plan.max_accuracy <= 1.0);
    }
}

#[test]
fn engines_are_pure_given_the_same_video() {
    let dataset = DatasetKind::Bdd100k.generate(0.12, 5);
    let query = ActionQuery::new(ActionClass::LeftTurn, 0.85).unwrap();
    let planner = QueryPlanner::new(&dataset, fast_options());
    let plan = planner.plan(&query);
    let engine = planner.build_engine(&plan, ExecutorKind::ZeusRl);
    let video = &dataset.store.videos()[0];

    let mut clock_a = zeus::sim::SimClock::new();
    let mut hist_a = zeus::core::ConfigHistogram::new();
    let a = engine.execute_video(video, &mut clock_a, &mut hist_a);

    let mut clock_b = zeus::sim::SimClock::new();
    let mut hist_b = zeus::core::ConfigHistogram::new();
    let b = engine.execute_video(video, &mut clock_b, &mut hist_b);

    assert_eq!(a, b);
    assert_eq!(
        clock_a.elapsed_secs().to_bits(),
        clock_b.elapsed_secs().to_bits()
    );
}
