//! Integration tests for the `ZeusSession` façade: the fluent API, the
//! extended ZQL dialect's behavioral effects, and typed (non-panicking)
//! error paths.

use std::sync::OnceLock;

use zeus::prelude::*;

/// One session per test binary: planning is the expensive part, and the
/// session's plan store is exactly the thing that amortizes it.
fn session() -> &'static ZeusSession {
    static SESSION: OnceLock<ZeusSession> = OnceLock::new();
    SESSION.get_or_init(|| {
        let mut options = PlannerOptions::default();
        options.trainer.episodes = 2;
        options.trainer.warmup = 64;
        options.candidates.truncate(1);
        ZeusSession::builder()
            .dataset(DatasetKind::Bdd100k)
            .scale(0.08)
            .seed(21)
            .planner(options)
            .executor(ExecutorKind::ZeusSliding)
            .build()
            .expect("session builds")
    })
}

const CLASSIC: &str = "SELECT segment_ids FROM UDF(video) \
                       WHERE action_class = 'cross-right' AND accuracy >= 85%";

#[test]
fn classic_query_runs_through_the_session() {
    let response = session()
        .query(CLASSIC)
        .expect("parses")
        .run()
        .expect("runs");
    assert_eq!(response.executor, ExecutorKind::ZeusSliding);
    assert!(response.result.f1 >= 0.0 && response.result.f1 <= 1.0);
    assert!(response.result.throughput_fps > 0.0);
    // The unrefined answer is every predicted run, in canonical order.
    for pair in response.answer.windows(2) {
        assert!((pair[0].video, pair[0].start) <= (pair[1].video, pair[1].start));
    }
}

#[test]
fn limit_caps_the_answer_set() {
    let full = session().query(CLASSIC).unwrap().run().unwrap();
    let limited = session()
        .query(&format!("{CLASSIC} LIMIT 2"))
        .unwrap()
        .run()
        .unwrap();
    assert!(limited.answer.len() <= 2);
    assert!(full.answer.len() >= limited.answer.len());
    // LIMIT refines the answer, not the execution: accuracy metrics match.
    assert_eq!(full.result.f1.to_bits(), limited.result.f1.to_bits());
}

#[test]
fn window_masks_segments_outside_the_range() {
    let full = session().query(CLASSIC).unwrap().run().unwrap();
    let windowed = session()
        .query(&format!("{CLASSIC} WINDOW [0, 120]"))
        .unwrap()
        .run()
        .unwrap();
    for hit in &windowed.answer {
        assert!(hit.start < 120, "segment {hit:?} outside WINDOW [0, 120]");
    }
    assert!(windowed.answer.len() <= full.answer.len());
}

#[test]
fn order_by_confidence_sorts_the_answer() {
    let ranked = session()
        .query(&format!("{CLASSIC} ORDER BY confidence DESC"))
        .unwrap()
        .run()
        .unwrap();
    for pair in ranked.answer.windows(2) {
        assert!(pair[0].confidence >= pair[1].confidence);
    }
}

#[test]
fn latency_budget_buys_throughput_for_sliding_plans() {
    // An absurdly tight budget forces the throughput floor above every
    // accuracy-qualifying configuration, so the budgeted plan must select
    // a configuration at least as fast as the unbudgeted one.
    let unbudgeted = session().query(CLASSIC).unwrap().run().unwrap();
    let budgeted = session()
        .query(
            "SELECT segment_ids FROM UDF(video) \
             WHERE action_class = 'cross-right' AND accuracy >= 85% \
             AND latency_budget <= 1ms",
        )
        .unwrap()
        .run()
        .unwrap();
    assert!(
        budgeted.result.throughput_fps >= unbudgeted.result.throughput_fps,
        "budgeted sliding plan slower than unbudgeted: {} < {}",
        budgeted.result.throughput_fps,
        unbudgeted.result.throughput_fps
    );
}

#[test]
fn excluded_classes_are_subtracted_from_the_answer() {
    let excluded = session()
        .query(
            "SELECT segment_ids FROM UDF(video) \
             WHERE action_class = 'cross-right' \
             AND NOT action_class = 'cross-left' AND accuracy >= 85%",
        )
        .unwrap()
        .run()
        .unwrap();
    // No surviving segment may overlap a ground-truth cross-left span.
    let test = session()
        .source()
        .store()
        .split(zeus::video::video::Split::Test);
    for hit in &excluded.answer {
        let video = test
            .iter()
            .find(|v| v.id == hit.video)
            .expect("known video");
        assert!(
            !video.any_action_in(&[zeus::video::ActionClass::CrossLeft], hit.start, hit.end),
            "segment {hit:?} overlaps an excluded cross-left span"
        );
    }
}

#[test]
fn serving_through_the_session_shares_plans_and_refines_answers() {
    let session = session();
    // Warm the plan, then serve from the same store: no retraining.
    session.query(CLASSIC).unwrap().plan().unwrap();
    let server = session
        .serve(ServeConfig {
            workers: 2,
            executor: ExecutorKind::ZeusSliding,
            ..ServeConfig::default()
        })
        .expect("server starts");

    // Three refinements of one core query: one execution, three answers.
    let full = server
        .submit_ir(session.query(CLASSIC).unwrap().ir(), None)
        .expect("admitted")
        .wait();
    let limited = server
        .submit_ir(
            session
                .query(&format!("{CLASSIC} ORDER BY confidence LIMIT 1"))
                .unwrap()
                .ir(),
            None,
        )
        .expect("admitted")
        .wait();
    let budgeted = server
        .submit_ir(
            session
                .query(&format!("{CLASSIC} AND latency_budget <= 100ms"))
                .unwrap()
                .ir(),
            None,
        )
        .expect("admitted")
        .wait();
    let metrics = server.metrics();
    server.shutdown();

    // Identical execution underneath (serial-equivalence target)...
    assert_eq!(full.labels, limited.labels);
    assert_eq!(full.labels, budgeted.labels);
    assert_eq!(
        metrics.cache_misses, 1,
        "refined views of one core must coalesce/hit the cache"
    );
    // ...with per-view refinement on top.
    assert!(limited.answer.len() <= 1);
    if let Some(best) = limited.answer.first() {
        let max_conf = full
            .answer
            .iter()
            .map(|h| h.confidence)
            .fold(0.0f64, f64::max);
        assert_eq!(best.confidence.to_bits(), max_conf.to_bits());
    }
    // A 100 ms budget rides the interactive admission class.
    assert_eq!(budgeted.priority, Priority::Interactive);
    assert_eq!(full.priority, Priority::Standard);
}

#[test]
fn catalog_plans_are_reused_without_retraining() {
    let dir = std::env::temp_dir().join(format!("zeus-session-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First session trains and persists the plan to the catalog.
    let first = {
        let mut options = PlannerOptions::default();
        options.trainer.episodes = 2;
        options.trainer.warmup = 64;
        options.candidates.truncate(1);
        let s1 = ZeusSession::builder()
            .dataset(DatasetKind::Bdd100k)
            .scale(0.08)
            .seed(21)
            .planner(options)
            .catalog(&dir)
            .executor(ExecutorKind::ZeusSliding)
            .build()
            .unwrap();
        s1.query(CLASSIC).unwrap().run().unwrap()
    };

    // Second session (fresh process, conceptually): its planner options
    // have an EMPTY candidate portfolio, so any attempt to train would
    // fail with `PlanError::InvalidOptions` — the query can only succeed
    // by resolving the stored plan from the catalog.
    let mut untrainable = PlannerOptions::default();
    untrainable.candidates.clear();
    let s2 = ZeusSession::builder()
        .dataset(DatasetKind::Bdd100k)
        .scale(0.08)
        .seed(21)
        .planner(untrainable)
        .catalog(&dir)
        .executor(ExecutorKind::ZeusSliding)
        .build()
        .unwrap();
    let reused = s2
        .query(CLASSIC)
        .unwrap()
        .run()
        .expect("catalog plan must be reused without retraining");
    assert_eq!(
        reused.result.f1.to_bits(),
        first.result.f1.to_bits(),
        "stored plan must execute identically to the session that trained it"
    );

    // 85.1% rounds to the stored plan's file name, but that file holds
    // the plan for 85%: the session refuses it, counts the refusal, and
    // cannot retrain.
    let other_target = s2.query(&CLASSIC.replace("85%", "85.1%")).unwrap();
    assert!(other_target.lookup().is_none());
    assert!(other_target.plan().is_err());
    assert_eq!(s2.snapshot().counter("serve.plan.refused"), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_catalog_only_session_runs_every_executor_bit_identically() {
    let dir = std::env::temp_dir().join(format!("zeus-session-all-five-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = |options: PlannerOptions| {
        ZeusSession::builder()
            .dataset(DatasetKind::Bdd100k)
            .scale(0.08)
            .seed(21)
            .planner(options)
            .catalog(&dir)
            .build()
            .unwrap()
    };
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 2;
    options.trainer.warmup = 64;
    options.candidates.truncate(1);
    let trained = open(options);
    // An empty portfolio cannot train: every run below must rebuild its
    // executor from the catalog plan, the budgeted Zeus-Sliding query
    // selecting from the stored profiles.
    let mut untrainable = PlannerOptions::default();
    untrainable.candidates.clear();
    let reused = open(untrainable);

    let budgeted = format!("{CLASSIC} AND latency_budget <= 1ms");
    let runs = ExecutorKind::ALL
        .map(|executor| (CLASSIC, executor))
        .into_iter()
        .chain([(budgeted.as_str(), ExecutorKind::ZeusSliding)]);
    for (zql, executor) in runs {
        let run = |session: &ZeusSession| {
            let query = session.query(zql).unwrap().executor(executor);
            query.run().expect("runs without training")
        };
        // The trained session runs first: its first run plans and
        // persists the plan.
        let (original, restored) = (run(&trained), run(&reused));
        assert_eq!(
            original.result.f1.to_bits(),
            restored.result.f1.to_bits(),
            "{executor} F1 on {zql}"
        );
        assert_eq!(
            original.result.throughput_fps.to_bits(),
            restored.result.throughput_fps.to_bits(),
            "{executor} fps on {zql}"
        );
        assert_eq!(
            original.answer, restored.answer,
            "{executor} labels on {zql}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_reports_a_catalog_plan_only_where_it_is_reused() {
    let dir = std::env::temp_dir().join(format!("zeus-session-explain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let mut options = PlannerOptions::default();
        options.trainer.episodes = 2;
        options.trainer.warmup = 64;
        options.candidates.truncate(1);
        ZeusSession::builder()
            .dataset(DatasetKind::Bdd100k)
            .scale(0.08)
            .seed(21)
            .planner(options)
            .catalog(&dir)
            .build()
            .unwrap()
    };
    open().query(CLASSIC).unwrap().plan().unwrap();

    // A second session over the catalog: Zeus-Sliding and Frame-PP both
    // rebuild from the stored plan.
    let session = open();
    let explain = |executor| {
        let query = session
            .query(&format!("EXPLAIN ANALYZE {CLASSIC}"))
            .unwrap();
        query.executor(executor).run().unwrap().explain.unwrap()
    };
    assert!(explain(ExecutorKind::ZeusSliding).from_cache);
    assert!(explain(ExecutorKind::FramePp).from_cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn typed_errors_never_panic() {
    let session = session();
    // Parse-level failures.
    assert!(matches!(
        session.query("DROP TABLE videos"),
        Err(ZeusError::Parse(_))
    ));
    assert!(matches!(
        session.query(
            "SELECT segment_ids FROM UDF(video) \
             WHERE action_class = 'cross-right' AND accuracy >= 150%"
        ),
        Err(ZeusError::Parse(_))
    ));
    assert!(matches!(
        session.query(&format!("{CLASSIC} LIMIT 0")),
        Err(ZeusError::Parse(_))
    ));
    // Builder-level failures.
    assert!(matches!(
        ZeusSession::builder().scale(0.0).build(),
        Err(ZeusError::Plan(_))
    ));
    // Serve-level failures.
    assert!(matches!(
        session.serve(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        }),
        Err(ZeusError::Serve(_))
    ));
    assert!(matches!(
        session.serve(ServeConfig {
            executor: ExecutorKind::FramePp,
            ..ServeConfig::default()
        }),
        Err(ZeusError::Serve(_))
    ));
}
