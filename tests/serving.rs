//! Facade-level integration of the serving subsystem: plan → install →
//! serve concurrently → verify against direct engine execution.

use zeus::prelude::*;
use zeus::serve::run_open_loop;
use zeus::video::video::Split;
use zeus::video::ActionClass;

fn fast_options(seed: u64) -> PlannerOptions {
    let mut options = PlannerOptions {
        seed,
        ..PlannerOptions::default()
    };
    options.trainer.episodes = 2;
    options.trainer.warmup = 64;
    options.candidates.truncate(1);
    options
}

#[test]
fn serving_through_the_facade_matches_direct_execution() {
    let (scale, seed) = (0.08, 21u64);
    let dataset = DatasetKind::Bdd100k.generate(scale, seed);
    let query = ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap();

    let planner = QueryPlanner::new(&dataset, fast_options(seed));
    let plan = planner.plan(&query);

    let plans = PlanStore::in_memory();
    plans
        .install(CorpusId::of(&dataset), &plan, seed)
        .expect("install");

    let server = ZeusServer::start(
        &dataset,
        plans,
        ServeConfig {
            workers: 4,
            executor: ExecutorKind::ZeusRl,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");

    // A burst of concurrent submissions of the same query: one executes,
    // the rest are answered from the result cache, all byte-identical.
    let streams: Vec<_> = (0..24)
        .map(|i| {
            server
                .submit(query.clone(), Priority::ALL[i % 3])
                .expect("admitted")
        })
        .collect();
    let outcomes: Vec<_> = streams.into_iter().map(|s| s.wait()).collect();

    let mut test = dataset.store.split(Split::Test);
    test.sort_by_key(|v| v.id);
    let direct = planner
        .build_engine(&plan, ExecutorKind::ZeusRl)
        .execute(&test);
    let mut direct_labels = direct.labels.clone();
    direct_labels.sort_by_key(|(id, _)| *id);

    for outcome in &outcomes {
        assert_eq!(
            outcome.labels, direct_labels,
            "served predictions must match direct engine execution"
        );
        assert_eq!(outcome.result.invocations, direct.clock.events());
        assert!(
            (outcome.result.elapsed_secs - direct.clock.elapsed_secs()).abs() < 1e-9,
            "simulated time must agree with direct execution"
        );
    }
    let metrics = server.metrics();
    assert_eq!(
        metrics.cache_misses, 1,
        "a concurrent burst of one identical query must execute exactly once"
    );
    assert!(
        metrics.cache_hits + metrics.coalesced >= 23,
        "the rest must be answered from cache or coalesced: {} + {}",
        metrics.cache_hits,
        metrics.coalesced
    );
    server.shutdown();
}

#[test]
fn open_loop_workload_reports_latency_percentiles() {
    let (scale, seed) = (0.08, 21u64);
    let dataset = DatasetKind::Bdd100k.generate(scale, seed);
    let query = ActionQuery::new(ActionClass::LeftTurn, 0.80).unwrap();

    let planner = QueryPlanner::new(&dataset, fast_options(seed));
    let plan = planner.plan(&query);
    let plans = PlanStore::in_memory();
    plans
        .install(CorpusId::of(&dataset), &plan, seed)
        .expect("install");

    let server = ZeusServer::start(
        &dataset,
        plans,
        ServeConfig {
            workers: 4,
            executor: ExecutorKind::ZeusSliding,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let spec = WorkloadSpec::new(vec![query], 50, 99);
    let report = run_open_loop(&server, &spec, 400.0);
    let metrics = server.metrics();
    server.shutdown();

    assert_eq!(report.outcomes.len(), 50 - report.shed);
    assert_eq!(metrics.completed as usize, report.outcomes.len());
    assert!(metrics.p50 <= metrics.p99);
    assert!(metrics.throughput_qps > 0.0);
    assert!(metrics.cache_hit_rate() > 0.0, "repeats must hit the cache");
}
