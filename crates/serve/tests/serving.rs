//! Integration and property tests for the serving subsystem.
//!
//! The two load-bearing properties from the scheduler's contract:
//!
//! 1. **Serial equivalence** — serving any number of queries over any
//!    number of devices yields byte-identical `QueryResult`s to serial
//!    execution under a fixed seed.
//! 2. **Admission discipline** — the bounded queue never exceeds its
//!    capacity and never starves a priority class.

use std::sync::OnceLock;

use proptest::prelude::*;
use zeus_core::baselines::QueryEngine;
use zeus_core::catalog::{decode_plan, encode_plan, PlanCatalog};
use zeus_core::planner::{PlannerOptions, QueryPlan, QueryPlanner};
use zeus_core::query::ActionQuery;
use zeus_core::ExecutorKind;
use zeus_obs::keys;
use zeus_serve::admission::AdmissionQueue;
use zeus_serve::{
    run_open_loop, AdmitError, CorpusId, PlanStore, Priority, QueryOutcome, ServeConfig,
    WorkloadSpec, ZeusServer,
};
use zeus_sim::CostModel;
use zeus_video::video::Split;
use zeus_video::{ActionClass, DatasetKind, SyntheticDataset};

const SCALE: f64 = 0.1;
const SEED: u64 = 3;

struct Fixture {
    dataset: SyntheticDataset,
    stored: QueryPlan,
    /// The `.zpln` bytes of `stored`.
    encoded: Vec<u8>,
}

/// Plan once (fast options), reuse across every test.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = DatasetKind::Bdd100k.generate(SCALE, SEED);
        let mut options = PlannerOptions {
            seed: SEED,
            ..PlannerOptions::default()
        };
        options.trainer.episodes = 2;
        options.trainer.warmup = 64;
        options.candidates.truncate(1);
        let planner = QueryPlanner::new(&dataset, options);
        let plan = planner.plan(&ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap());
        let encoded = encode_plan(&plan, SEED);
        let stored = decode_plan(&encoded).expect("roundtrip");
        Fixture {
            dataset,
            stored,
            encoded,
        }
    })
}

fn corpus() -> CorpusId {
    CorpusId::of(&fixture().dataset)
}

fn plan_store(templates: &[ActionQuery]) -> PlanStore {
    let store = PlanStore::in_memory();
    for template in templates {
        let mut variant = fixture().stored.clone();
        variant.query = template.clone();
        store.install_stored(corpus(), variant);
    }
    store
}

fn templates() -> Vec<ActionQuery> {
    vec![
        ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap(),
        ActionQuery::new(ActionClass::CrossRight, 0.80).unwrap(),
        ActionQuery::new(ActionClass::CrossRight, 0.75).unwrap(),
    ]
}

fn start_server(workers: usize, queue: usize, executor: ExecutorKind) -> ZeusServer {
    let templates = templates();
    ZeusServer::start(
        &fixture().dataset,
        plan_store(&templates),
        ServeConfig {
            workers,
            queue_capacity: queue,
            executor,
            ..ServeConfig::default()
        },
    )
    .expect("server starts")
}

/// Submit every query, then wait for all (keeps the queue genuinely
/// concurrent rather than one-at-a-time).
fn serve_all(server: &ZeusServer, queries: &[(ActionQuery, Priority)]) -> Vec<QueryOutcome> {
    let streams: Vec<_> = queries
        .iter()
        .map(|(q, p)| server.submit(q.clone(), *p).expect("admitted"))
        .collect();
    streams.into_iter().map(|s| s.wait()).collect()
}

proptest! {
    /// Concurrent serving must be indistinguishable from serial serving:
    /// identical labels and bit-identical f64 metrics, for any worker
    /// count, executor, and query mix.
    #[test]
    fn concurrent_serving_matches_serial_bitwise(
        workers in 2usize..6,
        executor in prop::sample::select(vec![ExecutorKind::ZeusSliding, ExecutorKind::ZeusRl]),
        picks in prop::collection::vec((0usize..3, 0usize..3), 1..8),
    ) {
        let ts = templates();
        let queries: Vec<(ActionQuery, Priority)> = picks
            .iter()
            .map(|&(t, p)| (ts[t].clone(), Priority::ALL[p]))
            .collect();

        let concurrent = start_server(workers, 64, executor);
        let got = serve_all(&concurrent, &queries);
        concurrent.shutdown();

        let serial = start_server(1, 64, executor);
        let want = serve_all(&serial, &queries);
        serial.shutdown();

        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(&g.query, &w.query);
            prop_assert_eq!(&g.labels, &w.labels, "labels diverged under concurrency");
            prop_assert_eq!(g.result.f1.to_bits(), w.result.f1.to_bits());
            prop_assert_eq!(
                g.result.elapsed_secs.to_bits(),
                w.result.elapsed_secs.to_bits(),
                "clock merge must be scheduling-independent"
            );
            prop_assert_eq!(
                g.result.throughput_fps.to_bits(),
                w.result.throughput_fps.to_bits()
            );
            prop_assert_eq!(g.result.invocations, w.result.invocations);
        }
    }

    /// The admission queue's bound holds under arbitrary push/pop
    /// interleavings, and accounting conserves items.
    #[test]
    fn admission_bound_holds_under_any_interleaving(
        capacity in 1usize..12,
        ops in prop::collection::vec((any::<bool>(), 0usize..3), 1..120),
    ) {
        let q = AdmissionQueue::new(capacity);
        let mut pushed = 0usize;
        let mut shed = 0usize;
        let mut popped = 0usize;
        for (is_push, class) in ops {
            if is_push {
                match q.try_push(pushed, Priority::ALL[class]) {
                    Ok(depth) => {
                        pushed += 1;
                        prop_assert!(depth <= capacity, "depth {depth} > capacity {capacity}");
                    }
                    Err(AdmitError::QueueFull { .. }) => {
                        shed += 1;
                        prop_assert_eq!(q.depth(), capacity, "shed below capacity");
                    }
                    Err(e) => prop_assert!(false, "unexpected admit error {e}"),
                }
            } else if q.try_pop().is_some() {
                popped += 1;
            }
            prop_assert!(q.depth() <= capacity);
        }
        prop_assert_eq!(pushed, popped + q.depth());
        let _ = shed;
    }

    /// With every class backlogged, one full scheduling cycle serves all
    /// three classes — no class starves behind higher priorities.
    #[test]
    fn no_priority_class_starves(backlog in 3usize..20) {
        let q = AdmissionQueue::new(3 * backlog);
        for i in 0..backlog {
            for p in Priority::ALL {
                q.try_push(i, p).unwrap();
            }
        }
        // Any window of 7 consecutive pops (one schedule cycle) must
        // include every class while all classes remain backlogged.
        let safe_pops = (backlog - 1).min(7) * 3;
        let mut window: Vec<Priority> = Vec::new();
        for _ in 0..safe_pops.min(7) {
            window.push(q.pop_blocking().unwrap().1);
        }
        for p in Priority::ALL {
            prop_assert!(
                window.contains(&p),
                "{p} not served within one cycle: {window:?}"
            );
        }
    }
}

#[test]
fn hundred_concurrent_queries_across_four_devices() {
    // The acceptance-scale workload: >= 100 queries, >= 4 devices, open
    // loop, non-zero cache hit rate, serial equivalence.
    let ts = templates();
    let server = start_server(4, 128, ExecutorKind::ZeusSliding);
    let spec = WorkloadSpec::new(ts.clone(), 120, 0xF00D);
    let report = run_open_loop(&server, &spec, 500.0);
    let metrics = server.metrics();
    server.shutdown();

    assert_eq!(report.outcomes.len() + report.shed, 120);
    assert!(report.shed == 0, "queue of 128 must not shed 120 queries");
    assert!(
        metrics.cache_hits > 0,
        "repeat templates must hit the cache"
    );
    assert!(metrics.p50 <= metrics.p95 && metrics.p95 <= metrics.p99);
    assert_eq!(metrics.completed, 120);

    // Serial reference: the plan's engine on a fresh device.
    let fx = fixture();
    let mut test = fx.dataset.store.split(Split::Test);
    test.sort_by_key(|v| v.id);
    for template in &ts {
        let mut variant = fx.stored.clone();
        variant.query = template.clone();
        let exec = variant.sliding_engine(CostModel).execute(&test);
        let outcome = report
            .outcomes
            .iter()
            .find(|o| &o.query == template)
            .expect("every template served");
        assert_eq!(outcome.labels, exec.labels, "served vs serial labels");
    }
}

#[test]
fn identical_inflight_submissions_coalesce_to_one_execution() {
    // A thundering herd of one query: the first submission executes, the
    // rest subscribe to it (or hit the cache after it lands), and every
    // client receives the identical outcome.
    let ts = templates();
    let server = start_server(2, 64, ExecutorKind::ZeusSliding);
    let streams: Vec<_> = (0..30)
        .map(|i| {
            server
                .submit(ts[0].clone(), Priority::ALL[i % 3])
                .expect("admitted")
        })
        .collect();
    let outcomes: Vec<QueryOutcome> = streams.into_iter().map(|s| s.wait()).collect();
    let metrics = server.metrics();
    server.shutdown();

    assert_eq!(metrics.cache_misses, 1, "exactly one execution");
    assert_eq!(
        metrics.cache_hits + metrics.coalesced,
        29,
        "everyone else rides along"
    );
    let first = &outcomes[0];
    for o in &outcomes {
        assert_eq!(o.labels, first.labels);
        assert_eq!(o.result.f1.to_bits(), first.result.f1.to_bits());
    }
    // Ids are distinct per client even when coalesced.
    let mut ids: Vec<_> = outcomes.iter().map(|o| o.id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), outcomes.len());
}

#[test]
fn queue_full_sheds_and_reports() {
    // One worker, capacity-1 queue, and a stampede: most submissions must
    // shed, and the server must survive and finish the admitted ones.
    let ts = templates();
    let server = start_server(1, 1, ExecutorKind::ZeusSliding);
    let mut streams = Vec::new();
    let mut shed = 0;
    for i in 0..40 {
        match server.submit(ts[i % ts.len()].clone(), Priority::Batch) {
            Ok(s) => streams.push(s),
            Err(AdmitError::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                shed += 1;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    for s in streams {
        let _ = s.wait();
    }
    let metrics = server.metrics();
    server.shutdown();
    assert!(shed > 0, "a capacity-1 queue must shed under a stampede");
    assert_eq!(metrics.shed as usize, shed);
    assert!(metrics.shed_rate() > 0.0);
}

#[test]
fn unplanned_query_is_refused_not_trained() {
    let server = start_server(1, 8, ExecutorKind::ZeusSliding);
    let unplanned = ActionQuery::new(ActionClass::PoleVault, 0.75).unwrap();
    let err = server
        .submit(unplanned, Priority::Interactive)
        .expect_err("no plan installed");
    assert!(matches!(err, AdmitError::NoPlan { .. }));
    let metrics = server.metrics();
    server.shutdown();
    assert_eq!(metrics.rejected_no_plan, 1);
}

#[test]
fn refused_catalog_plans_are_counted_as_misses() {
    // One corpus directory holding a corrupt plan file, and the fixture's
    // CrossRight-at-0.85 plan under the file name that 0.851 also rounds
    // to: neither can serve its request.
    let dir = std::env::temp_dir().join(format!("zeus-serve-refused-{}", std::process::id()));
    let corpus_dir = dir.join(corpus().to_string());
    std::fs::create_dir_all(&corpus_dir).unwrap();
    let corrupt = ActionQuery::new(ActionClass::LeftTurn, 0.85).unwrap();
    let other_target = ActionQuery::new(ActionClass::CrossRight, 0.851).unwrap();
    assert_eq!(
        PlanCatalog::key(&other_target),
        PlanCatalog::key(&fixture().stored.query)
    );
    std::fs::write(corpus_dir.join(PlanCatalog::key(&corrupt)), b"not a plan").unwrap();
    std::fs::write(
        corpus_dir.join(PlanCatalog::key(&other_target)),
        &fixture().encoded,
    )
    .unwrap();

    let store = PlanStore::with_catalog(&dir).unwrap();
    let server = ZeusServer::start(&fixture().dataset, store, ServeConfig::default()).unwrap();
    for query in [corrupt, other_target] {
        let err = server
            .submit(query, Priority::Interactive)
            .expect_err("a refused plan is a miss");
        assert!(matches!(err, AdmitError::NoPlan { .. }));
    }
    let snapshot = server.snapshot();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(snapshot.counter(keys::SERVE_PLAN_REFUSED), Some(2));
    assert_eq!(snapshot.counter(keys::SERVE_ADMIT_NO_PLAN), Some(2));
}

#[test]
fn cache_hits_replay_the_first_execution_exactly() {
    let ts = templates();
    let server = start_server(2, 16, ExecutorKind::ZeusSliding);
    let first = server
        .submit(ts[0].clone(), Priority::Standard)
        .unwrap()
        .wait();
    assert!(!first.from_cache);
    let second = server
        .submit(ts[0].clone(), Priority::Standard)
        .unwrap()
        .wait();
    server.shutdown();
    assert!(second.from_cache, "identical repeat must hit the cache");
    assert_eq!(first.labels, second.labels);
    assert_eq!(first.result.f1.to_bits(), second.result.f1.to_bits());
    assert_eq!(
        first.result.elapsed_secs.to_bits(),
        second.result.elapsed_secs.to_bits()
    );
}
