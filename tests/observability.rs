//! The observability plane, end to end: metric registry exactness under
//! contention, span-tree well-formedness across a full
//! `session.query().run()` and a training round, and the
//! `EXPLAIN ANALYZE` acceptance check (stage sum ≡ measured e2e).

use std::time::Instant;

use zeus::core::metrics::EvalProtocol;
use zeus::core::training::{bench_env, CandidateJob, TrainingEngine, TrainingOptions};
use zeus::obs::{MetricsRegistry, ObsHub};
use zeus::prelude::*;
use zeus::rl::TrainerConfig;

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

fn tiny_session(seed: u64) -> ZeusSession {
    ZeusSession::builder()
        .dataset(DatasetKind::Bdd100k)
        .scale(0.05)
        .seed(seed)
        .planner(fast_options(seed))
        .build()
        .expect("session builds")
}

const ZQL: &str = "SELECT segment_ids FROM UDF(video) \
                   WHERE action_class = 'cross-right' AND accuracy >= 85%";

#[test]
fn registry_counters_are_exact_under_contention() {
    let registry = MetricsRegistry::new();
    let threads = 8;
    let per_thread = 25_000u64;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let counter = registry.counter("serve.submitted");
            let hist = registry.histogram("serve.latency_us");
            scope.spawn(move || {
                for i in 0..per_thread {
                    counter.inc();
                    hist.record(i % 1000);
                }
            });
        }
    });
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("serve.submitted"),
        Some(threads * per_thread),
        "counters must be exact under contention, not approximate"
    );
}

#[test]
fn session_query_run_produces_a_well_formed_trace() {
    let session = tiny_session(11);
    let response = session.query(ZQL).expect("parses").run().expect("runs");
    assert!(response.explain.is_none(), "plain query carries no report");

    let traces = session.trace_sink().recent_traces();
    let run = traces
        .iter()
        .find(|t| t.label == "session.run")
        .expect("session.run trace published");
    assert!(run.well_formed(), "no orphan or unclosed spans: {run:?}");
    for stage in ["plan", "execute", "refine"] {
        assert!(
            run.spans.iter().any(|s| s.name == stage),
            "stage '{stage}' missing from {run:?}"
        );
    }
    // Training ran under the same hub: the train.* namespace is live.
    let snap = session.snapshot();
    assert!(snap.counter("train.steps").unwrap_or(0) > 0, "{snap}");
    assert!(snap.counter("train.episodes").unwrap_or(0) > 0);
    assert!(snap.counter("train.candidates").unwrap_or(0) > 0);
}

#[test]
fn explain_analyze_stage_sum_matches_measured_e2e() {
    let session = tiny_session(13);
    // Warm the plan so the measured run times execution, not training.
    session.query(ZQL).expect("parses").run().expect("warms");

    let started = Instant::now();
    let response = session
        .query(&format!("EXPLAIN ANALYZE {ZQL}"))
        .expect("parses")
        .run()
        .expect("runs");
    let e2e = started.elapsed();

    let report = response.explain.expect("EXPLAIN ANALYZE carries a report");
    assert_eq!(
        report.stage_sum(),
        report.total,
        "contiguous checkpoints: stage walls must tile the total exactly"
    );
    for stage in ["plan", "execute", "refine"] {
        assert!(report.stage(stage).is_some(), "missing stage {stage}");
    }
    // The report's total is the measured run minus only the (tiny)
    // response assembly around it: within 5% of e2e or 5ms slack.
    let slack = (e2e.as_secs_f64() * 0.05).max(0.005);
    let diff = e2e.saturating_sub(report.total);
    assert!(
        diff.as_secs_f64() <= slack,
        "stage sum {:?} vs measured e2e {e2e:?} (diff {diff:?} > slack {slack:.4}s)",
        report.total,
    );
    assert!(report.device_secs > 0.0, "execution charges device time");
}

#[test]
fn served_explain_covers_every_query_stage() {
    let session = tiny_session(17);
    let query = session.query(ZQL).expect("parses");
    query.plan().expect("plans");
    let server = session
        .serve(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .expect("server starts");

    let ir = QueryIr::from_query(query.ir().base.clone());
    let (outcome, report) = server.explain_ir(&ir, None).expect("explains");
    assert!(!outcome.labels.is_empty());
    assert_eq!(report.stage_sum(), report.total);
    for stage in ["admission", "cache", "plan", "execute", "refine"] {
        assert!(
            report.stage(stage).is_some(),
            "stage '{stage}' missing from served EXPLAIN ANALYZE"
        );
    }
    server.shutdown();

    // The explain request recorded a full, well-formed trace tree.
    let traces = server.trace_sink().recent_traces();
    let explain = traces
        .iter()
        .find(|t| t.label == "serve.explain")
        .expect("serve.explain trace published");
    assert!(explain.well_formed(), "{explain:?}");
}

#[test]
fn training_round_produces_a_well_formed_trace() {
    let hub = ObsHub::new();
    let dataset = DatasetKind::Bdd100k.generate(0.05, 7);
    let proto = bench_env(&dataset, 7).expect("env builds");
    let job = CandidateJob::representative(
        TrainerConfig {
            episodes: 2,
            warmup: 64,
            ..TrainerConfig::default()
        },
        EvalProtocol::for_family(dataset.family()),
        0.85,
        7,
    );
    let engine = TrainingEngine::new(TrainingOptions { train_workers: 1 }).with_obs(hub.clone());
    engine.train_candidate(&proto, &job).expect("trains");

    let traces = hub.tracer.recent_traces();
    let train = traces
        .iter()
        .find(|t| t.label == "train")
        .expect("train trace published");
    assert!(train.well_formed(), "{train:?}");
    for stage in ["episode", "batch_forward", "update"] {
        assert!(
            train.spans.iter().any(|s| s.name == stage),
            "stage '{stage}' missing from {train:?}"
        );
    }
    let snap = hub.metrics.snapshot();
    assert!(snap.counter("train.steps").unwrap_or(0) > 0);
    assert_eq!(snap.counter("train.candidates"), Some(1));
    assert!(snap.counter("train.updates").unwrap_or(0) > 0);
    // The candidate stage aggregate recorded the whole round.
    let stats = hub.tracer.stage_stats();
    let candidate = stats
        .iter()
        .find(|s| s.name == "candidate")
        .expect("candidate stage aggregated");
    assert_eq!(candidate.count, 1);
}

#[test]
fn serving_workload_exports_spans_and_metrics() {
    let session = tiny_session(19);
    let query = session.query(ZQL).expect("parses");
    query.plan().expect("plans");
    let server = session
        .serve(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .expect("server starts");
    let base = query.ir().base.clone();
    let streams: Vec<_> = (0..20)
        .map(|_| {
            server
                .submit(base.clone(), Priority::Standard)
                .expect("admitted")
        })
        .collect();
    for s in streams {
        let _ = s.wait();
    }
    server.snapshot();
    let jsonl = server.obs().export_jsonl();
    server.shutdown();

    for needle in [
        "\"type\":\"span\"",
        "\"type\":\"stage\"",
        "\"type\":\"metric\"",
        "\"name\":\"serve.admit.shed\"",
        "\"name\":\"cache.result.hit\"",
        "\"name\":\"train.steps\"",
        "\"name\":\"serve.latency_us\"",
    ] {
        assert!(jsonl.contains(needle), "missing {needle} in export");
    }
    // Sampled submissions (id % 16 == 0) published full trace trees.
    let traces = server.trace_sink().recent_traces();
    assert!(
        traces
            .iter()
            .any(|t| t.label == "serve.submit" && t.well_formed()),
        "sampled serve.submit traces must be published and well-formed"
    );
    let snap = server.snapshot();
    assert_eq!(snap.counter("serve.completed"), Some(20));
    // One execution; every duplicate was either answered from the
    // result cache or coalesced onto the in-flight query.
    let answered_cheap = snap.counter("cache.result.hit").unwrap_or(0)
        + snap.counter("serve.coalesced").unwrap_or(0);
    assert!(answered_cheap >= 19, "{snap}");
}
