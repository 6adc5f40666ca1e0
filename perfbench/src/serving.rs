//! `serve-cold`: a closed loop of 2 clients against a 2-worker Zeus-RL
//! [`ZeusServer`] whose result cache holds fewer entries than there are
//! distinct templates, so every submission executes its plan over the
//! whole test split.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zeus::core::baselines::QueryEngine;
use zeus::core::planner::{PlannerOptions, QueryPlanner};
use zeus::core::query::{ActionQuery, QueryIr};
use zeus::core::result::QueryResult;
use zeus::core::ExecutorKind;
use zeus::obs::{keys, ObsHub};
use zeus::serve::{CorpusId, PlanStore, QueryRefiner, SegmentHit, ServeConfig, ZeusServer};
use zeus::sim::CostModel;
use zeus::video::{ActionClass, DatasetKind, SyntheticDataset, Video, VideoId};

use crate::driver::{closed_loop, LoopResult, OpError};
use crate::host;
use crate::layers::{self, counter, stage, test_videos, PlanningLayers};
use crate::report::{peak_rss_mb, Metrics, Report};
use crate::spans::{child, root, Spans};
use crate::stats::{median, ratio, SplitMix};
use crate::{Config, CORPUS_SEED, MAX_THREADS};

/// Corpus scale: bdd100k at 0.2 (a handful of test videos per query).
pub const SCALE: f64 = 0.2;
/// Corpus scale of the smoke size.
pub const SMOKE_SCALE: f64 = 0.1;
/// Query classes planned (one trained policy each).
const CLASSES: [ActionClass; 2] = [ActionClass::CrossRight, ActionClass::LeftTurn];
/// Distinct accuracy targets per class: each is its own query identity
/// (and cache key) sharing the class's trained policy.
const TARGETS_PER_CLASS: usize = 16;
/// Result-cache entries: far fewer than the 32 cycling templates, so
/// every lookup misses.
const CACHE_CAPACITY: usize = 8;
/// Set-ups per untraced run; `setup_s` and `plan_s` are their medians.
const SETUP_REPEATS: usize = 5;
/// Own-call refinements timed for `serve.refine_us`.
const REFINE_CALLS: usize = 1_000;

/// Planner options for serving templates: serving never trains on the
/// request path, so templates are planned once, quickly, up front.
pub fn serving_options() -> PlannerOptions {
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 2;
    options.trainer.warmup = 64;
    options.candidates.truncate(1);
    options.training.train_workers = MAX_THREADS;
    options
}

/// One query identity the clients submit.
struct Template {
    ir: QueryIr,
    class: usize,
    expected_answer: Vec<SegmentHit>,
}

/// A started server and everything needed to check its answers.
struct Setup {
    server: ZeusServer,
    hub: ObsHub,
    templates: Vec<Template>,
    /// Submission order over `templates`.
    order: Vec<usize>,
    /// Serial reference labels per class, in video-id order.
    expected: Vec<Vec<(VideoId, Vec<bool>)>>,
    test: Vec<Video>,
    plan_s: f64,
    total_s: f64,
    layers: PlanningLayers,
}

fn setup(cfg: &Config, spans: Option<&Spans>) -> Result<Setup, String> {
    let top = root(spans, "setup");
    let before = host::speed();
    let started = Instant::now();
    let ds: SyntheticDataset = {
        let _s = child(&top, "video.generate");
        DatasetKind::Bdd100k.generate(cfg.workload.scale(cfg.smoke), CORPUS_SEED)
    };

    let hub = ObsHub::new();
    let options = serving_options();
    let corpus = CorpusId::of(&ds);
    let store = Arc::new(PlanStore::in_memory());
    let mut layers = PlanningLayers::default();
    let mut cores = Vec::new();
    let plan_started = Instant::now();
    for class in CLASSES {
        let query = ActionQuery::new(class, 0.85).map_err(|e| e.to_string())?;
        let mut planner = QueryPlanner::new(&ds, options.clone());
        if spans.is_some() {
            planner = planner.with_obs(hub.clone());
        }
        let updates_before = counter(&hub, keys::TRAIN_UPDATES);
        let plan_span = child(&top, "plan");
        let t = Instant::now();
        let plan = planner.try_plan(&query).map_err(|e| e.to_string())?;
        let wall_s = t.elapsed().as_secs_f64();
        store
            .install(corpus, &plan, options.seed)
            .map_err(|e| e.to_string())?;
        if spans.is_some() {
            let updates = counter(&hub, keys::TRAIN_UPDATES) - updates_before;
            layers.probe(&ds, &options, &plan, wall_s, updates, &plan_span);
        }
        cores.push(query);
    }
    // A traced set-up's times include its probes; only untraced set-ups
    // report `setup_s` and `plan_s`.
    let plan_s = plan_started.elapsed().as_secs_f64();

    // Templates: every class at TARGETS_PER_CLASS seed-chosen targets,
    // each installed as its own plan identity sharing the trained policy.
    let mut rng = SplitMix::new(cfg.seed, 1);
    let mut percents: Vec<u32> = (60..=90).collect();
    rng.shuffle(&mut percents);
    percents.truncate(TARGETS_PER_CLASS);
    let mut templates = Vec::new();
    let mut stored_cores = Vec::new();
    for (ci, core) in cores.iter().enumerate() {
        let stored = store
            .get(corpus, core)
            .ok_or("installed plan missing from the store")?;
        for &p in &percents {
            let query =
                ActionQuery::new(core.classes[0], p as f64 / 100.0).map_err(|e| e.to_string())?;
            let mut identity = (*stored).clone();
            identity.query = query.clone();
            store.install_stored(corpus, identity);
            templates.push(Template {
                ir: QueryIr::from_query(query),
                class: ci,
                expected_answer: Vec::new(),
            });
        }
        stored_cores.push(stored);
    }

    let server = {
        let _s = child(&top, "server.start");
        ZeusServer::start_with_obs(
            &ds,
            "bdd100k",
            Arc::clone(&store),
            ServeConfig {
                workers: MAX_THREADS,
                queue_capacity: 64,
                cache_capacity: CACHE_CAPACITY,
                executor: ExecutorKind::ZeusRl,
                ..ServeConfig::default()
            },
            hub.clone(),
        )
        .map_err(|e| e.to_string())?
    };
    let total_s = started.elapsed().as_secs_f64();
    // Set-up times are reported scaled to the reference host speed.
    let speed_scale = host::time_scale((before + host::speed()) / 2.0);
    let (plan_s, total_s) = (plan_s * speed_scale, total_s * speed_scale);

    // Serial references, outside the set-up time.
    let test: Vec<Video> = test_videos(&ds).into_iter().cloned().collect();
    let refs: Vec<&Video> = test.iter().collect();
    let expected: Vec<_> = stored_cores
        .iter()
        .map(|stored| {
            let mut labels = stored
                .zeus_rl_engine(CostModel::default())
                .execute(&refs)
                .labels;
            labels.sort_by_key(|(id, _)| *id);
            labels
        })
        .collect();
    for t in &mut templates {
        t.expected_answer =
            QueryRefiner::new(&t.ir, refs.iter().copied()).answer(&expected[t.class]);
    }
    let mut order: Vec<usize> = (0..templates.len()).collect();
    rng.shuffle(&mut order);
    Ok(Setup {
        server,
        hub,
        templates,
        order,
        expected,
        test,
        plan_s,
        total_s,
        layers,
    })
}

/// Drive the closed loop against a set-up server.
fn drive(
    setup: &Setup,
    budget: Duration,
    spans: Option<&Spans>,
) -> (LoopResult, Vec<Option<QueryResult>>) {
    let first: Mutex<Vec<Option<QueryResult>>> = Mutex::new(vec![None; setup.templates.len()]);
    let result = closed_loop(MAX_THREADS, budget, |i| {
        let ti = setup.order[i % setup.order.len()];
        let template = &setup.templates[ti];
        let span = root(spans, "serve.query");
        let started = Instant::now();
        let stream = {
            let _s = child(&span, "serve.submit");
            setup.server.submit_ir(&template.ir, None)
        }
        .map_err(|e| OpError::Refused(e.to_string()))?;
        let outcome = {
            let _s = child(&span, "serve.wait");
            stream.wait()
        };
        let latency = started.elapsed();
        drop(span);
        if outcome.labels != setup.expected[template.class] {
            return Err(OpError::Check(format!(
                "{}: served labels differ from serial execution",
                template.ir.to_sql()
            )));
        }
        if outcome.answer != template.expected_answer {
            return Err(OpError::Check(format!(
                "{}: answer set differs from serial refinement",
                template.ir.to_sql()
            )));
        }
        let mut first = first.lock().expect("first-result table poisoned");
        first[ti].get_or_insert(outcome.result);
        Ok(latency)
    });
    (
        result,
        first.into_inner().expect("first-result table poisoned"),
    )
}

/// Run `setup` `repeats` times, each cold: the previous set-up (and its
/// server threads) is dropped before the next starts. Returns the last
/// set-up and the medians of its `(total, planning)` seconds.
pub fn repeat_setup<S>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    seconds: impl Fn(&S) -> (f64, f64),
) -> Result<(S, f64, f64), String> {
    let (mut totals, mut plans) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let s = setup()?;
        let (total, plan) = seconds(&s);
        totals.push(total);
        plans.push(plan);
        last = Some(s);
    }
    let last = last.expect("at least one set-up");
    Ok((last, median(&totals), median(&plans)))
}

/// Simulated-clock throughput of the served plans: frames over simulated
/// seconds, summed over every template's first served outcome.
pub fn served_sim_fps(results: &[Option<QueryResult>]) -> f64 {
    let (frames, secs) = results.iter().flatten().fold((0.0, 0.0), |(f, s), r| {
        (f + r.histogram.total_frames() as f64, s + r.elapsed_secs)
    });
    ratio(frames, secs)
}

/// Templates whose served test-split F1 reaches their accuracy target.
pub fn served_target_met(results: &[Option<QueryResult>], targets: &[f64]) -> f64 {
    results
        .iter()
        .zip(targets)
        .filter(|(r, &t)| r.as_ref().is_some_and(|r| r.f1 >= t))
        .count() as f64
}

/// Run `serve-cold`.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let repeats = if cfg.trace { 1 } else { SETUP_REPEATS };
    let (base, setup_s, plan_s) =
        repeat_setup(repeats, || setup(cfg, None), |s| (s.total_s, s.plan_s))?;
    let budget = if cfg.trace {
        cfg.budget / 2
    } else {
        cfg.budget
    };
    let (untraced, first) = drive(&base, budget, None);
    untraced.fold_into(&mut report);
    let targets: Vec<f64> = base
        .templates
        .iter()
        .map(|t| t.ir.base.target_accuracy)
        .collect();

    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", setup_s);
    e2e.insert("plan_s", plan_s);
    e2e.insert("sim_fps", served_sim_fps(&first));
    untraced.insert_into(e2e);
    report.notes.push(format!(
        "serve-cold: {} templates over {} classes, cache {} entries; {} queries in {:.2}s; target met by {} templates",
        base.templates.len(),
        CLASSES.len(),
        CACHE_CAPACITY,
        untraced.completed,
        untraced.wall_s,
        served_target_met(&first, &targets),
    ));
    drop(base);

    if cfg.trace {
        let spans = Spans::new();
        let traced_setup = setup(cfg, Some(&spans))?;
        let (traced, traced_first) = drive(&traced_setup, budget, Some(&spans));
        traced.fold_into(&mut report);
        if served_sim_fps(&traced_first) != report.end_to_end["sim_fps"] {
            report.fail_check("traced sim_fps differs from untraced".into());
        }
        let out = &mut report.per_layer;
        out.insert(
            "video.generate_s",
            layers::generate_secs(&[DatasetKind::Bdd100k], cfg.workload.scale(cfg.smoke)),
        );
        traced_setup.layers.finish(&traced_setup.hub, out);
        serve_layers(&traced_setup, out);
        layers::no_fleet(out);
        out.insert(
            "obs.overhead_share",
            ratio(traced.cost_s() - untraced.cost_s(), untraced.cost_s()),
        );
        out.insert("target_met", served_target_met(&traced_first, &targets));
        out.insert("host.speed", traced.speed());
        report.trace_jsonl = spans.to_jsonl() + &layers::telemetry_jsonl(&traced_setup.hub);
    }
    report.end_to_end.insert("peak_rss_mb", peak_rss_mb()?);
    let failed_share = report.failed_share();
    report.per_layer.insert("failed_share", failed_share);
    Ok(report)
}

/// Serving-layer metrics of the traced server.
fn serve_layers(setup: &Setup, out: &mut Metrics) {
    let hub = &setup.hub;
    let p50 = |name: &str| stage(hub, name).map_or(0.0, |s| s.p50_us as f64);
    out.insert("serve.stage.cache_us_p50", p50("cache"));
    out.insert("serve.stage.plan_us_p50", p50("plan"));
    out.insert("serve.stage.admission_us_p50", p50("admission"));
    out.insert("serve.stage.execute_part_us_p50", p50("execute.part"));
    out.insert(
        "serve.stage.execute_part_us_mean",
        stage(hub, "execute.part").map_or(0.0, |s| s.mean_us as f64),
    );
    let hits = counter(hub, keys::CACHE_RESULT_HIT) as f64;
    let misses = counter(hub, keys::CACHE_RESULT_MISS) as f64;
    out.insert("serve.cache.hit_ratio", ratio(hits, hits + misses));
    out.insert(
        "serve.coalesced",
        counter(hub, keys::SERVE_COALESCED) as f64,
    );
    out.insert("serve.shed", counter(hub, keys::SERVE_ADMIT_SHED) as f64);
    out.insert(
        "serve.device_imbalance",
        setup.server.metrics().device_imbalance(),
    );
    let cases: Vec<_> = setup
        .templates
        .iter()
        .map(|t| (&t.ir, &setup.expected[t.class], setup.test.as_slice()))
        .collect();
    out.insert("serve.refine_us", refine_us(&cases));
}

/// One refinement case: the query, the labels it refines, and the
/// corpus videos its `AND NOT` exclusions resolve against.
pub type RefineCase<'a> = (&'a QueryIr, &'a Vec<(VideoId, Vec<bool>)>, &'a [Video]);

/// Mean microseconds of one own-call refinement (`QueryRefiner`
/// compile plus answer), cycling over `cases`.
pub fn refine_us(cases: &[RefineCase<'_>]) -> f64 {
    let started = Instant::now();
    let mut calls = 0usize;
    for (ir, labels, videos) in cases.iter().cycle().take(REFINE_CALLS) {
        std::hint::black_box(QueryRefiner::new(ir, videos.iter()).answer(labels));
        calls += 1;
    }
    ratio(started.elapsed().as_secs_f64() * 1e6, calls as f64)
}
