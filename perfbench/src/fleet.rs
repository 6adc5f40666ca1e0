//! `fleet-warm`: Zipf-skewed multi-tenant traffic of refined ZQL
//! (`WINDOW`, `AND NOT`, `ORDER BY`, `LIMIT` variants over shared query
//! cores) through a 2-shard [`FleetRouter`] over four corpora. The result
//! caches hold the whole working set and quotas sit above the offered
//! load, so the path is routing, the quota gate, cache hits and answer
//! refinement; almost nothing executes.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use zeus::api::{FleetConfig, FleetRouter, QuotaSpec, TenantId, ZeusSession};
use zeus::core::baselines::QueryEngine;
use zeus::core::query::{parse_zql, QueryIr};
use zeus::core::result::QueryResult;
use zeus::core::ExecutorKind;
use zeus::obs::{keys, ObsSnapshot};
use zeus::serve::{QueryRefiner, SegmentHit, ServeConfig};
use zeus::sim::CostModel;
use zeus::video::{ConfigFamily, DatasetKind, Video, VideoId};

use crate::driver::{closed_loop, LoopResult, OpError};
use crate::host;
use crate::layers::{self, counter, test_videos, PlanningLayers};
use crate::report::{peak_rss_mb, Report};
use crate::serving::{refine_us, repeat_setup, served_sim_fps, served_target_met, serving_options};
use crate::spans::{child, root, Spans};
use crate::stats::{median, pick, ratio, zipf_cdf, SplitMix};
use crate::{Config, CORPUS_SEED, MAX_THREADS};

/// Corpus scale of the four corpora.
pub const SCALE: f64 = 0.1;
/// Corpus scale of the smoke size.
pub const SMOKE_SCALE: f64 = 0.05;
/// The corpora (KITTI has too few classes to template).
const CORPORA: [DatasetKind; 4] = [
    DatasetKind::Bdd100k,
    DatasetKind::Thumos14,
    DatasetKind::ActivityNet,
    DatasetKind::Cityscapes,
];
const SHARDS: usize = 2;
const TENANTS: usize = 4;
/// Result-cache entries per shard: above the 8-core working set.
const CACHE_CAPACITY: usize = 64;
/// Submissions to one corpus after which its plans replicate to the
/// other shard; crossed during warm-up.
const HOT_THRESHOLD: u64 = 16;
/// Length of the precomputed traffic sequence (clients cycle it).
const TRAFFIC_LEN: usize = 1 << 16;
/// Set-ups per untraced run; `setup_s` and `plan_s` are their medians.
const SETUP_REPEATS: usize = 5;
/// Zipf exponents of the corpus and tenant mixes.
const CORPUS_SKEW: f64 = 1.1;
const TENANT_SKEW: f64 = 1.1;

/// One refined ZQL template over a query core.
struct Template {
    ir: QueryIr,
    core: usize,
    expected_answer: Vec<SegmentHit>,
}

struct Setup {
    session: ZeusSession,
    router: FleetRouter,
    templates: Vec<Template>,
    /// Serial reference labels per core, in video-id order.
    expected: Vec<Vec<(VideoId, Vec<bool>)>>,
    /// Test videos per core's corpus, in video-id order.
    tests: Vec<Vec<Video>>,
    /// `(template, tenant)` per operation.
    traffic: Vec<(usize, usize)>,
    tenants: Vec<TenantId>,
    plan_s: f64,
    total_s: f64,
    layers: PlanningLayers,
}

fn setup(cfg: &Config, spans: Option<&Spans>) -> Result<Setup, String> {
    let scale = cfg.workload.scale(cfg.smoke);
    let top = root(spans, "setup");
    let before = host::speed();
    let started = Instant::now();
    let options = serving_options();
    let mut builder = ZeusSession::builder().planner(options.clone());
    {
        let _s = child(&top, "video.generate");
        for kind in CORPORA {
            builder = builder.register(kind.registry_name(), kind.generate(scale, CORPUS_SEED));
        }
    }
    let session = builder.build().map_err(|e| e.to_string())?;

    // Plan every corpus's two classes at the family's Figure 8 target.
    let mut layers = PlanningLayers::default();
    let mut cores = Vec::new();
    let plan_started = Instant::now();
    for kind in CORPORA {
        let name = kind.registry_name();
        let target = match kind.family() {
            ConfigFamily::Driving => 85,
            ConfigFamily::Untrimmed => 75,
        };
        for class in kind.query_classes() {
            let sql = format!(
                "SELECT segment_ids FROM {name} WHERE action_class = '{}' AND accuracy >= {target}%",
                class.query_name()
            );
            let query = session.query(&sql).map_err(|e| e.to_string())?;
            let updates_before = counter(session.obs(), keys::TRAIN_UPDATES);
            let span = child(&top, "plan");
            let t = Instant::now();
            query.plan().map_err(|e| e.to_string())?;
            let wall_s = t.elapsed().as_secs_f64();
            if spans.is_some() {
                let updates = counter(session.obs(), keys::TRAIN_UPDATES) - updates_before;
                let plan = query.train().map_err(|e| e.to_string())?;
                let source = session.source_named(name).map_err(|e| e.to_string())?;
                layers.probe(source, &options, &plan, wall_s, updates, &span);
            }
            cores.push((kind, query.ir().base.clone()));
        }
    }
    let plan_s = plan_started.elapsed().as_secs_f64();

    let router = {
        let _s = child(&top, "fleet.build");
        session
            .fleet(FleetConfig {
                shards: SHARDS,
                serve: ServeConfig {
                    workers: 1,
                    queue_capacity: 64,
                    cache_capacity: CACHE_CAPACITY,
                    executor: ExecutorKind::ZeusRl,
                    ..ServeConfig::default()
                },
                quota: QuotaSpec {
                    rate_per_sec: 1e9,
                    burst: 1e9,
                },
                quota_overrides: Vec::new(),
                work_conserving: false,
                hot_threshold: HOT_THRESHOLD,
                replicas: SHARDS - 1,
            })
            .map_err(|e| e.to_string())?
    };
    let total_s = started.elapsed().as_secs_f64();
    // Set-up times are reported scaled to the reference host speed.
    let speed_scale = host::time_scale((before + host::speed()) / 2.0);
    let (plan_s, total_s) = (plan_s * speed_scale, total_s * speed_scale);

    // Templates and serial references (outside the set-up time).
    let mut rng = SplitMix::new(cfg.seed, 3);
    let mut templates = Vec::new();
    let mut expected = Vec::new();
    let mut tests = Vec::new();
    for (ci, (kind, core)) in cores.iter().enumerate() {
        let name = kind.registry_name();
        let source = session.source_named(name).map_err(|e| e.to_string())?;
        let corpus = session.corpus_named(name).map_err(|e| e.to_string())?;
        let test: Vec<Video> = test_videos(source).into_iter().cloned().collect();
        let refs: Vec<&Video> = test.iter().collect();
        let stored = session
            .plans()
            .get(corpus, core)
            .ok_or("planned core missing from the plan store")?;
        let mut labels = stored
            .zeus_rl_engine(CostModel::default())
            .execute(&refs)
            .labels;
        labels.sort_by_key(|(id, _)| *id);

        let class = core.classes[0];
        let other = kind
            .query_classes()
            .into_iter()
            .find(|c| *c != class)
            .unwrap_or(class);
        let select = format!(
            "SELECT segment_ids FROM {name} WHERE action_class = '{}'",
            class.query_name()
        );
        let accuracy = format!(
            "AND accuracy >= {}%",
            (core.target_accuracy * 100.0).round()
        );
        let not = format!("AND NOT action_class = '{}'", other.query_name());
        let t0 = rng.range(0, 600);
        let window = format!("WINDOW [{t0}, {}]", t0 + rng.range(200, 1_500));
        let limit = rng.range(1, 9);
        for sql in [
            format!("{select} {accuracy}"),
            format!("{select} {accuracy} {window}"),
            format!("{select} {not} {accuracy}"),
            format!("{select} {accuracy} ORDER BY confidence DESC LIMIT {limit}"),
            format!("{select} {not} {accuracy} {window} ORDER BY confidence ASC LIMIT {limit}"),
        ] {
            let ir = parse_zql(&sql).map_err(|e| format!("{sql}: {e}"))?;
            if ir.base != *core {
                return Err(format!("{sql}: parsed core differs from the planned core"));
            }
            let expected_answer = QueryRefiner::new(&ir, refs.iter().copied()).answer(&labels);
            templates.push(Template {
                ir,
                core: ci,
                expected_answer,
            });
        }
        expected.push(labels);
        tests.push(test);
    }

    // Traffic: Zipf over corpora, uniform over a corpus's templates,
    // Zipf over tenants.
    let per_corpus = templates.len() / CORPORA.len();
    let corpus_cdf = zipf_cdf(CORPORA.len(), CORPUS_SKEW);
    let tenant_cdf = zipf_cdf(TENANTS, TENANT_SKEW);
    let traffic = (0..TRAFFIC_LEN)
        .map(|_| {
            let corpus = pick(&corpus_cdf, &mut rng);
            let template = corpus * per_corpus + rng.range(0, per_corpus);
            (template, pick(&tenant_cdf, &mut rng))
        })
        .collect();
    let tenants = (0..TENANTS)
        .map(|i| TenantId::new(format!("tenant-{i}")))
        .collect();

    let setup = Setup {
        session,
        router,
        templates,
        expected,
        tests,
        traffic,
        tenants,
        plan_s,
        total_s,
        layers,
    };
    warm(&setup)?;
    Ok(setup)
}

/// Warm every shard's cache: submit each template until the corpus has
/// replicated and the core has been answered on both shards.
fn warm(setup: &Setup) -> Result<(), String> {
    let mut seen = vec![[false; SHARDS]; setup.expected.len()];
    for _round in 0..64 {
        for t in &setup.templates {
            let routed = setup
                .router
                .submit(&t.ir, &setup.tenants[0], None)
                .map_err(|e| format!("warm-up: {e}"))?;
            seen[t.core][routed.shard] = true;
            routed.stream.wait();
        }
        if seen.iter().all(|s| s.iter().all(|&x| x)) {
            return Ok(());
        }
    }
    Err("warm-up never reached every shard".into())
}

/// Counters of the fleet rollup and the router's own namespace.
fn snapshot(router: &FleetRouter) -> (ObsSnapshot, Vec<u64>) {
    (router.fleet_snapshot(), router.shard_loads())
}

fn drive(
    setup: &Setup,
    budget: Duration,
    spans: Option<&Spans>,
) -> (LoopResult, Vec<Option<QueryResult>>, Vec<f64>) {
    let first: Mutex<Vec<Option<QueryResult>>> = Mutex::new(vec![None; setup.templates.len()]);
    let submit_us: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let result = closed_loop(MAX_THREADS, budget, |i| {
        let (ti, tenant) = setup.traffic[i % setup.traffic.len()];
        let template = &setup.templates[ti];
        let span = root(spans, "fleet.query");
        let started = Instant::now();
        let routed = {
            let _s = child(&span, "fleet.submit");
            setup
                .router
                .submit(&template.ir, &setup.tenants[tenant], None)
        }
        .map_err(|e| OpError::Refused(e.to_string()))?;
        let submitted = started.elapsed();
        let outcome = {
            let _s = child(&span, "fleet.wait");
            routed.stream.wait()
        };
        let latency = started.elapsed();
        drop(span);
        if spans.is_some() {
            submit_us
                .lock()
                .expect("submit table poisoned")
                .push(submitted.as_secs_f64() * 1e6);
        }
        if outcome.labels != setup.expected[template.core] {
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
        if first[ti].is_none() {
            first[ti] = Some(outcome.result);
        }
        Ok(latency)
    });
    (
        result,
        first.into_inner().expect("first-result table poisoned"),
        submit_us.into_inner().expect("submit table poisoned"),
    )
}

/// Run `fleet-warm`.
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
    let (untraced, first, _) = drive(&base, budget, None);
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
        "fleet-warm: {} templates over {} cores on {SHARDS} shards; {} queries in {:.2}s",
        base.templates.len(),
        base.expected.len(),
        untraced.completed,
        untraced.wall_s,
    ));
    drop(base);

    if cfg.trace {
        let spans = Spans::new();
        let traced_setup = setup(cfg, Some(&spans))?;
        let (before, loads_before) = snapshot(&traced_setup.router);
        let (traced, traced_first, submit_us) = drive(&traced_setup, budget, Some(&spans));
        let (after, loads_after) = snapshot(&traced_setup.router);
        traced.fold_into(&mut report);
        if served_sim_fps(&traced_first) != report.end_to_end["sim_fps"] {
            report.fail_check("traced sim_fps differs from untraced".into());
        }
        let delta = |name: &str| {
            after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
        };
        let out = &mut report.per_layer;
        out.insert(
            "video.generate_s",
            layers::generate_secs(&CORPORA, cfg.workload.scale(cfg.smoke)),
        );
        traced_setup.layers.finish(traced_setup.session.obs(), out);
        layers::no_serving(out);
        let hits = delta(keys::CACHE_RESULT_HIT);
        out.insert(
            "serve.cache.hit_ratio",
            ratio(hits, hits + delta(keys::CACHE_RESULT_MISS)),
        );
        out.insert("serve.coalesced", delta(keys::SERVE_COALESCED));
        out.insert("serve.shed", delta(keys::SERVE_ADMIT_SHED));
        let cases: Vec<_> = traced_setup
            .templates
            .iter()
            .map(|t| {
                (
                    &t.ir,
                    &traced_setup.expected[t.core],
                    traced_setup.tests[t.core].as_slice(),
                )
            })
            .collect();
        out.insert("serve.refine_us", refine_us(&cases));
        out.insert("fleet.submit_us_p50", median(&submit_us));
        let loads: Vec<f64> = loads_after
            .iter()
            .zip(&loads_before)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let min = loads.iter().cloned().fold(f64::INFINITY, f64::min);
        out.insert("fleet.balance_ratio", ratio(max, min));
        out.insert("fleet.replica_hits", delta(keys::FLEET_PLAN_REPLICA_HITS));
        out.insert("fleet.shed_over_quota", delta(keys::FLEET_SHED_OVER_QUOTA));
        out.insert(
            "fleet.shed_under_quota",
            delta(keys::FLEET_SHED_UNDER_QUOTA),
        );
        out.insert(
            "obs.overhead_share",
            ratio(traced.cost_s() - untraced.cost_s(), untraced.cost_s()),
        );
        out.insert("target_met", served_target_met(&traced_first, &targets));
        out.insert("host.speed", traced.speed());
        report.trace_jsonl = spans.to_jsonl()
            + &layers::telemetry_jsonl(traced_setup.session.obs())
            + &traced_setup.router.fleet_snapshot().to_jsonl();
    }
    report.end_to_end.insert("peak_rss_mb", peak_rss_mb()?);
    let failed_share = report.failed_share();
    report.per_layer.insert("failed_share", failed_share);
    Ok(report)
}
