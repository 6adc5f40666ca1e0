//! `plan-paper6`: cold planning of the paper's six Figure 8 queries —
//! two per corpus for bdd100k, thumos14 and activitynet, at their
//! Figure 8 targets — with default planner options (a four-candidate
//! portfolio), then serial Zeus-RL execution of each chosen plan on the
//! test split. No serving.

use std::time::{Duration, Instant};

use zeus::core::planner::{PlannerOptions, QueryPlan, QueryPlanner};
use zeus::core::query::ActionQuery;
use zeus::core::ExecutorKind;
use zeus::obs::{keys, ObsHub};
use zeus::video::{ActionClass, DataSource, DatasetKind, SyntheticDataset, Video, VideoId};

use crate::driver::{closed_loop, LoopResult, OpError};
use crate::host;
use crate::layers::{self, counter, test_videos, PlanningLayers};
use crate::report::{peak_rss_mb, Report};
use crate::spans::{child, root, Spans};
use crate::stats::{fnv1a, median, ratio, SplitMix};
use crate::{Config, CORPUS_SEED, MAX_THREADS};

/// Corpus scale. At 0.05 the action spaces collapse to one
/// configuration; at 0.1 one pass over the six queries plans in about
/// ten seconds on two cores.
pub const SCALE: f64 = 0.1;
/// The corpora, in the order `QUERIES` indexes them.
const CORPORA: [DatasetKind; 3] = [
    DatasetKind::Bdd100k,
    DatasetKind::Thumos14,
    DatasetKind::ActivityNet,
];
/// The paper's six evaluation queries (§6.1) at their Figure 8 targets:
/// `(corpus index, class, target)`.
const QUERIES: [(usize, ActionClass, f64); 6] = [
    (0, ActionClass::CrossRight, 0.85),
    (0, ActionClass::LeftTurn, 0.85),
    (1, ActionClass::PoleVault, 0.75),
    (1, ActionClass::CleanAndJerk, 0.75),
    (2, ActionClass::IroningClothes, 0.75),
    (2, ActionClass::TennisServe, 0.75),
];
/// Corpus generations per run (about 10 ms in all); `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 400;
/// Share of the budget spent planning; the rest executes the plans.
const PLAN_SHARE: f64 = 0.8;

/// Planner options: the defaults (four-candidate portfolio), with the
/// training workers capped; the smoke size trains two short candidates.
pub fn planner_options(smoke: bool) -> PlannerOptions {
    let mut options = PlannerOptions::default();
    options.training.train_workers = MAX_THREADS;
    if smoke {
        options.trainer.episodes = 2;
        options.trainer.warmup = 64;
        options.candidates.truncate(2);
    }
    options
}

fn generate(scale: f64) -> Vec<SyntheticDataset> {
    CORPORA
        .iter()
        .map(|kind| kind.generate(scale, CORPUS_SEED))
        .collect()
}

/// What one planning phase produced.
struct PlanPhase {
    /// Wall seconds of every `try_plan` call, per query.
    times: Vec<Vec<f64>>,
    /// The same, scaled to the reference host speed.
    scaled: Vec<Vec<f64>>,
    /// The first plan of each query.
    plans: Vec<QueryPlan>,
    /// FNV-1a of each first plan's `GreedyPolicy::to_bytes`.
    hashes: Vec<u64>,
    attempted: u64,
    /// A replanned query whose policy bytes changed.
    mismatch: Option<String>,
}

impl PlanPhase {
    /// Sum over the queries of each query's fastest reference-scaled plan
    /// time: planning is deterministic, so the fastest pass is the one
    /// least disturbed by other load.
    fn plan_s(&self) -> f64 {
        self.scaled
            .iter()
            .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }
}

/// Plan the queries round-robin in `order` until `budget` is spent and
/// every query was planned at least once.
fn plan_phase(
    corpora: &[SyntheticDataset],
    options: &PlannerOptions,
    order: &[usize],
    budget: Duration,
    traced: Option<(&Spans, &ObsHub, &mut PlanningLayers)>,
) -> Result<PlanPhase, String> {
    let mut phase = PlanPhase {
        times: vec![Vec::new(); QUERIES.len()],
        scaled: vec![Vec::new(); QUERIES.len()],
        plans: Vec::new(),
        hashes: vec![0; QUERIES.len()],
        attempted: 0,
        mismatch: None,
    };
    let mut firsts: Vec<Option<QueryPlan>> = vec![None; QUERIES.len()];
    let (spans, hub, mut layers) = match traced {
        Some((s, h, l)) => (Some(s), Some(h), Some(l)),
        None => (None, None, None),
    };
    let mut speed = host::speed();
    let started = Instant::now();
    for k in 0.. {
        if k >= QUERIES.len() && started.elapsed() >= budget {
            break;
        }
        let q = order[k % order.len()];
        let (corpus, class, target) = QUERIES[q];
        let source = &corpora[corpus];
        let query = ActionQuery::new(class, target).map_err(|e| e.to_string())?;
        let mut planner = QueryPlanner::new(source, options.clone());
        if let Some(hub) = hub {
            planner = planner.with_obs(hub.clone());
        }
        let updates_before = hub.map_or(0, |h| counter(h, keys::TRAIN_UPDATES));
        let span = root(spans, "plan");
        let t = Instant::now();
        let plan = {
            let _s = child(&span, "planner.try_plan");
            planner.try_plan(&query)
        }
        .map_err(|e| format!("planning {class:?}: {e}"))?;
        let wall_s = t.elapsed().as_secs_f64();
        let after = host::speed();
        phase.attempted += 1;
        phase.times[q].push(wall_s);
        phase.scaled[q].push(host::scaled_secs(wall_s, speed, after));
        speed = after;
        let hash = fnv1a(&plan.policy.to_bytes());
        match &firsts[q] {
            Some(_) if phase.hashes[q] != hash => {
                phase.mismatch = Some(format!(
                    "replanning {class:?} changed the policy ({:016x} then {hash:016x})",
                    phase.hashes[q]
                ));
            }
            Some(_) => {}
            None => {
                phase.hashes[q] = hash;
                if let (Some(hub), Some(layers)) = (hub, layers.as_deref_mut()) {
                    let updates = counter(hub, keys::TRAIN_UPDATES) - updates_before;
                    layers.probe(source, options, &plan, wall_s, updates, &span);
                }
                firsts[q] = Some(plan);
            }
        }
    }
    phase.plans = firsts
        .into_iter()
        .map(|p| p.expect("every query planned at least once"))
        .collect();
    Ok(phase)
}

/// The chosen plans' serial Zeus-RL executions on the test split.
struct ExecPhase {
    result: LoopResult,
    sim_fps: f64,
    target_met: f64,
}

fn exec_phase(
    corpora: &[SyntheticDataset],
    options: &PlannerOptions,
    plans: &[QueryPlan],
    order: &[usize],
    budget: Duration,
    spans: Option<&Spans>,
) -> ExecPhase {
    let mut engines = Vec::new();
    let mut tests: Vec<Vec<&Video>> = Vec::new();
    let mut references: Vec<Vec<(VideoId, Vec<bool>)>> = Vec::new();
    let (mut frames, mut secs, mut met) = (0.0, 0.0, 0.0);
    for (q, plan) in plans.iter().enumerate() {
        let source: &dyn DataSource = &corpora[QUERIES[q].0];
        let engine =
            QueryPlanner::new(source, options.clone()).build_engine(plan, ExecutorKind::ZeusRl);
        let test = test_videos(source);
        let exec = engine.execute(&test);
        let report = exec.evaluate(&test, &plan.query.classes, plan.protocol);
        frames += exec.total_frames() as f64;
        secs += exec.clock.elapsed_secs();
        if report.f1() >= plan.query.target_accuracy {
            met += 1.0;
        }
        references.push(exec.labels);
        engines.push(engine);
        tests.push(test);
    }
    let result = closed_loop(1, budget, |i| {
        let q = order[i % order.len()];
        let _s = root(spans, "exec.zeus_rl_query");
        let started = Instant::now();
        let exec = engines[q].execute(&tests[q]);
        let latency = started.elapsed();
        if exec.labels != references[q] {
            return Err(OpError::Check(format!(
                "query {q}: repeated execution changed the labels"
            )));
        }
        Ok(latency)
    });
    ExecPhase {
        result,
        sim_fps: ratio(frames, secs),
        target_met: met,
    }
}

/// Run `plan-paper6`.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let scale = cfg.workload.scale(cfg.smoke);
    let options = planner_options(cfg.smoke);
    let mut order: Vec<usize> = (0..QUERIES.len()).collect();
    SplitMix::new(cfg.seed, 2).shuffle(&mut order);

    // Set-up: generate the three corpora (repeated; median).
    let mut setup_times = Vec::new();
    let mut corpora = Vec::new();
    let before = host::speed();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut corpora));
        let t = Instant::now();
        corpora = generate(scale);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let generate_s = median(&setup_times);
    let setup_s = host::scaled_secs(generate_s, before, host::speed());

    let budget = if cfg.trace {
        cfg.budget / 2
    } else {
        cfg.budget
    };
    let plan_budget = budget.mul_f64(PLAN_SHARE);
    let exec_budget = budget.mul_f64(1.0 - PLAN_SHARE);

    let untraced = plan_phase(&corpora, &options, &order, plan_budget, None)?;
    let exec = exec_phase(
        &corpora,
        &options,
        &untraced.plans,
        &order,
        exec_budget,
        None,
    );
    report.attempted += untraced.attempted;
    exec.result.fold_into(&mut report);
    if let Some(m) = &untraced.mismatch {
        report.fail_check(m.clone());
    }
    for (q, hash) in untraced.hashes.iter().enumerate() {
        report.notes.push(format!(
            "plan-paper6: policy {:?} {hash:016x}",
            QUERIES[q].1
        ));
    }
    report.notes.push(format!(
        "plan-paper6: raw plan seconds per query {:?} scaled {:?}",
        untraced.times, untraced.scaled
    ));
    report.notes.push(format!(
        "plan-paper6: sim_fps {} target_met {}/{}",
        exec.sim_fps,
        exec.target_met,
        QUERIES.len()
    ));

    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", setup_s);
    e2e.insert("plan_s", untraced.plan_s());
    e2e.insert("sim_fps", exec.sim_fps);
    exec.result.insert_into(e2e);

    if cfg.trace {
        let spans = Spans::new();
        let hub = ObsHub::new();
        let mut planning = PlanningLayers::default();
        let traced = plan_phase(
            &corpora,
            &options,
            &order,
            plan_budget,
            Some((&spans, &hub, &mut planning)),
        )?;
        let traced_exec = exec_phase(
            &corpora,
            &options,
            &traced.plans,
            &order,
            exec_budget,
            Some(&spans),
        );
        report.attempted += traced.attempted;
        traced_exec.result.fold_into(&mut report);
        if let Some(m) = &traced.mismatch {
            report.fail_check(m.clone());
        }
        if traced.hashes != untraced.hashes {
            report.fail_check("traced planning produced different policies".into());
        }
        if traced_exec.sim_fps != exec.sim_fps || traced_exec.target_met != exec.target_met {
            report.fail_check("traced sim_fps or target_met differs from untraced".into());
        }
        let out = &mut report.per_layer;
        out.insert("video.generate_s", generate_s);
        planning.finish(&hub, out);
        layers::no_serving(out);
        out.insert(
            "obs.overhead_share",
            ratio(traced.plan_s() - untraced.plan_s(), untraced.plan_s()),
        );
        out.insert("target_met", exec.target_met);
        out.insert("host.speed", traced_exec.result.speed());
        report.trace_jsonl = spans.to_jsonl() + &layers::telemetry_jsonl(&hub);
    }
    report.end_to_end.insert("peak_rss_mb", peak_rss_mb()?);
    let failed_share = report.failed_share();
    report.per_layer.insert("failed_share", failed_share);
    Ok(report)
}
