//! Per-layer measurements of the planning path: the benchmark's own
//! timed calls into the planner, executors, environment and APFG, plus
//! the training counters and stage aggregates the program exports
//! through its [`ObsHub`].

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use zeus::core::baselines::{QueryEngine, ZeusSliding};
use zeus::core::config::ConfigSpace;
use zeus::core::env::VideoTraversalEnv;
use zeus::core::planner::{PlannerOptions, QueryPlan, QueryPlanner};
use zeus::core::result::ConfigHistogram;
use zeus::core::ExecutorKind;
use zeus::obs::{keys, ObsHub, StageStats};
use zeus::rl::Environment;
use zeus::sim::SimClock;
use zeus::video::video::Split;
use zeus::video::{DataSource, DatasetKind, Video};

use crate::report::Metrics;
use crate::spans::{child, Span};
use crate::stats::{median, ratio};
use crate::{CORPUS_SEED, MAX_THREADS};

/// APFG invocations and environment steps timed per planned query.
const PROBE_CALLS: usize = 2_000;

/// A stage aggregate from the program's tracer.
pub fn stage(hub: &ObsHub, name: &str) -> Option<StageStats> {
    hub.tracer
        .stage_stats()
        .into_iter()
        .find(|s| s.name == name)
}

/// A counter from the program's registry (0 when never registered).
pub fn counter(hub: &ObsHub, name: &str) -> u64 {
    hub.metrics.snapshot().counter(name).unwrap_or(0)
}

/// The program's exported telemetry without its own span trees: the
/// stage aggregates and metrics of `ObsHub::export_jsonl`.
pub fn telemetry_jsonl(hub: &ObsHub) -> String {
    hub.export_jsonl()
        .lines()
        .filter(|l| !l.starts_with("{\"type\":\"span\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Test-split videos in canonical (id) order, as the server holds them.
pub fn test_videos(source: &dyn DataSource) -> Vec<&Video> {
    let mut videos = source.store().split(Split::Test);
    videos.sort_by_key(|v| v.id);
    videos
}

/// Median wall seconds, over five generations, of generating `kinds` at
/// `scale` from the fixed corpus seed.
pub fn generate_secs(kinds: &[DatasetKind], scale: f64) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for kind in kinds {
                black_box(kind.generate(scale, CORPUS_SEED));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Multiply-add FLOPs of one DQN update, computed from tensor sizes:
/// three forwards over the batch (online on states, online and target on
/// next states for double DQN) and one backward counted as two forwards,
/// at 2 FLOPs per multiply-add. Activations, the loss and the optimizer
/// step are left out.
pub fn update_flops(options: &PlannerOptions, state_dim: usize, actions: usize) -> f64 {
    let mut widths = vec![state_dim];
    widths.extend(&options.dqn.hidden);
    widths.push(actions);
    let macs: usize = widths.windows(2).map(|w| w[0] * w[1]).sum();
    let forwards = if options.dqn.double_dqn { 3.0 } else { 2.0 };
    (forwards + 2.0) * 2.0 * options.trainer.batch_size as f64 * macs as f64
}

/// Accumulates the planning-path layer numbers over every query a
/// workload plans.
#[derive(Debug, Default)]
pub struct PlanningLayers {
    plan_wall_s: f64,
    candidates: usize,
    flops: f64,
    profile_s: f64,
    validate_s: f64,
    zeus_rl_us: f64,
    sliding_us: f64,
    videos: usize,
    apfg_us: f64,
    apfg_calls: usize,
    env_us: f64,
    env_steps: usize,
}

impl PlanningLayers {
    /// Record one planned query: `wall_s` is the `try_plan` wall time and
    /// `updates` the gradient updates it performed (the delta of the
    /// `train.updates` counter). Then time the benchmark's own calls into
    /// the layers the planner used, on the same inputs.
    pub fn probe(
        &mut self,
        source: &dyn DataSource,
        options: &PlannerOptions,
        plan: &QueryPlan,
        wall_s: f64,
        updates: u64,
        parent: &Option<Span<'_>>,
    ) {
        self.plan_wall_s += wall_s;
        self.candidates = options.candidates.len();
        self.flops +=
            updates as f64 * update_flops(options, zeus::apfg::FEATURE_DIM, plan.space.len());
        let planner = QueryPlanner::new(source, options.clone());

        // Profiling: Zeus-Sliding over the validation split for every
        // configuration of the family's space.
        let space = ConfigSpace::for_family(source.family()).masked(options.knob_mask);
        let started = Instant::now();
        {
            let _s = child(parent, "planner.profile");
            black_box(planner.profile_configurations(&plan.query, &space, &plan.apfg));
        }
        self.profile_s += started.elapsed().as_secs_f64();

        // Validation: the planner runs every candidate's Zeus-RL engine
        // over the validation split; time the chosen one and scale.
        let validation = source.store().split(Split::Validation);
        let rl = planner.build_engine(plan, ExecutorKind::ZeusRl);
        let started = Instant::now();
        {
            let _s = child(parent, "planner.validate");
            black_box(rl.execute(&validation));
        }
        self.validate_s += started.elapsed().as_secs_f64() * self.candidates as f64;

        // Executors, one test video at a time.
        let sliding = ZeusSliding::new(
            plan.apfg.clone(),
            plan.sliding_config,
            planner.cost_model().clone(),
        );
        for video in test_videos(source) {
            self.zeus_rl_us += time_video(rl.as_ref(), video, parent, "exec.zeus_rl_video");
            self.sliding_us += time_video(&sliding, video, parent, "exec.sliding_video");
            self.videos += 1;
        }

        // APFG invocations over the training split, cycling through the
        // plan's action space.
        let train = source.store().split(Split::Train);
        let configs = plan.space.configs();
        let started = Instant::now();
        {
            let _s = child(parent, "apfg.process");
            let mut calls = 0;
            'videos: for (i, video) in train.iter().cycle().enumerate() {
                let config = configs[i % configs.len()];
                for start in (0..video.num_frames).step_by(config.frames_covered() * 3) {
                    black_box(zeus::apfg::FeatureGenerator::process(
                        &plan.apfg, video, start, config,
                    ));
                    calls += 1;
                    if calls == PROBE_CALLS {
                        break 'videos;
                    }
                }
            }
        }
        self.apfg_us += started.elapsed().as_secs_f64() * 1e6;
        self.apfg_calls += PROBE_CALLS;

        // Environment steps over the training split (no feature cache).
        let videos: Vec<Video> = train.into_iter().cloned().collect();
        if let Ok(mut env) = VideoTraversalEnv::new(
            videos,
            plan.query.classes.clone(),
            Arc::new(plan.apfg.clone()),
            plan.space.clone(),
            plan.space.alphas(planner.cost_model()),
            plan.init_config,
            options.seed,
        ) {
            let actions = env.num_actions();
            env.reset();
            let started = Instant::now();
            {
                let _s = child(parent, "env.step");
                for i in 0..PROBE_CALLS {
                    if black_box(env.step((i * 7) % actions)).done {
                        env.reset();
                    }
                }
            }
            self.env_us += started.elapsed().as_secs_f64() * 1e6;
            self.env_steps += PROBE_CALLS;
        }
    }

    /// Write the planning-path layer metrics: probes, plus the training
    /// counters and stage aggregates recorded in `hub` while planning.
    pub fn finish(&self, hub: &ObsHub, out: &mut Metrics) {
        let stage_p50 = |name: &str| stage(hub, name).map_or(0.0, |s| s.p50_us as f64);
        let stage_total_us =
            |name: &str| stage(hub, name).map_or(0.0, |s| s.count as f64 * s.mean_us as f64);

        out.insert("planner.profile_s", self.profile_s);
        out.insert("planner.validate_s", self.validate_s);
        let portfolio_s = (self.plan_wall_s - self.profile_s - self.validate_s).max(0.0);
        out.insert("training.portfolio_s", portfolio_s);
        out.insert("training.candidate_ms_p50", stage_p50("candidate") / 1e3);
        let workers = MAX_THREADS.min(self.candidates).max(1) as f64;
        let busy_s = stage_total_us("candidate") / 1e6;
        out.insert(
            "training.worker_idle_share",
            (1.0 - ratio(busy_s, workers * portfolio_s)).clamp(0.0, 1.0),
        );

        let updates = counter(hub, keys::TRAIN_UPDATES);
        let steps = counter(hub, keys::TRAIN_STEPS);
        out.insert("rl.update_us_p50", stage_p50("update"));
        out.insert(
            "rl.update_us_mean",
            stage(hub, "update").map_or(0.0, |s| s.mean_us as f64),
        );
        out.insert("rl.update.count", updates as f64);
        out.insert("rl.batch_forward_us_p50", stage_p50("batch_forward"));
        out.insert("rl.env_steps", steps as f64);
        out.insert("rl.updates_per_step", ratio(updates as f64, steps as f64));
        out.insert(
            "nn.update_gflops",
            ratio(self.flops, stage_total_us("update") / 1e6) / 1e9,
        );

        out.insert("env.step_us", ratio(self.env_us, self.env_steps as f64));
        out.insert(
            "apfg.process_us",
            ratio(self.apfg_us, self.apfg_calls as f64),
        );
        let hits = counter(hub, keys::CACHE_FEATURE_HIT) as f64;
        let misses = counter(hub, keys::CACHE_FEATURE_MISS) as f64;
        out.insert("apfg.feature_cache.hit_ratio", ratio(hits, hits + misses));
        out.insert(
            "exec.zeus_rl_video_us",
            ratio(self.zeus_rl_us, self.videos as f64),
        );
        out.insert(
            "exec.sliding_video_us",
            ratio(self.sliding_us, self.videos as f64),
        );
    }
}

/// Wall microseconds of one `execute_video` call.
fn time_video(
    engine: &dyn QueryEngine,
    video: &Video,
    parent: &Option<Span<'_>>,
    name: &'static str,
) -> f64 {
    let mut clock = SimClock::new();
    let mut hist = ConfigHistogram::new();
    let _s = child(parent, name);
    let started = Instant::now();
    black_box(engine.execute_video(video, &mut clock, &mut hist));
    started.elapsed().as_secs_f64() * 1e6
}

/// Zero every serving and fleet metric (for workloads that plan but do
/// not serve).
pub fn no_serving(out: &mut Metrics) {
    for name in [
        "serve.stage.cache_us_p50",
        "serve.stage.plan_us_p50",
        "serve.stage.admission_us_p50",
        "serve.stage.execute_part_us_p50",
        "serve.stage.execute_part_us_mean",
        "serve.cache.hit_ratio",
        "serve.coalesced",
        "serve.shed",
        "serve.device_imbalance",
        "serve.refine_us",
    ] {
        out.insert(name, 0.0);
    }
    no_fleet(out);
}

/// Zero every fleet metric (for workloads without a router).
pub fn no_fleet(out: &mut Metrics) {
    for name in [
        "fleet.submit_us_p50",
        "fleet.balance_ratio",
        "fleet.replica_hits",
        "fleet.shed_over_quota",
        "fleet.shed_under_quota",
    ] {
        out.insert(name, 0.0);
    }
}
