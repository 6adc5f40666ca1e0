//! The training plane: one engine that trains the planner's whole
//! candidate portfolio across worker threads.
//!
//! Zeus spends the bulk of its optimization time training one DQN per
//! candidate reward spec over the video-traversal MDP (§4, Algorithm 1).
//! Each candidate is one [`DqnTrainer::train`] rollout over a seeded fork
//! of the prototype [`VideoTraversalEnv`], and the engine spreads the
//! portfolio over two axes:
//!
//! 1. **Portfolio parallelism** — candidates train concurrently on
//!    `train_workers` threads, which claim them one at a time through
//!    [`run_jobs`], the workspace's one fork-join.
//! 2. **Shared feature cache** — every fork of the prototype environment
//!    routes APFG invocations through one thread-safe
//!    [`FeatureCache`](crate::FeatureCache), so concurrent candidates never
//!    recompute a ProxyFeature another one already produced (§5's
//!    pre-processing optimization applied on-line).
//!
//! **Determinism.** Every candidate's result is a pure function of its
//! [`CandidateJob`] seeds: jobs are claimed from a shared cursor but each
//! trains an independently seeded agent on an independently seeded
//! environment fork, so the trained policies are bit-identical
//! regardless of `train_workers` (see `tests/training.rs`, which also
//! pins two golden policies).
//!
//! [`bench_env`] and [`CandidateJob::representative`] build one
//! representative candidate outside the planner, for tests that train a
//! single job in isolation. Training time is benchmarked by perfbench's
//! `plan-paper6` workload.

use std::sync::Arc;

use zeus_obs::keys;

use zeus_apfg::SimulatedApfg;
use zeus_rl::agent::{DqnAgent, DqnConfig, GreedyPolicy};
use zeus_rl::{DqnTrainer, Environment, RewardMode, RlError, TrainerConfig, TrainingReport};
use zeus_sim::CostModel;
use zeus_video::video::Split;
use zeus_video::{DataSource, Video};

use crate::config::ConfigSpace;
use crate::env::{EnvError, VideoTraversalEnv};
use crate::metrics::EvalProtocol;
use crate::parallel::run_jobs;

/// Knobs of the training plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainingOptions {
    /// Worker threads for portfolio (per-candidate) training. `0` = one
    /// per available CPU, capped at the candidate count. Any value yields
    /// the same trained policies; this only trades wall-clock for cores.
    pub train_workers: usize,
}

/// One candidate's fully-seeded training assignment. Everything the
/// outcome depends on is in here — that is what makes the portfolio
/// worker-count independent.
#[derive(Debug, Clone)]
pub struct CandidateJob {
    /// Trainer hyperparameters (reward mode and replay seed included).
    pub trainer: TrainerConfig,
    /// Q-network hyperparameters.
    pub dqn: DqnConfig,
    /// Seed for network initialisation and exploration draws.
    pub dqn_seed: u64,
    /// Seed for this candidate's environment fork (video order per
    /// episode).
    pub env_seed: u64,
}

impl CandidateJob {
    /// A representative single-candidate job: the planner's default
    /// aggregate reward over the family's evaluation window, with the
    /// planner's seed mixers. `base` supplies every other trainer knob
    /// (episodes, warm-up, batch, cadence), so callers tune workload size
    /// without re-stating the reward shape.
    pub fn representative(
        base: TrainerConfig,
        protocol: EvalProtocol,
        target_accuracy: f64,
        seed: u64,
    ) -> CandidateJob {
        CandidateJob {
            trainer: TrainerConfig {
                reward_mode: RewardMode::Aggregate {
                    target_accuracy,
                    window_frames: protocol.window * 25,
                    eval_window: protocol.window,
                    fastness_bonus: 0.2,
                    fp_penalty: 2.0,
                    deficit_scale: 3.0,
                    local_mix: 0.5,
                    beta: 0.3,
                },
                seed,
                ..base
            },
            dqn: DqnConfig::default(),
            dqn_seed: seed ^ 0xD097,
            env_seed: seed ^ 0x5EED,
        }
    }
}

/// The training-plane prototype environment over `source`'s training
/// split: the source's first query class, the family's full
/// configuration space, and the most-accurate init configuration — a
/// representative slice of what the planner trains per candidate.
pub fn bench_env(source: &dyn DataSource, seed: u64) -> Result<VideoTraversalEnv, EnvError> {
    let classes = vec![source.query_classes()[0]];
    let space = ConfigSpace::for_family(source.family());
    let alphas = space.alphas(&CostModel);
    let init = space.most_accurate();
    let apfg = Arc::new(SimulatedApfg::new(
        classes.clone(),
        space.max_resolution(),
        space.max_seg_len(),
        space.max_sampling(),
        seed,
    ));
    let videos: Vec<Video> = source
        .store()
        .split(Split::Train)
        .into_iter()
        .cloned()
        .collect();
    VideoTraversalEnv::new(videos, classes, apfg, space, alphas, init, seed)
}

/// A trained candidate.
#[derive(Debug, Clone)]
pub struct CandidateOutcome {
    /// The frozen greedy policy.
    pub policy: GreedyPolicy,
    /// Training diagnostics.
    pub report: TrainingReport,
}

/// Simulated RL-training seconds implied by a training run: DQN updates
/// on precomputed features plus policy-head invocations for experience
/// generation (§5; the `rl_training_secs` column of Table 6).
pub fn rl_training_secs(cost: &CostModel, report: &TrainingReport, batch_size: usize) -> f64 {
    report.updates as f64 * cost.dqn_update(batch_size).as_secs()
        + report.steps as f64 * cost.mlp_head().as_secs() * 2.0
}

/// The training engine.
#[derive(Debug, Clone, Default)]
pub struct TrainingEngine {
    options: TrainingOptions,
    /// Optional observability hub: candidate/episode/step/update
    /// counters and per-stage span timing. Never consulted by the
    /// training math, so instrumented runs stay bit-identical.
    obs: Option<zeus_obs::ObsHub>,
}

impl TrainingEngine {
    /// An engine with the given knobs.
    pub fn new(options: TrainingOptions) -> Self {
        TrainingEngine { options, obs: None }
    }

    /// Record training telemetry (`train.*` counters, `candidate` /
    /// `episode` / `batch_forward` / `update` stages) into `obs`.
    pub fn with_obs(mut self, obs: zeus_obs::ObsHub) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Train one candidate: fork the prototype with the job's
    /// environment seed and run the training loop over it.
    pub fn train_candidate(
        &self,
        proto: &VideoTraversalEnv,
        job: &CandidateJob,
    ) -> Result<CandidateOutcome, RlError> {
        let agent = DqnAgent::new(
            proto.state_dim(),
            proto.num_actions(),
            job.dqn.clone(),
            job.dqn_seed,
        );
        let mut trainer = DqnTrainer::new(agent, job.trainer.clone());
        let candidate_started = self.obs.as_ref().map(|hub| {
            hub.metrics.counter(keys::TRAIN_CANDIDATES).inc();
            trainer.set_obs(hub.train_obs());
            // zeus-lint: allow(wallclock): telemetry measures real training wall time
            std::time::Instant::now()
        });
        let report = trainer.train(&mut proto.fork(job.env_seed))?;
        if let (Some(hub), Some(started)) = (&self.obs, candidate_started) {
            hub.tracer.record_stage("candidate", started.elapsed());
        }
        Ok(CandidateOutcome {
            policy: trainer.into_agent().policy(),
            report,
        })
    }

    /// Train a whole candidate portfolio on `train_workers` threads (one
    /// per available CPU when it is 0), at most one per candidate.
    ///
    /// Results come back in job order and are independent of the worker
    /// count; when jobs fail, the first failure in job order is the
    /// error.
    pub fn train_portfolio(
        &self,
        proto: &VideoTraversalEnv,
        jobs: &[CandidateJob],
    ) -> Result<Vec<CandidateOutcome>, RlError> {
        let threads = match self.options.train_workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        run_jobs(threads, jobs.len(), |i| {
            self.train_candidate(proto, &jobs[i])
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_apfg::SimulatedApfg;
    use zeus_rl::{EpsilonSchedule, RewardMode};
    use zeus_video::{ActionClass, DatasetKind, Video};

    use crate::config::ConfigSpace;

    fn proto_env(seed: u64) -> VideoTraversalEnv {
        let ds = DatasetKind::Bdd100k.generate(0.02, 3);
        let videos: Vec<Video> = ds.store.videos().to_vec();
        let classes = vec![ActionClass::CrossRight];
        let space = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        let alphas = space.alphas(&CostModel);
        let init = space.most_accurate();
        let apfg = Arc::new(SimulatedApfg::new(
            classes.clone(),
            space.max_resolution(),
            space.max_seg_len(),
            space.max_sampling(),
            seed,
        ));
        VideoTraversalEnv::new(videos, classes, apfg, space, alphas, init, seed)
            .expect("valid corpus")
    }

    fn tiny_job(seed: u64) -> CandidateJob {
        CandidateJob {
            trainer: TrainerConfig {
                episodes: 2,
                replay_capacity: 1_000,
                warmup: 64,
                batch_size: 32,
                update_every: 2,
                epsilon: EpsilonSchedule::new(1.0, 0.1, 400),
                reward_mode: RewardMode::Local { beta: 0.4 },
                seed,
            },
            dqn: DqnConfig::default(),
            dqn_seed: seed ^ 0xD097,
            env_seed: seed ^ 0x5EED,
        }
    }

    #[test]
    fn portfolio_is_worker_count_independent() {
        let proto = proto_env(5).with_cache(Arc::new(crate::FeatureCache::new()));
        let jobs: Vec<CandidateJob> = (0..3).map(|i| tiny_job(100 + i)).collect();
        let run = |workers| {
            TrainingEngine::new(TrainingOptions {
                train_workers: workers,
            })
            .train_portfolio(&proto, &jobs)
            .unwrap()
        };
        let solo = run(1);
        let wide = run(4);
        assert_eq!(solo.len(), 3);
        for (a, b) in solo.iter().zip(&wide) {
            assert_eq!(a.report, b.report, "reports must not depend on workers");
            assert_eq!(a.policy.to_bytes(), b.policy.to_bytes());
        }
    }

    #[test]
    fn empty_portfolio_is_a_noop() {
        let proto = proto_env(1);
        let out = TrainingEngine::default()
            .train_portfolio(&proto, &[])
            .unwrap();
        assert!(out.is_empty());
    }
}
