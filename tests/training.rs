//! The training plane's determinism contracts.
//!
//! 1. **Golden policies** — three fixed candidate jobs train to pinned
//!    policy hashes, step counts and update counts, with or without the
//!    shared feature cache attached. A change meant to leave training
//!    untouched must leave these values as they are.
//! 2. **Worker-count independence** — the trained per-spec policies are a
//!    pure function of their job seeds, so any worker count yields the
//!    same portfolio (and the same end-to-end `QueryPlan`).

use std::sync::Arc;

use zeus::apfg::SimulatedApfg;
use zeus::core::config::ConfigSpace;
use zeus::core::env::VideoTraversalEnv;
use zeus::core::planner::{PlannerOptions, QueryPlanner};
use zeus::core::query::ActionQuery;
use zeus::core::training::{CandidateJob, TrainingEngine, TrainingOptions};
use zeus::core::FeatureCache;
use zeus::rl::agent::GreedyPolicy;
use zeus::rl::{DqnConfig, EpsilonSchedule, RewardMode, TrainerConfig};
use zeus::sim::CostModel;
use zeus::video::source::Fingerprint;
use zeus::video::{ActionClass, DatasetKind, Video};

/// An environment over a tiny bdd100k corpus whose agent acts over the
/// first `actions` of the dataset's 64 configurations.
fn proto_env(corpus_seed: u64, apfg_seed: u64, actions: usize) -> VideoTraversalEnv {
    let ds = DatasetKind::Bdd100k.generate(0.02, corpus_seed);
    let videos: Vec<Video> = ds.store.videos().to_vec();
    let classes = vec![ActionClass::CrossRight];
    let full = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
    let space = full.restricted_to(&full.configs()[..actions]);
    let alphas = space.alphas(&CostModel);
    let init = space.most_accurate();
    let apfg = Arc::new(SimulatedApfg::new(
        classes.clone(),
        space.max_resolution(),
        space.max_seg_len(),
        space.max_sampling(),
        apfg_seed,
    ));
    VideoTraversalEnv::new(videos, classes, apfg, space, alphas, init, apfg_seed)
        .expect("tiny corpus is valid")
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
            reward_mode: RewardMode::Aggregate {
                target_accuracy: 0.85,
                window_frames: 400,
                eval_window: 16,
                fastness_bonus: 0.2,
                fp_penalty: 2.0,
                deficit_scale: 3.0,
                local_mix: 0.5,
                beta: 0.3,
            },
            seed,
        },
        dqn: DqnConfig::default(),
        dqn_seed: seed ^ 0xD097,
        env_seed: seed ^ 0x5EED,
    }
}

/// FNV-1a-64 of a policy's checkpoint bytes.
fn policy_hash(policy: &GreedyPolicy) -> u64 {
    let mut fp = Fingerprint::new();
    fp.bytes(&policy.to_bytes());
    fp.finish()
}

/// Three fixed jobs train to pinned policies, step counts and update
/// counts. Attaching the shared feature cache must not change the
/// outcome: the APFG is a pure function of `(video, start, config)`.
///
/// The 7-action row's output layer is narrower than the GEMM's 8-column
/// tile, so its every Q-value comes from the kernel's column tail.
#[test]
fn trained_policies_match_golden_hashes() {
    let engine = TrainingEngine::new(TrainingOptions { train_workers: 1 });
    for (seed, corpus, actions, hash, steps, updates) in [
        (11u64, 3u64, 64, 0x25b2_ee38_b30c_a88a_u64, 320u64, 118u64),
        (4242, 5, 64, 0x8a2c_fcb5_136c_7647, 421, 178),
        (11, 3, 7, 0x5804_2cff_f6e4_998a, 707, 298),
    ] {
        let proto = proto_env(corpus, seed ^ 0xA11CE, actions);
        let job = tiny_job(seed);
        let outcome = engine.train_candidate(&proto, &job).expect("trains");
        assert_eq!(
            policy_hash(&outcome.policy),
            hash,
            "seed {seed}, {actions} actions: trained policy moved"
        );
        assert_eq!(
            outcome.report.steps, steps,
            "seed {seed}, {actions} actions: steps"
        );
        assert_eq!(
            outcome.report.updates, updates,
            "seed {seed}, {actions} actions: updates"
        );

        let cached = proto.fork(0).with_cache(Arc::new(FeatureCache::new()));
        let again = engine.train_candidate(&cached, &job).expect("trains");
        assert_eq!(
            again.report, outcome.report,
            "seed {seed}, {actions} actions: cache changed the report"
        );
        assert_eq!(again.policy.to_bytes(), outcome.policy.to_bytes());
    }
}

/// Same seeds → same per-spec policies regardless of worker count.
#[test]
fn portfolio_policies_are_worker_count_independent() {
    let proto = proto_env(5, 17, 64).with_cache(Arc::new(FeatureCache::new()));
    let jobs: Vec<CandidateJob> = (0..4).map(|i| tiny_job(900 + i)).collect();
    let portfolio = |workers: usize| {
        TrainingEngine::new(TrainingOptions {
            train_workers: workers,
        })
        .train_portfolio(&proto, &jobs)
        .expect("portfolio trains")
    };
    let reference = portfolio(1);
    for workers in [2, 4, 8] {
        let other = portfolio(workers);
        assert_eq!(other.len(), reference.len());
        for (spec, (a, b)) in reference.iter().zip(&other).enumerate() {
            assert_eq!(
                a.report, b.report,
                "spec {spec} report changed with {workers} workers"
            );
            assert_eq!(
                a.policy.to_bytes(),
                b.policy.to_bytes(),
                "spec {spec} policy changed with {workers} workers"
            );
        }
    }
}

/// The whole planner is worker-count independent end to end: the same
/// query plans to the same policy, sliding config, and training report
/// whether the portfolio trains on one worker or four.
#[test]
fn planner_output_is_worker_count_independent() {
    let dataset = DatasetKind::Bdd100k.generate(0.05, 77);
    let plan_with = |workers: usize| {
        let mut options = PlannerOptions::default();
        options.trainer.episodes = 2;
        options.trainer.warmup = 64;
        options.candidates.truncate(2);
        options.training.train_workers = workers;
        let planner = QueryPlanner::new(&dataset, options);
        let query = ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap();
        planner.try_plan(&query).expect("plannable")
    };
    let solo = plan_with(1);
    let wide = plan_with(4);
    assert_eq!(solo.sliding_config, wide.sliding_config);
    assert_eq!(solo.training_report, wide.training_report);
    assert_eq!(solo.policy.to_bytes(), wide.policy.to_bytes());
}
