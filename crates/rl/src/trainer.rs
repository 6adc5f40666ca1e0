//! The training loop: Algorithm 1 with the delayed aggregate-reward replay
//! update of §4.6.
//!
//! "During the processing of the current aggregation window, the query
//! planner uses Algorithm 1 to collect the incomplete experience tuples
//! (without reward) into a temporary buffer. At the end of each window, the
//! agent updates the experience tuples in the temporary buffer with the
//! rewards collected using Algorithm 2. Zeus then pushes the updated
//! experience tuples to the replay buffer."
//!
//! [`DqnTrainer::train`] runs one ε-greedy rollout over one environment:
//! a `[1, d]` Q-network forward per greedy step and a minibatch update
//! every `update_every` steps once the replay buffer is warm.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use zeus_obs::{Trace, TrainObs};

use crate::agent::DqnAgent;
use crate::env::{Environment, Transition};
use crate::error::RlError;
use crate::replay::{Experience, ReplayBuffer};
use crate::reward::{aggregate_reward_scaled, local_reward, window_outcome, RewardMode};

use crate::schedule::EpsilonSchedule;

/// Trainer hyperparameters. Paper values (§5): replay capacity 10 K,
/// initialised with 5 K tuples, minibatch 1 K. The defaults here are
/// scaled for the reproduction's smaller (compact-feature) problem.
///
/// Replay is always stratified: action-window and background
/// experiences live in separate buffers and minibatches are drawn
/// half-and-half. On sparse corpora (BDD100K is 7% action) uniform
/// replay starves the agent of the action-adjacent transitions that
/// matter most.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of training episodes T (Algorithm 1).
    pub episodes: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Experiences collected (with a uniform-random policy) before any
    /// gradient update — the paper's 5 K-tuple initialisation.
    pub warmup: usize,
    /// Minibatch size per update.
    pub batch_size: usize,
    /// Environment steps between gradient updates.
    pub update_every: usize,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Reward assignment mode (§4.4 local or §4.5/4.6 aggregate).
    pub reward_mode: RewardMode,
    /// RNG seed for replay sampling.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            episodes: 12,
            replay_capacity: 10_000,
            warmup: 512,
            batch_size: 128,
            update_every: 2,
            epsilon: EpsilonSchedule::new(1.0, 0.05, 4_000),
            reward_mode: RewardMode::Aggregate {
                target_accuracy: 0.85,
                window_frames: 1_800,
                eval_window: 16,
                fastness_bonus: 0.2,
                fp_penalty: 2.0,
                deficit_scale: 3.0,
                local_mix: 0.5,
                beta: 0.0,
            },
            seed: 0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingReport {
    /// Mean per-decision reward of each episode, indexed by episode.
    pub episode_rewards: Vec<f32>,
    /// Mean TD loss of each episode (0 when no updates ran while the
    /// episode was active).
    pub episode_losses: Vec<f32>,
    /// Total environment steps.
    pub steps: u64,
    /// Total gradient updates.
    pub updates: u64,
}

/// Pending (reward-less) experience held in the temporary window buffer.
struct Pending {
    state: Vec<f32>,
    action: usize,
    next_state: Vec<f32>,
    done: bool,
    alpha: f32,
    has_action: bool,
}

/// Per-episode accumulator: reward/loss statistics plus the §4.6
/// temporary window buffer.
struct EpisodeAccum {
    reward_sum: f32,
    reward_count: u32,
    loss_sum: f32,
    loss_count: u32,
    pending: Vec<Pending>,
    window_gt: Vec<bool>,
    window_pred: Vec<bool>,
    window_alpha: f32,
    alpha_max: f32,
}

impl EpisodeAccum {
    fn new(alpha_max: f32) -> Self {
        EpisodeAccum {
            reward_sum: 0.0,
            reward_count: 0,
            loss_sum: 0.0,
            loss_count: 0,
            pending: Vec::new(),
            window_gt: Vec::new(),
            window_pred: Vec::new(),
            window_alpha: 0.0,
            alpha_max,
        }
    }

    fn note_loss(&mut self, loss: f32) {
        self.loss_sum += loss;
        self.loss_count += 1;
    }

    fn mean_reward(&self) -> f32 {
        if self.reward_count == 0 {
            0.0
        } else {
            self.reward_sum / self.reward_count as f32
        }
    }

    fn mean_loss(&self) -> f32 {
        if self.loss_count == 0 {
            0.0
        } else {
            self.loss_sum / self.loss_count as f32
        }
    }

    /// Absorb one transition under `mode`, returning the experiences that
    /// become pushable now — immediately in local mode, or the whole
    /// flushed window (Algorithm 2's delayed update) in aggregate mode —
    /// each tagged with its action-window flag for stratified replay.
    fn absorb(&mut self, mode: RewardMode, t: Transition) -> Vec<(Experience, bool)> {
        match mode {
            RewardMode::Local { beta } => {
                let has_action = t.has_action();
                let r = local_reward(t.alpha, beta, has_action);
                self.reward_sum += r;
                self.reward_count += 1;
                vec![(
                    Experience {
                        state: t.state,
                        action: t.action,
                        reward: r,
                        next_state: t.next_state,
                        done: t.done,
                    },
                    has_action,
                )]
            }
            RewardMode::Aggregate {
                target_accuracy,
                window_frames,
                eval_window,
                fastness_bonus,
                fp_penalty,
                deficit_scale,
                local_mix,
                beta,
            } => {
                let has_action = t.has_action();
                self.window_alpha += t.alpha * t.span_len() as f32;
                self.window_pred
                    .resize(self.window_pred.len() + t.span_len(), t.pred);
                self.window_gt.extend_from_slice(&t.gt);
                self.pending.push(Pending {
                    state: t.state,
                    action: t.action,
                    next_state: t.next_state,
                    done: t.done,
                    alpha: t.alpha,
                    has_action,
                });
                if self.window_gt.len() < window_frames && !t.done {
                    return Vec::new();
                }
                let outcome = window_outcome(&self.window_gt, &self.window_pred, eval_window);
                let action_window = outcome.accuracy.is_some();
                let r = match outcome.accuracy {
                    Some(acc) => aggregate_reward_scaled(acc, target_accuracy, deficit_scale),
                    None => {
                        let mean_alpha = self.window_alpha / self.window_gt.len().max(1) as f32;
                        fastness_bonus * (mean_alpha / self.alpha_max)
                            - fp_penalty * outcome.fp_fraction as f32
                    }
                };
                let pending = std::mem::take(&mut self.pending);
                let mut out = Vec::with_capacity(pending.len());
                for p in pending {
                    let r_i = r + local_mix * local_reward(p.alpha, beta, p.has_action);
                    self.reward_sum += r_i;
                    self.reward_count += 1;
                    out.push((
                        Experience {
                            state: p.state,
                            action: p.action,
                            reward: r_i,
                            next_state: p.next_state,
                            done: p.done,
                        },
                        action_window,
                    ));
                }
                self.window_gt.clear();
                self.window_pred.clear();
                self.window_alpha = 0.0;
                out
            }
        }
    }
}

/// Draw `want` experiences by reference: half from the action-window
/// buffer and the rest from the background buffer, or all from whichever
/// one is non-empty. An empty result (empty replay or `want == 0`)
/// surfaces as a typed [`RlError::EmptyBatch`] from the agent.
fn sample_stratified<'a>(
    background: &'a ReplayBuffer,
    action: &'a ReplayBuffer,
    want: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<&'a Experience> {
    if want == 0 {
        return Vec::new();
    }
    if action.is_empty() {
        return background.sample(want, rng);
    }
    if background.is_empty() {
        return action.sample(want, rng);
    }
    let half = want / 2;
    let mut batch = background.sample(want - half, rng);
    batch.extend(action.sample(half, rng));
    batch
}

/// The DQN trainer.
pub struct DqnTrainer {
    agent: DqnAgent,
    cfg: TrainerConfig,
    replay: ReplayBuffer,
    /// Second buffer for action-window experiences (stratified replay).
    replay_action: ReplayBuffer,
    rng: ChaCha8Rng,
    global_step: u64,
    /// Training-plane telemetry (counters + tracer). Observation never
    /// touches the RNG or replay, so instrumented and bare runs stay
    /// bit-identical.
    obs: Option<TrainObs>,
}

impl DqnTrainer {
    /// Create a trainer around an agent.
    pub fn new(agent: DqnAgent, cfg: TrainerConfig) -> Self {
        let replay = ReplayBuffer::new(cfg.replay_capacity);
        let replay_action = ReplayBuffer::new(cfg.replay_capacity);
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        DqnTrainer {
            agent,
            cfg,
            replay,
            replay_action,
            rng,
            global_step: 0,
            obs: None,
        }
    }

    /// Attach training-plane telemetry: `train.steps` / `train.episodes`
    /// / `train.updates` / `train.target_memo.{hits,misses}` counters plus
    /// per-stage (`episode`, `batch_forward`, `update`) span timing on the
    /// shared tracer.
    pub fn set_obs(&mut self, obs: TrainObs) {
        self.obs = Some(obs);
    }

    fn replay_len(&self) -> usize {
        self.replay.len() + self.replay_action.len()
    }

    fn push_experience(&mut self, e: Experience, action_window: bool) {
        if action_window {
            self.replay_action.push(e);
        } else {
            self.replay.push(e);
        }
    }

    /// Sample a minibatch by reference and apply one gradient update,
    /// returning the loss.
    fn update_once(&mut self) -> Result<f32, RlError> {
        let want = self.cfg.batch_size.min(self.replay_len());
        let batch = sample_stratified(&self.replay, &self.replay_action, want, &mut self.rng);
        self.agent.update(&batch)
    }

    /// The exploration rate for the current step: uniform-random during
    /// warm-up fill, the schedule afterwards.
    fn current_epsilon(&self) -> f64 {
        if self.replay_len() < self.cfg.warmup {
            1.0
        } else {
            self.cfg.epsilon.value(self.global_step)
        }
    }

    /// Consume the trainer, returning the trained agent.
    pub fn into_agent(self) -> DqnAgent {
        self.agent
    }

    /// Borrow the agent.
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }

    /// Run the full training loop over `env`: `cfg.episodes` episodes
    /// of ε-greedy rollout, pushing experience tuples into the replay
    /// buffer and updating every `update_every` steps after warm-up.
    ///
    /// With telemetry attached the run is one trace labelled `train`: an
    /// `episode` span per episode, enclosing a `batch_forward` span per
    /// action selection and an `update` span per gradient step.
    pub fn train(&mut self, env: &mut dyn Environment) -> Result<TrainingReport, RlError> {
        let obs = self.obs.clone();
        let trace = obs.as_ref().map(|o| o.tracer.trace("train"));
        let mut report = TrainingReport::default();
        for _ in 0..self.cfg.episodes {
            let _span = trace.as_ref().map(|t| t.span("episode"));
            let steps_before = report.steps;
            let updates_before = report.updates;
            let hits_before = self.agent.target_memo_hits();
            let misses_before = self.agent.target_memo_misses();
            let (mean_r, mean_l) = self.run_episode(env, trace.as_ref(), &mut report)?;
            if let Some(o) = &obs {
                o.steps.add(report.steps - steps_before);
                o.updates.add(report.updates - updates_before);
                o.target_memo_hits
                    .add(self.agent.target_memo_hits() - hits_before);
                o.target_memo_misses
                    .add(self.agent.target_memo_misses() - misses_before);
                o.episodes.inc();
            }
            report.episode_rewards.push(mean_r);
            report.episode_losses.push(mean_l);
        }
        Ok(report)
    }

    fn run_episode(
        &mut self,
        env: &mut dyn Environment,
        trace: Option<&Trace>,
        report: &mut TrainingReport,
    ) -> Result<(f32, f32), RlError> {
        let mut state = env.reset();
        let alpha_max = env.alphas().iter().fold(0.0f32, |a, &b| a.max(b)).max(1e-9);
        let mut acc = EpisodeAccum::new(alpha_max);
        let mode = self.cfg.reward_mode;

        loop {
            let eps = self.current_epsilon();
            let action = {
                let _span = trace.map(|t| t.span("batch_forward"));
                self.agent.select_action(&state, eps)
            };
            let t = env.step(action);
            self.global_step += 1;
            report.steps += 1;
            state.clone_from(&t.next_state);
            let done = t.done;

            for (e, action_window) in acc.absorb(mode, t) {
                self.push_experience(e, action_window);
            }

            if self.replay_len() >= self.cfg.warmup
                && self
                    .global_step
                    .is_multiple_of(self.cfg.update_every as u64)
            {
                let loss = {
                    let _span = trace.map(|t| t.span("update"));
                    self.update_once()?
                };
                acc.note_loss(loss);
                report.updates += 1;
            }

            if done {
                break;
            }
        }

        Ok((acc.mean_reward(), acc.mean_loss()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::DqnConfig;
    use crate::env::test_envs::Bandit;

    fn small_trainer(mode: RewardMode, seed: u64) -> DqnTrainer {
        let agent = DqnAgent::new(
            1,
            2,
            DqnConfig {
                learning_rate: 5e-3,
                target_sync_every: 50,
                ..DqnConfig::default()
            },
            seed,
        );
        DqnTrainer::new(
            agent,
            TrainerConfig {
                episodes: 30,
                replay_capacity: 2_000,
                warmup: 128,
                batch_size: 64,
                update_every: 1,
                epsilon: EpsilonSchedule::new(1.0, 0.05, 1_500),
                reward_mode: mode,
                seed,
            },
        )
    }

    fn aggregate_mode(window_frames: usize) -> RewardMode {
        RewardMode::Aggregate {
            target_accuracy: 0.8,
            window_frames,
            eval_window: 1,
            fastness_bonus: 0.0,
            fp_penalty: 0.0,
            deficit_scale: 1.0,
            local_mix: 0.0,
            beta: 0.0,
        }
    }

    #[test]
    fn learns_bandit_with_aggregate_reward() {
        let mut trainer = small_trainer(aggregate_mode(1), 3);
        let mut env = Bandit::new(9, 100);
        let report = trainer.train(&mut env).unwrap();
        assert!(report.updates > 0);
        // Greedy policy should match the context.
        let agent = trainer.agent();
        assert_eq!(agent.greedy_action(&[0.0]), 0);
        assert_eq!(agent.greedy_action(&[1.0]), 1);
    }

    #[test]
    fn learns_fastness_preference_with_local_reward() {
        // Local reward with gt always positive: r = β - α. Action 0 has
        // α=0.1, action 1 has α=0.9, β=0.5 → action 0 strictly better.
        let mode = RewardMode::Local { beta: 0.5 };
        let mut trainer = small_trainer(mode, 5);
        let mut env = Bandit::new(2, 100);
        let _ = trainer.train(&mut env).unwrap();
        let agent = trainer.agent();
        assert_eq!(agent.greedy_action(&[0.0]), 0);
        assert_eq!(agent.greedy_action(&[1.0]), 0);
    }

    #[test]
    fn report_counts_are_consistent() {
        let mut trainer = small_trainer(aggregate_mode(4), 1);
        let mut env = Bandit::new(1, 50);
        let report = trainer.train(&mut env).unwrap();
        assert_eq!(report.episode_rewards.len(), 30);
        assert_eq!(report.steps, 30 * 50);
    }

    #[test]
    fn aggregate_window_flushes_at_episode_end() {
        // window_frames larger than the episode: everything flushes at
        // done, so all experiences still reach the replay buffer.
        let mode = RewardMode::Aggregate {
            target_accuracy: 0.8,
            window_frames: 10_000,
            eval_window: 4,
            fastness_bonus: 0.2,
            fp_penalty: 2.0,
            deficit_scale: 1.0,
            local_mix: 0.0,
            beta: 0.0,
        };
        let agent = DqnAgent::new(1, 2, DqnConfig::default(), 0);
        let mut trainer = DqnTrainer::new(
            agent,
            TrainerConfig {
                episodes: 1,
                warmup: usize::MAX, // no updates; just collection
                reward_mode: mode,
                ..TrainerConfig::default()
            },
        );
        let mut env = Bandit::new(4, 25);
        let report = trainer.train(&mut env).unwrap();
        assert_eq!(report.steps, 25);
        assert_eq!(trainer.replay_len(), 25, "all pending experiences flushed");
    }

    #[test]
    fn stratified_minibatches_split_between_the_buffers() {
        // Background experiences take action 0, action-window ones
        // action 1, so a batch's composition reads off its actions.
        let sample = |background: usize, action_window: usize| {
            let agent = DqnAgent::new(1, 2, DqnConfig::default(), 0);
            let mut trainer = DqnTrainer::new(
                agent,
                TrainerConfig {
                    batch_size: 8,
                    ..TrainerConfig::default()
                },
            );
            for (count, window) in [(background, false), (action_window, true)] {
                for _ in 0..count {
                    let e = Experience {
                        state: vec![0.0],
                        action: usize::from(window),
                        reward: 0.0,
                        next_state: vec![0.0],
                        done: false,
                    };
                    trainer.push_experience(e, window);
                }
            }
            let want = trainer.cfg.batch_size.min(trainer.replay_len());
            let batch = sample_stratified(
                &trainer.replay,
                &trainer.replay_action,
                want,
                &mut trainer.rng,
            );
            let from_action = batch.iter().filter(|e| e.action == 1).count();
            (batch.len() - from_action, from_action)
        };
        assert_eq!(sample(20, 20), (4, 4), "half from each buffer");
        assert_eq!(sample(20, 0), (8, 0), "no action windows yet");
        assert_eq!(sample(0, 20), (0, 8), "no background yet");
    }

    #[test]
    fn zero_batch_size_is_a_typed_error() {
        let agent = DqnAgent::new(1, 2, DqnConfig::default(), 0);
        let mut trainer = DqnTrainer::new(
            agent,
            TrainerConfig {
                episodes: 1,
                warmup: 0,
                batch_size: 0,
                update_every: 1,
                ..TrainerConfig::default()
            },
        );
        let mut env = Bandit::new(0, 5);
        assert_eq!(trainer.train(&mut env).unwrap_err(), RlError::EmptyBatch);
    }
}
