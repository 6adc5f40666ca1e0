//! # zeus-rl
//!
//! The deep-Q-learning stack of Zeus (§4.3–§4.6), built on `zeus-nn`.
//!
//! This crate is a *generic* DQN library: the video-traversal environment
//! lives in `zeus-core` behind the [`env::Environment`] trait, so the RL
//! machinery can be unit-tested on small synthetic MDPs independent of the
//! video stack. Components:
//!
//! * [`replay::ReplayBuffer`] — the cyclic experience buffer (10 K
//!   capacity, 5 K warm-start in the paper, §5).
//! * [`agent::DqnAgent`] — ε-greedy Q-network + target network + Huber
//!   TD updates (Algorithm 1).
//! * [`reward`] — the local fastness-based reward (Eq. 2) and the
//!   accuracy-aware aggregate reward (Algorithm 2), including the delayed
//!   (temporary-buffer) replay update of §4.6.
//! * [`trainer::DqnTrainer`] — the training loop: episode
//!   concatenation, per-episode video shuffling (handled by the
//!   environment), warm-up, stratified replay, periodic updates, target
//!   sync, and optional `train.*` telemetry.
//! * [`schedule::EpsilonSchedule`] — linear exploration decay.
//! * [`error::RlError`] — typed training-path failures (no panics on
//!   user-reachable input).

#![warn(missing_docs)]
pub mod agent;
pub mod env;
pub mod error;
pub mod replay;
pub mod reward;
pub mod schedule;
pub mod trainer;

pub use agent::{DqnAgent, DqnConfig};
pub use env::{Environment, Transition};
pub use error::RlError;
pub use replay::{Experience, ReplayBuffer};
pub use reward::{aggregate_reward, local_reward, window_accuracy, RewardMode};
pub use schedule::EpsilonSchedule;
pub use trainer::{DqnTrainer, TrainerConfig, TrainingReport};
