//! The DQN agent: ε-greedy Q-network with target network (Algorithm 1).

use std::collections::HashMap;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use zeus_nn::loss;
use zeus_nn::optim::{clip_grad_norm, Adam, Optimizer};
use zeus_nn::tensor::argmax;
use zeus_nn::{Activation, Mlp, Tensor};

/// The caller-owned buffers of [`GreedyPolicy::act`].
pub use zeus_nn::RowScratch;

use crate::error::RlError;
use crate::replay::Experience;

/// Agent hyperparameters. Paper values (§5): a 3-FC-layer MLP Q-network,
/// Huber loss, experience replay.
#[derive(Debug, Clone)]
pub struct DqnConfig {
    /// Hidden layer widths of the Q-network (two hiddens = 3 FC layers).
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Huber loss threshold δ.
    pub huber_delta: f32,
    /// Sync the target network every this many updates.
    pub target_sync_every: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Double-DQN targets (van Hasselt et al.): the online network picks
    /// the argmax action, the target network evaluates it. Reduces the
    /// max-operator overestimation bias that plain DQN suffers with many
    /// similar-valued actions (our configuration spaces).
    pub double_dqn: bool,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            hidden: vec![64, 64],
            gamma: 0.9,
            learning_rate: 1e-3,
            huber_delta: 1.0,
            target_sync_every: 200,
            grad_clip: 10.0,
            double_dqn: true,
        }
    }
}

/// The DQN agent of Algorithm 1: online network φ, frozen target network,
/// Adam, masked Huber TD loss.
pub struct DqnAgent {
    q: Mlp,
    target: Mlp,
    /// The target network's rows for the next states sampled since the
    /// last sync.
    target_memo: TargetMemo,
    opt: Adam,
    cfg: DqnConfig,
    num_actions: usize,
    updates: usize,
    rng: ChaCha8Rng,
    /// The online network's activations for `select_action`'s greedy
    /// forward, reused from step to step.
    row_scratch: RowScratch,
}

impl std::fmt::Debug for DqnAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DqnAgent")
            .field("state_dim", &self.q.in_dim())
            .field("num_actions", &self.num_actions)
            .field("updates", &self.updates)
            .finish()
    }
}

impl DqnAgent {
    /// Create an agent for `state_dim`-dimensional states and
    /// `num_actions` configurations.
    pub fn new(state_dim: usize, num_actions: usize, cfg: DqnConfig, seed: u64) -> Self {
        assert!(state_dim > 0 && num_actions > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut sizes = vec![state_dim];
        sizes.extend_from_slice(&cfg.hidden);
        sizes.push(num_actions);
        let q = Mlp::new(&sizes, Activation::Relu, &mut rng);
        let mut target = Mlp::new(&sizes, Activation::Relu, &mut rng);
        target.copy_weights_from(&q);
        let opt = Adam::new(cfg.learning_rate);
        DqnAgent {
            q,
            target,
            target_memo: TargetMemo::default(),
            opt,
            cfg,
            num_actions,
            updates: 0,
            rng,
            row_scratch: RowScratch::default(),
        }
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Number of gradient updates performed.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Sampled next states, over the agent's life, whose target-network
    /// row was already memoized since the last target sync, including
    /// repeats within one minibatch.
    pub(crate) fn target_memo_hits(&self) -> u64 {
        self.target_memo.hits
    }

    /// Sampled next states, over the agent's life, that the target network
    /// evaluated: the first sighting of each state after a target sync.
    pub(crate) fn target_memo_misses(&self) -> u64 {
        self.target_memo.misses
    }

    /// Q-values for one state.
    pub fn q_values(&self, state: &[f32]) -> Vec<f32> {
        let x = Tensor::from_vec(&[1, state.len()], state.to_vec());
        self.q.forward_inference(&x).into_vec()
    }

    /// Greedy action: `argmax(φ(state))` (Algorithm 1 line 6).
    pub fn greedy_action(&self, state: &[f32]) -> usize {
        argmax(&self.q_values(state))
    }

    /// ε-greedy action selection. The greedy branch runs the online
    /// network's one-row forward in the agent's own scratch, so a training
    /// step allocates nothing for it.
    pub fn select_action(&mut self, state: &[f32], epsilon: f64) -> usize {
        if self.rng.gen::<f64>() < epsilon {
            self.rng.gen_range(0..self.num_actions)
        } else {
            argmax(self.q.forward_row(state, &mut self.row_scratch))
        }
    }

    /// One DQN update over a minibatch (Algorithm 1 lines 11–14):
    /// targets `r + γ·max_a' Q_target(s', a')` (or `r` at terminals),
    /// masked Huber loss, Adam step, periodic target sync. Returns the
    /// loss, or a typed error on an empty or mis-shaped minibatch or an
    /// action the network has no output for.
    pub fn update(&mut self, batch: &[&Experience]) -> Result<f32, RlError> {
        if batch.is_empty() {
            return Err(RlError::EmptyBatch);
        }
        let state_dim = self.q.in_dim();
        let n = batch.len();

        let mut states = Vec::with_capacity(n * state_dim);
        let mut next_states = Vec::with_capacity(n * state_dim);
        for e in batch {
            if e.state.len() != state_dim || e.next_state.len() != state_dim {
                let got = if e.state.len() != state_dim {
                    e.state.len()
                } else {
                    e.next_state.len()
                };
                return Err(RlError::StateDimMismatch {
                    expected: state_dim,
                    got,
                });
            }
            if e.action >= self.num_actions {
                return Err(RlError::ActionOutOfRange {
                    action: e.action,
                    num_actions: self.num_actions,
                });
            }
            states.extend_from_slice(&e.state);
            next_states.extend_from_slice(&e.next_state);
        }
        let states = Tensor::from_vec(&[n, state_dim], states);
        let next_states = Tensor::from_vec(&[n, state_dim], next_states);

        // Bootstrapped targets from the frozen network. With Double DQN
        // the online network selects the action and the target network
        // evaluates it; with plain DQN the target network does both.
        let next_q_target = self.target_memo.rows(&self.target, batch);
        let next_values: Vec<f32> = if self.cfg.double_dqn {
            let next_q_online = self.q.forward_inference(&next_states);
            next_q_online
                .argmax_rows()
                .into_iter()
                .enumerate()
                .map(|(row, a)| next_q_target.at2(row, a))
                .collect()
        } else {
            next_q_target.max_rows()
        };
        let targets: Vec<f32> = batch
            .iter()
            .zip(next_values.iter())
            .map(|(e, &m)| {
                if e.done {
                    e.reward
                } else {
                    e.reward + self.cfg.gamma * m
                }
            })
            .collect();
        let actions: Vec<usize> = batch.iter().map(|e| e.action).collect();

        self.q.zero_grad();
        let pred = self.q.forward(&states);
        let (loss, grad) = loss::huber_selected(&pred, &actions, &targets, self.cfg.huber_delta);
        self.q.backward(&grad);
        let mut params = self.q.params_mut();
        clip_grad_norm(&mut params, self.cfg.grad_clip);
        self.opt.step(&mut params);

        self.updates += 1;
        if self.updates.is_multiple_of(self.cfg.target_sync_every) {
            self.sync_target();
        }
        Ok(loss)
    }

    /// Copy the online network into the target network, which outdates
    /// every memoized target row.
    fn sync_target(&mut self) {
        self.target.copy_weights_from(&self.q);
        self.target_memo.clear();
    }

    /// Snapshot the online network weights (for checkpointing).
    pub fn snapshot(&self) -> Vec<Vec<f32>> {
        self.q.snapshot()
    }

    /// Restore online + target networks from a snapshot.
    pub fn load_snapshot(&mut self, snap: &[Vec<f32>]) {
        self.q.load_snapshot(snap);
        self.sync_target();
    }

    /// Extract an immutable greedy policy.
    pub fn policy(&self) -> GreedyPolicy {
        GreedyPolicy {
            net: self.q.clone(),
        }
    }
}

/// `Q_target(s')` rows keyed by the bits of `s'`, valid from one target
/// sync to the next, when [`DqnAgent::sync_target`] clears them.
///
/// A memoized row has the bits a fresh forward pass would give. `zeus-nn`
/// computes every output element as one ascending sum from `0.0` over its
/// own input row, and adds the bias and applies ReLU element by element,
/// so a row's value does not depend on the size or makeup of the batch it
/// was computed in. Keys are content, not replay slots: a state sampled
/// again from another slot is still a hit. Between two syncs the memo
/// holds at most `batch_size × target_sync_every` rows.
#[derive(Debug, Default)]
struct TargetMemo {
    /// Row number in `values` of each memoized state, by `f32::to_bits`.
    index: HashMap<Box<[u32]>, usize>,
    /// The memoized rows, one after another, `num_actions` values each.
    values: Vec<f32>,
    hits: u64,
    misses: u64,
}

impl TargetMemo {
    /// `Q_target(s')` for every experience of `batch`, as a
    /// `[batch.len(), num_actions]` tensor. The distinct states not yet
    /// memoized go through `target` in one forward pass.
    fn rows(&mut self, target: &Mlp, batch: &[&Experience]) -> Tensor {
        let (state_dim, width) = (target.in_dim(), target.out_dim());
        let memoized = self.values.len() / width;
        let mut slots = Vec::with_capacity(batch.len());
        let mut missed = Vec::new();
        let mut key = Vec::with_capacity(state_dim);
        for e in batch {
            key.clear();
            key.extend(e.next_state.iter().map(|v| v.to_bits()));
            let slot = match self.index.get(key.as_slice()) {
                Some(&slot) => {
                    self.hits += 1;
                    slot
                }
                None => {
                    let slot = memoized + missed.len() / state_dim;
                    self.misses += 1;
                    self.index.insert(key.as_slice().into(), slot);
                    missed.extend_from_slice(&e.next_state);
                    slot
                }
            };
            slots.push(slot);
        }
        if !missed.is_empty() {
            let rows = missed.len() / state_dim;
            let fresh = target.forward_inference(&Tensor::from_vec(&[rows, state_dim], missed));
            self.values.extend_from_slice(fresh.data());
        }
        let mut out = Vec::with_capacity(batch.len() * width);
        for slot in slots {
            out.extend_from_slice(&self.values[slot * width..(slot + 1) * width]);
        }
        Tensor::from_vec(&[batch.len(), width], out)
    }

    /// Forget every row, keeping the counts.
    fn clear(&mut self) {
        self.index.clear();
        self.values.clear();
    }
}

/// A frozen greedy policy extracted from a trained agent — what the query
/// executor ships (§3: the trained DQN picking the next configuration).
#[derive(Debug, Clone)]
pub struct GreedyPolicy {
    net: Mlp,
}

impl GreedyPolicy {
    /// The greedy action for a state: the first action of highest
    /// Q-value. The forward pass runs in `scratch`, which the caller keeps
    /// across steps (an executor holds one per video) so that a step
    /// allocates nothing; any scratch works with any policy.
    pub fn act(&self, state: &[f32], scratch: &mut RowScratch) -> usize {
        argmax(self.net.forward_row(state, scratch))
    }

    /// Width of the state vector the policy reads.
    pub fn state_dim(&self) -> usize {
        self.net.in_dim()
    }

    /// Number of actions (configurations) the policy chooses among.
    pub fn num_actions(&self) -> usize {
        self.net.out_dim()
    }

    /// Serialize the policy network to bytes (Zeus checkpoint format).
    pub fn to_bytes(&self) -> Vec<u8> {
        zeus_nn::serialize::encode(&self.net.snapshot())
    }

    /// Restore a policy from [`GreedyPolicy::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<GreedyPolicy, zeus_nn::serialize::DecodeError> {
        let snap = zeus_nn::serialize::decode(bytes)?;
        Ok(GreedyPolicy {
            net: Mlp::from_snapshot(&snap, Activation::Relu)?,
        })
    }

    /// Q-values (useful for diagnostics).
    pub fn q_values(&self, state: &[f32]) -> Vec<f32> {
        let x = Tensor::from_vec(&[1, state.len()], state.to_vec());
        self.net.forward_inference(&x).into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(state: Vec<f32>, action: usize, reward: f32, next: Vec<f32>, done: bool) -> Experience {
        Experience {
            state,
            action,
            reward,
            next_state: next,
            done,
        }
    }

    #[test]
    fn q_values_shape() {
        let a = DqnAgent::new(4, 3, DqnConfig::default(), 0);
        assert_eq!(a.q_values(&[0.0; 4]).len(), 3);
    }

    #[test]
    fn update_rejects_bad_batches_with_typed_errors() {
        use crate::error::RlError;
        let mut a = DqnAgent::new(2, 2, DqnConfig::default(), 0);
        assert_eq!(a.update(&[]), Err(RlError::EmptyBatch));
        let bad = exp(vec![0.0; 3], 0, 0.0, vec![0.0; 3], true);
        assert_eq!(
            a.update(&[&bad]),
            Err(RlError::StateDimMismatch {
                expected: 2,
                got: 3
            })
        );
        let unknown = exp(vec![0.0; 2], 2, 0.0, vec![0.0; 2], true);
        assert_eq!(
            a.update(&[&unknown]),
            Err(RlError::ActionOutOfRange {
                action: 2,
                num_actions: 2
            })
        );
        assert_eq!(a.updates(), 0, "failed updates must not advance state");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The target network's row for `state`, from a one-row forward pass.
    fn fresh_target_row(a: &DqnAgent, state: &[f32]) -> Vec<u32> {
        let x = Tensor::from_vec(&[1, state.len()], state.to_vec());
        bits(a.target.forward_inference(&x).data())
    }

    /// Twelve experiences over five next states that share their first
    /// two features, so only the whole state tells them apart.
    fn repeating_experiences() -> Vec<Experience> {
        (0..12)
            .map(|i| {
                let next = vec![0.5, -0.25, (i % 5) as f32 * 0.3 - 0.6];
                let state = vec![(i % 3) as f32 * 0.4, 0.1 * i as f32, -0.2];
                exp(state, i % 4, (i % 7) as f32 / 7.0 - 0.4, next, i % 6 == 5)
            })
            .collect()
    }

    #[test]
    fn memoized_target_rows_equal_a_fresh_forward_bit_for_bit() {
        let cfg = DqnConfig {
            target_sync_every: 5,
            learning_rate: 5e-2,
            ..DqnConfig::default()
        };
        let mut a = DqnAgent::new(3, 4, cfg, 9);
        let pool = repeating_experiences();
        // Each batch repeats next states within itself, and shares them
        // with the batches before it.
        let batch_at = |u: usize| -> Vec<&Experience> {
            (0..9)
                .map(|j| &pool[(u * 5 + j * 7) % pool.len()])
                .collect()
        };
        for u in 0..23 {
            let batch = batch_at(u);
            let rows = a.target_memo.rows(&a.target, &batch);
            for (row, e) in batch.iter().enumerate() {
                assert_eq!(
                    bits(rows.row(row)),
                    fresh_target_row(&a, &e.next_state),
                    "update {u}, row {row}"
                );
            }
            a.update(&batch_at(u + 1)).unwrap();
        }
        assert!(a.target_memo_hits() > a.target_memo_misses());
    }

    #[test]
    fn a_repeated_next_state_is_one_miss() {
        let mut a = DqnAgent::new(3, 4, DqnConfig::default(), 2);
        let pool = repeating_experiences();
        // Next states 0, 1, 2, 0, 1: three distinct.
        let batch: Vec<&Experience> = [0, 1, 2, 5, 6].iter().map(|&i| &pool[i]).collect();
        a.update(&batch).unwrap();
        assert_eq!((a.target_memo_hits(), a.target_memo_misses()), (2, 3));
        a.update(&batch).unwrap();
        assert_eq!((a.target_memo_hits(), a.target_memo_misses()), (7, 3));
    }

    #[test]
    fn a_target_sync_re_evaluates_memoized_states() {
        let cfg = DqnConfig {
            target_sync_every: 2,
            learning_rate: 5e-2,
            ..DqnConfig::default()
        };
        let mut a = DqnAgent::new(3, 4, cfg, 4);
        let pool = repeating_experiences();
        let batch: Vec<&Experience> = pool.iter().collect();
        a.update(&batch).unwrap();
        let before = bits(a.target_memo.rows(&a.target, &batch[..1]).data());
        // The second update syncs the target network to the trained one.
        a.update(&batch).unwrap();
        let after = bits(a.target_memo.rows(&a.target, &batch[..1]).data());
        assert_ne!(before, after, "the sync must change the target row");
        assert_eq!(after, fresh_target_row(&a, &batch[0].next_state));
        assert_eq!(a.target_memo_misses(), 5 + 1);
    }

    #[test]
    fn a_failed_update_leaves_the_target_memo_untouched() {
        let mut a = DqnAgent::new(3, 4, DqnConfig::default(), 0);
        let pool = repeating_experiences();
        a.update(&[&pool[0]]).unwrap();
        let memoized = a.target_memo.index.len();
        let short = exp(vec![0.0; 3], 0, 0.0, vec![0.0; 2], false);
        assert_eq!(a.update(&[]), Err(RlError::EmptyBatch));
        assert_eq!(
            a.update(&[&pool[1], &pool[2], &short]),
            Err(RlError::StateDimMismatch {
                expected: 3,
                got: 2
            })
        );
        let unknown = exp(vec![0.0; 3], 4, 0.0, vec![0.0; 3], false);
        assert_eq!(
            a.update(&[&pool[1], &pool[2], &unknown]),
            Err(RlError::ActionOutOfRange {
                action: 4,
                num_actions: 4
            })
        );
        assert_eq!(a.target_memo.index.len(), memoized);
        assert_eq!(a.target_memo.values.len(), memoized * 4);
        assert_eq!((a.target_memo_hits(), a.target_memo_misses()), (0, 1));
    }

    #[test]
    fn epsilon_one_explores_uniformly() {
        let mut a = DqnAgent::new(2, 4, DqnConfig::default(), 1);
        let mut counts = [0usize; 4];
        for _ in 0..400 {
            counts[a.select_action(&[0.0, 0.0], 1.0)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 50, "action {i} undersampled: {c}");
        }
    }

    #[test]
    fn epsilon_zero_is_greedy() {
        let mut a = DqnAgent::new(2, 3, DqnConfig::default(), 1);
        let greedy = a.greedy_action(&[0.5, -0.5]);
        for _ in 0..10 {
            assert_eq!(a.select_action(&[0.5, -0.5], 0.0), greedy);
        }
    }

    #[test]
    fn update_learns_a_bandit() {
        // Contextual bandit: reward 1 if action == state bit else -1.
        let mut a = DqnAgent::new(
            1,
            2,
            DqnConfig {
                target_sync_every: 10,
                learning_rate: 5e-3,
                ..DqnConfig::default()
            },
            7,
        );
        let mut experiences = Vec::new();
        for i in 0..200 {
            let s = (i % 2) as f32;
            for action in 0..2 {
                let r = if action == (s as usize) { 1.0 } else { -1.0 };
                experiences.push(exp(vec![s], action, r, vec![1.0 - s], true));
            }
        }
        for chunk in experiences.chunks(32).cycle().take(120) {
            let batch: Vec<&Experience> = chunk.iter().collect();
            let _ = a.update(&batch);
        }
        assert_eq!(a.greedy_action(&[0.0]), 0);
        assert_eq!(a.greedy_action(&[1.0]), 1);
    }

    #[test]
    fn bootstrapping_propagates_future_reward() {
        // Two-step chain: s0 -a0-> s1 (r=0), s1 -a0-> terminal (r=1).
        // With γ=0.9, Q(s0, a0) should approach 0.9.
        let cfg = DqnConfig {
            gamma: 0.9,
            target_sync_every: 25,
            learning_rate: 5e-3,
            ..DqnConfig::default()
        };
        let mut a = DqnAgent::new(1, 1, cfg, 3);
        let e0 = exp(vec![0.0], 0, 0.0, vec![1.0], false);
        let e1 = exp(vec![1.0], 0, 1.0, vec![0.0], true);
        for _ in 0..800 {
            let batch = vec![&e0, &e1];
            let _ = a.update(&batch);
        }
        let q0 = a.q_values(&[0.0])[0];
        let q1 = a.q_values(&[1.0])[0];
        assert!((q1 - 1.0).abs() < 0.15, "Q(s1) = {q1}");
        assert!((q0 - 0.9).abs() < 0.2, "Q(s0) = {q0}");
    }

    #[test]
    fn plain_dqn_also_learns_the_bandit() {
        let mut a = DqnAgent::new(
            1,
            2,
            DqnConfig {
                double_dqn: false,
                target_sync_every: 10,
                learning_rate: 5e-3,
                ..DqnConfig::default()
            },
            7,
        );
        let mut experiences = Vec::new();
        for i in 0..200 {
            let s = (i % 2) as f32;
            for action in 0..2 {
                let r = if action == (s as usize) { 1.0 } else { -1.0 };
                experiences.push(exp(vec![s], action, r, vec![1.0 - s], true));
            }
        }
        for chunk in experiences.chunks(32).cycle().take(120) {
            let batch: Vec<&Experience> = chunk.iter().collect();
            let _ = a.update(&batch);
        }
        assert_eq!(a.greedy_action(&[0.0]), 0);
        assert_eq!(a.greedy_action(&[1.0]), 1);
    }

    #[test]
    fn double_dqn_diverges_from_plain_dqn() {
        // With identical seeds and experience streams, the two target
        // rules must eventually produce different weights: once the online
        // net's argmax disagrees with the target net's max, the
        // bootstrapped values differ.
        let mk = |double| {
            DqnAgent::new(
                2,
                3,
                DqnConfig {
                    double_dqn: double,
                    target_sync_every: 10_000,
                    learning_rate: 5e-3,
                    ..DqnConfig::default()
                },
                3,
            )
        };
        let mut plain = mk(false);
        let mut double = mk(true);
        let experiences: Vec<Experience> = (0..24)
            .map(|i| {
                exp(
                    vec![(i % 3) as f32 / 2.0, ((i + 1) % 4) as f32 / 3.0],
                    i % 3,
                    ((i % 7) as f32 - 3.0) / 3.0,
                    vec![((i + 2) % 3) as f32 / 2.0, (i % 5) as f32 / 4.0],
                    false,
                )
            })
            .collect();
        for _ in 0..60 {
            let batch: Vec<&Experience> = experiences.iter().collect();
            let _ = plain.update(&batch);
            let _ = double.update(&batch);
        }
        let probe = [0.4f32, 0.6];
        assert_ne!(
            plain.q_values(&probe),
            double.q_values(&probe),
            "double-DQN must train differently from plain DQN"
        );
    }

    #[test]
    fn snapshot_roundtrip() {
        let a = DqnAgent::new(3, 2, DqnConfig::default(), 5);
        let snap = a.snapshot();
        let mut b = DqnAgent::new(3, 2, DqnConfig::default(), 99);
        assert_ne!(a.q_values(&[0.1, 0.2, 0.3]), b.q_values(&[0.1, 0.2, 0.3]));
        b.load_snapshot(&snap);
        assert_eq!(a.q_values(&[0.1, 0.2, 0.3]), b.q_values(&[0.1, 0.2, 0.3]));
    }

    #[test]
    fn policy_bytes_roundtrip() {
        let a = DqnAgent::new(4, 3, DqnConfig::default(), 17);
        let p = a.policy();
        let bytes = p.to_bytes();
        let q = GreedyPolicy::from_bytes(&bytes).unwrap();
        for i in 0..5 {
            let s = [0.1 * i as f32, -0.3, 0.9, 0.2];
            let mut scratch = RowScratch::default();
            assert_eq!(p.act(&s, &mut scratch), q.act(&s, &mut scratch));
            assert_eq!(p.q_values(&s), q.q_values(&s));
        }
        assert!(GreedyPolicy::from_bytes(&bytes[..4]).is_err());
        assert_eq!((q.state_dim(), q.num_actions()), (4, 3));
    }

    #[test]
    fn policy_bytes_with_malformed_layers_are_a_typed_error() {
        use zeus_nn::serialize::{encode, DecodeError};
        // Decodable checkpoints whose buffers are not an MLP.
        let one_buffer = encode(&[vec![1.0; 4]]);
        assert_eq!(
            GreedyPolicy::from_bytes(&one_buffer).err(),
            Some(DecodeError::BadShape)
        );
        let unchained = encode(&[vec![0.0; 6], vec![0.0; 3], vec![0.0; 4], vec![0.0; 1]]);
        assert_eq!(
            GreedyPolicy::from_bytes(&unchained).err(),
            Some(DecodeError::BadShape)
        );
    }

    #[test]
    fn policy_matches_agent() {
        let a = DqnAgent::new(3, 4, DqnConfig::default(), 11);
        let p = a.policy();
        for i in 0..5 {
            let s = [i as f32 * 0.3, -0.2, 0.7];
            assert_eq!(p.act(&s, &mut RowScratch::default()), a.greedy_action(&s));
        }
    }

    /// The argmax of `q` with ties going to the first index, written out
    /// independently of `zeus_nn`'s.
    fn first_max(q: &[f32]) -> usize {
        let best = q.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        q.iter().position(|&v| v == best).unwrap()
    }

    #[test]
    fn act_with_one_scratch_across_two_widths_is_the_argmax() {
        // A property over seeded random cases (the crate has no proptest
        // dependency): pairs of policies of different input, hidden and
        // output widths take turns on one scratch buffer.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut random_policy = |dim: usize| {
            let cfg = DqnConfig {
                hidden: vec![rng.gen_range(1..=70), rng.gen_range(1..=70)],
                ..DqnConfig::default()
            };
            DqnAgent::new(dim, rng.gen_range(1..=9), cfg, rng.gen()).policy()
        };
        let pairs: Vec<[GreedyPolicy; 2]> = (0..24)
            .map(|_| [random_policy(6), random_policy(3)])
            .collect();
        let mut scratch = RowScratch::default();
        for (case, pair) in pairs.iter().enumerate() {
            for step in 0..10 {
                let policy = &pair[(case + step) % 2];
                let state: Vec<f32> = (0..policy.state_dim())
                    .map(|_| rng.gen_range(-2.0f32..2.0))
                    .collect();
                assert_eq!(
                    policy.act(&state, &mut scratch),
                    first_max(&policy.q_values(&state)),
                    "case {case}, step {step}"
                );
            }
        }
    }

    #[test]
    fn act_breaks_ties_to_the_first_index() {
        // All-zero weights: every Q-value is 0.0, so action 0 wins.
        let a = DqnAgent::new(2, 5, DqnConfig::default(), 3);
        let zeros: Vec<Vec<f32>> = a.snapshot().iter().map(|b| vec![0.0; b.len()]).collect();
        let p = GreedyPolicy::from_bytes(&zeus_nn::serialize::encode(&zeros)).unwrap();
        assert_eq!(p.act(&[0.3, -0.7], &mut RowScratch::default()), 0);
    }
}
