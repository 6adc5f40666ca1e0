//! The environment abstraction of the MDP (§4.1).
//!
//! The paper's MDP: the environment is the set of training videos, the
//! state is the ProxyFeature of the current segment, actions are
//! configurations, and transitions traverse the video. `zeus-core`
//! implements that environment; this trait keeps the DQN machinery
//! testable on small synthetic MDPs.

/// One environment transition, carrying everything both reward modes need.
#[derive(Debug, Clone)]
pub struct Transition {
    /// State before acting (ProxyFeature).
    pub state: Vec<f32>,
    /// Chosen action (configuration index).
    pub action: usize,
    /// State after acting.
    pub next_state: Vec<f32>,
    /// Episode terminated at this transition.
    pub done: bool,
    /// Per-frame ground-truth labels of the span this action covered.
    pub gt: Vec<bool>,
    /// The APFG's prediction, which labels every frame of the span.
    pub pred: bool,
    /// Normalised fastness α of the chosen configuration (§4.4).
    pub alpha: f32,
}

impl Transition {
    /// Whether the covered span contains any ground-truth action frame
    /// (the predicate of Eq. 2).
    pub fn has_action(&self) -> bool {
        self.gt.iter().any(|&g| g)
    }

    /// Number of video frames covered.
    pub fn span_len(&self) -> usize {
        self.gt.len()
    }
}

/// A (deterministically seeded) environment the trainer can traverse.
pub trait Environment {
    /// Dimensionality of state vectors.
    fn state_dim(&self) -> usize;

    /// Number of available actions (configurations).
    fn num_actions(&self) -> usize;

    /// Normalised fastness α per action, summing to 1 (§4.4).
    fn alphas(&self) -> &[f32];

    /// Begin a new episode; returns the initial state. Implementations
    /// shuffle video order internally (§5: "permutes the videos in a
    /// random order for each episode").
    fn reset(&mut self) -> Vec<f32>;

    /// Take `action` from the current state; returns the transition (whose
    /// `done` flag ends the episode).
    fn step(&mut self, action: usize) -> Transition;
}

#[cfg(test)]
pub(crate) mod test_envs {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A contextual bandit: state `[b]` with b ∈ {0, 1}; acting with
    /// `action == b` is "correct". Used to sanity-check DQN learning.
    pub struct Bandit {
        pub rng: ChaCha8Rng,
        pub current: usize,
        pub steps: usize,
        pub max_steps: usize,
        alphas: Vec<f32>,
    }

    impl Bandit {
        pub fn new(seed: u64, max_steps: usize) -> Self {
            Bandit {
                rng: ChaCha8Rng::seed_from_u64(seed),
                current: 0,
                steps: 0,
                max_steps,
                alphas: vec![0.5, 0.5],
            }
        }

        fn draw_state(&mut self) -> usize {
            self.rng.gen_range(0..2)
        }
    }

    impl Environment for Bandit {
        fn state_dim(&self) -> usize {
            1
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn alphas(&self) -> &[f32] {
            &self.alphas
        }
        fn reset(&mut self) -> Vec<f32> {
            self.steps = 0;
            self.current = self.draw_state();
            vec![self.current as f32]
        }
        fn step(&mut self, action: usize) -> Transition {
            let correct = action == self.current;
            let state = vec![self.current as f32];
            self.current = self.draw_state();
            self.steps += 1;
            // Encode correctness through gt/pred so both reward modes work:
            // a "correct" action is a perfectly-predicted positive window.
            Transition {
                state,
                action,
                next_state: vec![self.current as f32],
                done: self.steps >= self.max_steps,
                gt: vec![true],
                pred: correct,
                alpha: if action == 1 { 0.9 } else { 0.1 },
            }
        }
    }

    #[test]
    fn bandit_mechanics() {
        let mut b = Bandit::new(0, 5);
        let s = b.reset();
        assert_eq!(s.len(), 1);
        let t = b.step(s[0] as usize);
        assert!(t.pred, "matching action should be correct");
        assert!(t.has_action());
    }
}
