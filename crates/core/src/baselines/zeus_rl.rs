//! Zeus-RL engine: the system — DQN-selected configurations (Figure 5).
//!
//! At each time step the executor feeds the current ProxyFeature to the
//! trained DQN, which emits the next Configuration; the APFG processes the
//! next segment under it, the classifier labels the covered span, and the
//! loop continues. The first segment of each video uses the most accurate
//! configuration (§3).

use zeus_apfg::{Configuration, FeatureGenerator, SimulatedApfg};
use zeus_rl::agent::{GreedyPolicy, RowScratch};
use zeus_sim::{CostModel, SimClock};
use zeus_video::Video;

use crate::baselines::{ExecutorKind, QueryEngine};
use crate::config::ConfigSpace;
use crate::result::ConfigHistogram;

/// The Zeus-RL query engine.
#[derive(Debug, Clone)]
pub struct ZeusRl {
    apfg: SimulatedApfg,
    policy: GreedyPolicy,
    space: ConfigSpace,
    init_config: Configuration,
    cost: CostModel,
}

impl ZeusRl {
    /// Build from a trained policy over `space`.
    pub fn new(
        apfg: SimulatedApfg,
        policy: GreedyPolicy,
        space: ConfigSpace,
        init_config: Configuration,
        cost: CostModel,
    ) -> Self {
        ZeusRl {
            apfg,
            policy,
            space,
            init_config,
            cost,
        }
    }

    fn step_cost(&self, c: Configuration) -> zeus_sim::SimDuration {
        // One R3D pass + classifier head + DQN head per time step.
        self.cost.r3d_invocation(c.seg_len, c.resolution)
            + self.cost.mlp_head()
            + self.cost.mlp_head()
    }
}

impl QueryEngine for ZeusRl {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::ZeusRl
    }

    fn execute_video(
        &self,
        video: &Video,
        clock: &mut SimClock,
        hist: &mut ConfigHistogram,
    ) -> Vec<bool> {
        let mut labels = vec![false; video.num_frames];
        let mut current = self.init_config;
        let mut start = 0usize;
        let mut scratch = RowScratch::default();

        while start < video.num_frames {
            let end = (start + current.frames_covered()).min(video.num_frames);
            clock.advance(self.step_cost(current));
            hist.record(current, (end - start) as u64);
            let out = self.apfg.process(video, start, current);
            if out.prediction {
                for l in &mut labels[start..end] {
                    *l = true;
                }
            }
            // The agent picks the next configuration from the feature.
            let action = self.policy.act(&out.feature, &mut scratch);
            current = self.space.configs()[action];
            start = end;
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use zeus_nn::{Activation, Mlp};
    use zeus_rl::agent::{DqnAgent, DqnConfig};
    use zeus_video::{ActionClass, ActionInterval, VideoId};

    fn untrained_policy(state_dim: usize, actions: usize) -> GreedyPolicy {
        DqnAgent::new(state_dim, actions, DqnConfig::default(), 42).policy()
    }

    fn video() -> Video {
        Video {
            id: VideoId(0),
            num_frames: 2000,
            fps: 30.0,
            seed: 13,
            intervals: vec![ActionInterval::new(700, 900, ActionClass::CrossRight)],
        }
    }

    fn engine(policy: GreedyPolicy) -> ZeusRl {
        let space = ConfigSpace::from_knobs(&[150, 300], &[4, 8], &[1, 8]);
        ZeusRl::new(
            SimulatedApfg::new(vec![ActionClass::CrossRight], 300, 8, 8, 3),
            policy,
            space.clone(),
            space.most_accurate(),
            CostModel,
        )
    }

    #[test]
    fn covers_every_frame_exactly_once() {
        let e = engine(untrained_policy(zeus_apfg::FEATURE_DIM, 8));
        let v = video();
        let r = e.execute(&[&v]);
        assert_eq!(r.labels[0].1.len(), 2000);
        assert_eq!(r.histogram.total_frames(), 2000);
    }

    #[test]
    fn first_segment_uses_most_accurate_config() {
        let e = engine(untrained_policy(zeus_apfg::FEATURE_DIM, 8));
        let v = video();
        let r = e.execute(&[&v]);
        let init = Configuration::new(300, 8, 1);
        let has_init = r.histogram.entries().iter().any(|(c, _)| *c == init);
        assert!(has_init, "init config must appear in the histogram");
    }

    #[test]
    fn policy_decides_the_trajectory() {
        // Two different (random) policies generally process the video with
        // different configuration mixes.
        let e1 = engine(untrained_policy(zeus_apfg::FEATURE_DIM, 8));
        let p2 = {
            let mut rng = ChaCha8Rng::seed_from_u64(999);
            let net = Mlp::new(&[zeus_apfg::FEATURE_DIM, 8, 8], Activation::Relu, &mut rng);
            // Hand-rolled policy wrapper via DqnAgent snapshot mechanics is
            // overkill here; a different seed suffices.
            let _ = net;
            DqnAgent::new(zeus_apfg::FEATURE_DIM, 8, DqnConfig::default(), 999).policy()
        };
        let e2 = engine(p2);
        let v = video();
        let h1 = e1.execute(&[&v]).histogram.entries();
        let h2 = e2.execute(&[&v]).histogram.entries();
        assert_ne!(h1, h2, "different policies should traverse differently");
    }
}
