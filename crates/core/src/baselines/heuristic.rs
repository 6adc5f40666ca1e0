//! Zeus-Heuristic engine: rule-based adaptive configurations (§6.1).
//!
//! "Zeus-Heuristic dynamically uses a subset of available configurations
//! based on hard-coded rules to process the video, including (1) using the
//! slowest configuration when the APFG returns ACTION prediction, (2) a
//! faster configuration when the APFG prediction flips from ACTION to
//! NO-ACTION, and (3) the fastest configuration when the APFG returns a
//! NO-ACTION prediction across ten consecutive time steps."

use zeus_apfg::{Configuration, SimulatedApfg};
use zeus_sim::{CostModel, SimClock};
use zeus_video::Video;

use crate::baselines::{ExecutorKind, QueryEngine};
use crate::result::ConfigHistogram;

/// Consecutive NO-ACTION steps before dropping to the fastest config
/// (rule 3 of §6.1).
pub const NO_ACTION_RUN: usize = 10;

/// The Zeus-Heuristic query engine over a fast/mid/slow subset.
#[derive(Debug, Clone)]
pub struct ZeusHeuristic {
    apfg: SimulatedApfg,
    fast: Configuration,
    mid: Configuration,
    slow: Configuration,
    cost: CostModel,
}

impl ZeusHeuristic {
    /// Build with an explicit fast/mid/slow configuration subset (the
    /// §6.8 experiment constrains all adaptive agents to exactly three).
    pub fn new(
        apfg: SimulatedApfg,
        fast: Configuration,
        mid: Configuration,
        slow: Configuration,
        cost: CostModel,
    ) -> Self {
        ZeusHeuristic {
            apfg,
            fast,
            mid,
            slow,
            cost,
        }
    }

    fn step_cost(&self, c: Configuration) -> zeus_sim::SimDuration {
        self.cost.r3d_invocation(c.seg_len, c.resolution) + self.cost.mlp_head()
    }
}

impl QueryEngine for ZeusHeuristic {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::ZeusHeuristic
    }

    fn execute_video(
        &self,
        video: &Video,
        clock: &mut SimClock,
        hist: &mut ConfigHistogram,
    ) -> Vec<bool> {
        let mut labels = vec![false; video.num_frames];
        let mut current = self.mid;
        let mut consecutive_no_action = 0usize;
        let mut prev_prediction = false;
        let mut start = 0usize;

        while start < video.num_frames {
            let end = (start + current.frames_covered()).min(video.num_frames);
            clock.advance(self.step_cost(current));
            hist.record(current, (end - start) as u64);
            let prediction = self.apfg.predict(video, start, current);
            if prediction {
                for l in &mut labels[start..end] {
                    *l = true;
                }
            }

            // Hard-coded rules (§6.1).
            if prediction {
                current = self.slow; // rule 1
                consecutive_no_action = 0;
            } else {
                consecutive_no_action += 1;
                if prev_prediction {
                    current = self.mid; // rule 2: flip ACTION -> NO-ACTION
                }
                if consecutive_no_action >= NO_ACTION_RUN {
                    current = self.fast; // rule 3
                }
            }
            prev_prediction = prediction;
            start = end;
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_video::{ActionClass, ActionInterval, VideoId};

    fn engine() -> ZeusHeuristic {
        ZeusHeuristic::new(
            SimulatedApfg::new(vec![ActionClass::CrossRight], 300, 8, 8, 11),
            Configuration::new(150, 8, 8),
            Configuration::new(250, 6, 2),
            Configuration::new(300, 4, 1),
            CostModel,
        )
    }

    fn sparse_video() -> Video {
        Video {
            id: VideoId(0),
            num_frames: 4000,
            fps: 30.0,
            seed: 8,
            intervals: vec![ActionInterval::new(2000, 2150, ActionClass::CrossRight)],
        }
    }

    fn dense_video() -> Video {
        Video {
            id: VideoId(1),
            num_frames: 4000,
            fps: 30.0,
            seed: 9,
            intervals: vec![ActionInterval::new(200, 3800, ActionClass::CrossRight)],
        }
    }

    #[test]
    fn uses_fast_configs_on_sparse_video() {
        let e = engine();
        let v = sparse_video();
        let r = e.execute(&[&v]);
        // Most frames processed with the fastest configuration.
        let fr = r.histogram.fractions_for(&[Configuration::new(150, 8, 8)]);
        assert!(fr[0] > 0.5, "fast fraction {} on sparse video", fr[0]);
    }

    #[test]
    fn locks_into_slow_configs_on_dense_video() {
        // §6.2: "when the fraction of action frames is high,
        // Zeus-Heuristic uses slower configurations for the majority of
        // frames ... delivering lower throughput".
        let e = engine();
        let sparse = e.execute(&[&sparse_video()]);
        let dense = e.execute(&[&dense_video()]);
        assert!(
            dense.throughput() < sparse.throughput() * 0.6,
            "dense {} vs sparse {}",
            dense.throughput(),
            sparse.throughput()
        );
        let slow_fr = dense
            .histogram
            .fractions_for(&[Configuration::new(300, 4, 1)]);
        assert!(
            slow_fr[0] > 0.4,
            "slow fraction {} on dense video",
            slow_fr[0]
        );
    }

    #[test]
    fn switches_to_slow_on_detection() {
        // After an ACTION prediction the very next step must use the
        // slowest configuration: verify through the histogram having slow
        // frames right at the action.
        let e = engine();
        let v = sparse_video();
        let r = e.execute(&[&v]);
        let entries = r.histogram.entries();
        let slow_frames: u64 = entries
            .iter()
            .filter(|(c, _)| *c == Configuration::new(300, 4, 1))
            .map(|(_, n)| *n)
            .sum();
        assert!(slow_frames > 0, "slow config must engage at the action");
    }
}
