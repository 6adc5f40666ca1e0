//! Frame-PP engine: the 2D-CNN-per-frame baseline (§6.1).
//!
//! "Frame-PP uses a 2D-CNN on individual frames in the video and outputs a
//! binary label ... To improve accuracy on action queries, we instead apply
//! Frame-PP on all frames." Every frame costs one 2D-CNN invocation.

use zeus_apfg::frame_pp::FramePpModel;
use zeus_apfg::Configuration;
use zeus_sim::{CostModel, SimClock};
use zeus_video::Video;

use crate::baselines::{ExecutorKind, QueryEngine};
use crate::result::ConfigHistogram;

/// The Frame-PP query engine.
#[derive(Debug, Clone)]
pub struct FramePp {
    model: FramePpModel,
    cost: CostModel,
}

impl FramePp {
    /// Build from a frame model (already configured with the query's
    /// classes and the highest available resolution, §6.2).
    pub fn new(model: FramePpModel, cost: CostModel) -> Self {
        FramePp { model, cost }
    }
}

impl QueryEngine for FramePp {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::FramePp
    }

    fn execute_video(
        &self,
        video: &Video,
        clock: &mut SimClock,
        hist: &mut ConfigHistogram,
    ) -> Vec<bool> {
        let per_frame = self.cost.cnn2d_frame(self.model.resolution);
        let pseudo_config = Configuration::new(self.model.resolution, 1, 1);
        let mut labels = Vec::with_capacity(video.num_frames);
        for n in 0..video.num_frames {
            clock.advance(per_frame);
            labels.push(self.model.predict_frame(video, n));
        }
        hist.record(pseudo_config, video.num_frames as u64);
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_video::{ActionClass, ActionInterval, VideoId};

    fn video() -> Video {
        Video {
            id: VideoId(0),
            num_frames: 320,
            fps: 30.0,
            seed: 3,
            intervals: vec![ActionInterval::new(100, 200, ActionClass::CrossRight)],
        }
    }

    #[test]
    fn labels_every_frame_and_charges_time() {
        let model = FramePpModel::new(vec![ActionClass::CrossRight], 300, 5);
        let engine = FramePp::new(model, CostModel);
        let v = video();
        let result = engine.execute(&[&v]);
        assert_eq!(result.labels[0].1.len(), 320);
        assert_eq!(result.clock.events(), 320);
        // Throughput equals the per-frame model rate.
        let expected = 1.0 / CostModel.cnn2d_frame(300).as_secs();
        assert!((result.throughput() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn frame_pp_throughput_is_low() {
        // §6.2: Frame-PP is the slowest technique on BDD (~113 fps at
        // r=300 under the calibrated cost model).
        let model = FramePpModel::new(vec![ActionClass::CrossRight], 300, 5);
        let engine = FramePp::new(model, CostModel);
        let v = video();
        let result = engine.execute(&[&v]);
        assert!(result.throughput() < 150.0, "fps {}", result.throughput());
    }
}
