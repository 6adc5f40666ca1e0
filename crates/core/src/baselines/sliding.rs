//! Zeus-Sliding engine: static-configuration sliding window (§2, Figure 4).
//!
//! "Zeus-Sliding processes segments in the video using ... the R3D network
//! in a sliding window fashion on the input video to generate segment-level
//! predictions. Zeus-Sliding uses a static Configuration for the entire
//! dataset. It chooses the fastest configuration that meets the target
//! accuracy."

use zeus_apfg::{Configuration, SimulatedApfg};
use zeus_sim::{CostModel, SimClock};
use zeus_video::Video;

use crate::baselines::{ExecutorKind, QueryEngine};
use crate::result::ConfigHistogram;

/// The Zeus-Sliding query engine.
#[derive(Debug, Clone)]
pub struct ZeusSliding {
    apfg: SimulatedApfg,
    config: Configuration,
    cost: CostModel,
}

impl ZeusSliding {
    /// Build with a static configuration (the planner picks the fastest
    /// configuration meeting the accuracy target, §4.2/§6.1).
    pub fn new(apfg: SimulatedApfg, config: Configuration, cost: CostModel) -> Self {
        ZeusSliding { apfg, config, cost }
    }

    /// The static configuration in use.
    pub fn config(&self) -> Configuration {
        self.config
    }
}

impl QueryEngine for ZeusSliding {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::ZeusSliding
    }

    fn execute_video(
        &self,
        video: &Video,
        clock: &mut SimClock,
        hist: &mut ConfigHistogram,
    ) -> Vec<bool> {
        let step_cost = self
            .cost
            .r3d_invocation(self.config.seg_len, self.config.resolution)
            + self.cost.mlp_head();
        let stride = self.config.frames_covered();
        let mut labels = vec![false; video.num_frames];
        let mut start = 0usize;
        while start < video.num_frames {
            let end = (start + stride).min(video.num_frames);
            clock.advance(step_cost);
            hist.record(self.config, (end - start) as u64);
            if self.apfg.predict(video, start, self.config) {
                for l in &mut labels[start..end] {
                    *l = true;
                }
            }
            start = end;
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_video::{ActionClass, ActionInterval, VideoId};

    fn video() -> Video {
        // Long enough that the truncated final window is negligible in
        // the throughput comparison against Table 2.
        Video {
            id: VideoId(0),
            num_frames: 9600,
            fps: 30.0,
            seed: 6,
            intervals: vec![ActionInterval::new(300, 450, ActionClass::CrossRight)],
        }
    }

    fn engine(config: Configuration) -> ZeusSliding {
        ZeusSliding::new(
            SimulatedApfg::new(vec![ActionClass::CrossRight], 300, 8, 8, 7),
            config,
            CostModel,
        )
    }

    #[test]
    fn throughput_matches_the_calibrated_cost_model() {
        // Table 2's throughput figures are sliding throughputs; the engine
        // must reproduce them (up to the negligible MLP-head overhead).
        for (r, l, s, paper_fps) in [
            (150usize, 4usize, 8usize, 1282.0f64),
            (200, 4, 4, 553.0),
            (250, 6, 2, 285.0),
            (300, 6, 1, 115.0),
        ] {
            let e = engine(Configuration::new(r, l, s));
            let v = video();
            let result = e.execute(&[&v]);
            let rel = (result.throughput() - paper_fps).abs() / paper_fps;
            assert!(
                rel < 0.015,
                "({r},{l},{s}): {} fps vs paper {paper_fps} ({:.2}% off)",
                result.throughput(),
                rel * 100.0
            );
        }
    }

    #[test]
    fn accurate_config_localizes_the_action() {
        let e = engine(Configuration::new(300, 8, 1));
        let v = video();
        let r = e.execute(&[&v]);
        let labels = &r.labels[0].1;
        let hits = labels[300..450].iter().filter(|&&b| b).count();
        assert!(hits > 120, "recalled {hits}/150 action frames");
        let fps_outside: usize = labels[..250].iter().filter(|&&b| b).count();
        assert!(
            fps_outside < 50,
            "false positives before action: {fps_outside}"
        );
    }

    #[test]
    fn histogram_records_every_frame_under_the_static_config() {
        let c = Configuration::new(200, 4, 4);
        let e = engine(c);
        let v = video();
        let r = e.execute(&[&v]);
        assert_eq!(r.histogram.total_frames(), 9600);
        assert_eq!(r.histogram.entries(), vec![(c, 9600)]);
    }
}
