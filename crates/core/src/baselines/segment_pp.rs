//! Segment-PP engine: the lightweight-filter cascade baseline (§6.1).
//!
//! "Segment-PP uses a lightweight 3D-CNN filter on all non-overlapping
//! segments in the video to quickly eliminate segments that do not satisfy
//! the query predicate. The R3D model then processes the filtered segments
//! to generate the final query output."

use zeus_apfg::segment_pp::SegmentPpFilter;
use zeus_apfg::{Configuration, SimulatedApfg};
use zeus_sim::{CostModel, SimClock};
use zeus_video::Video;

use crate::baselines::{ExecutorKind, QueryEngine};
use crate::result::ConfigHistogram;

/// Resolution at which the lightweight filter operates (cheap, coarse).
const FILTER_RESOLUTION: usize = 64;
/// Frames the filter samples per chunk.
const FILTER_SEG_LEN: usize = 8;

/// The Segment-PP query engine.
#[derive(Debug, Clone)]
pub struct SegmentPp {
    filter: SegmentPpFilter,
    apfg: SimulatedApfg,
    /// Full-model configuration for surviving segments (the most accurate
    /// configuration, so the cascade's ceiling matches the APFG's).
    heavy_config: Configuration,
    cost: CostModel,
}

impl SegmentPp {
    /// Build the cascade.
    pub fn new(
        filter: SegmentPpFilter,
        apfg: SimulatedApfg,
        heavy_config: Configuration,
        cost: CostModel,
    ) -> Self {
        SegmentPp {
            filter,
            apfg,
            heavy_config,
            cost,
        }
    }
}

impl QueryEngine for SegmentPp {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::SegmentPp
    }

    fn execute_video(
        &self,
        video: &Video,
        clock: &mut SimClock,
        hist: &mut ConfigHistogram,
    ) -> Vec<bool> {
        let chunk = self.heavy_config.frames_covered();
        let filter_cost = self
            .cost
            .light3d_invocation(FILTER_SEG_LEN, FILTER_RESOLUTION);
        let heavy_cost = self
            .cost
            .r3d_invocation(self.heavy_config.seg_len, self.heavy_config.resolution)
            + self.cost.mlp_head();

        let mut labels = vec![false; video.num_frames];
        let mut start = 0usize;
        while start < video.num_frames {
            let end = (start + chunk).min(video.num_frames);
            clock.advance(filter_cost);
            if self.filter.passes(video, start, chunk) {
                clock.advance(heavy_cost);
                hist.record(self.heavy_config, (end - start) as u64);
                if self.apfg.predict(video, start, self.heavy_config) {
                    for l in &mut labels[start..end] {
                        *l = true;
                    }
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
        Video {
            id: VideoId(0),
            num_frames: 960,
            fps: 30.0,
            seed: 4,
            intervals: vec![ActionInterval::new(200, 420, ActionClass::LeftTurn)],
        }
    }

    fn engine(class: ActionClass) -> SegmentPp {
        let heavy = Configuration::new(300, 8, 1);
        SegmentPp::new(
            SegmentPpFilter::new(vec![class], 9),
            SimulatedApfg::new(vec![class], 300, 8, 8, 9),
            heavy,
            CostModel,
        )
    }

    #[test]
    fn cascade_is_faster_than_running_heavy_everywhere() {
        // On a rare easy class most chunks are filtered, so throughput
        // beats always-running the heavy model.
        let e = engine(ActionClass::LeftTurn);
        let v = video();
        let result = e.execute(&[&v]);
        let cost = CostModel;
        let always_heavy_fps = cost.sliding_throughput(8, 1, 300);
        assert!(
            result.throughput() > always_heavy_fps,
            "cascade {} fps vs heavy-everywhere {always_heavy_fps} fps",
            result.throughput()
        );
    }

    #[test]
    fn labels_have_video_length() {
        let e = engine(ActionClass::LeftTurn);
        let v = video();
        let r = e.execute(&[&v]);
        assert_eq!(r.labels[0].1.len(), v.num_frames);
    }

    #[test]
    fn filter_misses_reduce_recall_on_hard_classes() {
        // On a hard class (PoleVault traits) the filter drops many true
        // chunks, so some action frames stay unlabeled.
        let v = Video {
            id: VideoId(1),
            num_frames: 960,
            fps: 30.0,
            seed: 5,
            intervals: vec![ActionInterval::new(100, 800, ActionClass::PoleVault)],
        };
        let e = engine(ActionClass::PoleVault);
        let r = e.execute(&[&v]);
        let recalled = r.labels[0].1[100..800].iter().filter(|&&b| b).count();
        let frac = recalled as f64 / 700.0;
        assert!(frac < 0.9, "hard-class recall should suffer: {frac}");
    }
}
