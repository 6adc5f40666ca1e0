//! The five query-processing techniques of §6.1.
//!
//! | Engine | Paper description |
//! |---|---|
//! | [`FramePp`] | 2D-CNN on every frame (frame-level probabilistic predicates) |
//! | [`SegmentPp`] | lightweight 3D filter on non-overlapping segments + full R3D on survivors |
//! | [`ZeusSliding`] | full R3D in a sliding window with one static configuration |
//! | [`ZeusHeuristic`] | hard-coded rules over a fast/mid/slow configuration subset |
//! | [`ZeusRl`] | the system: DQN-selected configurations (Figure 5) |

mod frame_pp;
mod heuristic;
mod segment_pp;
mod sliding;
mod zeus_rl;

pub use frame_pp::FramePp;
pub use heuristic::ZeusHeuristic;
pub use segment_pp::SegmentPp;
pub use sliding::ZeusSliding;
pub use zeus_rl::ZeusRl;

use zeus_sim::SimClock;
use zeus_video::Video;

use crate::result::{ConfigHistogram, ExecutionResult};

/// Which technique an engine implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// Frame-level probabilistic predicates.
    FramePp,
    /// Segment-level filter cascade.
    SegmentPp,
    /// Static-configuration sliding window.
    ZeusSliding,
    /// Rule-based adaptive configurations.
    ZeusHeuristic,
    /// RL-based adaptive configurations (the system).
    ZeusRl,
}

impl ExecutorKind {
    /// All techniques in the paper's presentation order.
    pub const ALL: [ExecutorKind; 5] = [
        ExecutorKind::FramePp,
        ExecutorKind::SegmentPp,
        ExecutorKind::ZeusSliding,
        ExecutorKind::ZeusHeuristic,
        ExecutorKind::ZeusRl,
    ];

    /// Display name as the paper prints it.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutorKind::FramePp => "Frame-PP",
            ExecutorKind::SegmentPp => "Segment-PP",
            ExecutorKind::ZeusSliding => "Zeus-Sliding",
            ExecutorKind::ZeusHeuristic => "Zeus-Heuristic",
            ExecutorKind::ZeusRl => "Zeus-RL",
        }
    }
}

impl std::fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A query-processing engine: turns a video into per-frame predictions
/// while charging simulated time.
pub trait QueryEngine {
    /// Which technique this is.
    fn kind(&self) -> ExecutorKind;

    /// Process one video; returns per-frame predicted labels and charges
    /// `clock`/`hist`.
    fn execute_video(
        &self,
        video: &Video,
        clock: &mut SimClock,
        hist: &mut ConfigHistogram,
    ) -> Vec<bool>;

    /// Process a set of videos sequentially on one device.
    fn execute(&self, videos: &[&Video]) -> ExecutionResult {
        let mut clock = SimClock::new();
        let mut hist = ConfigHistogram::new();
        let mut labels = Vec::with_capacity(videos.len());
        for v in videos {
            let l = self.execute_video(v, &mut clock, &mut hist);
            debug_assert_eq!(l.len(), v.num_frames, "must label every frame");
            labels.push((v.id, l));
        }
        ExecutionResult {
            labels,
            clock,
            histogram: hist,
        }
    }
}
