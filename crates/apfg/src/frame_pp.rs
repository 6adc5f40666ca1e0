//! Frame-PP: the frame-level probabilistic-predicate baseline model.
//!
//! Existing VDBMSs (NoScope, PP, BlazeIt — refs [15, 16, 22]) filter with
//! per-frame 2D CNNs. The paper's §6.1 adaptation runs the 2D model on
//! *every* frame and emits per-frame binary labels. Its characteristic
//! failure on action queries (§2, §6.2) is structural, and this model
//! reproduces the structure:
//!
//! * **Temporal blindness** — a single frame cannot carry the across-frame
//!   part of the signal (motion direction, trajectory). True-positive rate
//!   is capped by `1 - 0.5·τ` where τ is the class's temporal dependence.
//! * **Mirror confusion** — frames of a visually similar class (CrossLeft
//!   vs CrossRight) fire the detector: false positives at a rate scaled by
//!   class similarity. When the query *unions* the mirror classes (§6.5),
//!   those frames become true positives and Frame-PP's accuracy jumps —
//!   exactly the paper's observation.
//! * **Boundary ambiguity** — "frames before, during, and after the scene
//!   of the action can be visually indistinguishable" (§2): frames within
//!   a band around each interval boundary draw near-chance predictions.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use zeus_video::scene::mix2;
use zeus_video::{ActionClass, Video};

use crate::traits::{class_similarity, union_traits, QueryTraits};

/// Width of the boundary-ambiguity band, frames on each side.
pub const BOUNDARY_BAND: usize = 8;

/// Temporal correlation length of per-frame errors: consecutive frames of
/// the same scene look alike, so a 2D model that misjudges a frame
/// misjudges the whole stretch. Without this, per-frame noise would be
/// independent and majority-voted evaluation windows would average a weak
/// classifier into a strong one — the opposite of the paper's finding
/// that Frame-PP is "prohibitively low" on action queries (§6.2).
pub const ERROR_BLOCK: usize = 16;

/// The per-frame 2D-CNN proxy model.
#[derive(Debug, Clone)]
pub struct FramePpModel {
    classes: Vec<ActionClass>,
    traits: QueryTraits,
    /// Inference resolution (Frame-PP uses the most accurate = highest
    /// resolution model, §6.2).
    pub resolution: usize,
    seed: u64,
    /// Domain shift for §6.6 (0 in-domain).
    pub domain_shift: f64,
}

impl FramePpModel {
    /// Build a frame model for a query over `classes` at `resolution`.
    pub fn new(classes: Vec<ActionClass>, resolution: usize, seed: u64) -> Self {
        assert!(!classes.is_empty(), "need at least one target class");
        let traits = union_traits(&classes);
        FramePpModel {
            classes,
            traits,
            resolution,
            seed,
            domain_shift: 0.0,
        }
    }

    /// Apply a domain shift (§6.6).
    pub fn with_domain_shift(mut self, shift: f64) -> Self {
        assert!((0.0..=1.0).contains(&shift));
        self.domain_shift = shift;
        self
    }

    /// Per-frame true-positive rate: what fraction of genuine action
    /// frames the 2D model can recognise from pixels alone.
    pub fn tp_rate(&self) -> f64 {
        let base = 0.95 - 0.5 * self.traits.temporal_dependence;
        (base * (1.0 - 1.5 * self.domain_shift)).clamp(0.0, 1.0)
    }

    /// Background false-positive rate (frames with no action, away from
    /// boundaries and confusable classes).
    pub fn bg_fp_rate(&self) -> f64 {
        (0.04 + 0.05 * self.traits.scene_complexity) * (1.0 + 3.0 * self.domain_shift)
    }

    /// False-positive rate on frames of a *similar-looking* class.
    pub fn confusion_fp_rate(&self, similarity: f64) -> f64 {
        (0.75 * similarity).clamp(0.0, 0.95)
    }

    /// Near-boundary false-positive rate (ambiguity band).
    pub fn boundary_fp_rate(&self) -> f64 {
        0.40
    }

    /// Predict one frame. Deterministic in `(seed, video, frame)`;
    /// the random draw is shared across an [`ERROR_BLOCK`]-frame stretch
    /// so errors are temporally correlated like a real 2D model's.
    pub fn predict_frame(&self, video: &Video, n: usize) -> bool {
        assert!(n < video.num_frames, "frame {n} out of range");
        let block = (n / ERROR_BLOCK) as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(mix2(self.seed, mix2(video.seed, block)));
        let p = self.positive_probability(video, n);
        rng.gen::<f64>() < p
    }

    /// The probability this model fires on frame `n`.
    pub fn positive_probability(&self, video: &Video, n: usize) -> f64 {
        if video.label_at(&self.classes, n) {
            return self.tp_rate();
        }
        // Frame of a similar-looking non-target class?
        if let Some(sim) = video
            .intervals
            .iter()
            .filter(|iv| iv.contains(n) && !self.classes.contains(&iv.class))
            .map(|iv| {
                self.classes
                    .iter()
                    .map(|&c| class_similarity(c, iv.class))
                    .fold(0.0f64, f64::max)
            })
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            })
        {
            if sim >= 0.5 {
                return self.confusion_fp_rate(sim);
            }
        }
        // Boundary ambiguity band around target-class intervals.
        let near_boundary = video.intervals.iter().any(|iv| {
            self.classes.contains(&iv.class)
                && ((n + BOUNDARY_BAND >= iv.start && n < iv.start)
                    || (n >= iv.end && n < iv.end + BOUNDARY_BAND))
        });
        if near_boundary {
            return self.boundary_fp_rate();
        }
        self.bg_fp_rate()
    }

    /// Per-frame labels over a whole video.
    pub fn predict_video(&self, video: &Video) -> Vec<bool> {
        (0..video.num_frames)
            .map(|n| self.predict_frame(video, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_video::{ActionInterval, VideoId};

    fn video() -> Video {
        Video {
            id: VideoId(0),
            num_frames: 400,
            fps: 30.0,
            seed: 3,
            intervals: vec![
                ActionInterval::new(100, 200, ActionClass::CrossRight),
                ActionInterval::new(250, 320, ActionClass::CrossLeft),
            ],
        }
    }

    #[test]
    fn deterministic() {
        let m = FramePpModel::new(vec![ActionClass::CrossRight], 300, 5);
        let v = video();
        assert_eq!(m.predict_frame(&v, 150), m.predict_frame(&v, 150));
    }

    #[test]
    fn temporal_dependence_caps_tp_rate() {
        let hard = FramePpModel::new(vec![ActionClass::CrossRight], 300, 5);
        let easier = FramePpModel::new(vec![ActionClass::LeftTurn], 300, 5);
        assert!(hard.tp_rate() < easier.tp_rate());
        // CrossRight: 0.95 - 0.5*0.85 = 0.525 — near chance, the paper's
        // "prohibitively low accuracy" regime.
        assert!((hard.tp_rate() - 0.525).abs() < 1e-9);
    }

    #[test]
    fn mirror_frames_confuse_the_detector() {
        let m = FramePpModel::new(vec![ActionClass::CrossRight], 300, 5);
        let v = video();
        // Frame 280 is CrossLeft: high-probability false positive.
        let p_mirror = m.positive_probability(&v, 280);
        let p_bg = m.positive_probability(&v, 10);
        assert!(p_mirror > 0.5, "mirror confusion {p_mirror}");
        assert!(p_bg < 0.15, "background fp {p_bg}");
    }

    #[test]
    fn union_query_turns_confusion_into_signal() {
        let union = FramePpModel::new(
            vec![ActionClass::CrossRight, ActionClass::CrossLeft],
            300,
            5,
        );
        // With the mirror union, temporal dependence collapses and the
        // tp rate jumps — §6.5's observation.
        assert!(union.tp_rate() > 0.8, "union tp {}", union.tp_rate());
        let v = video();
        assert!(union.positive_probability(&v, 280) > 0.8);
    }

    #[test]
    fn boundary_band_is_ambiguous() {
        let m = FramePpModel::new(vec![ActionClass::CrossRight], 300, 5);
        let v = video();
        // Frame 95 is within 8 frames before the interval start (100).
        assert!((m.positive_probability(&v, 95) - 0.40).abs() < 1e-9);
        // Frame 204 is within 8 frames after the end (200).
        assert!((m.positive_probability(&v, 204) - 0.40).abs() < 1e-9);
    }

    #[test]
    fn domain_shift_degrades() {
        let base = FramePpModel::new(vec![ActionClass::CrossRight], 300, 5);
        let shifted = base.clone().with_domain_shift(0.08);
        assert!(shifted.tp_rate() < base.tp_rate());
        assert!(shifted.bg_fp_rate() > base.bg_fp_rate());
    }

    #[test]
    fn predict_video_length() {
        let m = FramePpModel::new(vec![ActionClass::CrossRight], 300, 5);
        let v = video();
        assert_eq!(m.predict_video(&v).len(), 400);
    }

    #[test]
    fn recall_is_near_tp_rate_on_action_frames() {
        // Blockwise errors mean fewer independent draws; estimate over
        // many videos to keep the variance manageable.
        let m = FramePpModel::new(vec![ActionClass::CrossRight], 300, 5);
        let mut hits = 0usize;
        let mut total = 0usize;
        for seed in 0..12 {
            let v = Video {
                id: VideoId(seed as u32),
                num_frames: 400,
                fps: 30.0,
                seed,
                intervals: vec![ActionInterval::new(50, 350, ActionClass::CrossRight)],
            };
            let preds = m.predict_video(&v);
            hits += (50..350).filter(|&n| preds[n]).count();
            total += 300;
        }
        let rate = hits as f64 / total as f64;
        assert!(
            (rate - m.tp_rate()).abs() < 0.12,
            "empirical {rate} vs model {}",
            m.tp_rate()
        );
    }

    #[test]
    fn errors_are_blockwise_correlated() {
        // Within one error block and one probability regime, predictions
        // are constant.
        let m = FramePpModel::new(vec![ActionClass::CrossRight], 300, 5);
        let v = Video {
            id: VideoId(9),
            num_frames: 512,
            fps: 30.0,
            seed: 9,
            intervals: vec![ActionInterval::new(0, 512, ActionClass::CrossRight)],
        };
        let preds = m.predict_video(&v);
        for block in preds.chunks(ERROR_BLOCK) {
            assert!(
                block.iter().all(|&b| b == block[0]),
                "predictions within a block must agree"
            );
        }
    }
}
