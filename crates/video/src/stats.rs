//! Corpus statistics — regenerates the paper's Table 3.

use crate::annotation::ActionClass;
use crate::video::VideoStore;

/// Dataset characteristics in the shape of the paper's Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of action classes counted.
    pub num_classes: usize,
    /// Total frames in the corpus.
    pub total_frames: usize,
    /// Fraction of frames inside an action of a counted class.
    pub action_fraction: f64,
    /// Mean action-instance length (frames).
    pub mean_len: f64,
    /// Standard deviation of action-instance length.
    pub std_len: f64,
    /// Shortest action instance.
    pub min_len: usize,
    /// Longest action instance.
    pub max_len: usize,
    /// Number of action instances.
    pub num_instances: usize,
}

impl DatasetStats {
    /// Compute statistics over the given classes (the paper counts the two
    /// query classes of each dataset).
    pub fn compute(store: &VideoStore, classes: &[ActionClass]) -> Self {
        let total_frames = store.total_frames();
        let mut lengths: Vec<usize> = Vec::new();
        let mut action_frames = 0usize;
        for v in store.videos() {
            for iv in &v.intervals {
                if classes.contains(&iv.class) {
                    lengths.push(iv.len());
                    action_frames += iv.len();
                }
            }
        }
        let n = lengths.len();
        let mean = if n == 0 {
            0.0
        } else {
            lengths.iter().sum::<usize>() as f64 / n as f64
        };
        let std = if n < 2 {
            0.0
        } else {
            let var = lengths
                .iter()
                .map(|&l| (l as f64 - mean).powi(2))
                .sum::<f64>()
                / (n as f64 - 1.0);
            var.sqrt()
        };
        DatasetStats {
            num_classes: classes.len(),
            total_frames,
            action_fraction: if total_frames == 0 {
                0.0
            } else {
                action_frames as f64 / total_frames as f64
            },
            mean_len: mean,
            std_len: std,
            min_len: lengths.iter().copied().min().unwrap_or(0),
            max_len: lengths.iter().copied().max().unwrap_or(0),
            num_instances: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::ActionInterval;
    use crate::video::{Video, VideoId};

    fn store() -> VideoStore {
        VideoStore::new(vec![
            Video {
                id: VideoId(0),
                num_frames: 100,
                fps: 30.0,
                seed: 0,
                intervals: vec![
                    ActionInterval::new(0, 10, ActionClass::CrossRight),
                    ActionInterval::new(20, 50, ActionClass::LeftTurn),
                    ActionInterval::new(60, 70, ActionClass::CrossLeft),
                ],
            },
            Video {
                id: VideoId(1),
                num_frames: 100,
                fps: 30.0,
                seed: 1,
                intervals: vec![ActionInterval::new(5, 25, ActionClass::CrossRight)],
            },
        ])
    }

    #[test]
    fn counts_only_requested_classes() {
        let s = DatasetStats::compute(&store(), &[ActionClass::CrossRight, ActionClass::LeftTurn]);
        assert_eq!(s.total_frames, 200);
        assert_eq!(s.num_instances, 3); // 10, 30, 20 frames
        assert_eq!(s.min_len, 10);
        assert_eq!(s.max_len, 30);
        assert!((s.mean_len - 20.0).abs() < 1e-9);
        assert!((s.action_fraction - 60.0 / 200.0).abs() < 1e-9);
    }

    #[test]
    fn std_is_sample_std() {
        let s = DatasetStats::compute(&store(), &[ActionClass::CrossRight, ActionClass::LeftTurn]);
        // lengths 10, 30, 20 -> sample std = 10
        assert!((s.std_len - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_class_set() {
        let s = DatasetStats::compute(&store(), &[]);
        assert_eq!(s.num_instances, 0);
        assert_eq!(s.action_fraction, 0.0);
        assert_eq!(s.mean_len, 0.0);
    }
}
