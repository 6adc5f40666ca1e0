//! Videos and video corpora.

use crate::annotation::{binary_labels, ActionClass, ActionInterval};
use crate::scene;

/// Identifier of a video inside a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VideoId(pub u32);

/// A single annotated video.
///
/// A video holds no pixels: the APFG models derive their outputs from its
/// annotations and seed, so a corpus of hundreds of thousands of frames
/// costs only its annotations in memory.
#[derive(Debug, Clone)]
pub struct Video {
    /// Corpus-unique id.
    pub id: VideoId,
    /// Total number of frames.
    pub num_frames: usize,
    /// Capture rate, frames per second (BDD100K is 30 fps, §6.1).
    pub fps: f64,
    /// Per-video seed of the APFG models' noise.
    pub seed: u64,
    /// Ground-truth action intervals.
    pub intervals: Vec<ActionInterval>,
}

impl Video {
    /// Per-frame binary labels for a set of classes (union semantics).
    pub fn labels(&self, classes: &[ActionClass]) -> Vec<bool> {
        binary_labels(&self.intervals, classes, self.num_frames)
    }

    /// Binary label of a single frame for a set of classes.
    pub fn label_at(&self, classes: &[ActionClass], n: usize) -> bool {
        self.intervals
            .iter()
            .any(|iv| classes.contains(&iv.class) && iv.contains(n))
    }

    /// True when any frame in `[start, end)` is positive for `classes`
    /// (the existence test of the local reward function, Eq. 2).
    pub fn any_action_in(&self, classes: &[ActionClass], start: usize, end: usize) -> bool {
        self.intervals
            .iter()
            .any(|iv| classes.contains(&iv.class) && iv.overlap(start, end) > 0)
    }

    /// Number of positive frames in `[start, end)` for `classes`.
    pub fn action_frames_in(&self, classes: &[ActionClass], start: usize, end: usize) -> usize {
        // Intervals of distinct classes may overlap; count via merged label
        // scan only when needed. Fast path: single matching interval sums.
        let end = end.min(self.num_frames);
        if start >= end {
            return 0;
        }
        let mut covered: Vec<(usize, usize)> = self
            .intervals
            .iter()
            .filter(|iv| classes.contains(&iv.class))
            .map(|iv| (iv.start.max(start), iv.end.min(end)))
            .filter(|(s, e)| e > s)
            .collect();
        covered.sort_unstable();
        let mut total = 0usize;
        let mut cursor = start;
        for (s, e) in covered {
            let s = s.max(cursor);
            if e > s {
                total += e - s;
                cursor = e;
            }
        }
        total
    }
}

/// Train/validation/test split assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training partition (APFG fine-tuning + RL training).
    Train,
    /// Held-out validation partition (configuration profiling, §4.2).
    Validation,
    /// Test partition (all reported metrics).
    Test,
}

/// An annotated video corpus with deterministic splits.
#[derive(Debug, Clone)]
pub struct VideoStore {
    videos: Vec<Video>,
}

impl VideoStore {
    /// Wrap a list of videos.
    pub fn new(videos: Vec<Video>) -> Self {
        VideoStore { videos }
    }

    /// All videos.
    pub fn videos(&self) -> &[Video] {
        &self.videos
    }

    /// Number of videos.
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// Look up a video by id.
    pub fn get(&self, id: VideoId) -> Option<&Video> {
        self.videos.iter().find(|v| v.id == id)
    }

    /// Total frames across the corpus.
    pub fn total_frames(&self) -> usize {
        self.videos.iter().map(|v| v.num_frames).sum()
    }

    /// Deterministic 60/20/20 split by id hash — stable across runs and
    /// insensitive to video order. Corpora smaller than 10 videos fall
    /// back to a round-robin assignment so every split is non-empty.
    pub fn split_of(&self, id: VideoId) -> Split {
        let n = self.videos.len();
        if n < 10 {
            // Rank-based fallback: the last video is Test, the one before
            // it Validation, the rest Train — guarantees every split is
            // populated for any corpus of ≥ 3 videos.
            let rank = self
                .videos
                .iter()
                .position(|v| v.id == id)
                .unwrap_or(id.0 as usize);
            return if n >= 3 && rank == n - 1 {
                Split::Test
            } else if n >= 3 && rank == n - 2 {
                Split::Validation
            } else if n < 3 {
                // Degenerate corpora: everything is every split's best
                // effort — rank 0 trains, anything else tests.
                if rank == 0 {
                    Split::Train
                } else {
                    Split::Test
                }
            } else if rank % 5 == 3 {
                Split::Validation
            } else if rank % 5 == 4 {
                Split::Test
            } else {
                Split::Train
            };
        }
        match scene::mix64(id.0 as u64 ^ 0xD1B54A32D192ED03) % 10 {
            0..=5 => Split::Train,
            6..=7 => Split::Validation,
            _ => Split::Test,
        }
    }

    /// Videos belonging to a split.
    pub fn split(&self, split: Split) -> Vec<&Video> {
        self.videos
            .iter()
            .filter(|v| self.split_of(v.id) == split)
            .collect()
    }

    /// Validate that every split is populated — the shared emptiness
    /// check for sessions, planners, and registries (instead of each
    /// layer re-deriving it ad hoc). Returns the first empty split as a
    /// typed error.
    pub fn validate_splits(&self) -> Result<(), crate::source::DataError> {
        for (split, name) in [
            (Split::Train, "train"),
            (Split::Validation, "validation"),
            (Split::Test, "test"),
        ] {
            if self.split(split).is_empty() {
                return Err(crate::source::DataError::EmptySplit(name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_video() -> Video {
        Video {
            id: VideoId(0),
            num_frames: 100,
            fps: 30.0,
            seed: 9,
            intervals: vec![
                ActionInterval::new(10, 20, ActionClass::CrossRight),
                ActionInterval::new(50, 70, ActionClass::LeftTurn),
            ],
        }
    }

    #[test]
    fn labels_respect_classes() {
        let v = test_video();
        let cr = v.labels(&[ActionClass::CrossRight]);
        assert!(cr[10] && cr[19] && !cr[20] && !cr[50]);
        let both = v.labels(&[ActionClass::CrossRight, ActionClass::LeftTurn]);
        assert!(both[10] && both[55]);
    }

    #[test]
    fn any_action_in_window() {
        let v = test_video();
        assert!(v.any_action_in(&[ActionClass::CrossRight], 0, 11));
        assert!(!v.any_action_in(&[ActionClass::CrossRight], 20, 50));
        assert!(v.any_action_in(&[ActionClass::LeftTurn], 69, 100));
    }

    #[test]
    fn action_frames_in_counts() {
        let v = test_video();
        assert_eq!(v.action_frames_in(&[ActionClass::CrossRight], 0, 100), 10);
        assert_eq!(v.action_frames_in(&[ActionClass::CrossRight], 15, 100), 5);
        assert_eq!(
            v.action_frames_in(&[ActionClass::CrossRight, ActionClass::LeftTurn], 0, 100),
            30
        );
        assert_eq!(v.action_frames_in(&[ActionClass::PoleVault], 0, 100), 0);
    }

    #[test]
    fn action_frames_handles_overlapping_intervals() {
        let mut v = test_video();
        // Overlap CrossLeft on top of CrossRight frames 15..25.
        v.intervals
            .push(ActionInterval::new(15, 25, ActionClass::CrossLeft));
        let n = v.action_frames_in(&[ActionClass::CrossRight, ActionClass::CrossLeft], 0, 100);
        assert_eq!(n, 15, "union of [10,20) and [15,25) is 15 frames");
    }

    #[test]
    fn store_splits_are_deterministic_and_cover_all() {
        let videos: Vec<Video> = (0..100)
            .map(|i| Video {
                id: VideoId(i),
                num_frames: 10,
                fps: 30.0,
                seed: i as u64,
                intervals: vec![],
            })
            .collect();
        let store = VideoStore::new(videos);
        let train = store.split(Split::Train).len();
        let val = store.split(Split::Validation).len();
        let test = store.split(Split::Test).len();
        assert_eq!(train + val + test, 100);
        // Roughly 60/20/20 (hash-based, allow slack).
        assert!(train > 40 && train < 80, "train {train}");
        assert!(val > 5 && val < 40, "val {val}");
        assert!(test > 5 && test < 40, "test {test}");
        // Determinism.
        assert_eq!(store.split_of(VideoId(7)), store.split_of(VideoId(7)));
    }

    #[test]
    fn store_lookup() {
        let store = VideoStore::new(vec![test_video()]);
        assert!(store.get(VideoId(0)).is_some());
        assert!(store.get(VideoId(1)).is_none());
        assert_eq!(store.total_frames(), 100);
        assert!(!store.is_empty());
    }
}
