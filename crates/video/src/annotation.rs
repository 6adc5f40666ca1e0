//! Action classes, intervals, and the per-frame oracle label function.
//!
//! The paper defines the oracle label function `L(n)` and its binary
//! projection `f_X(n)` (Eq. 1, §2.1). Here an annotation is a set of
//! half-open frame intervals tagged with an [`ActionClass`]; the binary
//! label function for a class (or a union of classes, for the multi-class
//! study of §6.5) is derived from them.

/// The action classes used across the paper's six queries plus CrossLeft
/// (used by the multi-class and cross-model studies, §6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionClass {
    /// Pedestrian crosses the street left → right (BDD100K, Figure 6).
    CrossRight,
    /// Pedestrian crosses the street right → left (BDD100K, §6.5).
    CrossLeft,
    /// Driver-POV left turn (BDD100K).
    LeftTurn,
    /// Pole vault (Thumos14).
    PoleVault,
    /// Clean-and-jerk lift (Thumos14).
    CleanAndJerk,
    /// Ironing clothes (ActivityNet).
    IroningClothes,
    /// Tennis serve (ActivityNet).
    TennisServe,
}

impl ActionClass {
    /// All classes, in a stable order.
    pub const ALL: [ActionClass; 7] = [
        ActionClass::CrossRight,
        ActionClass::CrossLeft,
        ActionClass::LeftTurn,
        ActionClass::PoleVault,
        ActionClass::CleanAndJerk,
        ActionClass::IroningClothes,
        ActionClass::TennisServe,
    ];

    /// Query-style name used by the SQL-ish parser (lower-kebab-case).
    pub fn query_name(&self) -> &'static str {
        match self {
            ActionClass::CrossRight => "cross-right",
            ActionClass::CrossLeft => "cross-left",
            ActionClass::LeftTurn => "left-turn",
            ActionClass::PoleVault => "pole-vault",
            ActionClass::CleanAndJerk => "clean-and-jerk",
            ActionClass::IroningClothes => "ironing-clothes",
            ActionClass::TennisServe => "tennis-serve",
        }
    }

    /// Parse a query-style name.
    pub fn from_query_name(s: &str) -> Option<ActionClass> {
        Self::ALL
            .into_iter()
            .find(|c| c.query_name().eq_ignore_ascii_case(s))
    }

    /// Display name as the paper prints it.
    pub fn display_name(&self) -> &'static str {
        match self {
            ActionClass::CrossRight => "CrossRight",
            ActionClass::CrossLeft => "CrossLeft",
            ActionClass::LeftTurn => "LeftTurn",
            ActionClass::PoleVault => "PoleVault",
            ActionClass::CleanAndJerk => "CleanAndJerk",
            ActionClass::IroningClothes => "IroningClothes",
            ActionClass::TennisServe => "TennisServe",
        }
    }
}

impl std::fmt::Display for ActionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

/// A labeled action occurrence: frames `[start, end)` of one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionInterval {
    /// First frame of the action (inclusive).
    pub start: usize,
    /// One past the last frame of the action (exclusive).
    pub end: usize,
    /// The action class.
    pub class: ActionClass,
}

impl ActionInterval {
    /// Construct an interval; panics if `end <= start`.
    pub fn new(start: usize, end: usize, class: ActionClass) -> Self {
        assert!(end > start, "interval must be non-empty: [{start}, {end})");
        ActionInterval { start, end, class }
    }

    /// Number of frames covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Intervals are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when frame `n` lies inside the interval.
    pub fn contains(&self, n: usize) -> bool {
        n >= self.start && n < self.end
    }

    /// Number of frames shared with `[start, end)`.
    pub fn overlap(&self, start: usize, end: usize) -> usize {
        let s = self.start.max(start);
        let e = self.end.min(end);
        e.saturating_sub(s)
    }
}

/// Intersection-over-union of two frame ranges `[a0, a1)` and `[b0, b1)`.
///
/// Returns 0.0 when either range is empty or they are disjoint. This is the
/// IoU the paper uses to derive binary segment ground truth (§2.1).
pub fn interval_iou(a0: usize, a1: usize, b0: usize, b1: usize) -> f64 {
    if a1 <= a0 || b1 <= b0 {
        return 0.0;
    }
    let inter = (a1.min(b1)).saturating_sub(a0.max(b0));
    if inter == 0 {
        return 0.0;
    }
    let union = (a1.max(b1)) - (a0.min(b0));
    inter as f64 / union as f64
}

/// Build the per-frame binary label vector for a set of classes over a
/// video of `num_frames` frames. A frame is positive when any interval of
/// any requested class covers it — the union semantics the multi-class
/// study (§6.5) uses ("frames belonging to either of the action classes are
/// considered true positives").
pub fn binary_labels(
    intervals: &[ActionInterval],
    classes: &[ActionClass],
    num_frames: usize,
) -> Vec<bool> {
    binary_labels_in(intervals, classes, 0, num_frames)
}

/// The labels of frames `[start, end)` alone: `binary_labels(..)[start..end]`
/// for any `num_frames >= end`, built in one pass over the intervals
/// without labelling the rest of the video. A range with `end <= start` is
/// empty.
pub fn binary_labels_in(
    intervals: &[ActionInterval],
    classes: &[ActionClass],
    start: usize,
    end: usize,
) -> Vec<bool> {
    let end = end.max(start);
    let mut labels = vec![false; end - start];
    for iv in intervals {
        if classes.contains(&iv.class) {
            let (s, e) = (iv.start.clamp(start, end), iv.end.clamp(start, end));
            if s < e {
                labels[s - start..e - start].fill(true);
            }
        }
    }
    labels
}

/// Extract maximal contiguous positive runs from a binary label vector —
/// the inverse of [`binary_labels`], used to turn per-frame predictions
/// back into output segments.
///
/// Each run costs two boundary searches: the next `true` from the
/// cursor, then the next `false` from there. A search skips each whole
/// 32-frame chunk that cannot hold the boundary, judged by one fold over
/// the chunk as a `&[bool; 32]` — `|` when looking for a `true`, `&` when
/// looking for a `false`. A fold over a fixed-length array has no early
/// exit and no bounds check, so the compiler turns it into a few vector
/// instructions. Only the chunk that holds the boundary, and the tail of
/// fewer than 32 frames, is searched frame by frame. The safe fold already
/// vectorises, so reading the labels as machine words, which needs
/// `unsafe` or a byte view of `bool`, would gain nothing.
pub fn runs_from_labels(labels: &[bool]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut cursor = 0;
    while let Some(start) = next_label(labels, cursor, true) {
        let end = next_label(labels, start, false).unwrap_or(labels.len());
        runs.push((start, end));
        cursor = end;
    }
    runs
}

/// Frames per chunk of [`runs_from_labels`]'s boundary search: 16 was
/// slower, 64 no faster.
const RUN_CHUNK: usize = 32;

/// The first frame at or after `from` whose label is `value`.
fn next_label(labels: &[bool], from: usize, value: bool) -> Option<usize> {
    let mut chunks = labels[from..].chunks_exact(RUN_CHUNK);
    let mut offset = from;
    for chunk in chunks.by_ref() {
        let chunk: &[bool; RUN_CHUNK] = chunk.try_into().expect("exact chunks");
        let holds_value = if value {
            chunk.iter().fold(false, |any, &l| any | l)
        } else {
            !chunk.iter().fold(true, |all, &l| all & l)
        };
        if holds_value {
            return chunk.iter().position(|&l| l == value).map(|i| offset + i);
        }
        offset += RUN_CHUNK;
    }
    let tail = chunks.remainder().iter().position(|&l| l == value);
    tail.map(|i| offset + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_roundtrip() {
        for c in ActionClass::ALL {
            assert_eq!(ActionClass::from_query_name(c.query_name()), Some(c));
        }
        assert_eq!(
            ActionClass::from_query_name("LEFT-TURN"),
            Some(ActionClass::LeftTurn)
        );
        assert_eq!(ActionClass::from_query_name("jumping"), None);
    }

    #[test]
    fn interval_basics() {
        let iv = ActionInterval::new(10, 20, ActionClass::CrossRight);
        assert_eq!(iv.len(), 10);
        assert!(iv.contains(10));
        assert!(iv.contains(19));
        assert!(!iv.contains(20));
        assert_eq!(iv.overlap(15, 30), 5);
        assert_eq!(iv.overlap(0, 10), 0);
    }

    #[test]
    #[should_panic(expected = "interval must be non-empty")]
    fn empty_interval_panics() {
        let _ = ActionInterval::new(5, 5, ActionClass::LeftTurn);
    }

    #[test]
    fn iou_hand_values() {
        assert_eq!(interval_iou(0, 10, 0, 10), 1.0);
        assert_eq!(interval_iou(0, 10, 5, 15), 5.0 / 15.0);
        assert_eq!(interval_iou(0, 5, 5, 10), 0.0);
        assert_eq!(interval_iou(0, 0, 0, 10), 0.0);
    }

    #[test]
    fn iou_symmetry() {
        let a = interval_iou(3, 9, 5, 20);
        let b = interval_iou(5, 20, 3, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn binary_labels_union_semantics() {
        let ivs = vec![
            ActionInterval::new(2, 4, ActionClass::CrossRight),
            ActionInterval::new(6, 8, ActionClass::CrossLeft),
            ActionInterval::new(3, 5, ActionClass::LeftTurn),
        ];
        // Only CrossRight + CrossLeft requested.
        let labels = binary_labels(&ivs, &[ActionClass::CrossRight, ActionClass::CrossLeft], 10);
        let want = [
            false, false, true, true, false, false, true, true, false, false,
        ];
        assert_eq!(labels, want);
    }

    #[test]
    fn binary_labels_clamps_to_video_end() {
        let ivs = vec![ActionInterval::new(8, 20, ActionClass::CrossRight)];
        let labels = binary_labels(&ivs, &[ActionClass::CrossRight], 10);
        assert!(!labels[7]);
        assert!(labels[8]);
        assert!(labels[9]);
        assert_eq!(labels.len(), 10);
    }

    #[test]
    fn range_labels_match_a_per_frame_test() {
        let ivs = vec![
            ActionInterval::new(2, 4, ActionClass::CrossRight),
            ActionInterval::new(6, 12, ActionClass::CrossLeft),
            ActionInterval::new(3, 9, ActionClass::LeftTurn),
            ActionInterval::new(7, 8, ActionClass::CrossRight),
        ];
        let classes = [ActionClass::CrossRight, ActionClass::CrossLeft];
        let label = |n: usize| {
            ivs.iter()
                .any(|iv| classes.contains(&iv.class) && iv.contains(n))
        };
        for start in 0..=13 {
            for end in start..=13 {
                let want: Vec<bool> = (start..end).map(label).collect();
                assert_eq!(
                    binary_labels_in(&ivs, &classes, start, end),
                    want,
                    "[{start}, {end})"
                );
            }
        }
        assert!(binary_labels_in(&ivs, &classes, 5, 3).is_empty());
    }

    #[test]
    fn runs_roundtrip() {
        let labels = vec![false, true, true, false, true, false, false, true];
        assert_eq!(runs_from_labels(&labels), vec![(1, 3), (4, 5), (7, 8)]);
        assert_eq!(runs_from_labels(&[]), vec![]);
        assert_eq!(runs_from_labels(&[true, true]), vec![(0, 2)]);
    }
}
