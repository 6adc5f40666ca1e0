//! Accuracy metrics: the IoU-windowed segment F1 of §2.1.
//!
//! "A binary ground truth label for a segment is generated using
//! intersection-over-union (IoU) over the frame-level ground truth labels.
//! A given segment of length K frames is labeled as a true positive if
//! IoU > 0.5 over labels L(n) to L(n+K)." We evaluate on consecutive
//! non-overlapping windows of K frames: a window's binary label (ground
//! truth or predicted) is positive when more than half its frames are
//! positive.

use zeus_video::{ConfigFamily, DatasetKind};

/// The evaluation protocol: window length K.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalProtocol {
    /// Window length K in frames.
    pub window: usize,
}

impl EvalProtocol {
    /// Protocol with an explicit window.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        EvalProtocol { window }
    }

    /// Default window per configuration family, scaled to the family's
    /// action lengths (driving actions are short — K=16; the untrimmed
    /// sports/activity corpora use the paper's longer segment scale —
    /// K=64).
    pub fn for_family(family: ConfigFamily) -> Self {
        match family {
            ConfigFamily::Driving => EvalProtocol::new(16),
            ConfigFamily::Untrimmed => EvalProtocol::new(64),
        }
    }

    /// Default window for a built-in corpus — sugar over
    /// [`EvalProtocol::for_family`].
    pub fn for_dataset(kind: DatasetKind) -> Self {
        Self::for_family(kind.family())
    }

    /// Binary window labels from frame labels: positive when IoU with the
    /// window exceeds 0.5 (i.e., strictly more than half the frames are
    /// positive). The final partial window uses its own length.
    pub fn window_labels(&self, frames: &[bool]) -> Vec<bool> {
        frames
            .chunks(self.window)
            .map(|w| {
                let positives = w.iter().filter(|&&b| b).count();
                positives * 2 > w.len()
            })
            .collect()
    }
}

/// Confusion counts plus derived precision/recall/F1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalReport {
    /// True-positive windows.
    pub tp: u64,
    /// False-positive windows.
    pub fp: u64,
    /// False-negative windows.
    pub fn_: u64,
    /// True-negative windows.
    pub tn: u64,
}

impl EvalReport {
    /// Accumulate window labels of one video.
    pub fn accumulate(&mut self, gt: &[bool], pred: &[bool]) {
        assert_eq!(gt.len(), pred.len(), "window counts must match");
        for (&g, &p) in gt.iter().zip(pred.iter()) {
            match (g, p) {
                (true, true) => self.tp += 1,
                (false, true) => self.fp += 1,
                (true, false) => self.fn_ += 1,
                (false, false) => self.tn += 1,
            }
        }
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: &EvalReport) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.tn += other.tn;
    }

    /// Precision `tp / (tp + fp)`; 1.0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 1.0 when nothing was there to find.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 score — the paper's "accuracy" metric throughout §6.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Total windows evaluated.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// A lower confidence bound on F1: `f1 − z·σ` with a binomial
    /// approximation `σ ≈ sqrt(f1·(1−f1) / positives)`. Used by the
    /// planner to de-bias validation-based selection (choosing the max
    /// over many configurations inflates the winner's validation score).
    pub fn f1_lower_bound(&self, z: f64) -> f64 {
        let f1 = self.f1();
        let n = (self.tp + self.fn_).max(1) as f64;
        (f1 - z * (f1 * (1.0 - f1) / n).sqrt()).max(0.0)
    }
}

/// Evaluate predicted frame labels against ground truth for one video.
pub fn evaluate_frames(protocol: EvalProtocol, gt: &[bool], pred: &[bool]) -> EvalReport {
    assert_eq!(gt.len(), pred.len(), "frame label lengths must match");
    let mut report = EvalReport::default();
    report.accumulate(&protocol.window_labels(gt), &protocol.window_labels(pred));
    report
}

/// Event-level evaluation: match *output segments* (maximal predicted
/// runs) against ground-truth action instances by temporal IoU.
///
/// This is the §2.1 protocol read at the segment level — "a given segment
/// ... is labeled as a true positive if IoU > 0.5 over labels L(n) to
/// L(n+K)" — and the standard temporal-action-localization criterion
/// (e.g., Thumos14 mAP@tIoU). Greedy matching: each ground-truth instance
/// claims the unmatched predicted segment with the highest IoU; a pair
/// counts as a true positive when IoU ≥ `min_iou`. Unmatched predictions
/// are false positives; unmatched instances are false negatives. `tn` is
/// not meaningful at event level and stays 0.
pub fn evaluate_events(gt: &[bool], pred: &[bool], min_iou: f64) -> EvalReport {
    assert_eq!(gt.len(), pred.len(), "frame label lengths must match");
    assert!((0.0..=1.0).contains(&min_iou), "IoU threshold in [0,1]");
    let gt_runs = zeus_video::annotation::runs_from_labels(gt);
    let pred_runs = zeus_video::annotation::runs_from_labels(pred);

    let mut matched_pred = vec![false; pred_runs.len()];
    let mut tp = 0u64;
    let mut fn_ = 0u64;
    for &(gs, ge) in &gt_runs {
        let mut best: Option<(usize, f64)> = None;
        for (i, &(ps, pe)) in pred_runs.iter().enumerate() {
            if matched_pred[i] {
                continue;
            }
            let iou = zeus_video::annotation::interval_iou(gs, ge, ps, pe);
            if iou >= min_iou && best.is_none_or(|(_, b)| iou > b) {
                best = Some((i, iou));
            }
        }
        match best {
            Some((i, _)) => {
                matched_pred[i] = true;
                tp += 1;
            }
            None => fn_ += 1,
        }
    }
    let fp = matched_pred.iter().filter(|&&m| !m).count() as u64;
    EvalReport { tp, fp, fn_, tn: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_labels_iou_threshold() {
        let p = EvalProtocol::new(4);
        // 2/4 positives = IoU 0.5 exactly → NOT positive (needs > 0.5).
        let frames = [true, true, false, false];
        assert_eq!(p.window_labels(&frames), vec![false]);
        // 3/4 positives → positive.
        let frames = [true, true, true, false];
        assert_eq!(p.window_labels(&frames), vec![true]);
    }

    #[test]
    fn window_labels_partial_tail() {
        let p = EvalProtocol::new(4);
        // 6 frames → one full window + one 2-frame tail.
        let frames = [false, false, false, false, true, true];
        assert_eq!(p.window_labels(&frames), vec![false, true]);
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let p = EvalProtocol::new(4);
        let gt = vec![true, true, true, false, false, false, false, false];
        let r = evaluate_frames(p, &gt, &gt);
        assert_eq!(r.f1(), 1.0);
        assert_eq!(r.tp, 1);
        assert_eq!(r.tn, 1);
    }

    #[test]
    fn hand_computed_f1() {
        let mut r = EvalReport::default();
        r.accumulate(&[true, true, false, false], &[true, false, true, false]);
        // tp=1 fp=1 fn=1 tn=1 → P = 0.5, R = 0.5, F1 = 0.5
        assert_eq!(r.precision(), 0.5);
        assert_eq!(r.recall(), 0.5);
        assert_eq!(r.f1(), 0.5);
        assert_eq!(r.total(), 4);
    }

    #[test]
    fn degenerate_cases() {
        let empty = EvalReport::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.f1(), 1.0);

        let mut all_missed = EvalReport::default();
        all_missed.accumulate(&[true, true], &[false, false]);
        assert_eq!(all_missed.f1(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = EvalReport::default();
        a.accumulate(&[true], &[true]);
        let mut b = EvalReport::default();
        b.accumulate(&[false], &[true]);
        a.merge(&b);
        assert_eq!(a.tp, 1);
        assert_eq!(a.fp, 1);
    }

    #[test]
    fn per_dataset_windows() {
        assert_eq!(EvalProtocol::for_dataset(DatasetKind::Bdd100k).window, 16);
        assert_eq!(EvalProtocol::for_dataset(DatasetKind::Thumos14).window, 64);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_lengths_panic() {
        let _ = evaluate_frames(EvalProtocol::new(4), &[true], &[]);
    }

    fn labels(runs: &[(usize, usize)], len: usize) -> Vec<bool> {
        let mut v = vec![false; len];
        for &(s, e) in runs {
            for l in &mut v[s..e] {
                *l = true;
            }
        }
        v
    }

    #[test]
    fn event_eval_exact_match() {
        let gt = labels(&[(10, 30), (50, 70)], 100);
        let r = evaluate_events(&gt, &gt, 0.5);
        assert_eq!((r.tp, r.fp, r.fn_), (2, 0, 0));
        assert_eq!(r.f1(), 1.0);
    }

    #[test]
    fn event_eval_tolerates_boundary_slop() {
        // Prediction overshoots by 8 frames on each side: IoU = 20/36 > 0.5.
        let gt = labels(&[(20, 40)], 100);
        let pred = labels(&[(12, 48)], 100);
        let r = evaluate_events(&gt, &pred, 0.5);
        assert_eq!((r.tp, r.fp, r.fn_), (1, 0, 0));
    }

    #[test]
    fn event_eval_rejects_poor_overlap() {
        // IoU = 10/50 = 0.2 < 0.5 → both an FN and an FP.
        let gt = labels(&[(20, 40)], 100);
        let pred = labels(&[(30, 70)], 100);
        let r = evaluate_events(&gt, &pred, 0.5);
        assert_eq!((r.tp, r.fp, r.fn_), (0, 1, 1));
        assert_eq!(r.f1(), 0.0);
    }

    #[test]
    fn event_eval_counts_spurious_and_missed() {
        let gt = labels(&[(10, 30)], 100);
        let pred = labels(&[(12, 28), (60, 80)], 100);
        let r = evaluate_events(&gt, &pred, 0.5);
        assert_eq!((r.tp, r.fp, r.fn_), (1, 1, 0));
        // Missed entirely:
        let r = evaluate_events(&gt, &labels(&[], 100), 0.5);
        assert_eq!((r.tp, r.fp, r.fn_), (0, 0, 1));
    }

    #[test]
    fn event_eval_greedy_matches_best_iou() {
        // Two predictions overlap one gt; the better one must match and
        // the other becomes an FP.
        let gt = labels(&[(20, 60)], 100);
        let pred = labels(&[(18, 58), (61, 99)], 100);
        let r = evaluate_events(&gt, &pred, 0.5);
        assert_eq!((r.tp, r.fp, r.fn_), (1, 1, 0));
    }

    #[test]
    fn event_eval_fragmented_detection_fails_iou() {
        // A long action detected as many small fragments: no single
        // fragment reaches IoU 0.5, so the action is missed and the
        // fragments are false positives — the fast-config failure mode.
        let gt = labels(&[(0, 100)], 200);
        let pred = labels(&[(0, 20), (40, 60), (80, 100)], 200);
        let r = evaluate_events(&gt, &pred, 0.5);
        assert_eq!(r.tp, 0);
        assert_eq!(r.fn_, 1);
        assert_eq!(r.fp, 3);
    }
}
