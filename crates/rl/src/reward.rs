//! Reward functions: local (Eq. 2) and accuracy-aware aggregate (Alg. 2).

/// How the trainer assigns rewards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RewardMode {
    /// The local reward of §4.4 (Eq. 2): reward fastness on background,
    /// penalise fastness on action frames. `beta` is the cutoff dividing
    /// the configuration space into fast and slow.
    Local {
        /// Fast/slow cutoff β of Eq. 2.
        beta: f32,
    },
    /// The accuracy-aware aggregate reward of §4.5/§4.6 (Algorithm 2):
    /// rewards are withheld during a window of `window_frames` video
    /// frames, then the window's achieved accuracy vs the target assigns
    /// one shared reward to every decision in the window.
    ///
    /// Algorithm 2 defines the reward only where window accuracy (F1) is
    /// meaningful, i.e. when the window contains positive ground truth.
    /// On *action-free* windows (common on sparse corpora like BDD100K's
    /// 7%), F1 is undefined and a naive fallback creates a pathological
    /// incentive: false positives pull accuracy down toward the target
    /// and thus *raise* the reward. We therefore complete the definition:
    /// action-free windows earn `fastness_bonus · (ᾱ / α_max) −
    /// fp_penalty · fp_window_fraction`, which carries the paper's intent
    /// (speed where nothing happens, §4.4's Figure 7c) without rewarding
    /// noise. The completion is this reproduction's, not the paper's.
    Aggregate {
        /// User-specified target accuracy α.
        target_accuracy: f64,
        /// Aggregation window length in video frames (the paper's W).
        window_frames: usize,
        /// Evaluation-window length K used to compute the window's
        /// accuracy (must match the query's IoU protocol, §2.1, so the
        /// reward optimises the metric the query is judged on).
        eval_window: usize,
        /// λ: reward scale for fastness on action-free windows.
        fastness_bonus: f32,
        /// μ: penalty scale for false-positive windows on action-free
        /// windows.
        fp_penalty: f32,
        /// Scale on Algorithm 2's deficit branch `(α' − α)`. The paper's
        /// unit scale makes a missed action window (−α) barely worse in
        /// expectation than the overshoot decay of a safely-handled one,
        /// so a risk-neutral learner under-protects rare actions; scaling
        /// the deficit restores the intended asymmetry ("this design
        /// prioritizes the reduction of false negatives", §4.4).
        deficit_scale: f32,
        /// Mixing weight for a per-decision Eq. 2 local term added to the
        /// shared window reward. The aggregate reward alone assigns one
        /// scalar to every decision in a window, which makes per-decision
        /// credit assignment extremely slow; a small local term restores
        /// the within-window gradient (fast-on-background,
        /// slow-on-action) while the aggregate term keeps control of the
        /// target accuracy. `0.0` recovers the paper-pure Algorithm 2
        /// (ablated in the bench harness).
        local_mix: f32,
        /// β cutoff for the mixed-in local term (Eq. 2).
        beta: f32,
    },
}

/// Outcome of reducing an aggregation window to the query metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowOutcome {
    /// The window's F1 per the §2.1 protocol, when ground-truth positives
    /// exist; `None` on action-free windows.
    pub accuracy: Option<f64>,
    /// Fraction of evaluation windows that are false positives.
    pub fp_fraction: f64,
}

/// Reduce an aggregation window's frame labels to [`WindowOutcome`].
pub fn window_outcome(gt: &[bool], pred: &[bool], eval_window: usize) -> WindowOutcome {
    assert_eq!(gt.len(), pred.len(), "window label lengths must match");
    assert!(eval_window > 0, "eval window must be positive");
    if gt.is_empty() {
        return WindowOutcome {
            accuracy: None,
            fp_fraction: 0.0,
        };
    }
    let reduce = |frames: &[bool]| -> Vec<bool> {
        frames
            .chunks(eval_window)
            .map(|w| w.iter().filter(|&&b| b).count() * 2 > w.len())
            .collect()
    };
    let g = reduce(gt);
    let p = reduce(pred);
    let fp = g.iter().zip(&p).filter(|(&a, &b)| !a && b).count() as f64;
    let fp_fraction = fp / g.len() as f64;
    if !g.iter().any(|&x| x) {
        return WindowOutcome {
            accuracy: None,
            fp_fraction,
        };
    }
    let tp = g.iter().zip(&p).filter(|(&a, &b)| a && b).count() as f64;
    let fn_ = g.iter().zip(&p).filter(|(&a, &b)| a && !b).count() as f64;
    let f1 = if tp == 0.0 {
        0.0
    } else {
        2.0 * tp / (2.0 * tp + fp + fn_)
    };
    WindowOutcome {
        accuracy: Some(f1),
        fp_fraction,
    }
}

/// The local reward function of Eq. 2.
///
/// `alpha` is the chosen configuration's normalised fastness (α values sum
/// to 1 over the configuration space, §4.4); `beta` the fast/slow cutoff;
/// `has_action` whether any frame of the processed span is an action frame.
///
/// * Action in span → `β - α`: fast configs (large α) are penalised, slow
///   configs rewarded (Figure 7a).
/// * No action → `α`: faster is better, and slow configs are *not*
///   penalised ("this design prioritizes the reduction of false negatives
///   over performance", §4.4; Figures 7b/7c).
pub fn local_reward(alpha: f32, beta: f32, has_action: bool) -> f32 {
    if has_action {
        beta - alpha
    } else {
        alpha
    }
}

/// Window accuracy for Algorithm 2's `Accuracy(GT(W), Pred(W))`.
///
/// Computes the same metric the query is evaluated on (§2.1): frame labels
/// are first reduced to IoU>0.5 windows of `eval_window` frames, then F1
/// is taken over those windows. When the aggregation window contains no
/// positive ground-truth windows, plain window accuracy is used instead
/// (an all-negative stretch predicted all-negative is perfect; any false
/// positive should cost). Both are in `[0, 1]`.
pub fn window_accuracy(gt: &[bool], pred: &[bool], eval_window: usize) -> f64 {
    assert_eq!(gt.len(), pred.len(), "window label lengths must match");
    assert!(eval_window > 0, "eval window must be positive");
    if gt.is_empty() {
        return 1.0;
    }
    let reduce = |frames: &[bool]| -> Vec<bool> {
        frames
            .chunks(eval_window)
            .map(|w| w.iter().filter(|&&b| b).count() * 2 > w.len())
            .collect()
    };
    let g = reduce(gt);
    let p = reduce(pred);
    let has_positives = g.iter().any(|&x| x);
    if has_positives {
        let tp = g.iter().zip(&p).filter(|(&a, &b)| a && b).count() as f64;
        let fp = g.iter().zip(&p).filter(|(&a, &b)| !a && b).count() as f64;
        let fn_ = g.iter().zip(&p).filter(|(&a, &b)| a && !b).count() as f64;
        if tp == 0.0 {
            0.0
        } else {
            2.0 * tp / (2.0 * tp + fp + fn_)
        }
    } else {
        let correct = g.iter().zip(&p).filter(|(&a, &b)| a == b).count() as f64;
        correct / g.len() as f64
    }
}

/// The aggregate reward of Algorithm 2 (lines 7–10): one scalar assigned
/// to *every* decision in the window.
///
/// * Target met (`achieved ≥ target`): `r = (1 - achieved) / (1 - target)`
///   — maximal when the achieved accuracy sits *just above* the target
///   (excess accuracy is wasted throughput, §4.6); approaches 0 as the
///   agent overshoots towards 1.0.
/// * Target missed: `r = achieved - target` — a negative penalty
///   proportional to the deficit.
pub fn aggregate_reward(achieved: f64, target: f64) -> f32 {
    aggregate_reward_scaled(achieved, target, 1.0)
}

/// [`aggregate_reward`] with a scaled deficit branch (see
/// [`RewardMode::Aggregate::deficit_scale`]).
pub fn aggregate_reward_scaled(achieved: f64, target: f64, deficit_scale: f32) -> f32 {
    assert!((0.0..=1.0).contains(&achieved), "accuracy in [0,1]");
    assert!((0.0..1.0).contains(&target), "target in [0,1)");
    if achieved >= target {
        ((1.0 - achieved) / (1.0 - target)) as f32
    } else {
        (achieved - target) as f32 * deficit_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_reward_eq2_cases() {
        // Figure 7a: fast config over action frames → penalty.
        let fast_alpha = 0.5;
        let beta = 0.25;
        assert!(local_reward(fast_alpha, beta, true) < 0.0);
        // Slow config over action frames → positive reward.
        let slow_alpha = 0.05;
        assert!(local_reward(slow_alpha, beta, true) > 0.0);
        // Figure 7b/7c: no action → reward equals fastness, never negative.
        assert_eq!(local_reward(fast_alpha, beta, false), fast_alpha);
        assert_eq!(local_reward(slow_alpha, beta, false), slow_alpha);
    }

    #[test]
    fn local_reward_never_penalises_slow_on_background() {
        // §4.4: "the agent does not penalize slow configurations when
        // there is no action in this window".
        for alpha in [0.01f32, 0.1, 0.3] {
            assert!(local_reward(alpha, 0.2, false) >= 0.0);
        }
    }

    #[test]
    fn aggregate_reward_peaks_just_above_target() {
        let target = 0.80;
        let just_above = aggregate_reward(0.81, target);
        let overshoot = aggregate_reward(0.95, target);
        let exact = aggregate_reward(0.80, target);
        assert!(just_above > overshoot, "overshoot must earn less");
        assert!(exact >= just_above, "exactly-on-target is maximal");
        assert!((exact - 1.0).abs() < 1e-6);
    }

    #[test]
    fn aggregate_reward_penalises_deficit_proportionally() {
        let target = 0.80;
        let small_miss = aggregate_reward(0.78, target);
        let big_miss = aggregate_reward(0.60, target);
        assert!(small_miss < 0.0 && big_miss < 0.0);
        assert!(big_miss < small_miss, "larger deficit, larger penalty");
        assert!((small_miss - (-0.02f32)).abs() < 1e-6);
    }

    #[test]
    fn window_accuracy_f1_when_positives_exist() {
        // eval_window = 1 degenerates to frame-level F1.
        let gt = [true, true, false, false];
        let pred = [true, false, true, false];
        // tp=1 fp=1 fn=1 → F1 = 2/(2+1+1) = 0.5
        assert!((window_accuracy(&gt, &pred, 1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn window_accuracy_reduces_with_iou_windows() {
        // 2-frame eval windows: gt windows = [T, F]; a single false-
        // positive frame in the second window does not flip it (needs
        // > 50%).
        let gt = [true, true, false, false];
        let pred = [true, true, true, false];
        assert_eq!(window_accuracy(&gt, &pred, 2), 1.0);
        // Both frames of window 2 predicted positive → FP window.
        let pred = [true, true, true, true];
        // tp=1 fp=1 fn=0 → F1 = 2/(2+1) = 2/3.
        assert!((window_accuracy(&gt, &pred, 2) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn window_accuracy_plain_accuracy_when_all_negative() {
        let gt = [false, false, false, false];
        assert_eq!(window_accuracy(&gt, &[false; 4], 1), 1.0);
        assert_eq!(window_accuracy(&gt, &[true, false, false, false], 1), 0.75);
    }

    #[test]
    fn window_accuracy_empty_window() {
        assert_eq!(window_accuracy(&[], &[], 4), 1.0);
    }

    #[test]
    fn window_accuracy_zero_when_all_positives_missed() {
        let gt = [true, true];
        assert_eq!(window_accuracy(&gt, &[false, false], 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn window_accuracy_length_mismatch_panics() {
        let _ = window_accuracy(&[true], &[], 1);
    }
}
