//! Per-query difficulty traits driving the behavioural APFG model.
//!
//! Three scalar traits characterise how hard a query is for each model
//! family, distilled from the paper's qualitative discussion (§1, §6.2,
//! §6.5) and its measured ceilings (Table 4):
//!
//! * `max_accuracy` — the best F1 any configuration reaches (Table 4
//!   reports this per query; e.g. CrossRight 0.91, CleanAndJerk 0.76).
//! * `temporal_dependence` — the fraction of the class signal that exists
//!   only across frames (motion direction, trajectory). High values cap
//!   Frame-PP: "frames before, during, and after the scene of the action
//!   can be visually indistinguishable" (§2). The CrossRight/CrossLeft
//!   union *lowers* it, because direction stops mattering — which is why
//!   Frame-PP does well on that union (§6.5).
//! * `scene_complexity` — how much inter-object interaction the class
//!   involves. High values cap Segment-PP's lightweight filter: "the
//!   lightweight filters in Segment-PP are highly inaccurate (F1 as low
//!   as 0.2)" on hard classes, while "easier LeftTurn" does fine (§6.2).

use zeus_video::ActionClass;

/// Difficulty profile of a query (one class or a union of classes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryTraits {
    /// Ceiling F1 achievable by the best configuration (Table 4).
    pub max_accuracy: f64,
    /// Fraction of signal only visible across frames, in `[0, 1]`.
    pub temporal_dependence: f64,
    /// Scene/interaction complexity, in `[0, 1]`.
    pub scene_complexity: f64,
}

/// Per-class traits. `max_accuracy` values are Table 4's "Maximum
/// Accuracy" column (CrossLeft is not in Table 4; §6.5 treats it as
/// CrossRight's mirror, so it inherits CrossRight-like traits).
pub fn class_traits(class: ActionClass) -> QueryTraits {
    match class {
        ActionClass::CrossRight => QueryTraits {
            max_accuracy: 0.91,
            temporal_dependence: 0.85,
            scene_complexity: 0.75,
        },
        ActionClass::CrossLeft => QueryTraits {
            max_accuracy: 0.90,
            temporal_dependence: 0.85,
            scene_complexity: 0.75,
        },
        ActionClass::LeftTurn => QueryTraits {
            max_accuracy: 0.89,
            temporal_dependence: 0.55,
            scene_complexity: 0.35,
        },
        ActionClass::PoleVault => QueryTraits {
            max_accuracy: 0.78,
            temporal_dependence: 0.75,
            scene_complexity: 0.85,
        },
        ActionClass::CleanAndJerk => QueryTraits {
            max_accuracy: 0.76,
            temporal_dependence: 0.70,
            scene_complexity: 0.85,
        },
        ActionClass::IroningClothes => QueryTraits {
            max_accuracy: 0.85,
            temporal_dependence: 0.60,
            scene_complexity: 0.80,
        },
        ActionClass::TennisServe => QueryTraits {
            max_accuracy: 0.80,
            temporal_dependence: 0.75,
            scene_complexity: 0.80,
        },
    }
}

/// Visual similarity between two classes in `[0, 1]`, used by the
/// multi-class (§6.5) and cross-model studies. Mirror crossings are nearly
/// identical per-frame; a crossing and a turn share some street context;
/// classes from different domains share almost nothing.
pub fn class_similarity(a: ActionClass, b: ActionClass) -> f64 {
    use ActionClass::*;
    if a == b {
        return 1.0;
    }
    let pair = |x: ActionClass, y: ActionClass| (a == x && b == y) || (a == y && b == x);
    if pair(CrossRight, CrossLeft) {
        0.9
    } else if pair(CrossRight, LeftTurn) || pair(CrossLeft, LeftTurn) {
        0.55
    } else if pair(PoleVault, CleanAndJerk) {
        0.5
    } else if pair(IroningClothes, TennisServe) {
        0.45
    } else {
        0.25
    }
}

/// Traits of a query over a *union* of classes (§6.5 multi-class training:
/// "frames belonging to either of the action classes are considered true
/// positives").
///
/// * Mirror-like unions (similarity ≥ 0.8) get *easier* per frame — the
///   discriminative requirement (direction) disappears, so temporal
///   dependence collapses and accuracy rises slightly. This reproduces
///   Frame-PP's high accuracy on CrossRight+CrossLeft (§6.5).
/// * Dissimilar unions confuse the APFG: accuracy drops below the mean of
///   the members (§6.5: "reduces the accuracy of the APFG and thus
///   Zeus-RL").
pub fn union_traits(classes: &[ActionClass]) -> QueryTraits {
    assert!(!classes.is_empty(), "need at least one class");
    if classes.len() == 1 {
        return class_traits(classes[0]);
    }
    let n = classes.len() as f64;
    let mean =
        |f: fn(QueryTraits) -> f64| classes.iter().map(|&c| f(class_traits(c))).sum::<f64>() / n;
    let mean_acc = mean(|t| t.max_accuracy);
    let mean_td = mean(|t| t.temporal_dependence);
    let mean_sc = mean(|t| t.scene_complexity);

    // Minimum pairwise similarity captures the hardest confusion.
    let mut min_sim = 1.0f64;
    for (i, &a) in classes.iter().enumerate() {
        for &b in &classes[i + 1..] {
            min_sim = min_sim.min(class_similarity(a, b));
        }
    }

    if min_sim >= 0.8 {
        // Mirror union: direction stops mattering.
        QueryTraits {
            max_accuracy: (mean_acc + 0.02).min(0.95),
            temporal_dependence: mean_td * 0.3,
            scene_complexity: mean_sc,
        }
    } else {
        // Dissimilar union: APFG confusion lowers the ceiling.
        QueryTraits {
            max_accuracy: mean_acc - 0.06 * (1.0 - min_sim),
            temporal_dependence: mean_td,
            scene_complexity: mean_sc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ActionClass::*;

    #[test]
    fn table4_max_accuracies() {
        assert_eq!(class_traits(CrossRight).max_accuracy, 0.91);
        assert_eq!(class_traits(LeftTurn).max_accuracy, 0.89);
        assert_eq!(class_traits(PoleVault).max_accuracy, 0.78);
        assert_eq!(class_traits(CleanAndJerk).max_accuracy, 0.76);
        assert_eq!(class_traits(IroningClothes).max_accuracy, 0.85);
        assert_eq!(class_traits(TennisServe).max_accuracy, 0.80);
    }

    #[test]
    fn similarity_is_symmetric_and_reflexive() {
        for a in ActionClass::ALL {
            assert_eq!(class_similarity(a, a), 1.0);
            for b in ActionClass::ALL {
                assert_eq!(class_similarity(a, b), class_similarity(b, a));
            }
        }
    }

    #[test]
    fn mirror_union_collapses_temporal_dependence() {
        let single = class_traits(CrossRight);
        let union = union_traits(&[CrossRight, CrossLeft]);
        assert!(
            union.temporal_dependence < single.temporal_dependence * 0.5,
            "mirror union should need little temporal context"
        );
        assert!(union.max_accuracy >= single.max_accuracy - 0.01);
    }

    #[test]
    fn dissimilar_union_lowers_ceiling() {
        let cr = class_traits(CrossRight).max_accuracy;
        let lt = class_traits(LeftTurn).max_accuracy;
        let union = union_traits(&[CrossRight, LeftTurn]);
        assert!(
            union.max_accuracy < (cr + lt) / 2.0,
            "dissimilar union must be below the mean of its members"
        );
        // And it should still be below the mirror union (§6.5: the
        // CrossRight+CrossLeft combination performs better).
        let mirror = union_traits(&[CrossRight, CrossLeft]);
        assert!(union.max_accuracy < mirror.max_accuracy);
    }

    #[test]
    fn singleton_union_is_class_traits() {
        assert_eq!(union_traits(&[PoleVault]), class_traits(PoleVault));
    }

    #[test]
    #[should_panic(expected = "need at least one class")]
    fn empty_union_panics() {
        let _ = union_traits(&[]);
    }
}
