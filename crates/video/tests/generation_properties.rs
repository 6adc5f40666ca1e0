//! Property-based tests on corpus generation.

use proptest::prelude::*;
use zeus_video::stats::DatasetStats;
use zeus_video::video::Split;
use zeus_video::{ActionClass, DatasetKind};

proptest! {
    #[test]
    fn corpora_respect_their_profiles(seed in 0u64..30,
                                      kind in prop::sample::select(DatasetKind::ALL.to_vec())) {
        let ds = kind.generate(0.05, seed);
        let profile = &ds.profile;
        prop_assert_eq!(ds.store.len(), profile.num_videos);
        for v in ds.store.videos() {
            prop_assert_eq!(v.num_frames, profile.frames_per_video);
            for iv in &v.intervals {
                prop_assert!(iv.len() >= profile.min_len,
                    "{kind:?}: interval of {} below min {}", iv.len(), profile.min_len);
                prop_assert!(iv.len() <= profile.max_len);
                // Every interval's class belongs to the profile's mix.
                prop_assert!(profile.class_mix.iter().any(|(c, _)| *c == iv.class));
            }
        }
    }

    #[test]
    fn action_fraction_tracks_target_at_scale(seed in 0u64..10) {
        // At a moderate scale the realised fraction is within 50% relative
        // of the target (statistical bound, not exact).
        let ds = DatasetKind::Thumos14.generate(0.2, seed);
        let stats = DatasetStats::compute(&ds.store, &DatasetKind::Thumos14.query_classes());
        let target = 0.4027;
        prop_assert!((stats.action_fraction - target).abs() / target < 0.5,
            "fraction {} vs target {}", stats.action_fraction, target);
    }

    #[test]
    fn splits_partition_the_corpus(seed in 0u64..20, scale in 0.02f64..0.3) {
        let ds = DatasetKind::Bdd100k.generate(scale, seed);
        let train = ds.store.split(Split::Train).len();
        let val = ds.store.split(Split::Validation).len();
        let test = ds.store.split(Split::Test).len();
        prop_assert_eq!(train + val + test, ds.store.len());
        prop_assert!(train > 0 && val > 0 && test > 0,
            "all splits must be populated ({train}/{val}/{test})");
    }

    #[test]
    fn video_label_queries_agree(seed in 0u64..20) {
        let ds = DatasetKind::Bdd100k.generate(0.03, seed);
        let classes = [ActionClass::CrossRight, ActionClass::LeftTurn];
        for v in ds.store.videos().iter().take(3) {
            let labels = v.labels(&classes);
            // label_at must agree with the vector at every frame.
            for n in (0..v.num_frames).step_by(37) {
                prop_assert_eq!(labels[n], v.label_at(&classes, n));
            }
            // any_action_in over the whole video agrees with any().
            prop_assert_eq!(
                v.any_action_in(&classes, 0, v.num_frames),
                labels.iter().any(|&b| b)
            );
        }
    }
}
