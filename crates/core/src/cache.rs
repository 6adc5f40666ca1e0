//! Precomputed feature cache — the §5 "Pre-Processing" optimization.
//!
//! "To accelerate this training process, Zeus first runs the APFG on all
//! the input segments at different resolutions and segment lengths to
//! generate the feature vectors. ... The agent then directly uses the
//! precomputed features during training" (§5). Zeus fills the cache
//! on-line rather than ahead of time: one cache is shared by every
//! candidate's rollout during planning, across training episodes and
//! across the training engine's worker threads, hence the `RwLock`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use zeus_apfg::{ApfgOutput, Configuration, FeatureGenerator};
use zeus_obs::sync::{read_recover, write_recover};
use zeus_video::{Video, VideoId};

type Key = (VideoId, usize, Configuration);

/// A concurrent memo table over APFG invocations.
#[derive(Debug, Default)]
pub struct FeatureCache {
    map: RwLock<HashMap<Key, ApfgOutput>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FeatureCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached invocations.
    pub fn len(&self) -> usize {
        read_recover(&self.map).len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        read_recover(&self.map).is_empty()
    }

    /// Lookups served from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to invoke the generator since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fetch the cached output or compute (and cache) it.
    pub fn get_or_compute(
        &self,
        generator: &dyn FeatureGenerator,
        video: &Video,
        start: usize,
        config: Configuration,
    ) -> ApfgOutput {
        let key = (video.id, start, config);
        if let Some(hit) = read_recover(&self.map).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let out = generator.process(video, start, config);
        write_recover(&self.map).insert(key, out.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counting {
        calls: AtomicUsize,
    }

    impl FeatureGenerator for Counting {
        fn feature_dim(&self) -> usize {
            1
        }
        fn process(&self, _v: &Video, start: usize, _c: Configuration) -> ApfgOutput {
            self.calls.fetch_add(1, Ordering::SeqCst);
            ApfgOutput {
                feature: vec![start as f32],
                prediction: false,
                confidence: 0.0,
            }
        }
    }

    fn video() -> Video {
        Video {
            id: VideoId(3),
            num_frames: 100,
            fps: 30.0,
            seed: 0,
            intervals: vec![],
        }
    }

    #[test]
    fn caches_repeat_invocations() {
        let gen = Counting {
            calls: AtomicUsize::new(0),
        };
        let cache = FeatureCache::new();
        let v = video();
        let c = Configuration::new(100, 4, 2);
        let a = cache.get_or_compute(&gen, &v, 0, c);
        let b = cache.get_or_compute(&gen, &v, 0, c);
        assert_eq!(a, b);
        assert_eq!(gen.calls.load(Ordering::SeqCst), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinguishes_configs_and_positions() {
        let gen = Counting {
            calls: AtomicUsize::new(0),
        };
        let cache = FeatureCache::new();
        let v = video();
        cache.get_or_compute(&gen, &v, 0, Configuration::new(100, 4, 2));
        cache.get_or_compute(&gen, &v, 8, Configuration::new(100, 4, 2));
        cache.get_or_compute(&gen, &v, 0, Configuration::new(200, 4, 2));
        assert_eq!(gen.calls.load(Ordering::SeqCst), 3);
    }
}
