//! The video-traversal environment: the MDP of §4.1 over a training corpus.
//!
//! Algorithm 1's episode structure: videos are concatenated into one
//! episode and permuted randomly each episode ("Zeus permutes the videos in
//! a random order for each episode to prevent overfitting", §5). The state
//! is the ProxyFeature of the *current* segment; the chosen configuration
//! constructs and processes the *next* segment, whose feature becomes the
//! next state (Algorithm 1, lines 6–8).
//!
//! The corpus is held behind an `Arc`, so the training plane can
//! [`VideoTraversalEnv::fork`] one seeded copy per portfolio candidate
//! without cloning a single video. An optional shared [`FeatureCache`]
//! memoises APFG invocations across those copies — the §5 pre-processing
//! optimization applied on-line: rollouts that revisit a
//! `(video, start, config)` never recompute its ProxyFeature.

use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use zeus_apfg::{ApfgOutput, Configuration, FeatureGenerator, FEATURE_DIM};
use zeus_rl::{Environment, Transition};
use zeus_video::annotation::binary_labels_in;
use zeus_video::{ActionClass, Video};

use crate::cache::FeatureCache;
use crate::config::ConfigSpace;

/// Typed construction failures of the traversal environment — everything
/// that used to be an `assert!` on environment input reachable from user
/// configuration (an empty corpus, a malformed fastness table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The training split holds no videos.
    NoVideos,
    /// The fastness table does not line up with the configuration space.
    AlphaMismatch {
        /// Number of configurations in the space.
        configs: usize,
        /// Number of fastness values supplied.
        alphas: usize,
    },
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvError::NoVideos => write!(f, "environment needs training videos"),
            EnvError::AlphaMismatch { configs, alphas } => write!(
                f,
                "one fastness value per configuration required: {configs} configs vs {alphas} alphas"
            ),
        }
    }
}

impl std::error::Error for EnvError {}

/// The Zeus training environment.
pub struct VideoTraversalEnv {
    videos: Arc<[Video]>,
    order: Vec<usize>,
    apfg: Arc<dyn FeatureGenerator + Send + Sync>,
    cache: Option<Arc<FeatureCache>>,
    classes: Vec<ActionClass>,
    space: ConfigSpace,
    alphas: Vec<f32>,
    init_config: Configuration,
    rng: ChaCha8Rng,
    vid_cursor: usize,
    frame_cursor: usize,
    state: [f32; FEATURE_DIM],
}

impl std::fmt::Debug for VideoTraversalEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VideoTraversalEnv")
            .field("videos", &self.videos.len())
            .field("actions", &self.space.len())
            .field("cached", &self.cache.is_some())
            .field("vid_cursor", &self.vid_cursor)
            .field("frame_cursor", &self.frame_cursor)
            .finish()
    }
}

impl VideoTraversalEnv {
    /// Build an environment over training videos.
    ///
    /// `alphas` must be the normalised fastness values of `space`
    /// (see [`ConfigSpace::alphas`]); `init_config` is the most accurate
    /// configuration, used for each video's initial segment (§3).
    pub fn new(
        videos: Vec<Video>,
        classes: Vec<ActionClass>,
        apfg: Arc<dyn FeatureGenerator + Send + Sync>,
        space: ConfigSpace,
        alphas: Vec<f32>,
        init_config: Configuration,
        seed: u64,
    ) -> Result<Self, EnvError> {
        if videos.is_empty() {
            return Err(EnvError::NoVideos);
        }
        if space.len() != alphas.len() {
            return Err(EnvError::AlphaMismatch {
                configs: space.len(),
                alphas: alphas.len(),
            });
        }
        let order: Vec<usize> = (0..videos.len()).collect();
        Ok(VideoTraversalEnv {
            videos: videos.into(),
            order,
            apfg,
            cache: None,
            classes,
            space,
            alphas,
            init_config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            vid_cursor: 0,
            frame_cursor: 0,
            state: [0.0; FEATURE_DIM],
        })
    }

    /// Route APFG invocations through a shared, thread-safe feature
    /// cache. Caching is semantically invisible — the APFG is a pure
    /// function of `(video, start, config)` — but rollouts stop
    /// recomputing ProxyFeatures they have already seen.
    pub fn with_cache(mut self, cache: Arc<FeatureCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// A cheap seeded copy for a candidate's rollout: the corpus, APFG,
    /// and cache are shared by `Arc`, only the traversal state is fresh.
    /// `fork(s)` behaves identically to constructing a new environment
    /// over the same corpus with seed `s`.
    pub fn fork(&self, seed: u64) -> Self {
        VideoTraversalEnv {
            videos: Arc::clone(&self.videos),
            order: (0..self.videos.len()).collect(),
            apfg: Arc::clone(&self.apfg),
            cache: self.cache.clone(),
            classes: self.classes.clone(),
            space: self.space.clone(),
            alphas: self.alphas.clone(),
            init_config: self.init_config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            vid_cursor: 0,
            frame_cursor: 0,
            state: [0.0; FEATURE_DIM],
        }
    }

    /// Number of training videos in the corpus.
    pub fn num_videos(&self) -> usize {
        self.videos.len()
    }

    /// The attached shared feature cache, if any.
    pub fn cache(&self) -> Option<&Arc<FeatureCache>> {
        self.cache.as_ref()
    }

    /// One APFG invocation, memoised when a cache is attached.
    fn process(&self, video: &Video, start: usize, config: Configuration) -> ApfgOutput {
        match &self.cache {
            Some(cache) => cache.get_or_compute(self.apfg.as_ref(), video, start, config),
            None => self.apfg.process(video, start, config),
        }
    }

    fn current_video(&self) -> &Video {
        &self.videos[self.order[self.vid_cursor]]
    }

    /// Process the initial segment of the current video with the most
    /// accurate configuration (Algorithm 1's `Init_Segment`).
    fn init_state(&mut self) {
        let video = &self.videos[self.order[self.vid_cursor]];
        let out = self.process(video, 0, self.init_config);
        self.frame_cursor = self.init_config.frames_covered().min(video.num_frames);
        self.state = out.feature;
    }

    /// Total frames across all training videos.
    pub fn total_frames(&self) -> usize {
        self.videos.iter().map(|v| v.num_frames).sum()
    }
}

impl Environment for VideoTraversalEnv {
    fn state_dim(&self) -> usize {
        FEATURE_DIM
    }

    fn num_actions(&self) -> usize {
        self.space.len()
    }

    fn alphas(&self) -> &[f32] {
        &self.alphas
    }

    fn reset(&mut self) -> Vec<f32> {
        self.order.shuffle(&mut self.rng);
        self.vid_cursor = 0;
        self.init_state();
        self.state.to_vec()
    }

    fn step(&mut self, action: usize) -> Transition {
        // Actions come from the agent, whose head is sized to the space;
        // an out-of-range index is an internal logic error, not user
        // input.
        debug_assert!(action < self.space.len(), "action out of range");
        let config = self.space.configs()[action];
        let video = self.current_video();
        let start = self.frame_cursor;
        let out = self.process(video, start, config);
        let span_end = (start + config.frames_covered()).min(video.num_frames);

        let gt = binary_labels_in(&video.intervals, &self.classes, start, span_end);

        let prev_state = self.state;
        self.state = out.feature;
        self.frame_cursor = span_end;

        let mut done = false;
        if self.frame_cursor >= self.current_video().num_frames {
            self.vid_cursor += 1;
            if self.vid_cursor >= self.videos.len() {
                done = true;
                self.vid_cursor = 0; // keep cursors valid until next reset
                self.frame_cursor = 0;
            } else {
                // Concatenated episode: the next video's initial segment is
                // processed with the chosen configuration's successor state.
                self.init_state();
            }
        }

        Transition {
            state: prev_state.to_vec(),
            action,
            next_state: self.state.to_vec(),
            done,
            gt,
            pred: out.prediction,
            alpha: self.alphas[action],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_apfg::SimulatedApfg;
    use zeus_sim::CostModel;
    use zeus_video::DatasetKind;

    fn tiny_env(seed: u64) -> VideoTraversalEnv {
        let ds = DatasetKind::Bdd100k.generate(0.02, 3);
        env_over(ds.store.videos().to_vec(), DatasetKind::Bdd100k, seed)
    }

    /// An environment over `videos` of `kind`, querying the dataset's
    /// first class.
    fn env_over(videos: Vec<Video>, kind: DatasetKind, seed: u64) -> VideoTraversalEnv {
        let classes = vec![kind.query_classes()[0]];
        let space = ConfigSpace::for_dataset(kind);
        let alphas = space.alphas(&CostModel);
        let init = space.most_accurate();
        let apfg = Arc::new(SimulatedApfg::new(
            classes.clone(),
            space.max_resolution(),
            space.max_seg_len(),
            space.max_sampling(),
            seed,
        ));
        VideoTraversalEnv::new(videos, classes, apfg, space, alphas, init, seed)
            .expect("tiny corpus is valid")
    }

    /// Drive an env to completion with a fixed action, returning the
    /// per-step (action, state, done) trace.
    fn trace(env: &mut VideoTraversalEnv, action: usize) -> Vec<(Vec<f32>, bool)> {
        let mut out = vec![(env.reset(), false)];
        loop {
            let t = env.step(action);
            let done = t.done;
            out.push((t.next_state, done));
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn reset_returns_feature_state() {
        let mut env = tiny_env(1);
        let s = env.reset();
        assert_eq!(s.len(), env.state_dim());
        assert_eq!(env.num_actions(), 64);
    }

    #[test]
    fn steps_cover_the_whole_corpus() {
        let mut env = tiny_env(2);
        let _ = env.reset();
        let total = env.total_frames();
        let mut covered = 0usize;
        // Always take action 0 and count frames until done. The initial
        // segment of each video is processed with the init config and not
        // returned through transitions, so covered < total but must
        // terminate and stay consistent.
        let mut steps = 0;
        loop {
            let t = env.step(0);
            covered += t.span_len();
            steps += 1;
            assert!(steps < 1_000_000, "episode failed to terminate");
            if t.done {
                break;
            }
        }
        let init_spans = env.videos.len() * env.init_config.frames_covered();
        assert!(
            covered + init_spans >= total,
            "covered {covered} of {total}"
        );
    }

    #[test]
    fn episodes_shuffle_video_order() {
        let mut env = tiny_env(3);
        let before = env.order.clone();
        let mut changed = false;
        for _ in 0..5 {
            let _ = env.reset();
            if env.order != before {
                changed = true;
                break;
            }
        }
        assert!(changed, "video order should be permuted across episodes");
    }

    /// Every step's `gt` over whole episodes of untrimmed Thumos14
    /// videos with several intervals of both classes, frame by frame
    /// against `Video::label_at`. The actions cycle through the space, so
    /// spans run from the shortest to the 512-frame longest.
    #[test]
    fn transition_labels_match_ground_truth() {
        let kind = DatasetKind::Thumos14;
        let videos: Vec<Video> = kind
            .generate(0.05, 9)
            .store
            .videos()
            .iter()
            .filter(|v| v.intervals.len() > 1)
            .cloned()
            .collect();
        assert!(videos.len() > 1, "the corpus has multi-interval videos");
        let classes = [kind.query_classes()[0]];
        assert!(
            videos
                .iter()
                .flat_map(|v| &v.intervals)
                .any(|iv| !classes.contains(&iv.class)),
            "some intervals belong to the class the query leaves out"
        );
        let mut env = env_over(videos, kind, 5);
        let configs = env.space.configs().to_vec();
        let longest = configs.iter().map(|c| c.frames_covered()).max().unwrap();
        assert_eq!(longest, 512);
        let (mut steps, mut positives, mut longest_seen) = (0usize, 0usize, 0usize);
        for episode in 0..2 {
            let _ = env.reset();
            loop {
                let video = env.videos[env.order[env.vid_cursor]].clone();
                let start = env.frame_cursor;
                let action = (steps * 7 + episode) % configs.len();
                let t = env.step(action);
                let span_end = (start + configs[action].frames_covered()).min(video.num_frames);
                assert_eq!(t.gt.len(), span_end - start, "step {steps}");
                for (i, &g) in t.gt.iter().enumerate() {
                    assert_eq!(
                        g,
                        video.label_at(&classes, start + i),
                        "step {steps}, video {:?}, frame {}",
                        video.id,
                        start + i
                    );
                }
                positives += t.gt.iter().filter(|&&g| g).count();
                longest_seen = longest_seen.max(t.gt.len());
                steps += 1;
                if t.done {
                    break;
                }
            }
        }
        assert!(positives > 0, "the walk crosses action frames");
        assert_eq!(longest_seen, longest, "the walk takes a longest span");
    }

    #[test]
    fn empty_corpus_is_a_typed_error() {
        let classes = vec![ActionClass::CrossRight];
        let space = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        let alphas = space.alphas(&CostModel);
        let init = space.most_accurate();
        let apfg = Arc::new(SimulatedApfg::new(classes.clone(), 300, 8, 8, 0));
        let err =
            VideoTraversalEnv::new(vec![], classes, apfg, space, alphas, init, 0).unwrap_err();
        assert_eq!(err, EnvError::NoVideos);
    }

    #[test]
    fn alpha_mismatch_is_a_typed_error() {
        let ds = DatasetKind::Bdd100k.generate(0.02, 3);
        let classes = vec![ActionClass::CrossRight];
        let space = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        let init = space.most_accurate();
        let apfg = Arc::new(SimulatedApfg::new(classes.clone(), 300, 8, 8, 0));
        let err = VideoTraversalEnv::new(
            ds.store.videos().to_vec(),
            classes,
            apfg,
            space.clone(),
            vec![0.5; 3],
            init,
            0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            EnvError::AlphaMismatch {
                configs: space.len(),
                alphas: 3
            }
        );
    }

    #[test]
    fn fork_matches_fresh_construction_and_shares_the_corpus() {
        let base = tiny_env(7);
        let mut forked = base.fork(7);
        let mut fresh = tiny_env(7);
        assert!(Arc::ptr_eq(&base.videos, &forked.videos));
        assert_eq!(trace(&mut forked, 2), trace(&mut fresh, 2));
    }

    #[test]
    fn cached_env_is_bit_identical_to_uncached() {
        let cache = Arc::new(FeatureCache::new());
        let mut cached = tiny_env(11).with_cache(Arc::clone(&cache));
        let mut plain = tiny_env(11);
        assert_eq!(trace(&mut cached, 3), trace(&mut plain, 3));
        assert!(!cache.is_empty(), "traversal must populate the cache");
        // A second fork over the same cache hits instead of recomputing.
        let before = cache.len();
        let mut again = cached.fork(11);
        let _ = trace(&mut again, 3);
        assert_eq!(cache.len(), before, "identical replay must be all hits");
    }
}
