//! The calibrated behavioural APFG model used by the benchmark harness.
//!
//! ## Mechanics (why accuracies *emerge* instead of being tabulated)
//!
//! One invocation over the span `[f, f + l·s)` samples `l` frames at stride
//! `s`. Detection is mechanistic:
//!
//! 1. **Sampling can miss**: only sampled frames carry evidence. With a
//!    coarse stride a short action can fall entirely between samples —
//!    then the model *cannot* detect it (this is what collapses accuracy
//!    for fast configurations on BDD100K's 6-frame-minimum actions, the
//!    effect behind Table 2's 0.57-F1 row and the §6.1 remark that "large
//!    windows just completely skip the action").
//! 2. **Per-sample discriminability** `q` falls with resolution
//!    (`(r/r_max)^k`), with motion aliasing at coarse sampling (scaled by
//!    the class's temporal dependence), with the §5 model-reuse
//!    approximation when running below the trained resolution, and with
//!    domain shift (§6.6). Detection of a segment with `e` sampled action
//!    frames succeeds with probability `1 - (1-q)^e`.
//! 3. **False positives** rise at low resolution and for harder classes.
//!
//! The ProxyFeature encodes noisy segment evidence — overall/leading/
//! trailing action fractions, and a *precursor* channel (how imminent the
//! next action is, standing in for visual pre-cues like a pedestrian
//! approaching the curb; Figure 6's "possibility of CrossRight at the end
//! of the segment"). Noise grows as configurations get faster, reproducing
//! §6.3's observation that low-accuracy configurations give the agent
//! noisy features.
//!
//! Everything is deterministic given `(apfg seed, video seed, start,
//! config)`.
//!
//! ## One classification, two entry points
//!
//! Each invocation seeds its own ChaCha8 stream from those four values and
//! draws from it in a fixed order. The classification step draws first:
//! whether the detector fires, then (only for a false positive) its
//! confidence, then (only for a span straddling a visible action
//! boundary) whether the prediction flips. The feature synthesis draws
//! after it: one normal for each of the four evidence channels, six for
//! the distractor channels, and four more under feature skew. So
//! [`SimulatedApfg::predict`], which runs the classification step alone,
//! returns exactly the `prediction` of [`FeatureGenerator::process`] at a
//! fraction of the cost. The executors that read only the prediction
//! (Zeus-Sliding, Segment-PP, Zeus-Heuristic, and so the planner's
//! profiling) call `predict`.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use zeus_video::scene::mix2;
use zeus_video::{ActionClass, ActionInterval, DatasetKind, Video};

use crate::config::Configuration;
use crate::feature::{ApfgOutput, FeatureGenerator, FEATURE_DIM};
use crate::traits::{union_traits, QueryTraits};

/// Tunable constants of the behavioural model. Defaults are calibrated so
/// that profiling the BDD100K configuration space reproduces the paper's
/// Table 2 F1 column and Table 4 max-accuracy column (see
/// `zeus-core::planner` tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Per-sampled-action-frame detection probability at the best
    /// configuration for a perfectly detectable class.
    pub q_base: f64,
    /// Exponent of the resolution factor `(r / r_max)^res_exponent`.
    pub res_exponent: f64,
    /// Strength of motion aliasing at coarse sampling:
    /// `q *= 1 - alias_strength · τ · (1 - 1/s)`.
    pub alias_strength: f64,
    /// Extra discriminability loss from §5 model reuse when running below
    /// the trained resolution: `q *= 1 - reuse_penalty · (1 - f_res)`.
    pub reuse_penalty: f64,
    /// False-positive rate per invocation at the best resolution.
    pub fp_base: f64,
    /// Additional false-positive rate at the lowest resolutions.
    pub fp_res: f64,
    /// False-positive inflation for hard classes:
    /// `fp *= 1 + fp_difficulty · (1 - max_accuracy)`.
    pub fp_difficulty: f64,
    /// Fraction of action *instances* that are intrinsically undetectable
    /// (occlusion, framing, unusual appearance), as a multiple of
    /// `(1 - max_accuracy)`. Hardness is assigned per instance, not per
    /// invocation: an instance the network cannot recognise stays missed
    /// at every configuration, which is what makes Table 4's ceiling a
    /// real recall cap (per-invocation noise would be averaged away by
    /// the IoU window threshold).
    pub hard_instance_rate: f64,
    /// Detection evidence saturates after this many sampled action frames:
    /// more frames of an un-resolvable (too-low-resolution) subject do not
    /// make it resolvable, keeping resolution relevant on long segments.
    pub evidence_cap: usize,
    /// Prediction flip probability when the span straddles an action
    /// boundary — "frames before, during, and after the scene of the
    /// action can be visually indistinguishable" (§2). Boundary spans are
    /// a larger fraction of fast configurations' coverage, which is part
    /// of why their profiled F1 collapses (Table 2).
    pub boundary_flip: f64,
    /// Feature noise floor (std of evidence channels).
    pub noise_base: f64,
    /// Additional noise at low resolution.
    pub noise_res: f64,
    /// Additional noise at coarse sampling.
    pub noise_samp: f64,
    /// Domain-shift discriminability loss: `q *= 1 - domain_q · shift`.
    pub domain_q: f64,
    /// Domain-shift false-positive inflation: `fp *= 1 + domain_fp·shift`.
    pub domain_fp: f64,
    /// Precursor visibility horizon, as a multiple of the *maximum* span
    /// (`max_seg_len · max_sampling`). The horizon is absolute — visual
    /// pre-cues (a pedestrian approaching the curb) are scene structure,
    /// visible whenever the model looks, regardless of how short the
    /// current segment is. (A span-relative horizon makes slowing down
    /// blind the agent, which destabilises any adaptive policy.)
    pub precursor_lookahead: f64,
}

/// The calibrated constants every [`SimulatedApfg`] runs with.
const PARAMS: SimParams = SimParams {
    q_base: 0.80,
    res_exponent: 0.75,
    alias_strength: 0.40,
    reuse_penalty: 0.08,
    fp_base: 0.004,
    fp_res: 0.014,
    fp_difficulty: 1.0,
    hard_instance_rate: 0.85,
    evidence_cap: 6,
    boundary_flip: 0.22,
    noise_base: 0.05,
    noise_res: 0.18,
    noise_samp: 0.08,
    domain_q: 1.0,
    domain_fp: 3.0,
    precursor_lookahead: 4.0,
};

impl Default for SimParams {
    fn default() -> Self {
        PARAMS
    }
}

/// Accuracy degradation when a model trained on one corpus runs on another
/// (§6.6). Zero in-domain; larger for KITTI than Cityscapes (residential
/// scenes diverge more from BDD's urban mix); scaled by class complexity
/// (the paper observes a larger drop for CrossRight than LeftTurn).
pub fn domain_shift(from: DatasetKind, to: DatasetKind, classes: &[ActionClass]) -> f64 {
    if from == to {
        return 0.0;
    }
    let base = match to {
        DatasetKind::Cityscapes => 0.045,
        DatasetKind::Kitti => 0.070,
        _ => 0.055,
    };
    let traits = union_traits(classes);
    base * (0.5 + traits.scene_complexity)
}

/// The behavioural APFG.
#[derive(Debug, Clone)]
pub struct SimulatedApfg {
    classes: Vec<ActionClass>,
    traits: QueryTraits,
    max_resolution: usize,
    max_seg_len: usize,
    max_sampling: usize,
    seed: u64,
    model_reuse: bool,
    domain_shift: f64,
    feature_skew: f64,
}

impl SimulatedApfg {
    /// Build an APFG for a query over `classes`, normalising knobs against
    /// the dataset's knob maxima (Table 4 knob settings).
    pub fn new(
        classes: Vec<ActionClass>,
        max_resolution: usize,
        max_seg_len: usize,
        max_sampling: usize,
        seed: u64,
    ) -> Self {
        assert!(!classes.is_empty(), "need at least one target class");
        assert!(
            max_resolution > 0 && max_seg_len > 0 && max_sampling > 0,
            "knob maxima must be positive"
        );
        let traits = union_traits(&classes);
        SimulatedApfg {
            classes,
            traits,
            max_resolution,
            max_seg_len,
            max_sampling,
            seed,
            model_reuse: true,
            domain_shift: 0.0,
            feature_skew: 0.0,
        }
    }

    /// Toggle the §5 model-reuse approximation (default on). Off = a
    /// per-configuration ensemble: slightly more accurate, far costlier to
    /// train (the ablation the paper discusses in §5).
    pub fn with_model_reuse(mut self, reuse: bool) -> Self {
        self.model_reuse = reuse;
        self
    }

    /// Apply a domain shift (see [`domain_shift`]) for §6.6 experiments.
    pub fn with_domain_shift(mut self, shift: f64) -> Self {
        assert!((0.0..=1.0).contains(&shift), "shift must be in [0, 1]");
        self.domain_shift = shift;
        self
    }

    /// Skew the feature distribution, emulating an RL agent consuming
    /// features from a *different* class's APFG (§6.5 cross-model
    /// inference). `skew = 1 - class_similarity(trained, target)`.
    pub fn with_feature_skew(mut self, skew: f64) -> Self {
        assert!((0.0..=1.0).contains(&skew), "skew must be in [0, 1]");
        self.feature_skew = skew;
        self
    }

    /// The query classes this APFG serves.
    pub fn classes(&self) -> &[ActionClass] {
        &self.classes
    }

    /// The derived difficulty traits.
    pub fn traits(&self) -> QueryTraits {
        self.traits
    }

    /// Whether model reuse (§5) is active.
    pub fn model_reuse(&self) -> bool {
        self.model_reuse
    }

    fn res_factor(&self, resolution: usize) -> f64 {
        let r = (resolution as f64 / self.max_resolution as f64).min(1.0);
        r.powf(PARAMS.res_exponent)
    }

    /// Per-sampled-action-frame discriminability under `config`.
    pub fn discriminability(&self, config: Configuration) -> f64 {
        let p = &PARAMS;
        let f_res = self.res_factor(config.resolution);
        let alias = 1.0
            - p.alias_strength
                * self.traits.temporal_dependence
                * (1.0 - 1.0 / config.sampling_rate as f64);
        let reuse = if self.model_reuse {
            1.0 - p.reuse_penalty * (1.0 - f_res)
        } else {
            1.0
        };
        let domain = 1.0 - p.domain_q * self.domain_shift;
        // Class ceiling: harder classes (lower Table 4 max accuracy) have
        // inherently weaker per-frame evidence.
        let class_scale = self.traits.max_accuracy.powi(2);
        (p.q_base * class_scale * f_res * alias * reuse * domain).clamp(0.0, 1.0)
    }

    /// Per-invocation false-positive probability under `config`.
    pub fn false_positive_rate(&self, config: Configuration) -> f64 {
        let p = &PARAMS;
        let f_res = self.res_factor(config.resolution);
        let fp = (p.fp_base + p.fp_res * (1.0 - f_res))
            * (1.0 + p.fp_difficulty * (1.0 - self.traits.max_accuracy))
            * (1.0 + p.domain_fp * self.domain_shift);
        fp.clamp(0.0, 0.5)
    }

    /// Std of the evidence-channel noise under `config`.
    pub fn feature_noise(&self, config: Configuration) -> f64 {
        let p = &PARAMS;
        let f_res = self.res_factor(config.resolution);
        p.noise_base
            + p.noise_res * (1.0 - f_res)
            + p.noise_samp * (1.0 - 1.0 / config.sampling_rate as f64)
    }

    /// Whether an action instance is intrinsically undetectable for this
    /// model (deterministic per (apfg seed, video, interval)).
    pub fn is_hard_instance(&self, video: &Video, interval_start: usize) -> bool {
        let p_hard = (PARAMS.hard_instance_rate * (1.0 - self.traits.max_accuracy)).clamp(0.0, 1.0);
        let h = mix2(self.seed ^ 0x4A8D, mix2(video.seed, interval_start as u64));
        (h as f64 / u64::MAX as f64) < p_hard
    }

    /// Target-class intervals minus the intrinsically hard ones, in one
    /// pass over the video's intervals.
    fn visible_intervals(&self, video: &Video) -> Vec<ActionInterval> {
        video
            .intervals
            .iter()
            .filter(|iv| {
                self.classes.contains(&iv.class) && !self.is_hard_instance(video, iv.start)
            })
            .copied()
            .collect()
    }

    fn rng_for(&self, video: &Video, start: usize, config: Configuration) -> ChaCha8Rng {
        let ch = mix2(
            config.resolution as u64,
            mix2(config.seg_len as u64, config.sampling_rate as u64),
        );
        let s = mix2(self.seed, mix2(video.seed, mix2(start as u64, ch)));
        ChaCha8Rng::seed_from_u64(s)
    }

    /// The classification step of one invocation: seed the invocation's
    /// RNG, count the sampled evidence, draw whether the detector fires
    /// and apply the boundary flip. Its draws are the first on the RNG,
    /// so [`SimulatedApfg::process`]'s feature synthesis continues from
    /// the returned state.
    fn classify(&self, video: &Video, start: usize, config: Configuration) -> Classified {
        assert!(start < video.num_frames, "start {start} out of range");
        let mut rng = self.rng_for(video, start, config);
        let span_end = (start + config.frames_covered()).min(video.num_frames);

        // Evidence: sampled frames that are action frames of a *visible*
        // (not intrinsically hard) instance.
        let visible = self.visible_intervals(video);
        let evidence = zeus_video::segment::sample_indices(
            start,
            config.seg_len,
            config.sampling_rate,
            video.num_frames,
        )
        .filter(|&i| visible.iter().any(|iv| iv.contains(i)))
        .count()
        .min(PARAMS.evidence_cap);

        let (mut prediction, confidence) = if evidence == 0 {
            // Nothing sampled shows the action (possibly because the
            // stride skipped it entirely): only a false positive can fire.
            let fp = self.false_positive_rate(config);
            let fired = rng.gen::<f64>() < fp;
            (
                fired,
                if fired {
                    0.5 + 0.3 * rng.gen::<f64>()
                } else {
                    fp
                },
            )
        } else {
            let q = self.discriminability(config);
            let p_detect = 1.0 - (1.0 - q).powi(evidence as i32);
            let fired = rng.gen::<f64>() < p_detect;
            (fired, p_detect.clamp(0.0, 1.0))
        };
        // Boundary ambiguity: spans straddling a (visible) action start or
        // end are the visually indistinguishable regime of §2 — confusion
        // both ways.
        let straddles_boundary = visible.iter().any(|iv| {
            (iv.start > start && iv.start < span_end) || (iv.end > start && iv.end < span_end)
        });
        if straddles_boundary && rng.gen::<f64>() < PARAMS.boundary_flip {
            prediction = !prediction;
        }
        Classified {
            rng,
            visible,
            span_end,
            prediction,
            confidence,
        }
    }

    /// The ACTION / NO-ACTION prediction of one invocation: exactly
    /// `self.process(video, start, config).prediction`, without
    /// synthesising the ProxyFeature (see the module docs for why the two
    /// agree). For the executors that read only the prediction.
    pub fn predict(&self, video: &Video, start: usize, config: Configuration) -> bool {
        self.classify(video, start, config).prediction
    }
}

/// What [`SimulatedApfg::classify`] decided, with the RNG and intervals
/// the feature synthesis continues from.
struct Classified {
    rng: ChaCha8Rng,
    visible: Vec<ActionInterval>,
    span_end: usize,
    prediction: bool,
    confidence: f64,
}

/// Standard normal sample via Box–Muller.
fn normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl FeatureGenerator for SimulatedApfg {
    fn feature_dim(&self) -> usize {
        FEATURE_DIM
    }

    fn process(&self, video: &Video, start: usize, config: Configuration) -> ApfgOutput {
        let Classified {
            mut rng,
            visible,
            span_end,
            prediction,
            confidence,
        } = self.classify(video, start, config);
        let span_len = span_end - start;

        // --- ProxyFeature synthesis ---
        let sigma = self.feature_noise(config);
        let noisy = |v: f64, rng: &mut ChaCha8Rng| (v + sigma * normal(rng)).clamp(0.0, 1.0) as f32;

        let frac = |s: usize, e: usize| {
            if e <= s {
                return 0.0;
            }
            let frames = visible.iter().map(|iv| iv.overlap(s, e)).sum::<usize>();
            frames as f64 / (e - s) as f64
        };
        let overall = frac(start, span_end);
        let quarter = (span_len / 4).max(1);
        let leading = frac(start, start + quarter);
        let trailing = frac(span_end.saturating_sub(quarter), span_end);

        // Precursor: imminence of the next action start after the span,
        // within `precursor_lookahead · max_span` frames (absolute horizon).
        let max_span = (self.max_seg_len * self.max_sampling) as f64;
        let lookahead = (max_span * PARAMS.precursor_lookahead) as usize;
        let next_start = visible
            .iter()
            .map(|iv| iv.start)
            .filter(|&s| s >= span_end && s < span_end + lookahead.max(1))
            .min();
        let precursor = match next_start {
            Some(s) if lookahead > 0 => 1.0 - (s - span_end) as f64 / lookahead as f64,
            _ => 0.0,
        };

        let mut feature = vec![0.0f32; FEATURE_DIM];
        feature[0] = noisy(overall, &mut rng);
        feature[1] = noisy(trailing, &mut rng);
        feature[2] = noisy(leading, &mut rng);
        // Precursor cues (an entity approaching the scene of the action)
        // are large-scale visual structure — visible even at low
        // resolution, so the channel carries half the evidence noise.
        feature[3] = (precursor + 0.5 * sigma * normal(&mut rng)).clamp(0.0, 1.0) as f32;
        feature[4] = if prediction { 1.0 } else { 0.0 };
        feature[5] = confidence as f32;
        feature[6] = (config.resolution as f64 / self.max_resolution as f64) as f32;
        feature[7] = (config.seg_len as f64 / self.max_seg_len as f64) as f32;
        feature[8] = (config.sampling_rate as f64 / self.max_sampling as f64) as f32;
        feature[9] = (span_len as f64 / config.frames_covered() as f64) as f32;
        for slot in feature.iter_mut().take(FEATURE_DIM).skip(10) {
            *slot = (0.3 * normal(&mut rng)) as f32;
        }

        // Cross-model skew: attenuate + perturb the evidence channels the
        // way a sibling class's embedding would shift them.
        if self.feature_skew > 0.0 {
            let k = self.feature_skew;
            for f in feature.iter_mut().take(4) {
                *f = (*f as f64 * (1.0 - 0.5 * k) + 0.3 * k * normal(&mut rng)).clamp(0.0, 1.0)
                    as f32;
            }
        }

        ApfgOutput {
            feature,
            prediction,
            confidence: confidence as f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_video::{ActionInterval, VideoId};

    fn video_with_action(start: usize, end: usize) -> Video {
        Video {
            id: VideoId(0),
            num_frames: 1000,
            fps: 30.0,
            seed: 77,
            intervals: vec![ActionInterval::new(start, end, ActionClass::CrossRight)],
        }
    }

    fn apfg() -> SimulatedApfg {
        SimulatedApfg::new(vec![ActionClass::CrossRight], 300, 8, 8, 42)
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let v = video_with_action(100, 200);
        let a = apfg();
        let c = Configuration::new(300, 4, 1);
        let o1 = a.process(&v, 120, c);
        let o2 = a.process(&v, 120, c);
        assert_eq!(o1, o2);
    }

    #[test]
    fn different_positions_differ() {
        let v = video_with_action(100, 200);
        let a = apfg();
        let c = Configuration::new(300, 4, 1);
        let o1 = a.process(&v, 120, c);
        let o2 = a.process(&v, 124, c);
        assert_ne!(o1.feature, o2.feature);
    }

    #[test]
    fn slow_config_detects_action_reliably() {
        let v = video_with_action(100, 300);
        let a = apfg();
        let c = Configuration::new(300, 8, 1);
        let hits = (0..50)
            .map(|i| 100 + i * 4)
            .filter(|&s| a.process(&v, s, c).prediction)
            .count();
        assert!(
            hits >= 45,
            "slow config should almost always detect: {hits}/50"
        );
    }

    #[test]
    fn sampling_can_skip_short_actions_entirely() {
        // A 6-frame action between samples of an s=8 stride is invisible.
        let v = video_with_action(101, 107);
        let a = apfg();
        let c = Configuration::new(300, 8, 8); // samples 96, 104, ... wait
                                               // Start at 96: samples 96,104,112,...; 104 ∈ [101,107) → evidence.
                                               // Start at 88: samples 88,96,104,... also hits.
                                               // Start at 90: samples 90,98,106 → 106 ∈ [101,107) hits.
                                               // Start at 91: samples 91,99,107,115 → no action frame sampled.
        let out = a.process(&v, 91, c);
        // Evidence is zero, so only a (rare) false positive could fire;
        // the evidence feature channel must be near zero.
        assert!(
            out.feature[0] < 0.5,
            "no sampled evidence should be visible"
        );
        let q = a.discriminability(c);
        assert!(q > 0.0, "sanity: q positive");
    }

    #[test]
    fn discriminability_monotone_in_resolution_and_sampling() {
        let a = apfg();
        let q_hi = a.discriminability(Configuration::new(300, 4, 1));
        let q_mid = a.discriminability(Configuration::new(200, 4, 1));
        let q_lo = a.discriminability(Configuration::new(150, 4, 1));
        assert!(q_hi > q_mid && q_mid > q_lo);
        let q_s1 = a.discriminability(Configuration::new(300, 4, 1));
        let q_s8 = a.discriminability(Configuration::new(300, 4, 8));
        assert!(q_s1 > q_s8, "coarse sampling must lose discriminability");
    }

    #[test]
    fn false_positive_rate_rises_at_low_resolution() {
        let a = apfg();
        assert!(
            a.false_positive_rate(Configuration::new(150, 4, 1))
                > a.false_positive_rate(Configuration::new(300, 4, 1))
        );
    }

    #[test]
    fn harder_class_is_less_discriminable() {
        let easy = SimulatedApfg::new(vec![ActionClass::CrossRight], 300, 8, 8, 1);
        let hard = SimulatedApfg::new(vec![ActionClass::CleanAndJerk], 160, 64, 8, 1);
        let c_easy = Configuration::new(300, 8, 1);
        let c_hard = Configuration::new(160, 64, 1);
        // Compare at each class's own best config (f_res = 1 for both).
        assert!(easy.discriminability(c_easy) > hard.discriminability(c_hard));
    }

    #[test]
    fn domain_shift_degrades_both_error_channels() {
        let base = apfg();
        let shifted = apfg().with_domain_shift(0.08);
        let c = Configuration::new(300, 4, 1);
        assert!(shifted.discriminability(c) < base.discriminability(c));
        assert!(shifted.false_positive_rate(c) > base.false_positive_rate(c));
    }

    #[test]
    fn model_reuse_costs_accuracy_below_trained_resolution() {
        let reuse = apfg();
        let ensemble = apfg().with_model_reuse(false);
        let low = Configuration::new(150, 4, 1);
        let top = Configuration::new(300, 4, 1);
        assert!(ensemble.discriminability(low) > reuse.discriminability(low));
        // At the trained resolution they coincide.
        assert!((ensemble.discriminability(top) - reuse.discriminability(top)).abs() < 1e-12);
    }

    #[test]
    fn feature_noise_grows_with_faster_configs() {
        let a = apfg();
        assert!(
            a.feature_noise(Configuration::new(150, 8, 8))
                > a.feature_noise(Configuration::new(300, 8, 1))
        );
    }

    #[test]
    fn precursor_channel_signals_imminent_action() {
        let v = video_with_action(200, 300);
        let a = apfg();
        let c = Configuration::new(300, 8, 4); // span 32
                                               // Span [160,192): next action at 200 is 8 frames away, lookahead 64.
        let near = a.process(&v, 160, c).feature[3];
        // Span [0,32): action 168 frames away, beyond lookahead.
        let far = a.process(&v, 0, c).feature[3];
        assert!(near > far, "precursor near {near} vs far {far}");
    }

    #[test]
    fn feature_skew_perturbs_evidence_channels() {
        let v = video_with_action(100, 200);
        let base = apfg();
        let skewed = apfg().with_feature_skew(0.45);
        let c = Configuration::new(300, 8, 1);
        let fb = base.process(&v, 120, c);
        let fs = skewed.process(&v, 120, c);
        assert_ne!(fb.feature[0], fs.feature[0]);
        // Config channels are not skewed.
        assert_eq!(fb.feature[6], fs.feature[6]);
    }

    #[test]
    fn domain_shift_helper_shapes() {
        use DatasetKind::*;
        let cr = [ActionClass::CrossRight];
        let lt = [ActionClass::LeftTurn];
        assert_eq!(domain_shift(Bdd100k, Bdd100k, &cr), 0.0);
        // KITTI shifts more than Cityscapes; CrossRight more than LeftTurn.
        assert!(domain_shift(Bdd100k, Kitti, &lt) > domain_shift(Bdd100k, Cityscapes, &lt));
        assert!(domain_shift(Bdd100k, Cityscapes, &cr) > domain_shift(Bdd100k, Cityscapes, &lt));
    }

    #[test]
    fn feature_vector_has_fixed_dim_and_bounded_evidence() {
        let v = video_with_action(100, 200);
        let a = apfg();
        let out = a.process(&v, 50, Configuration::new(150, 8, 8));
        assert_eq!(out.feature.len(), FEATURE_DIM);
        for &f in &out.feature[0..4] {
            assert!(
                (0.0..=1.0).contains(&f),
                "evidence channel out of range: {f}"
            );
        }
    }
}
