//! R3dLite: a real (small) 3D-CNN over rendered pixels.
//!
//! The paper's APFG is R3D-18 (17 3D-conv layers, 33.4 M parameters,
//! Figure 3) fine-tuned from Kinetics-400. Training that network is
//! GPU-gated, so the benchmark harness uses the behavioural
//! [`crate::simulated::SimulatedApfg`]. This module exists to prove the
//! *architecture* runs end-to-end in pure Rust: two spatio-temporal 3D
//! convolution blocks, global average pooling, and a linear classification
//! head — the same dataflow as Figure 3, narrower and shallower. It really
//! trains (see tests and `examples/r3d_training.rs`) on segments rendered
//! by the scene model.

use rand::Rng;
use zeus_nn::conv::{Conv3d, GlobalAvgPool3d, VolumeShape};
use zeus_nn::optim::{Adam, Optimizer};
use zeus_nn::{loss, Activation, Linear, Tensor};
use zeus_video::segment::SegmentTensor;
use zeus_video::Video;

use crate::config::Configuration;
use crate::feature::{ApfgOutput, FeatureGenerator};

/// Number of channels in the feature embedding (the "ProxyFeature" this
/// network emits).
pub const R3D_LITE_FEATURES: usize = 16;

/// A small two-block 3D CNN: `conv(3→8, s2) → ReLU → conv(8→16, s2) →
/// ReLU → GAP → Linear(16→2)`.
#[derive(Debug, Clone)]
pub struct R3dLite {
    conv1: Conv3d,
    conv2: Conv3d,
    gap: GlobalAvgPool3d,
    head: Linear,
    // Caches for backward.
    cached: Option<ForwardCache>,
}

#[derive(Debug, Clone)]
struct ForwardCache {
    z1: Tensor,
    s1: VolumeShape,
    z2: Tensor,
}

impl R3dLite {
    /// Build with random (He) initialisation.
    pub fn new(rng: &mut impl Rng) -> Self {
        R3dLite {
            conv1: Conv3d::new(3, 8, 3, 2, 1, rng),
            conv2: Conv3d::new(8, R3D_LITE_FEATURES, 3, 2, 1, rng),
            gap: GlobalAvgPool3d::new(),
            head: Linear::new_xavier(R3D_LITE_FEATURES, 2, rng),
            cached: None,
        }
    }

    /// Forward pass over a `[3, L, H, W]` volume. Returns
    /// `(features, logits)` where `features` is the GAP embedding.
    pub fn forward(&mut self, volume: &[f32], dims: [usize; 4]) -> (Vec<f32>, Vec<f32>) {
        let shape = VolumeShape {
            c: dims[0],
            l: dims[1],
            h: dims[2],
            w: dims[3],
        };
        assert_eq!(shape.c, 3, "expected RGB input");
        // Centre the [0,1] pixel inputs so first-layer pre-activations are
        // balanced around zero (uncentered inputs + a bad first epoch can
        // kill every unit of a small network).
        let x = Tensor::vector(volume.iter().map(|v| v - 0.45).collect());
        let (z1, s1) = self.conv1.forward(&x, shape);
        let mut a1 = z1.clone();
        Activation::LeakyRelu.forward_in_place(a1.data_mut());
        let (z2, s2) = self.conv2.forward(&a1, s1);
        let mut a2 = z2.clone();
        Activation::LeakyRelu.forward_in_place(a2.data_mut());
        let feat = self.gap.forward(&a2, s2);
        let logits = self.head.forward(&Tensor::from_vec(
            &[1, R3D_LITE_FEATURES],
            feat.data().to_vec(),
        ));
        self.cached = Some(ForwardCache { z1, s1, z2 });
        (feat.data().to_vec(), logits.data().to_vec())
    }

    /// Backward pass from a gradient on the logits; accumulates all
    /// parameter gradients.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let cache = self
            .cached
            .as_ref()
            .expect("backward before forward")
            .clone();
        let g_feat = self.head.backward(grad_logits);
        let g_feat = Tensor::vector(g_feat.data().to_vec());
        let mut g_z2 = self.gap.backward(&g_feat);
        Activation::LeakyRelu.backward_in_place(cache.z2.data(), g_z2.data_mut());
        let mut g_z1 = self.conv2.backward(&g_z2);
        let _ = cache.s1; // shape bookkeeping retained for clarity
        Activation::LeakyRelu.backward_in_place(cache.z1.data(), g_z1.data_mut());
        let _ = self.conv1.backward(&g_z1);
    }

    fn zero_grad(&mut self) {
        for p in self
            .conv1
            .params_mut()
            .into_iter()
            .chain(self.conv2.params_mut())
            .chain(self.head.params_mut())
        {
            p.zero_grad();
        }
    }

    /// Train on labeled segments (true = ACTION). Returns the final epoch's
    /// mean loss.
    pub fn fit(&mut self, samples: &[(Vec<f32>, [usize; 4], bool)], epochs: usize, lr: f32) -> f32 {
        assert!(!samples.is_empty(), "need training samples");
        let mut opt = Adam::new(lr);
        let mut last = f32::MAX;
        for _ in 0..epochs {
            let mut total = 0.0f32;
            for (vol, dims, label) in samples {
                self.zero_grad();
                let (_, logits) = self.forward(vol, *dims);
                let logits_t = Tensor::from_vec(&[1, 2], logits);
                let (l, grad) = loss::softmax_cross_entropy(&logits_t, &[usize::from(*label)]);
                self.backward(&grad);
                let mut params: Vec<&mut zeus_nn::Param> = self
                    .conv1
                    .params_mut()
                    .into_iter()
                    .chain(self.conv2.params_mut())
                    .chain(self.head.params_mut())
                    .collect();
                opt.step(&mut params);
                total += l;
            }
            last = total / samples.len() as f32;
        }
        last
    }

    /// Classification accuracy on labeled segments.
    pub fn accuracy(&mut self, samples: &[(Vec<f32>, [usize; 4], bool)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|(vol, dims, label)| {
                let (_, logits) = self.forward(vol, *dims);
                (logits[1] > logits[0]) == *label
            })
            .count();
        correct as f64 / samples.len() as f64
    }
}

/// Adapter exposing a trained [`R3dLite`] through the APFG interface.
///
/// Renders the segment under the configuration, runs the network, and
/// returns the GAP embedding as the ProxyFeature. Uses interior mutability
/// via cloning the (small) network per call to keep the trait object
/// shareable.
#[derive(Debug, Clone)]
pub struct R3dLiteGenerator {
    net: R3dLite,
}

impl R3dLiteGenerator {
    /// Wrap a trained network.
    pub fn new(net: R3dLite) -> Self {
        R3dLiteGenerator { net }
    }
}

impl FeatureGenerator for R3dLiteGenerator {
    fn feature_dim(&self) -> usize {
        R3D_LITE_FEATURES
    }

    fn process(&self, video: &Video, start: usize, config: Configuration) -> ApfgOutput {
        let seg = SegmentTensor::extract(
            video,
            start,
            config.resolution,
            config.seg_len,
            config.sampling_rate,
        )
        .expect("start out of range");
        let (vol, dims) = seg.to_volume();
        let mut net = self.net.clone();
        let (feature, logits) = net.forward(&vol, dims);
        let m = logits[0].max(logits[1]);
        let e0 = (logits[0] - m).exp();
        let e1 = (logits[1] - m).exp();
        let p1 = e1 / (e0 + e1);
        ApfgOutput {
            feature,
            prediction: p1 > 0.5,
            confidence: p1,
        }
    }
}

/// Build a balanced training set for a query from a video corpus:
/// `per_video` positive-window and negative-window samples per video,
/// rendered at `config`.
pub fn build_training_set(
    videos: &[&Video],
    classes: &[zeus_video::ActionClass],
    config: Configuration,
    per_video: usize,
) -> Vec<(Vec<f32>, [usize; 4], bool)> {
    let mut out = Vec::new();
    for v in videos {
        let mut pos = 0;
        let mut neg = 0;
        let stride = config.frames_covered();
        let mut start = 0;
        while start + stride <= v.num_frames && (pos < per_video || neg < per_video) {
            // Majority-overlap labels: a segment is positive when more
            // than half its span is action, so positives actually show
            // the entity in the sampled frames (cleaner training signal).
            let action = v.action_frames_in(classes, start, start + stride);
            let label = action * 2 > stride;
            if (label && pos < per_video) || (!label && neg < per_video) {
                if let Some(seg) = SegmentTensor::extract(
                    v,
                    start,
                    config.resolution,
                    config.seg_len,
                    config.sampling_rate,
                ) {
                    let (vol, dims) = seg.to_volume();
                    out.push((vol, dims, label));
                    if label {
                        pos += 1;
                    } else {
                        neg += 1;
                    }
                }
            }
            start += stride;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use zeus_video::{ActionClass, ActionInterval, VideoId};

    fn tiny_video(id: u32, with_action: bool) -> Video {
        let intervals = if with_action {
            vec![ActionInterval::new(4, 28, ActionClass::CrossRight)]
        } else {
            vec![]
        };
        Video {
            id: VideoId(id),
            num_frames: 32,
            fps: 30.0,
            seed: id as u64 * 31 + 7,
            intervals,
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = R3dLite::new(&mut rng);
        let dims = [3usize, 2, 12, 12];
        let vol = vec![0.5f32; dims.iter().product()];
        let (feat, logits) = net.forward(&vol, dims);
        assert_eq!(feat.len(), R3D_LITE_FEATURES);
        assert_eq!(logits.len(), 2);
        assert!(feat.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn learns_to_separate_action_from_background() {
        // Small but real end-to-end training: 12x12 pixels, 2-frame
        // segments, a handful of videos. The entity brightness/motion is
        // the signal.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = R3dLite::new(&mut rng);

        let videos: Vec<Video> = (0..6).map(|i| tiny_video(i, i % 2 == 0)).collect();
        let refs: Vec<&Video> = videos.iter().collect();
        let config = Configuration::new(12, 2, 2);
        let samples = build_training_set(&refs, &[ActionClass::CrossRight], config, 3);
        assert!(samples.len() >= 12, "need a usable training set");
        let has_pos = samples.iter().any(|s| s.2);
        let has_neg = samples.iter().any(|s| !s.2);
        assert!(has_pos && has_neg, "training set must be mixed");

        let before = net.accuracy(&samples);
        let loss = net.fit(&samples, 30, 0.01);
        let after = net.accuracy(&samples);
        assert!(
            after >= 0.8,
            "R3dLite failed to learn: {before:.2} -> {after:.2} (loss {loss:.3})"
        );
    }

    #[test]
    fn generator_adapter_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = R3dLite::new(&mut rng);
        let g = R3dLiteGenerator::new(net);
        let v = tiny_video(0, true);
        let out = g.process(&v, 0, Configuration::new(12, 2, 2));
        assert_eq!(out.feature.len(), R3D_LITE_FEATURES);
        assert!((0.0..=1.0).contains(&out.confidence));
    }
}
