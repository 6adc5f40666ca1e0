//! The `FeatureGenerator` interface and `ProxyFeature` layout.

use zeus_video::Video;

use crate::config::Configuration;

/// Dimensionality of a ProxyFeature vector.
///
/// The paper's R3D emits 512-d embeddings; the information the RL agent
/// actually exploits is low-dimensional (segment evidence, boundary
/// signals, configuration identity), so the simulated APFG emits a compact
/// 16-d vector: 4 evidence channels, the prediction and its confidence, 4
/// configuration channels, and 6 distractor/noise channels that stand in
/// for the uninformative directions of a real embedding.
pub const FEATURE_DIM: usize = 16;

/// Output of one APFG invocation over a segment.
#[derive(Debug, Clone, PartialEq)]
pub struct ApfgOutput {
    /// The ProxyFeature vector (length [`FEATURE_DIM`] for the simulated
    /// APFG; model-defined for real networks).
    pub feature: Vec<f32>,
    /// Binary prediction: `true` = ACTION present in the segment.
    pub prediction: bool,
    /// Model confidence for the positive class, in `[0, 1]`.
    pub confidence: f32,
}

/// Anything that can act as the APFG: maps `(video, position, config)` to a
/// ProxyFeature and a prediction.
///
/// Implemented by [`crate::simulated::SimulatedApfg`].
pub trait FeatureGenerator {
    /// Feature vector length this generator emits.
    fn feature_dim(&self) -> usize;

    /// Process the segment starting at `start` under `config`.
    ///
    /// `start` must be a valid frame index of `video`.
    fn process(&self, video: &Video, start: usize, config: Configuration) -> ApfgOutput;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl FeatureGenerator for Dummy {
        fn feature_dim(&self) -> usize {
            2
        }
        fn process(&self, _video: &Video, start: usize, _config: Configuration) -> ApfgOutput {
            ApfgOutput {
                feature: vec![start as f32, 1.0],
                prediction: start.is_multiple_of(2),
                confidence: 0.5,
            }
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let gens: Vec<Box<dyn FeatureGenerator>> = vec![Box::new(Dummy)];
        let video = zeus_video::Video {
            id: zeus_video::VideoId(0),
            num_frames: 10,
            fps: 30.0,
            seed: 0,
            intervals: vec![],
        };
        let out = gens[0].process(&video, 4, Configuration::new(100, 2, 1));
        assert_eq!(out.feature, vec![4.0, 1.0]);
        assert!(out.prediction);
    }
}
