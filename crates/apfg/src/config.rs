//! The Configuration tuple: the three input knobs of §1/§3.

/// A concrete setting of the three input knobs (§3):
/// `(Resolution, Segment Length, Sampling Rate)`.
///
/// Applied at frame `f`, a configuration covers video span `[f, f + l·s)`
/// and feeds the APFG `l` frames sampled once every `s` frames at
/// `r × r` pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Configuration {
    /// Frame side length in pixels (square frames, §3).
    pub resolution: usize,
    /// Number of frames fed to the network.
    pub seg_len: usize,
    /// Sampling stride: one frame kept every `sampling_rate` frames.
    pub sampling_rate: usize,
}

impl Configuration {
    /// Construct a configuration; all knobs must be positive.
    pub fn new(resolution: usize, seg_len: usize, sampling_rate: usize) -> Self {
        assert!(
            resolution > 0 && seg_len > 0 && sampling_rate > 0,
            "knobs must be positive: ({resolution}, {seg_len}, {sampling_rate})"
        );
        Configuration {
            resolution,
            seg_len,
            sampling_rate,
        }
    }

    /// Video frames covered by one invocation: `l · s`.
    pub fn frames_covered(&self) -> usize {
        self.seg_len * self.sampling_rate
    }

    /// Input voxels processed per invocation: `l · r²` (per channel).
    pub fn voxels(&self) -> usize {
        self.seg_len * self.resolution * self.resolution
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {}, {})",
            self.resolution, self.seg_len, self.sampling_rate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure6_configs() {
        // Figure 6 uses (150, 8, 8): covers 64 frames per step.
        let fast = Configuration::new(150, 8, 8);
        assert_eq!(fast.frames_covered(), 64);
        // (300, 4, 1): covers 4 frames.
        let slow = Configuration::new(300, 4, 1);
        assert_eq!(slow.frames_covered(), 4);
    }

    #[test]
    fn voxels() {
        let c = Configuration::new(10, 4, 2);
        assert_eq!(c.voxels(), 400);
    }

    #[test]
    fn display_matches_paper_notation() {
        let c = Configuration::new(150, 8, 8);
        assert_eq!(c.to_string(), "(150, 8, 8)");
    }

    #[test]
    #[should_panic(expected = "knobs must be positive")]
    fn zero_knob_panics() {
        let _ = Configuration::new(100, 0, 1);
    }
}
