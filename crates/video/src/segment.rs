//! Configuration-driven frame sampling.
//!
//! A Configuration `(resolution r, segment length l, sampling rate s)`
//! applied at frame `f` covers the video span `[f, f + l·s)` and feeds the
//! network `l` frames sampled once every `s` frames at `r × r` pixels,
//! forming a `3 × l × r × r` input (§3). This module computes which frames
//! those are.

/// Frame indices sampled by a configuration applied at `start`: up to
/// `seg_len` indices spaced `sampling_rate` apart, clamped to the video,
/// in ascending order. Always yields at least one index when `start` is
/// in range. The indices are computed as they are read, so counting them
/// allocates nothing.
pub fn sample_indices(
    start: usize,
    seg_len: usize,
    sampling_rate: usize,
    video_frames: usize,
) -> impl Iterator<Item = usize> {
    assert!(seg_len > 0 && sampling_rate > 0, "invalid configuration");
    (0..seg_len)
        .map(move |i| start + i * sampling_rate)
        .take_while(move |&idx| idx < video_frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_indices_spacing() {
        let sampled = |start, l, s, frames| sample_indices(start, l, s, frames).collect::<Vec<_>>();
        assert_eq!(sampled(10, 4, 3, 1000), vec![10, 13, 16, 19]);
        assert_eq!(sampled(10, 4, 3, 15), vec![10, 13]);
        assert_eq!(sampled(99, 4, 3, 100), vec![99]);
    }

    #[test]
    fn figure6_example_first_step() {
        // Figure 6, t=1: config (150, 8, 8) at frame 1 processes segment
        // (1, 64) sampled once every 8 frames and jumps to frame 65.
        // (The paper uses 1-based inclusive frame numbers; we use 0-based
        // half-open, so start 0 covers [0, 64) = frames 1..64.)
        let samples = sample_indices(0, 8, 8, 1000).count();
        assert_eq!(samples, 8, "8x8 frames processed as 8 samples");
    }
}
