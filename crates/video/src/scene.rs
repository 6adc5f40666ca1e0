//! Deterministic hash mixers.
//!
//! Corpus generation, the video splits and the APFG models draw their
//! per-video and per-segment randomness from these mixers, so every draw
//! is a pure function of its seeds.

/// Cheap deterministic 64-bit mixer (splitmix64 finalizer).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Combine two values into one hash.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixers_are_deterministic_and_spread() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        assert_ne!(mix2(1, 2), mix2(2, 1));
    }
}
