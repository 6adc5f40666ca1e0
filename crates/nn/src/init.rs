//! Weight initialisation with explicit, seedable RNGs.
//!
//! Deterministic initialisation matters here: the benchmark harness must
//! regenerate the paper's tables bit-for-bit across runs, so every random
//! draw flows through a caller-provided RNG rather than thread-local state.

use rand::Rng;

/// Sample from an approximately standard normal distribution using the
/// sum-of-uniforms method (Irwin–Hall with 12 draws), which avoids pulling
/// in a distribution crate and is plenty for weight init.
pub fn randn(rng: &mut impl Rng) -> f32 {
    let mut acc = 0.0f32;
    for _ in 0..12 {
        acc += rng.gen::<f32>();
    }
    acc - 6.0
}

/// He (Kaiming) normal initialisation: `N(0, sqrt(2 / fan_in))`, preferred
/// for ReLU networks such as the Q-network.
pub fn he_normal(fan_in: usize, n: usize, rng: &mut impl Rng) -> Vec<f32> {
    let std = (2.0 / fan_in as f32).sqrt();
    (0..n).map(|_| randn(rng) * std).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn he_normal_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let fan_in = 128;
        let w = he_normal(fan_in, 20_000, &mut rng);
        let mean: f32 = w.iter().sum::<f32>() / w.len() as f32;
        let var: f32 = w.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / w.len() as f32;
        let want_std = (2.0 / fan_in as f32).sqrt();
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!(
            (var.sqrt() - want_std).abs() / want_std < 0.05,
            "std {} vs expected {want_std}",
            var.sqrt()
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(11);
        let mut b = ChaCha8Rng::seed_from_u64(11);
        assert_eq!(he_normal(8, 64, &mut a), he_normal(8, 64, &mut b));
    }

    #[test]
    fn randn_is_roughly_standard() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let xs: Vec<f32> = (0..20_000).map(|_| randn(&mut rng)).collect();
        let mean: f32 = xs.iter().sum::<f32>() / xs.len() as f32;
        let var: f32 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.05);
    }
}
