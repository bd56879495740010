//! Weight initialization schemes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for parameter initialization.
pub fn init_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// He (Kaiming) uniform initialization: `U(-b, b)` with
/// `b = sqrt(6 / fan_in)` — the right scale for ReLU networks.
///
/// # Panics
///
/// Panics if `fan_in` is zero.
pub fn he_uniform<R: Rng + ?Sized>(fan_in: usize, count: usize, rng: &mut R) -> Vec<f32> {
    assert!(fan_in > 0, "fan_in must be non-zero");
    let bound = (6.0 / fan_in as f64).sqrt() as f32;
    (0..count).map(|_| rng.gen_range(-bound..bound)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_uniform_is_bounded_and_centered() {
        let mut rng = init_rng(1);
        let w = he_uniform(100, 10_000, &mut rng);
        let bound = (6.0f64 / 100.0).sqrt() as f32;
        assert!(w.iter().all(|&x| x.abs() <= bound));
        let mean: f32 = w.iter().sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let a = he_uniform(10, 100, &mut init_rng(7));
        let b = he_uniform(10, 100, &mut init_rng(7));
        assert_eq!(a, b);
        let c = he_uniform(10, 100, &mut init_rng(8));
        assert_ne!(a, c);
    }
}
