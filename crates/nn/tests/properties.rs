//! Property-based tests for the neural network substrate.

use nn::init::init_rng;
use nn::layer::Layer;
use nn::layers::{Dense, Relu};
use nn::network::Network;
use nn::permute::{permute_hidden_neurons, Permutation};
use nn::pruning::magnitude_prune;
use nn::tensor::Tensor;
use proptest::prelude::*;

/// `a · bᵀ` as one serial dot product per output, summed in ascending `p`
/// from +0.0: the loop `Tensor::matmul_nt` ran before it packed `bᵀ` for
/// the SAXPY kernel, kept as its oracle.
fn matmul_nt_dot_loop(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let k = a.cols();
    a.data()
        .chunks_exact(k)
        .flat_map(|a_row| {
            b.data().chunks_exact(k).map(move |b_row| {
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                acc
            })
        })
        .collect()
}

proptest! {
    /// `matmul_nt` equals the dot-product oracle bit for bit over awkward
    /// shapes (`m` or `n` of 1, `k` below the lane width, ragged `n`). The
    /// left operand mixes signed zeros, subnormals, NaN and infinities, and
    /// its rows alternate between either side of the zero-skip gate; the
    /// right operand is finite, the skip's exactness condition. Rust leaves
    /// a NaN's sign and payload unspecified, so a NaN output only has to be
    /// NaN on both sides.
    #[test]
    fn matmul_nt_matches_dot_product_oracle(
        seed in 0u64..1_000,
        m in 1usize..5,
        k in 1usize..13,
        n in 1usize..20,
    ) {
        use rand::Rng;
        let mut rng = init_rng(seed);
        let special = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 3.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut a = Vec::with_capacity(m * k);
        for row in 0..m {
            // Mostly zeros on every other row: those take the skip path.
            let zero_share = if (row + seed as usize).is_multiple_of(2) { 0.8 } else { 0.1 };
            for _ in 0..k {
                a.push(if rng.gen_bool(zero_share) {
                    if rng.gen_bool(0.5) { 0.0 } else { -0.0 }
                } else if rng.gen_bool(0.3) {
                    special[rng.gen_range(0..special.len())]
                } else {
                    rng.gen_range(-2.0f32..2.0)
                });
            }
        }
        let b: Vec<f32> = (0..n * k)
            .map(|_| match rng.gen_range(0..8) {
                0 => -0.0,
                1 => f32::MIN_POSITIVE / 5.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        let a = Tensor::from_vec(vec![m, k], a);
        let b = Tensor::from_vec(vec![n, k], b);
        let got = a.matmul_nt(&b);
        prop_assert_eq!(got.shape(), &[m, n][..]);
        for (g, want) in got.data().iter().zip(matmul_nt_dot_loop(&a, &b)) {
            if want.is_nan() {
                prop_assert!(g.is_nan(), "{} where the oracle gives NaN", g);
            } else {
                prop_assert_eq!(g.to_bits(), want.to_bits(), "{} vs {}", g, want);
            }
        }
    }

    /// matmul is associative with vectors: (A·B)·x == A·(B·x).
    #[test]
    fn matmul_is_associative(seed in 0u64..500) {
        use rand::Rng;
        let mut rng = init_rng(seed);
        let rand_t = |r: usize, c: usize, rng: &mut rand::rngs::StdRng| {
            Tensor::from_vec(
                vec![r, c],
                (0..r * c).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            )
        };
        let a = rand_t(3, 4, &mut rng);
        let b = rand_t(4, 5, &mut rng);
        let x = rand_t(5, 1, &mut rng);
        let lhs = a.matmul(&b).matmul(&x);
        let rhs = a.matmul(&b.matmul(&x));
        for (l, r) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((l - r).abs() < 1e-4);
        }
    }

    /// ReLU forward is idempotent: relu(relu(x)) == relu(x).
    #[test]
    fn relu_is_idempotent(values in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
        let mut relu = Relu::new();
        let n = values.len();
        let x = Tensor::from_vec(vec![1, n], values);
        let once = relu.forward(&x, false);
        let twice = relu.forward(&once, false);
        prop_assert_eq!(once.data(), twice.data());
    }

    /// Neuron permutation never changes a network's function, for any valid
    /// hidden-layer permutation.
    #[test]
    fn permutation_preserves_function(seed in 0u64..200, hidden in 2usize..12) {
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(Dense::new(5, hidden, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(hidden, 3, &mut rng));
        let x = Tensor::from_vec(
            vec![2, 5],
            (0..10).map(|i| ((i as f32) * 0.7 + seed as f32).sin()).collect(),
        );
        let before = net.forward(&x);
        let perm = Permutation::random(hidden, &mut rng);
        permute_hidden_neurons(&mut net, 0, &perm).unwrap();
        let after = net.forward(&x);
        for (a, b) in before.data().iter().zip(after.data()) {
            prop_assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
        }
    }

    /// Applying a permutation and then its inverse restores the weights.
    #[test]
    fn permutation_inverse_roundtrips(seed in 0u64..200, hidden in 2usize..12) {
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(Dense::new(4, hidden, &mut rng));
        net.push(Dense::new(hidden, 2, &mut rng));
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        let perm = Permutation::random(hidden, &mut rng);
        permute_hidden_neurons(&mut net, 0, &perm).unwrap();
        permute_hidden_neurons(&mut net, 0, &perm.inverse()).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        prop_assert_eq!(before, after);
    }

    /// Magnitude pruning marks exactly the requested fraction (up to
    /// rounding) and only the smallest-magnitude weights.
    #[test]
    fn pruning_fraction_and_ordering(seed in 0u64..200, fraction in 0.0f64..1.0) {
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(Dense::new(8, 8, &mut rng));
        let mask = magnitude_prune(&mut net, fraction);
        let expected = (fraction * 64.0).round() as usize;
        let actual = mask.layer(0).pruned.iter().filter(|&&p| p).count();
        prop_assert_eq!(actual, expected);
        let params = net.layer_params_mut(0).unwrap();
        let pruned_max = params
            .weights
            .iter()
            .zip(&mask.layer(0).pruned)
            .filter(|(_, &p)| p)
            .map(|(w, _)| w.abs())
            .fold(0.0f32, f32::max);
        let kept_min = params
            .weights
            .iter()
            .zip(&mask.layer(0).pruned)
            .filter(|(_, &p)| !p)
            .map(|(w, _)| w.abs())
            .fold(f32::INFINITY, f32::min);
        prop_assert!(pruned_max <= kept_min);
    }

    /// Softmax cross-entropy loss is always non-negative and its gradient
    /// rows sum to ~zero.
    #[test]
    fn cross_entropy_invariants(
        logits in proptest::collection::vec(-5.0f32..5.0, 6),
        label in 0usize..3,
    ) {
        let t = Tensor::from_vec(vec![2, 3], logits);
        let (loss, grad) = nn::loss::softmax_cross_entropy(&t, &[label, (label + 1) % 3]);
        prop_assert!(loss >= 0.0);
        for row in grad.data().chunks(3) {
            let s: f32 = row.iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }
}
