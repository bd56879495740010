//! Property-based tests for the neural network substrate.

use nn::init::init_rng;
use nn::layer::Layer;
use nn::layers::{Conv2d, Dense, Relu};
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

/// One convolution's geometry: `[c, h, w]` samples, a `k × k` kernel.
#[derive(Debug, Clone, Copy)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

impl Geom {
    fn out_hw(&self) -> (usize, usize) {
        (
            (self.h + 2 * self.pad - self.k) / self.stride + 1,
            (self.w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// The input element under tap `(ky, kx)` of output `(oy, ox)`, if it
    /// is not padding: a bounds test per element.
    fn source(&self, (oy, ox): (usize, usize), (ky, kx): (usize, usize)) -> Option<usize> {
        let iy = (oy * self.stride + ky).checked_sub(self.pad)?;
        let ix = (ox * self.stride + kx).checked_sub(self.pad)?;
        (iy < self.h && ix < self.w).then_some(iy * self.w + ix)
    }
}

/// `im2col` as `Conv2d` ran it before it chose an orientation per layer:
/// the `[positions, c·k²]` patch matrix of one sample.
fn im2col_reference(x: &[f32], g: Geom) -> Tensor {
    let (oh, ow) = g.out_hw();
    let mut cols = Vec::with_capacity(oh * ow * g.c * g.k * g.k);
    for oy in 0..oh {
        for ox in 0..ow {
            for plane in x.chunks_exact(g.h * g.w) {
                for ky in 0..g.k {
                    for kx in 0..g.k {
                        cols.push(g.source((oy, ox), (ky, kx)).map_or(0.0, |i| plane[i]));
                    }
                }
            }
        }
    }
    Tensor::from_vec(vec![oh * ow, g.c * g.k * g.k], cols)
}

/// `col2im`, the adjoint of [`im2col_reference`], as `Conv2d` ran it.
fn col2im_reference(cols: &Tensor, g: Geom) -> Vec<f32> {
    let (oh, ow) = g.out_hw();
    let mut out = vec![0.0f32; g.c * g.h * g.w];
    let mut patches = cols.data().chunks_exact(cols.cols());
    for oy in 0..oh {
        for ox in 0..ow {
            let mut taps = patches.next().unwrap().iter();
            for plane in out.chunks_exact_mut(g.h * g.w) {
                for ky in 0..g.k {
                    for kx in 0..g.k {
                        let v = *taps.next().unwrap();
                        if let Some(i) = g.source((oy, ox), (ky, kx)) {
                            plane[i] += v;
                        }
                    }
                }
            }
        }
    }
    out
}

/// `(y, dW, db, dX)` of a convolution by the patch-major path `Conv2d`
/// ran before it chose an orientation per layer: per sample, `im2col`,
/// `y = cols · W`, `dW += colsᵀ · G` (`matmul_tn`), `db` summed position
/// by position, and `dX = col2im(G · Wᵀ)` (`matmul_nt`).
fn conv_reference(x: &Tensor, (w, b): (&Tensor, &[f32]), grad: &Tensor, g: Geom) -> [Vec<f32>; 4] {
    let out_ch = w.cols();
    let (oh, ow) = g.out_hw();
    let positions = oh * ow;
    let (mut y, mut dw, mut db, mut dx) = (
        Vec::new(),
        vec![0.0f32; w.len()],
        vec![0.0f32; out_ch],
        Vec::new(),
    );
    let samples = x.data().chunks_exact(g.c * g.h * g.w);
    for (sample, gs) in samples.zip(grad.data().chunks_exact(out_ch * positions)) {
        let cols = im2col_reference(sample, g);
        let yp = cols.matmul(w);
        for (oc, &bias) in b.iter().enumerate() {
            y.extend((0..positions).map(|p| yp.at2(p, oc) + bias));
        }
        let mut gmat = Tensor::zeros(vec![positions, out_ch]);
        for (oc, g_row) in gs.chunks_exact(positions).enumerate() {
            for (p, &v) in g_row.iter().enumerate() {
                *gmat.at2_mut(p, oc) = v;
            }
        }
        for (acc, &v) in dw.iter_mut().zip(cols.matmul_tn(&gmat).data()) {
            *acc += v;
        }
        for p in 0..positions {
            for (oc, d) in db.iter_mut().enumerate() {
                *d += gmat.at2(p, oc);
            }
        }
        dx.extend(col2im_reference(&gmat.matmul_nt(w), g));
    }
    [y, dw, db, dx]
}

/// Bit-for-bit equality, except that a NaN only has to be NaN on both
/// sides (Rust leaves a NaN's sign and payload unspecified).
fn same_bits(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, want {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| {
        if w.is_nan() {
            !g.is_nan()
        } else {
            g.to_bits() != w.to_bits()
        }
    }) {
        Some(i) => Err(format!("[{i}]: {} vs {}", got[i], want[i])),
        None => Ok(()),
    }
}

/// A finite value: a signed zero with probability `zero_share`, else a
/// subnormal, a magnitude near `f32::MAX`'s square root (products of two
/// overflow to ±∞, and sums of those to NaN) or an ordinary value.
fn awkward_value(rng: &mut rand::rngs::StdRng, zero_share: f64) -> f32 {
    use rand::Rng;
    if rng.gen_bool(zero_share) {
        return if rng.gen_bool(0.7) { 0.0 } else { -0.0 };
    }
    match rng.gen_range(0..20) {
        0 => f32::MIN_POSITIVE / 8.0,
        1 => -f32::MIN_POSITIVE / 3.0,
        2 => 3e19,
        3 => -2e19,
        _ => rng.gen_range(-2.0f32..2.0),
    }
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

    /// `Conv2d`'s forward, `dW`, `db` and `dX` equal the patch-major
    /// reference ([`conv_reference`]) bit for bit, for every kernel in
    /// {1, 2, 3, 5}, stride in {1, 2} and padding in {0, 1, 2}, at batch 1
    /// and 3, with output channels on both sides of the orientation rule
    /// (channel-major when a sample has more positions than output
    /// channels). Every operand is finite, the zero skips' exactness
    /// condition (DESIGN.md §6.3): signed zeros, subnormals, ReLU-sparse
    /// inputs, gradients that a 2×2 max-pool leaves three-quarters zero,
    /// and magnitudes whose products overflow, so some outputs are ±∞ or
    /// NaN.
    #[test]
    fn conv2d_matches_the_patch_major_reference(seed in 0u64..1_000) {
        use rand::Rng;
        let mut rng = init_rng(seed);
        let combos = [1usize, 2, 3, 5].into_iter().flat_map(|k| {
            [1, 2].into_iter().flat_map(move |stride| [0, 1, 2].map(|pad| (k, stride, pad)))
        });
        for (i, (k, stride, pad)) in combos.enumerate() {
            let channel_major = (i + seed as usize).is_multiple_of(2);
            let batch = if (i / 2 + seed as usize).is_multiple_of(2) { 1 } else { 3 };
            // At least two output rows and columns, so both sides of the
            // rule exist; inputs smaller than the kernel where padding
            // allows.
            let lo = (k + 2).saturating_sub(2 * pad).max(1);
            let g = Geom {
                c: rng.gen_range(1..4),
                h: rng.gen_range(lo..=k + 3),
                w: rng.gen_range(lo..=k + 3),
                k,
                stride,
                pad,
            };
            let (oh, ow) = g.out_hw();
            let positions = oh * ow;
            let out_ch = if channel_major {
                rng.gen_range(1..positions).min(rng.gen_range(1..9))
            } else {
                rng.gen_range(positions..positions + 4)
            };
            prop_assert_eq!(positions > out_ch, channel_major);
            let mut conv = Conv2d::new(g.c, out_ch, k, stride, pad, &mut rng);
            {
                let p = conv.params().unwrap();
                for v in p.weights.iter_mut() {
                    *v = awkward_value(&mut rng, 0.3);
                }
                for v in p.bias.unwrap().iter_mut() {
                    *v = rng.gen_range(-1.0f32..1.0);
                }
            }
            let x_share = if rng.gen_bool(0.5) { 0.6 } else { 0.1 };
            let x_len = batch * g.c * g.h * g.w;
            let x = Tensor::from_vec(
                vec![batch, g.c, g.h, g.w],
                (0..x_len).map(|_| awkward_value(&mut rng, x_share)).collect(),
            );
            // Max-pool-sparse: one entry in each 2×2 window is nonzero.
            let pooled = rng.gen_bool(0.5);
            let grad = Tensor::from_vec(
                vec![batch, out_ch, oh, ow],
                (0..batch * out_ch * positions)
                    .map(|j| {
                        let (oy, ox) = (j % positions / ow, j % ow);
                        if pooled && (oy % 2, ox % 2) != (j / positions % 2, j / positions / 2 % 2) {
                            0.0
                        } else {
                            awkward_value(&mut rng, 0.2)
                        }
                    })
                    .collect(),
            );
            let (w, b) = {
                let p = conv.params().unwrap();
                let w = Tensor::from_vec(vec![p.weight_shape.0, p.weight_shape.1], p.weights.to_vec());
                (w, p.bias.unwrap().to_vec())
            };
            let [y_ref, dw_ref, db_ref, dx_ref] = conv_reference(&x, (&w, &b), &grad, g);
            let case = format!("{g:?} out_ch {out_ch} batch {batch}");
            // An inference forward must match too, and must leave the
            // training forward's lowering for `backward`.
            let y = conv.forward(&x, true);
            let inference = conv.forward(&x, false);
            let dx = conv.backward(&grad, true).unwrap();
            let p = conv.params().unwrap();
            for (what, got, want) in [
                ("y", y.data(), &y_ref),
                ("inference y", inference.data(), &y_ref),
                ("dW", p.weight_grad, &dw_ref),
                ("db", p.bias_grad.unwrap(), &db_ref),
                ("dX", dx.data(), &dx_ref),
            ] {
                prop_assert_eq!(same_bits(got, want), Ok(()), "{} {}", case, what);
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
