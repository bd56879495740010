//! 2-D convolution layer: a lowered patch matrix and SAXPY products.

use crate::init::he_uniform;
use crate::layer::{Layer, LayerParams};
use crate::tensor::{axpy, saxpy_gemm_into, transpose_into, transpose_with, ConvGeom, Tensor};
use rand::Rng;

/// A 2-D convolution over `[B, C, H, W]` activations.
///
/// The kernel tensor is stored as a `[in_ch · k · k, out_ch]` matrix — the
/// exact shape mapped onto an RRAM crossbar (receptive field on the rows,
/// output channels on the columns), so the fault-tolerant trainer can treat
/// convolutional and dense layers uniformly.
///
/// The forward and weight-gradient products run along the longer of a
/// sample's output positions and output channels (DESIGN.md §6.10). With
/// more positions than channels the layer is *channel-major*: the forward
/// computes `Wᵀ · colsᵀ` straight into its NCHW planes, one receptive-field
/// tap of the input at a time, and `backward` computes `dWᵀ = G · cols`
/// with `G` in its own `[out_ch, positions]` layout. Otherwise it is
/// *patch-major*: `cols · W`, and `dW = colsᵀ · Gᵀ`. `cols` is the patch
/// matrix, which a training forward keeps for `backward`; `dX` is
/// `col2im(Gᵀ · Wᵀ)` in both. `dW`, the product scratch and the `Wᵀ` pack
/// persist across calls, so no call faults their pages in again.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    w: Tensor,
    b: Vec<f32>,
    dw: Tensor,
    db: Vec<f32>,
    /// Input shape `[B, C, H, W]` of the training forward whose lowering
    /// `cols` holds; `backward` takes it.
    lowered: Option<[usize; 4]>,
    /// The kept lowering: `B` patch matrices of `[positions, rows]`.
    cols: Vec<f32>,
    /// One sample's `dW` product, `[out_ch, rows]` or `[rows, out_ch]`.
    prod: Vec<f32>,
    /// `Wᵀ`, `[out_ch, rows]`, packed once per backward for `dX`.
    wt: Vec<f32>,
    /// One sample's `Gᵀ`, `[positions, out_ch]`.
    gmat: Vec<f32>,
    /// One sample's patch gradient, `[positions, rows]`, or its patch
    /// matrix transposed.
    dcols: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution with He-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            in_ch > 0 && out_ch > 0 && k > 0 && stride > 0,
            "conv dims must be non-zero"
        );
        let rows = in_ch * k * k;
        let w = Tensor::from_vec(vec![rows, out_ch], he_uniform(rows, rows * out_ch, rng));
        Self {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            w,
            b: vec![0.0; out_ch],
            dw: Tensor::zeros(vec![rows, out_ch]),
            db: vec![0.0; out_ch],
            lowered: None,
            cols: Vec::new(),
            prod: Vec::new(),
            wt: Vec::new(),
            gmat: Vec::new(),
            dcols: Vec::new(),
        }
    }

    /// A 3×3 stride-1 same-padding convolution (the VGG building block).
    pub fn vgg_block<R: Rng + ?Sized>(in_ch: usize, out_ch: usize, rng: &mut R) -> Self {
        Self::new(in_ch, out_ch, 3, 1, 1, rng)
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    fn geometry(&self, shape: &[usize]) -> ConvGeom {
        assert_eq!(shape.len(), 4, "conv2d expects [B, C, H, W], got {shape:?}");
        assert_eq!(
            shape[1], self.in_ch,
            "conv2d expects {} input channels",
            self.in_ch
        );
        ConvGeom::new(
            (shape[1], shape[2], shape[3]),
            self.k,
            self.stride,
            self.pad,
        )
    }

    /// One sample's output planes `dst` (`[out_ch, positions]`). `patches`
    /// receives the sample's patch matrix when the caller keeps it;
    /// `offsets` is [`ConvGeom::tap_offsets`].
    fn forward_sample(
        &self,
        g: &ConvGeom,
        offsets: &[usize],
        x: &[f32],
        patches: Option<&mut [f32]>,
        scratch: &mut Scratch,
        dst: &mut [f32],
    ) {
        let (positions, rows) = (g.positions(), g.rows());
        let Scratch {
            padded,
            taps,
            cols,
            y,
        } = scratch;
        g.pad_sample(x, padded);
        if positions > self.out_ch {
            // Channel-major: out[oc, :] += W[r, oc] · (tap r of the input),
            // taps in ascending r, so each output sums its products in the
            // order of the patch-major dot product. A kept patch matrix is
            // the transpose of the tap rows the product reads.
            taps.resize(if patches.is_some() { rows } else { 1 } * positions, 0.0);
            dst.fill(0.0);
            for (r, w_row) in self.w.data().chunks_exact(self.out_ch).enumerate() {
                let tap = match patches {
                    Some(_) => &mut taps[r * positions..(r + 1) * positions],
                    None => &mut taps[..],
                };
                g.lower_tap(padded, r, tap);
                for (&wv, plane) in w_row.iter().zip(dst.chunks_exact_mut(positions)) {
                    axpy(wv, tap, plane);
                }
            }
            if let Some(cols) = patches {
                transpose_into(taps, rows, positions, cols);
            }
            for (plane, &b) in dst.chunks_exact_mut(positions).zip(&self.b) {
                for v in plane {
                    *v += b;
                }
            }
        } else {
            let cols = match patches {
                Some(cols) => cols,
                None => {
                    cols.resize(positions * rows, 0.0);
                    &mut cols[..]
                }
            };
            g.lower_patches(padded, offsets, cols);
            y.resize(positions * self.out_ch, 0.0);
            saxpy_gemm_into(cols, self.w.data(), rows, self.out_ch, y);
            for (oc, (plane, &b)) in dst.chunks_exact_mut(positions).zip(&self.b).enumerate() {
                for (v, y_row) in plane.iter_mut().zip(y.chunks_exact(self.out_ch)) {
                    *v = y_row[oc] + b;
                }
            }
        }
    }
}

/// One forward worker's buffers, reused across its samples.
#[derive(Default)]
struct Scratch {
    /// The padded sample.
    padded: Vec<f32>,
    /// Tap rows of the transposed patch matrix.
    taps: Vec<f32>,
    /// A patch matrix the caller does not keep.
    cols: Vec<f32>,
    /// The patch-major product, `[positions, out_ch]`.
    y: Vec<f32>,
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let g = self.geometry(input.shape());
        let batch = input.shape()[0];
        let (positions, sample_len) = (g.positions(), g.sample_len());
        let out_len = self.out_ch * positions;
        let cols_len = positions * g.rows();
        let mut out = vec![0.0f32; batch * out_len];
        // A training forward lowers into the kept buffer, one patch
        // matrix per sample; an inference forward keeps nothing and leaves
        // a pending training forward's lowering alone.
        let mut kept = Vec::new();
        if train {
            kept = std::mem::take(&mut self.cols);
            kept.resize(batch * cols_len, 0.0);
        }
        let mut kept_chunks = kept.chunks_exact_mut(cols_len);
        let mut jobs: Vec<(&mut [f32], Option<&mut [f32]>)> = out
            .chunks_exact_mut(out_len)
            .map(|dst| (dst, kept_chunks.next()))
            .collect();
        // Samples are independent, so the batch fans out in whole-sample
        // blocks; each sample's lowering and product stay on its worker.
        let sample_ops = positions * self.w.len();
        let offsets = g.tap_offsets();
        let this = &*self;
        par::for_each_chunk_mut(&mut jobs, sample_ops, |b0, block| {
            let mut scratch = Scratch::default();
            for (i, (dst, patches)) in block.iter_mut().enumerate() {
                let x = &input.data()[(b0 + i) * sample_len..][..sample_len];
                this.forward_sample(&g, &offsets, x, patches.as_deref_mut(), &mut scratch, dst);
            }
        });
        drop(jobs);
        if train {
            self.cols = kept;
            self.lowered = Some([batch, g.channels, g.height, g.width]);
        }
        Tensor::from_vec(vec![batch, self.out_ch, g.out_h, g.out_w], out)
    }

    fn backward(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        #[expect(
            clippy::expect_used,
            reason = "documented `Layer::backward` contract — a training-mode forward must precede \
                      backward (see the trait's `# Panics` section)"
        )]
        let shape = self
            .lowered
            .take()
            .expect("backward called without a training-mode forward");
        let g = self.geometry(&shape);
        let batch = shape[0];
        let (positions, rows, out_ch) = (g.positions(), g.rows(), self.out_ch);
        assert_eq!(grad_out.shape(), &[batch, out_ch, g.out_h, g.out_w]);
        let sample_len = g.sample_len();
        let channel_major = positions > out_ch;
        self.db.fill(0.0);
        self.prod.resize(out_ch * rows, 0.0);
        self.gmat.resize(positions * out_ch, 0.0);
        self.dcols.resize(positions * rows, 0.0);
        let (offsets, mut padded) = (g.tap_offsets(), Vec::new());
        let mut dx = input_grad.then(|| {
            self.wt.resize(out_ch * rows, 0.0);
            transpose_into(self.w.data(), rows, out_ch, &mut self.wt);
            vec![0.0f32; batch * sample_len]
        });
        let samples = grad_out.data().chunks_exact(out_ch * positions);
        for (bidx, (gs, cols)) in samples
            .zip(self.cols.chunks_exact(positions * rows))
            .enumerate()
        {
            // db += row sums of G, ascending position.
            for (d, g_row) in self.db.iter_mut().zip(gs.chunks_exact(positions)) {
                for &v in g_row {
                    *d += v;
                }
            }
            if dx.is_some() || !channel_major {
                transpose_into(gs, out_ch, positions, &mut self.gmat);
            }
            // One sample's dW, along the forward product's axis, into
            // `prod`, then added into dW in sample order.
            let add = |d: &mut f32, v: f32| if bidx == 0 { *d = v } else { *d += v };
            if channel_major {
                // dWᵀ = G · cols: rows of `rows`, skipping zeros of G.
                saxpy_gemm_into(gs, cols, positions, rows, &mut self.prod);
                transpose_with(&self.prod, out_ch, rows, self.dw.data_mut(), add);
            } else {
                // dW = colsᵀ · Gᵀ: rows of `out_ch`, from `dcols`
                // holding colsᵀ until dX needs it.
                transpose_into(cols, positions, rows, &mut self.dcols);
                saxpy_gemm_into(&self.dcols, &self.gmat, positions, out_ch, &mut self.prod);
                for (d, &v) in self.dw.data_mut().iter_mut().zip(&self.prod) {
                    add(d, v);
                }
            }
            // dX = col2im(Gᵀ · Wᵀ).
            if let Some(dx) = dx.as_mut() {
                saxpy_gemm_into(&self.gmat, &self.wt, out_ch, rows, &mut self.dcols);
                let dst = &mut dx[bidx * sample_len..][..sample_len];
                g.fold_patches(&self.dcols, &offsets, &mut padded, dst);
            }
        }
        dx.map(|dx| Tensor::from_vec(shape.to_vec(), dx))
    }

    fn params(&mut self) -> Option<LayerParams<'_>> {
        let rows = self.in_ch * self.k * self.k;
        Some(LayerParams {
            weights: self.w.data_mut(),
            weight_grad: self.dw.data(),
            weight_shape: (rows, self.out_ch),
            bias: Some(&mut self.b),
            bias_grad: Some(&self.db),
        })
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }

    fn weight_count(&self) -> usize {
        self.in_ch * self.k * self.k * self.out_ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init_rng;

    #[test]
    fn forward_identity_kernel_passes_input_through() {
        let mut rng = init_rng(1);
        // 1x1 kernel with weight 1 is the identity for 1->1 channels.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.w = Tensor::from_vec(vec![1, 1], vec![1.0]);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn forward_known_3x3_sum_kernel() {
        let mut rng = init_rng(2);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        conv.w = Tensor::from_vec(vec![9, 1], vec![1.0; 9]);
        let x = Tensor::from_vec(vec![1, 1, 3, 3], vec![1.0; 9]);
        let y = conv.forward(&x, false);
        // Center output sums all 9 ones; corners see only 4.
        assert_eq!(y.at_center(), 9.0);
        assert_eq!(y.data()[0], 4.0);
    }

    trait CenterExt {
        fn at_center(&self) -> f32;
    }
    impl CenterExt for Tensor {
        fn at_center(&self) -> f32 {
            self.data()[self.len() / 2]
        }
    }

    /// Checks `conv`'s `dW`, `db` and `dX` at a few entries against
    /// forward differences of the summed output.
    fn assert_gradients_match_finite_differences(mut conv: Conv2d, x: &Tensor) {
        let y = conv.forward(x, true);
        let ones = Tensor::from_vec(y.shape().to_vec(), vec![1.0; y.len()]);
        let dx = conv.backward(&ones, true).unwrap();

        let eps = 1e-2;
        let loss =
            |conv: &mut Conv2d, x: &Tensor| -> f32 { conv.forward(x, false).data().iter().sum() };
        let base = loss(&mut conv, x);
        let check = |what: &str, i: usize, plus: f32, analytic: f32| {
            let fd = (plus - base) / eps;
            assert!(
                (fd - analytic).abs() < 0.05,
                "{what}[{i}]: fd {fd} vs {analytic}"
            );
        };
        let (w_len, x_len) = (conv.w.len(), x.len());
        for w_idx in [0, w_len / 3, w_len - 1] {
            conv.w.data_mut()[w_idx] += eps;
            let plus = loss(&mut conv, x);
            conv.w.data_mut()[w_idx] -= eps;
            check("dW", w_idx, plus, conv.dw.data()[w_idx]);
        }
        for b_idx in [0, conv.out_ch - 1] {
            conv.b[b_idx] += eps;
            let plus = loss(&mut conv, x);
            conv.b[b_idx] -= eps;
            check("db", b_idx, plus, conv.db[b_idx]);
        }
        for x_idx in [0, x_len / 3 + 1, x_len - 1] {
            let mut x2 = x.clone();
            x2.data_mut()[x_idx] += eps;
            check("dX", x_idx, loss(&mut conv, &x2), dx.data()[x_idx]);
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `len` deterministic inputs in [-0.6, 0.6].
    fn ramp(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1)
            .collect()
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = init_rng(3);
        let x = Tensor::from_vec(vec![1, 2, 4, 4], ramp(32));
        // 16 positions: channel-major at 3 output channels, patch-major
        // at 24.
        for out_ch in [3, 24] {
            assert_gradients_match_finite_differences(
                Conv2d::new(2, out_ch, 3, 1, 1, &mut rng),
                &x,
            );
        }
    }

    #[test]
    fn stride_two_unpadded_gradients_match_finite_differences() {
        let mut rng = init_rng(8);
        // 8×8 → 3×3 with a 3×3 kernel: no output reads the last input row
        // or column, so their `dX` is zero. Batch 2, both orientations
        // (9 positions against 4 and 12 output channels).
        let x = Tensor::from_vec(vec![2, 2, 8, 8], ramp(2 * 2 * 8 * 8));
        for out_ch in [4, 12] {
            assert_gradients_match_finite_differences(
                Conv2d::new(2, out_ch, 3, 2, 0, &mut rng),
                &x,
            );
        }
    }

    #[test]
    #[should_panic(expected = "backward called without a training-mode forward")]
    fn backward_consumes_the_kept_lowering() {
        let mut rng = init_rng(9);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let y = conv.forward(&Tensor::from_vec(vec![1, 2, 4, 4], ramp(32)), true);
        let ones = Tensor::from_vec(y.shape().to_vec(), vec![1.0; y.len()]);
        let _ = conv.backward(&ones, true);
        let _ = conv.backward(&ones, true);
    }

    #[test]
    fn inference_between_forward_and_backward_leaves_gradients_unchanged() {
        let mut rng = init_rng(10);
        for out_ch in [3, 24] {
            let mut plain = Conv2d::new(2, out_ch, 3, 1, 1, &mut rng);
            let mut interleaved = plain.clone();
            let x = Tensor::from_vec(vec![2, 2, 4, 4], ramp(64));
            let g = Tensor::from_vec(
                vec![2, out_ch, 4, 4],
                (0..2 * out_ch * 16)
                    .map(|i| (i as f32 * 0.31).cos())
                    .collect(),
            );
            let _ = plain.forward(&x, true);
            let dx = plain.backward(&g, true).unwrap();
            let _ = interleaved.forward(&x, true);
            // A different batch and image size in between.
            let _ = interleaved.forward(&Tensor::from_vec(vec![3, 2, 5, 5], ramp(150)), false);
            let dx2 = interleaved.backward(&g, true).unwrap();
            assert_eq!(bits(dx.data()), bits(dx2.data()), "dX at {out_ch} channels");
            assert_eq!(
                bits(plain.dw.data()),
                bits(interleaved.dw.data()),
                "dW at {out_ch} channels"
            );
            assert_eq!(
                bits(&plain.db),
                bits(&interleaved.db),
                "db at {out_ch} channels"
            );
        }
    }

    #[test]
    fn bias_grad_counts_positions_and_batch() {
        let mut rng = init_rng(4);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        let x = Tensor::from_vec(vec![2, 1, 2, 2], vec![0.0; 8]);
        let y = conv.forward(&x, true);
        let ones = Tensor::from_vec(y.shape().to_vec(), vec![1.0; y.len()]);
        let _ = conv.backward(&ones, true);
        // 2 samples × 4 positions of ones per channel.
        assert_eq!(conv.db, vec![8.0, 8.0]);
    }

    #[test]
    fn params_expose_the_crossbar_shape() {
        let mut rng = init_rng(5);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let p = conv.params().unwrap();
        assert_eq!(p.weight_shape, (27, 8));
        assert_eq!(conv.weight_count(), 27 * 8);
        assert_eq!(conv.kind(), "conv2d");
    }

    #[test]
    fn conv_forward_is_thread_count_invariant() {
        // 5 samples × ~1.2 M MACs each clears par's gate for 4 workers, in
        // both orientations: 1 024 positions against 16 output channels
        // (channel-major) and 16 against 128 (patch-major). The training
        // forward lowers into the kept buffer inside the fan-out, and the
        // backward that reads it must agree too.
        let mut rng = init_rng(7);
        for (in_ch, out_ch, hw) in [(8, 16, 32), (64, 128, 4)] {
            let conv = Conv2d::new(in_ch, out_ch, 3, 1, 1, &mut rng);
            let len = 5 * in_ch * hw * hw;
            let x = Tensor::from_vec(
                vec![5, in_ch, hw, hw],
                (0..len).map(|i| ((i as f32) * 0.173).sin()).collect(),
            );
            let run = || {
                let mut conv = conv.clone();
                let y = conv.forward(&x, false);
                let y_train = conv.forward(&x, true);
                let g = y_train.map(|v| (v * 3.7).sin());
                let dx = conv.backward(&g, true).unwrap();
                [
                    y.data(),
                    y_train.data(),
                    dx.data(),
                    conv.dw.data(),
                    &conv.db,
                ]
                .map(bits)
            };
            let seq = crate::tensor::tests::at_budget(1, run);
            let parl = crate::tensor::tests::at_budget(4, run);
            assert!(seq == parl, "conv {in_ch}->{out_ch} must be bit-identical");
        }
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut rng = init_rng(6);
        let mut conv = Conv2d::new(1, 1, 2, 2, 0, &mut rng);
        let x = Tensor::zeros(vec![1, 1, 8, 8]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
    }
}
