//! Dense `f32` tensors and the matrix kernels the layers build on.
//!
//! Shapes follow the usual deep-learning conventions: activations are
//! `[batch, features]` or `[batch, channels, height, width]`; dense weights
//! are `[in_features, out_features]` so that a crossbar mapping puts inputs
//! on rows and output neurons on columns, matching the paper's `w(n)_{i,j}`
//! indexing.
//!
//! The three GEMM kernels share one row-blocked loop (`saxpy_gemm`) over
//! one inner microkernel (`saxpy_row_kernel`) on contiguous rows: `matmul`
//! passes its operands as they are, `matmul_tn` packs `selfᵀ` first and
//! `matmul_nt` packs `otherᵀ`, so the inner loop never strides. Output rows
//! are independent, so that loop fans out across [`par`] worker threads
//! above a FLOP-count gate — each worker owns a block of whole output rows,
//! which keeps every output element's accumulation order identical to the
//! sequential kernel (bit-identical results at any thread count).
//! `Conv2d` runs its products on the same loop, into buffers it keeps, and
//! lowers its input through `ConvGeom` (DESIGN.md §6.10).

// Kernel module: keep the hot loops in iterator/slice style so the
// optimizer sees contiguous accesses (regressions to index loops are
// rejected at compile time).
#![deny(clippy::needless_range_loop)]

use std::fmt;

/// A dense tensor of `f32` values with an explicit shape.
///
/// # Example
///
/// ```
/// use nn::tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
/// let b = Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.]);
/// let c = a.matmul(&b);
/// assert_eq!(c.shape(), &[2, 2]);
/// assert_eq!(c.data(), &[4., 5., 10., 11.]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} values]", self.data.len())
        }
    }
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = checked_len(&shape);
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let len = checked_len(&shape);
        assert_eq!(
            data.len(),
            len,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Self {
        let len = checked_len(&shape);
        assert_eq!(
            self.data.len(),
            len,
            "cannot reshape {:?} to {:?}",
            self.shape,
            shape
        );
        self.shape = shape;
        self
    }

    /// Number of rows of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Element access for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the indices are out of range.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element access for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the indices are out of range.
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        &mut self.data[r * self.shape[1] + c]
    }

    /// Matrix product `self · other` for 2-D tensors (`[m,k] · [k,n] → [m,n]`).
    ///
    /// Output rows are computed independently (row-blocked across worker
    /// threads past `par`'s work gate); results are identical to the
    /// sequential kernel at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or either tensor is not 2-D.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dimensions: {k} vs {k2}");
        saxpy_gemm(&self.data, &other.data, m, k, n)
    }

    /// Matrix product `selfᵀ · other` (`[k,m]ᵀ · [k,n] → [m,n]`), used for
    /// weight gradients (`dW = Xᵀ · dY`).
    ///
    /// `selfᵀ` is packed into a contiguous `[m,k]` buffer first, so the hot
    /// loop is the same contiguous SAXPY microkernel as [`Tensor::matmul`]
    /// instead of the former `p`-outer sweep that re-touched the entire
    /// output matrix once per shared-dimension step. Per output element the
    /// accumulation still runs in ascending `p` order, so results match the
    /// old kernel exactly.
    ///
    /// # Panics
    ///
    /// Panics if the leading dimensions disagree or either tensor is not 2-D.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn leading dimensions: {k} vs {k2}");
        saxpy_gemm(&transpose(&self.data, k, m), &other.data, m, k, n)
    }

    /// Matrix product `self · otherᵀ` (`[m,k] · [n,k]ᵀ → [m,n]`), used for
    /// input gradients (`dX = dY · Wᵀ`).
    ///
    /// `otherᵀ` is packed into a contiguous `[k,n]` buffer once per call,
    /// so the hot loop is the SAXPY microkernel of [`Tensor::matmul`]. Each
    /// output element sums `self[i,p] · other[j,p]` in ascending `p` from
    /// +0.0, the order of a plain dot-product loop, so for a finite `other`
    /// (the zero skip's condition, see `saxpy_row_kernel`) the result
    /// equals that loop bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the trailing dimensions disagree or either tensor is not 2-D.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_nt trailing dimensions: {k} vs {k2}");
        saxpy_gemm(&self.data, &transpose(&other.data, n, k), m, k, n)
    }

    /// Adds a row vector to every row of a 2-D tensor (bias addition).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len()` does not equal the column count.
    pub fn add_row_vector(&mut self, bias: &[f32]) {
        let n = self.cols();
        assert_eq!(bias.len(), n, "bias length must equal columns");
        for row in self.data.chunks_mut(n) {
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Element-wise map producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

/// `[m,k] · [k,n] → [m,n]` on row-major slices, into a fresh buffer.
fn saxpy_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    saxpy_accumulate(a, b, k, n, &mut out);
    Tensor::from_vec(vec![m, n], out)
}

/// [`saxpy_gemm`] into a caller-kept `[m,n]` buffer, `m = out.len() / n`,
/// which it overwrites.
pub(crate) fn saxpy_gemm_into(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    out.fill(0.0);
    saxpy_accumulate(a, b, k, n, out);
}

/// `out += a · b`: the one GEMM loop behind the three tensor products and
/// the convolution's. Output rows are blocked across `par` workers; each
/// row runs [`saxpy_row_kernel`], so a zeroed `out` gives each output the
/// sum of its products from +0.0.
fn saxpy_accumulate(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    par::for_each_row_block_mut(out, n, k * n, |i0, block| {
        for (bi, c_row) in block.chunks_mut(n).enumerate() {
            let i = i0 + bi;
            saxpy_row_kernel(&a[i * k..(i + 1) * k], b, c_row);
        }
    });
}

/// The `[cols, rows]` transpose of a row-major `[rows, cols]` slice: the
/// pack that lets `matmul_tn` and `matmul_nt` run the contiguous kernel.
fn transpose(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    transpose_into(data, rows, cols, &mut out);
    out
}

/// [`transpose`] into a caller-kept `[cols, rows]` buffer.
pub(crate) fn transpose_into(data: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    transpose_with(data, rows, cols, out, |o, v| *o = v);
}

/// Applies `f(out[c][r], data[r][c])` over a row-major `[rows, cols]`
/// `data` and a `[cols, rows]` `out`. It reads eight source rows at a
/// time and visits each output row's eight entries from them, so both
/// sides stay in cache.
pub(crate) fn transpose_with(
    data: &[f32],
    rows: usize,
    cols: usize,
    out: &mut [f32],
    f: impl Fn(&mut f32, f32),
) {
    for (band, src) in data.chunks(8 * cols).enumerate() {
        let (r0, height) = (8 * band, src.len() / cols);
        for (c, out_row) in out.chunks_exact_mut(rows).enumerate() {
            for (i, o) in out_row[r0..r0 + height].iter_mut().enumerate() {
                f(o, src[i * cols + c]);
            }
        }
    }
}

/// `y += a · x`, element by element: one SAXPY row.
#[inline]
pub(crate) fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

/// The shared GEMM microkernel: `c_row += Σ_p a_row[p] · b[p-th row]`, all
/// slices contiguous. The zero-skip branch is gated on measured sparsity
/// ([`par::SPARSITY_SKIP_THRESHOLD`]): skipping a zero `a` saves an
/// `n`-length SAXPY but costs a branch per `p`, which only wins on
/// mostly-zero operands — e.g. activations after §5.2 magnitude pruning
/// has parked >50 % of the weights at zero, ReLU-sparse features, or
/// gradients that max pooling routed to one position in four.
/// Skipping never changes the result when `b` is finite: each skipped
/// contribution is `±0.0 · b = ±0.0`, and adding a signed zero leaves an
/// accumulator that starts at +0.0 on the value it already holds (such an
/// accumulator is never −0.0, since an exact cancellation rounds to +0.0).
/// A zero times an infinite or NaN `b` is NaN, so with a non-finite `b`
/// the skip would differ from the unskipped sum.
#[inline]
fn saxpy_row_kernel(a_row: &[f32], b: &[f32], c_row: &mut [f32]) {
    let n = c_row.len();
    let zeros = a_row.iter().filter(|&&a| a == 0.0).count();
    let skip_zeros = zeros as f32 > par::SPARSITY_SKIP_THRESHOLD * a_row.len() as f32;
    for (p, &a) in a_row.iter().enumerate() {
        if skip_zeros && a == 0.0 {
            continue;
        }
        axpy(a, &b[p * n..(p + 1) * n], c_row);
    }
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "tensor shape cannot be empty");
    assert!(
        shape.iter().all(|&d| d > 0),
        "tensor dimensions must be non-zero: {shape:?}"
    );
    shape.iter().product()
}

/// The geometry of one convolution over a `[channels, height, width]`
/// sample, and the layouts of its lowering.
///
/// Lowering reads the *padded sample*, `[channels, height + 2·pad,
/// width + 2·pad]` with the input in the middle and zeros around it
/// ([`ConvGeom::pad_sample`]). Every tap of every output lands inside it,
/// so no lowering tests bounds. The *patch matrix* is `[positions, rows]`:
/// row `p` holds the receptive field of output position
/// `p = oy · out_w + ox`, ordered `(c, ky, kx)`, so entry `(p, r)` is the
/// padded sample at [`ConvGeom::corner`]`(p)` plus
/// [`ConvGeom::tap_offsets`]`[r]`. [`ConvGeom::lower_tap`] writes one row
/// of its transpose as one run of an input row per output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvGeom {
    pub(crate) channels: usize,
    pub(crate) height: usize,
    pub(crate) width: usize,
    k: usize,
    stride: usize,
    pad: usize,
    pub(crate) out_h: usize,
    pub(crate) out_w: usize,
}

impl ConvGeom {
    /// # Panics
    ///
    /// Panics if the configuration yields no output positions.
    pub(crate) fn new(
        (channels, height, width): (usize, usize, usize),
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let (out_h, out_w) = conv_output_size(height, width, k, stride, pad);
        Self {
            channels,
            height,
            width,
            k,
            stride,
            pad,
            out_h,
            out_w,
        }
    }

    /// Output positions per channel.
    pub(crate) fn positions(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Length of one receptive field: `channels · k²`.
    pub(crate) fn rows(&self) -> usize {
        self.channels * self.k * self.k
    }

    /// Elements of one input sample.
    pub(crate) fn sample_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// `(height, width)` of one padded channel plane.
    fn padded_hw(&self) -> (usize, usize) {
        (self.height + 2 * self.pad, self.width + 2 * self.pad)
    }

    /// Writes the padded sample of `input` into `padded`, which it resizes.
    pub(crate) fn pad_sample(&self, input: &[f32], padded: &mut Vec<f32>) {
        let (ph, pw) = self.padded_hw();
        padded.clear();
        padded.resize(self.channels * ph * pw, 0.0);
        for (i, line) in input.chunks_exact(self.width).enumerate() {
            let (c, y) = (i / self.height, i % self.height);
            let at = (c * ph + y + self.pad) * pw + self.pad;
            padded[at..at + self.width].copy_from_slice(line);
        }
    }

    /// Index in the padded sample of tap `(0, 0)` of output position `p`
    /// in channel 0.
    fn corner(&self, p: usize) -> usize {
        let pw = self.padded_hw().1;
        (p / self.out_w * pw + p % self.out_w) * self.stride
    }

    /// Offset in the padded sample of each tap `r = (c, ky, kx)` from its
    /// position's [`ConvGeom::corner`].
    pub(crate) fn tap_offsets(&self) -> Vec<usize> {
        let (ph, pw) = self.padded_hw();
        let k = self.k;
        (0..self.rows())
            .map(|r| r / (k * k) * ph * pw + r / k % k * pw + r % k)
            .collect()
    }

    /// Writes row `r = (c, ky, kx)` of the transposed patch matrix of a
    /// padded sample into `row` (`[positions]`): tap `(ky, kx)` of channel
    /// `c` at every output position, one run per output row.
    pub(crate) fn lower_tap(&self, padded: &[f32], r: usize, row: &mut [f32]) {
        let (ph, pw) = self.padded_hw();
        let k = self.k;
        let (c, ky, kx) = (r / (k * k), r / k % k, r % k);
        let plane = &padded[c * ph * pw..(c + 1) * ph * pw];
        let lines = plane[ky * pw + kx..].chunks(self.stride * pw);
        for (run, line) in row.chunks_exact_mut(self.out_w).zip(lines) {
            if self.stride == 1 {
                run.copy_from_slice(&line[..self.out_w]);
            } else {
                for (o, &v) in run.iter_mut().zip(line.iter().step_by(self.stride)) {
                    *o = v;
                }
            }
        }
    }

    /// Writes the patch matrix of a padded sample into `cols`
    /// (`[positions, rows]`); `offsets` is [`ConvGeom::tap_offsets`].
    pub(crate) fn lower_patches(&self, padded: &[f32], offsets: &[usize], cols: &mut [f32]) {
        for (p, patch) in cols.chunks_exact_mut(self.rows()).enumerate() {
            let src = &padded[self.corner(p)..];
            for (d, &off) in patch.iter_mut().zip(offsets) {
                *d = src[off];
            }
        }
    }

    /// Adds a `[positions, rows]` patch-gradient matrix into the sample
    /// gradient `out` (col2im, the adjoint of [`ConvGeom::lower_patches`]),
    /// through the padded scratch `padded`. Each input element receives
    /// its contributions in ascending output position.
    pub(crate) fn fold_patches(
        &self,
        cols: &[f32],
        offsets: &[usize],
        padded: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let (ph, pw) = self.padded_hw();
        padded.clear();
        padded.resize(self.channels * ph * pw, 0.0);
        for (p, patch) in cols.chunks_exact(self.rows()).enumerate() {
            let dst = &mut padded[self.corner(p)..];
            for (&g, &off) in patch.iter().zip(offsets) {
                dst[off] += g;
            }
        }
        for (i, line) in out.chunks_exact_mut(self.width).enumerate() {
            let (c, y) = (i / self.height, i % self.height);
            let at = (c * ph + y + self.pad) * pw + self.pad;
            for (d, &g) in line.iter_mut().zip(&padded[at..at + self.width]) {
                *d += g;
            }
        }
    }
}

/// Output spatial size of a convolution.
///
/// # Panics
///
/// Panics if the configuration yields no output positions.
pub fn conv_output_size(
    height: usize,
    width: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    assert!(stride > 0, "stride must be positive");
    assert!(
        height + 2 * pad >= k && width + 2 * pad >= k,
        "kernel {k} larger than padded input {height}x{width}+{pad}"
    );
    (
        (height + 2 * pad - k) / stride + 1,
        (width + 2 * pad - k) / stride + 1,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Runs `f` at a forced `par` thread budget. The budget is
    /// process-wide and libtest runs tests concurrently, so the crate's
    /// tests that compare budgets serialize on one lock; otherwise one
    /// could reset another's budget mid-comparison.
    pub(crate) fn at_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        static BUDGET: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = BUDGET.lock().unwrap_or_else(|e| e.into_inner());
        par::set_thread_count(threads);
        let r = f();
        par::set_thread_count(0);
        r
    }

    #[test]
    fn zeros_and_from_vec() {
        let t = Tensor::zeros(vec![2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
        assert!(!t.is_empty());
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(t.at2(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_len() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0; 5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![0., 1., 2., 3., 4., 5.]).reshape(vec![3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at2(2, 1), 5.0);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let i = Tensor::from_vec(vec![2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::from_vec(vec![3, 2], vec![1., 4., 2., 5., 3., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        // aᵀ = [[1,2,3],[4,5,6]]
        let at = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matmul_tn(&b), at.matmul(&b));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![2, 3], vec![7., 9., 11., 8., 10., 12.]);
        let bt = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&bt));
    }

    #[test]
    fn matmul_family_is_thread_count_invariant() {
        // Large enough to clear par's work gate so the parallel path runs.
        let (m, k, n) = (37, 650, 131);
        let fill =
            |len: usize, f: f32| -> Vec<f32> { (0..len).map(|i| ((i as f32) * f).sin()).collect() };
        let a = Tensor::from_vec(vec![m, k], fill(m * k, 0.37));
        let b = Tensor::from_vec(vec![k, n], fill(k * n, 0.53));
        let a_t = Tensor::from_vec(vec![k, m], fill(k * m, 0.37));
        let b_t = Tensor::from_vec(vec![n, k], fill(n * k, 0.53));
        let products = || (a.matmul(&b), a_t.matmul_tn(&b), a.matmul_nt(&b_t));
        let seq = at_budget(1, products);
        let parl = at_budget(4, products);
        assert_eq!(seq.0.data(), parl.0.data(), "matmul must be bit-identical");
        assert_eq!(
            seq.1.data(),
            parl.1.data(),
            "matmul_tn must be bit-identical"
        );
        assert_eq!(
            seq.2.data(),
            parl.2.data(),
            "matmul_nt must be bit-identical"
        );
    }

    #[test]
    fn matmul_tn_packed_matches_naive_on_sparse_input() {
        // Mostly-zero operand: exercises the sparsity-gated zero-skip. The
        // product clears par's work gate for four workers, so budget 4 runs
        // the parallel sparse path.
        let (k, m, n) = (512, 64, 130);
        assert!(m * k * n >= 4 * par::PAR_MIN_WORK);
        let mut a = vec![0.0f32; k * m];
        for (i, v) in a.iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = (i as f32 * 0.11).cos();
            }
        }
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.29).sin()).collect();
        let a_t = Tensor::from_vec(vec![k, m], a.clone());
        let b_t = Tensor::from_vec(vec![k, n], b.clone());
        // Naive reference: explicit transpose then matmul.
        let mut at = vec![0.0f32; m * k];
        for (p, row) in a.chunks_exact(m).enumerate() {
            for (i, &v) in row.iter().enumerate() {
                at[i * k + p] = v;
            }
        }
        let (reference, seq) = at_budget(1, || {
            (
                Tensor::from_vec(vec![m, k], at).matmul(&b_t),
                a_t.matmul_tn(&b_t),
            )
        });
        let parl = at_budget(4, || a_t.matmul_tn(&b_t));
        assert_eq!(seq.data(), reference.data());
        assert_eq!(parl.data(), reference.data());
    }

    #[test]
    fn bias_addition() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.add_row_vector(&[1., 2., 3.]);
        assert_eq!(t.data(), &[1., 2., 3., 1., 2., 3.]);
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::from_vec(vec![1, 3], vec![-1., 0., 2.]);
        let r = t.map(|x| x.max(0.0));
        assert_eq!(r.data(), &[0., 0., 2.]);
    }

    #[test]
    fn conv_output_size_formula() {
        assert_eq!(conv_output_size(32, 32, 3, 1, 1), (32, 32));
        assert_eq!(conv_output_size(32, 32, 2, 2, 0), (16, 16));
        assert_eq!(conv_output_size(5, 5, 3, 1, 0), (3, 3));
    }

    fn padded(img: &[f32], g: &ConvGeom) -> Vec<f32> {
        let mut padded = vec![f32::NAN];
        g.pad_sample(img, &mut padded);
        padded
    }

    /// The patch matrix of `img` (one sample) under `g`.
    fn patches(img: &[f32], g: &ConvGeom) -> Vec<f32> {
        let mut cols = vec![f32::NAN; g.positions() * g.rows()];
        g.lower_patches(&padded(img, g), &g.tap_offsets(), &mut cols);
        cols
    }

    #[test]
    fn lowering_simple_3x3_kernel2() {
        // One channel, 3x3 image, 2x2 kernel, stride 1, no padding.
        #[rustfmt::skip]
        let img = vec![
            0., 1., 2.,
            3., 4., 5.,
            6., 7., 8.,
        ];
        let g = ConvGeom::new((1, 3, 3), 2, 1, 0);
        let cols = patches(&img, &g);
        assert_eq!((g.positions(), g.rows()), (4, 4));
        assert_eq!(&cols[0..4], &[0., 1., 3., 4.]);
        assert_eq!(&cols[12..16], &[4., 5., 7., 8.]);
    }

    #[test]
    fn lowering_padding_zero_fills() {
        let g = ConvGeom::new((1, 2, 2), 3, 1, 1);
        let cols = patches(&[1.0; 4], &g);
        assert_eq!((g.positions(), g.rows()), (4, 9));
        // Top-left patch covers padding on top and left: corners are zero.
        assert_eq!(cols[0], 0.0);
        assert_eq!(cols[4], 1.0);
    }

    #[test]
    fn lowering_matches_the_elementwise_definition() {
        // Strides, paddings and kernels whose taps fall wholly into the
        // padding (k 1, pad 2) included.
        for (h, w, k, stride, pad) in [
            (5, 4, 3, 1, 1),
            (6, 5, 2, 2, 0),
            (3, 4, 1, 1, 2),
            (4, 4, 5, 2, 2),
            (7, 6, 3, 2, 1),
        ] {
            let g = ConvGeom::new((2, h, w), k, stride, pad);
            let img: Vec<f32> = (0..g.sample_len()).map(|i| i as f32 + 1.0).collect();
            let cols = patches(&img, &g);
            for (p, patch) in cols.chunks_exact(g.rows()).enumerate() {
                for (r, &got) in patch.iter().enumerate() {
                    let (c, ky, kx) = (r / (k * k), r / k % k, r % k);
                    let iy = (p / g.out_w * stride + ky).checked_sub(pad);
                    let ix = (p % g.out_w * stride + kx).checked_sub(pad);
                    let want = match (iy, ix) {
                        (Some(iy), Some(ix)) if iy < h && ix < w => img[(c * h + iy) * w + ix],
                        _ => 0.0,
                    };
                    assert_eq!(
                        got,
                        want,
                        "{:?} position {p} tap {r}",
                        (h, w, k, stride, pad)
                    );
                }
            }
        }
    }

    #[test]
    fn fold_is_adjoint_of_lowering() {
        // <lower(x), y> == <x, fold(y)> for random-ish x, y.
        let g = ConvGeom::new((2, 4, 4), 3, 1, 1);
        let x: Vec<f32> = (0..g.sample_len())
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let cols = patches(&x, &g);
        let y: Vec<f32> = (0..cols.len()).map(|i| (i as f32 * 0.13).cos()).collect();
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut folded = vec![0.0; g.sample_len()];
        g.fold_patches(&y, &g.tap_offsets(), &mut vec![f32::NAN], &mut folded);
        let rhs: f32 = x.iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn conv_output_size_rejects_big_kernel() {
        let _ = conv_output_size(2, 2, 5, 1, 0);
    }
}
