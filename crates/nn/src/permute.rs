//! Neuron re-ordering (network isomorphism) utilities.
//!
//! §5.2 of the paper re-orders *neurons* rather than arbitrary rows/columns:
//! when the `i`-th and `j`-th **columns** of layer `n`'s weight matrix are
//! exchanged, the `i`-th and `j`-th **rows** of layer `n+1` are exchanged
//! correspondingly, producing an isomorphic network (same function, same
//! interconnect) that places different weights on different RRAM cells.
//!
//! These helpers are generic over the element type so the same permutation
//! can be applied to weight matrices (`f32`) and pruning masks (`bool`).

use crate::error::NnError;
use crate::network::Network;

/// A permutation of `n` items.
///
/// `perm[i] = j` means *the item previously at position `j` moves to
/// position `i`* (gather semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation(Vec<usize>);

impl Permutation {
    /// The identity permutation on `n` items.
    pub fn identity(n: usize) -> Self {
        Self((0..n).collect())
    }

    /// Builds a permutation from a gather vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `perm` is not a permutation of
    /// `0..perm.len()`.
    pub fn from_vec(perm: Vec<usize>) -> Result<Self, NnError> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            if p >= n || seen[p] {
                return Err(NnError::InvalidConfig(format!(
                    "not a permutation of 0..{n}: {perm:?}"
                )));
            }
            seen[p] = true;
        }
        Ok(Self(perm))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The gather vector.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// Returns a copy with positions `i` and `j` swapped.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swapped(&self, i: usize, j: usize) -> Self {
        let mut v = self.0.clone();
        v.swap(i, j);
        Self(v)
    }

    /// Swaps positions `i` and `j` in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap(&mut self, i: usize, j: usize) {
        self.0.swap(i, j);
    }

    /// A uniformly random permutation.
    pub fn random<R: rand::Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        use rand::seq::SliceRandom;
        let mut v: Vec<usize> = (0..n).collect();
        v.shuffle(rng);
        Self(v)
    }

    /// The inverse permutation (scatter of this gather).
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0usize; self.0.len()];
        for (i, &p) in self.0.iter().enumerate() {
            inv[p] = i;
        }
        Self(inv)
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.0.iter().enumerate().all(|(i, &p)| i == p)
    }

    /// Gathers a slice: `out[i] = data[perm[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn apply<T: Copy>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.0.len(), "length mismatch");
        self.0.iter().map(|&p| data[p]).collect()
    }
}

/// Permutes the columns of a row-major `rows × cols` matrix in place.
///
/// # Panics
///
/// Panics if sizes disagree.
pub fn permute_columns<T: Copy>(data: &mut [T], rows: usize, cols: usize, perm: &Permutation) {
    assert_eq!(data.len(), rows * cols, "matrix size mismatch");
    assert_eq!(perm.len(), cols, "permutation must cover the columns");
    for row in data.chunks_mut(cols) {
        let gathered = perm.apply(row);
        row.copy_from_slice(&gathered);
    }
}

/// Permutes the rows of a row-major `rows × cols` matrix in place.
///
/// # Panics
///
/// Panics if sizes disagree.
pub fn permute_rows<T: Copy>(data: &mut [T], rows: usize, cols: usize, perm: &Permutation) {
    assert_eq!(data.len(), rows * cols, "matrix size mismatch");
    assert_eq!(perm.len(), rows, "permutation must cover the rows");
    let original = data.to_vec();
    for (i, &src) in perm.as_slice().iter().enumerate() {
        data[i * cols..(i + 1) * cols].copy_from_slice(&original[src * cols..(src + 1) * cols]);
    }
}

/// Permutes row *blocks* of `block` consecutive rows each — the shape of a
/// downstream layer whose rows are grouped per upstream neuron (`k·k` rows
/// per input channel for convolutions, `H·W` rows per channel across a
/// flatten boundary).
///
/// # Panics
///
/// Panics if sizes disagree or `rows` is not a multiple of `block`.
pub fn permute_row_blocks<T: Copy>(
    data: &mut [T],
    rows: usize,
    cols: usize,
    block: usize,
    perm: &Permutation,
) {
    assert_eq!(data.len(), rows * cols, "matrix size mismatch");
    assert!(
        block > 0 && rows.is_multiple_of(block),
        "rows must divide into blocks"
    );
    assert_eq!(
        perm.len(),
        rows / block,
        "permutation must cover the row blocks"
    );
    let original = data.to_vec();
    let stride = block * cols;
    for (i, &src) in perm.as_slice().iter().enumerate() {
        data[i * stride..(i + 1) * stride]
            .copy_from_slice(&original[src * stride..(src + 1) * stride]);
    }
}

/// Re-orders the output neurons of the `k`-th weight-carrying layer of a
/// network (paper §5.2): permutes that layer's weight **columns** and bias,
/// and the next weight layer's **rows** (in blocks when the downstream rows
/// are grouped per neuron, e.g. across conv/flatten boundaries).
///
/// The network computes exactly the same function afterwards.
///
/// # Example
///
/// ```
/// use nn::network::Network;
/// use nn::layers::Dense;
/// use nn::init::init_rng;
/// use nn::permute::{permute_hidden_neurons, Permutation};
///
/// # fn main() -> Result<(), nn::NnError> {
/// let mut rng = init_rng(0);
/// let mut net = Network::new();
/// net.push(Dense::new(3, 4, &mut rng));
/// net.push(Dense::new(4, 2, &mut rng));
/// let perm = Permutation::from_vec(vec![3, 0, 1, 2])?;
/// permute_hidden_neurons(&mut net, 0, &perm)?; // function unchanged
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] when `k` is the last weight layer
/// (output neurons are externally visible and cannot be re-ordered), when
/// the permutation size does not match, or when the downstream row count is
/// not a multiple of the upstream neuron count.
pub fn permute_hidden_neurons(
    net: &mut Network,
    k: usize,
    perm: &Permutation,
) -> Result<(), NnError> {
    let weight_layers = net.weight_layer_indices();
    if k + 1 >= weight_layers.len() {
        return Err(NnError::InvalidConfig(format!(
            "cannot re-order neurons of weight layer {k}: it is the output layer"
        )));
    }
    let (this_idx, next_idx) = (weight_layers[k], weight_layers[k + 1]);

    // Permute this layer's columns and bias.
    {
        #[expect(
            clippy::expect_used,
            reason = "`this_idx` comes from `weight_layer_indices`, which only lists layers with \
                      parameters"
        )]
        let params = net
            .layer_params_mut(this_idx)
            .expect("weight layer has params");
        let (rows, cols) = params.weight_shape;
        if perm.len() != cols {
            return Err(NnError::InvalidConfig(format!(
                "permutation of {} does not match {} output neurons",
                perm.len(),
                cols
            )));
        }
        permute_columns(params.weights, rows, cols, perm);
        if let Some(bias) = params.bias {
            let permuted = perm.apply(bias);
            bias.copy_from_slice(&permuted);
        }
    }

    // Permute the next layer's row blocks.
    {
        let neurons = perm.len();
        #[expect(
            clippy::expect_used,
            reason = "`next_idx` comes from `weight_layer_indices`, which only lists layers with \
                      parameters"
        )]
        let params = net
            .layer_params_mut(next_idx)
            .expect("weight layer has params");
        let (rows, cols) = params.weight_shape;
        if rows % neurons != 0 {
            return Err(NnError::InvalidConfig(format!(
                "downstream rows {rows} not divisible by {neurons} neurons"
            )));
        }
        let block = rows / neurons;
        permute_row_blocks(params.weights, rows, cols, block, perm);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init_rng;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
    use crate::tensor::Tensor;

    #[test]
    fn permutation_validation() {
        assert!(Permutation::from_vec(vec![0, 1, 2]).is_ok());
        assert!(Permutation::from_vec(vec![2, 0, 1]).is_ok());
        assert!(Permutation::from_vec(vec![0, 0, 1]).is_err());
        assert!(Permutation::from_vec(vec![0, 3, 1]).is_err());
        assert!(Permutation::identity(4).is_identity());
        assert!(!Permutation::identity(4).swapped(0, 1).is_identity());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let mut rng = init_rng(1);
        let p = Permutation::random(10, &mut rng);
        let inv = p.inverse();
        let data: Vec<usize> = (0..10).collect();
        let there = p.apply(&data);
        let back = inv.apply(&there);
        assert_eq!(back, data);
    }

    #[test]
    fn column_and_row_permutation() {
        // 2x3 matrix [[1,2,3],[4,5,6]]
        let mut m = vec![1, 2, 3, 4, 5, 6];
        let perm = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        permute_columns(&mut m, 2, 3, &perm);
        assert_eq!(m, vec![3, 1, 2, 6, 4, 5]);

        let mut m = vec![1, 2, 3, 4, 5, 6];
        let perm = Permutation::from_vec(vec![1, 0]).unwrap();
        permute_rows(&mut m, 2, 3, &perm);
        assert_eq!(m, vec![4, 5, 6, 1, 2, 3]);
    }

    #[test]
    fn row_blocks_move_together() {
        // 4 rows, 1 col, blocks of 2: [a a b b] -> [b b a a]
        let mut m = vec![1, 1, 2, 2];
        let perm = Permutation::from_vec(vec![1, 0]).unwrap();
        permute_row_blocks(&mut m, 4, 1, 2, &perm);
        assert_eq!(m, vec![2, 2, 1, 1]);
    }

    #[test]
    fn dense_network_output_is_invariant() {
        let mut rng = init_rng(2);
        let mut net = Network::new();
        net.push(Dense::new(6, 8, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(8, 4, &mut rng));
        let x = Tensor::from_vec(vec![3, 6], (0..18).map(|i| (i as f32).sin()).collect());
        let before = net.forward(&x);
        let perm = Permutation::random(8, &mut rng);
        permute_hidden_neurons(&mut net, 0, &perm).unwrap();
        let after = net.forward(&x);
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn conv_channel_permutation_is_invariant_across_pool_and_flatten() {
        let mut rng = init_rng(3);
        let mut net = Network::new();
        net.push(Conv2d::new(1, 4, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(MaxPool2::new());
        net.push(Flatten::new());
        net.push(Dense::new(4 * 2 * 2, 3, &mut rng));
        let x = Tensor::from_vec(
            vec![2, 1, 4, 4],
            (0..32).map(|i| (i as f32 * 0.3).cos()).collect(),
        );
        let before = net.forward(&x);
        // Re-order the conv's 4 output channels; dense rows move in blocks
        // of 2·2 = 4 (the pooled spatial size).
        let perm = Permutation::from_vec(vec![3, 1, 0, 2]).unwrap();
        permute_hidden_neurons(&mut net, 0, &perm).unwrap();
        let after = net.forward(&x);
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn output_layer_cannot_be_permuted() {
        let mut rng = init_rng(4);
        let mut net = Network::new();
        net.push(Dense::new(4, 3, &mut rng));
        let perm = Permutation::identity(3);
        assert!(permute_hidden_neurons(&mut net, 0, &perm).is_err());
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let mut rng = init_rng(5);
        let mut net = Network::new();
        net.push(Dense::new(4, 6, &mut rng));
        net.push(Dense::new(6, 2, &mut rng));
        let perm = Permutation::identity(5);
        assert!(permute_hidden_neurons(&mut net, 0, &perm).is_err());
    }
}
