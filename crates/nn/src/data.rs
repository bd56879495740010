//! Dataset container and batching.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::tensor::Tensor;

/// An in-memory classification dataset with a train and a test split.
///
/// Sample tensors have a leading batch dimension (`[N, ...]`); labels are
/// class indices.
#[derive(Debug, Clone)]
pub struct Dataset {
    train_x: Tensor,
    train_y: Vec<usize>,
    test_x: Tensor,
    test_y: Vec<usize>,
    classes: usize,
    shuffle_seed: u64,
}

impl Dataset {
    /// Creates a dataset from raw splits.
    ///
    /// # Panics
    ///
    /// Panics if sample counts and label counts disagree, or any label is
    /// outside `0..classes`.
    pub fn new(
        train_x: Tensor,
        train_y: Vec<usize>,
        test_x: Tensor,
        test_y: Vec<usize>,
        classes: usize,
    ) -> Self {
        assert_eq!(
            train_x.shape()[0],
            train_y.len(),
            "train sample/label mismatch"
        );
        assert_eq!(
            test_x.shape()[0],
            test_y.len(),
            "test sample/label mismatch"
        );
        assert!(
            train_y.iter().chain(&test_y).all(|&y| y < classes),
            "label out of range"
        );
        Self {
            train_x,
            train_y,
            test_x,
            test_y,
            classes,
            shuffle_seed: 0,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_y.len()
    }

    /// Number of test samples.
    pub fn test_len(&self) -> usize {
        self.test_y.len()
    }

    /// Per-sample shape (without the batch dimension).
    pub fn sample_shape(&self) -> &[usize] {
        &self.train_x.shape()[1..]
    }

    /// Sets the shuffling seed used by [`Dataset::train_batches`].
    pub fn set_shuffle_seed(&mut self, seed: u64) {
        self.shuffle_seed = seed;
    }

    /// The full test split as `(inputs, labels)`.
    pub fn test_set(&self) -> (Tensor, Vec<usize>) {
        (self.test_x.clone(), self.test_y.clone())
    }

    /// The full training split as `(inputs, labels)` in storage order.
    pub fn train_set(&self) -> (Tensor, Vec<usize>) {
        (self.train_x.clone(), self.train_y.clone())
    }

    /// An infinite iterator of shuffled training mini-batches.
    ///
    /// Each epoch is an independent shuffle; the iterator never ends, so
    /// training loops `take(n)` as many iterations as they need (mirroring
    /// the paper's iteration-count x-axes).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or exceeds the training split size. Library
    /// code that must not panic should use [`Dataset::try_train_batches`].
    pub fn train_batches(&self, batch: usize) -> TrainBatches<'_> {
        #[expect(
            clippy::expect_used,
            reason = "documented panicking convenience wrapper; the fallible variant below is what \
                      library flows use"
        )]
        self.try_train_batches(batch).expect("invalid batch size")
    }

    /// Fallible variant of [`Dataset::train_batches`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::NnError::InvalidConfig`] if `batch` is zero
    /// or exceeds the training split size.
    pub fn try_train_batches(
        &self,
        batch: usize,
    ) -> Result<TrainBatches<'_>, crate::error::NnError> {
        if batch == 0 {
            return Err(crate::error::NnError::InvalidConfig(
                "batch size must be non-zero".into(),
            ));
        }
        if batch > self.train_len() {
            return Err(crate::error::NnError::InvalidConfig(format!(
                "batch {batch} exceeds {} training samples",
                self.train_len()
            )));
        }
        Ok(TrainBatches {
            dataset: self,
            batch,
            order: (0..self.train_len()).collect(),
            cursor: usize::MAX, // force an initial shuffle
            rng: StdRng::seed_from_u64(self.shuffle_seed),
        })
    }

    /// Resumes a mini-batch stream from a previously captured
    /// [`BatchStreamState`]: the returned iterator continues the epoch
    /// exactly where the exported one stopped, drawing the same remaining
    /// batches and reshuffling with the same RNG stream.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::NnError::InvalidConfig`] when the state does
    /// not fit this dataset: a different training-split size, a zero or
    /// oversized batch, an `order` that is not a permutation of the sample
    /// indices, or a cursor past the end of an epoch.
    pub fn try_resume_train_batches(
        &self,
        state: &BatchStreamState,
    ) -> Result<TrainBatches<'_>, crate::error::NnError> {
        if state.train_len != self.train_len() {
            return Err(crate::error::NnError::InvalidConfig(format!(
                "batch stream was captured over {} samples, dataset has {}",
                state.train_len,
                self.train_len()
            )));
        }
        if state.batch == 0 || state.batch > self.train_len() {
            return Err(crate::error::NnError::InvalidConfig(format!(
                "batch {} invalid for {} training samples",
                state.batch,
                self.train_len()
            )));
        }
        if state.order.len() != self.train_len() {
            return Err(crate::error::NnError::InvalidConfig(format!(
                "order holds {} indices for {} samples",
                state.order.len(),
                self.train_len()
            )));
        }
        let mut seen = vec![false; self.train_len()];
        for &i in &state.order {
            if i >= self.train_len() || seen[i] {
                return Err(crate::error::NnError::InvalidConfig(
                    "order is not a permutation of the sample indices".into(),
                ));
            }
            seen[i] = true;
        }
        if state.cursor != usize::MAX && state.cursor > state.order.len() {
            return Err(crate::error::NnError::InvalidConfig(format!(
                "cursor {} past the epoch end {}",
                state.cursor,
                state.order.len()
            )));
        }
        Ok(TrainBatches {
            dataset: self,
            batch: state.batch,
            order: state.order.clone(),
            cursor: state.cursor,
            rng: StdRng::from_state(state.rng),
        })
    }

    fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let sample_len: usize = self.sample_shape().iter().product();
        let mut data = Vec::with_capacity(indices.len() * sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.train_x.data()[i * sample_len..(i + 1) * sample_len]);
            labels.push(self.train_y[i]);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(self.sample_shape());
        (Tensor::from_vec(shape, data), labels)
    }
}

/// Infinite shuffled mini-batch iterator; see [`Dataset::train_batches`].
#[derive(Debug)]
pub struct TrainBatches<'a> {
    dataset: &'a Dataset,
    batch: usize,
    order: Vec<usize>,
    cursor: usize,
    rng: StdRng,
}

impl TrainBatches<'_> {
    /// Captures the stream's position (checkpoint): the current epoch
    /// permutation, the cursor into it, and the shuffle RNG state. Feed the
    /// result to [`Dataset::try_resume_train_batches`] to continue the
    /// stream exactly where it stopped.
    pub fn export_state(&self) -> BatchStreamState {
        BatchStreamState {
            batch: self.batch,
            train_len: self.dataset.train_len(),
            order: self.order.clone(),
            cursor: self.cursor,
            rng: self.rng.state(),
        }
    }
}

/// Serializable position of a [`TrainBatches`] stream; see
/// [`TrainBatches::export_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchStreamState {
    /// Mini-batch size.
    pub batch: usize,
    /// Training-split size the stream was captured over.
    pub train_len: usize,
    /// The current epoch's sample permutation.
    pub order: Vec<usize>,
    /// Cursor into `order` (`usize::MAX` = shuffle before the next batch).
    pub cursor: usize,
    /// The shuffle RNG stream (xoshiro256++ state).
    pub rng: [u64; 4],
}

impl Iterator for TrainBatches<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == usize::MAX || self.cursor + self.batch > self.order.len() {
            self.order.shuffle(&mut self.rng);
            self.cursor = 0;
        }
        let slice = &self.order[self.cursor..self.cursor + self.batch];
        let item = self.dataset.gather(slice);
        self.cursor += self.batch;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let train_x = Tensor::from_vec(vec![6, 2], (0..12).map(|i| i as f32).collect());
        let train_y = vec![0, 1, 0, 1, 0, 1];
        let test_x = Tensor::from_vec(vec![2, 2], vec![0.0; 4]);
        let test_y = vec![0, 1];
        Dataset::new(train_x, train_y, test_x, test_y, 2)
    }

    #[test]
    fn accessors() {
        let d = tiny();
        assert_eq!(d.classes(), 2);
        assert_eq!(d.train_len(), 6);
        assert_eq!(d.test_len(), 2);
        assert_eq!(d.sample_shape(), &[2]);
        let (tx, ty) = d.test_set();
        assert_eq!(tx.shape(), &[2, 2]);
        assert_eq!(ty, vec![0, 1]);
    }

    #[test]
    fn batches_have_right_shape_and_matching_labels() {
        let d = tiny();
        for (x, y) in d.train_batches(2).take(10) {
            assert_eq!(x.shape(), &[2, 2]);
            assert_eq!(y.len(), 2);
            // Sample data identifies its index: value = 2*idx at feature 0.
            for (row, &label) in y.iter().enumerate() {
                let idx = (x.at2(row, 0) / 2.0) as usize;
                assert_eq!(label, idx % 2);
            }
        }
    }

    #[test]
    fn epochs_cover_all_samples() {
        let d = tiny();
        let mut seen = vec![0usize; 6];
        for (x, _) in d.train_batches(2).take(3) {
            for row in 0..2 {
                seen[(x.at2(row, 0) / 2.0) as usize] += 1;
            }
        }
        assert_eq!(seen, vec![1; 6], "one epoch visits every sample once");
    }

    #[test]
    fn shuffling_is_seed_deterministic() {
        let mut a = tiny();
        a.set_shuffle_seed(5);
        let mut b = tiny();
        b.set_shuffle_seed(5);
        let batch_a: Vec<_> = a.train_batches(2).take(5).map(|(_, y)| y).collect();
        let batch_b: Vec<_> = b.train_batches(2).take(5).map(|(_, y)| y).collect();
        assert_eq!(batch_a, batch_b);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        let x = Tensor::zeros(vec![1, 2]);
        let _ = Dataset::new(x.clone(), vec![5], x, vec![0], 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_batch_panics() {
        let d = tiny();
        let _ = d.train_batches(7);
    }

    #[test]
    fn resumed_stream_continues_exactly() {
        let mut d = tiny();
        d.set_shuffle_seed(11);
        // Draw 2 of 7 batches, snapshot, then compare the remaining 5
        // against an uninterrupted stream (crossing an epoch boundary).
        let mut full = d.train_batches(2);
        let mut split = d.train_batches(2);
        for _ in 0..2 {
            full.next();
            split.next();
        }
        let state = split.export_state();
        drop(split);
        let mut resumed = d.try_resume_train_batches(&state).unwrap();
        for _ in 0..5 {
            let (fx, fy) = full.next().unwrap();
            let (rx, ry) = resumed.next().unwrap();
            assert_eq!(fx.data(), rx.data());
            assert_eq!(fy, ry);
        }
        // A second export at the same point is identical.
        assert_eq!(
            d.try_resume_train_batches(&state).unwrap().export_state(),
            state
        );
    }

    #[test]
    fn resume_rejects_mismatched_state() {
        let d = tiny();
        let good = d.train_batches(2).export_state();
        assert!(d.try_resume_train_batches(&good).is_ok());
        let mut bad = good.clone();
        bad.train_len = 99;
        assert!(d.try_resume_train_batches(&bad).is_err());
        let mut bad = good.clone();
        bad.batch = 0;
        assert!(d.try_resume_train_batches(&bad).is_err());
        let mut bad = good.clone();
        bad.order = vec![0; 6]; // not a permutation
        assert!(d.try_resume_train_batches(&bad).is_err());
        let mut bad = good;
        bad.cursor = 7;
        assert!(d.try_resume_train_batches(&bad).is_err());
    }

    #[test]
    fn try_train_batches_surfaces_typed_errors() {
        let d = tiny();
        assert!(d.try_train_batches(0).is_err());
        assert!(d.try_train_batches(7).is_err());
        let mut it = d.try_train_batches(2).unwrap();
        assert!(it.next().is_some());
    }
}
