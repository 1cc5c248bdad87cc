//! Weight-matrix abstraction shared by dense and compressed models.
//!
//! RNN cells in `ernn-model` are generic over [`MatVec`] so that the same
//! forward-pass code runs the uncompressed training model
//! ([`crate::Matrix`]), the compressed inference model
//! ([`crate::BlockCirculantMatrix`]), or a mixture chosen at run time
//! ([`WeightMatrix`]).

use crate::{BlockCirculantMatrix, MatVecScratch, Matrix};

/// A matrix that can multiply a vector (and its transpose).
///
/// This is the only capability an RNN cell's forward pass needs from its
/// weights. The trait is sealed-by-convention: the workspace implements it
/// for [`Matrix`], [`BlockCirculantMatrix`] and [`WeightMatrix`].
///
/// The `_into` methods are the allocation-free forms used by the
/// inference hot path; they must be bit-identical to `matvec`. Every
/// implementation supplies its own in-place `matvec_into`. The provided
/// `matvec_batch_into` loops `matvec_into` over the batch; [`Matrix`]
/// keeps that default, while [`BlockCirculantMatrix`] (and
/// [`WeightMatrix`] on its circulant variant) override it with the fused
/// kernel.
pub trait MatVec {
    /// Output dimension.
    fn rows(&self) -> usize;
    /// Input dimension.
    fn cols(&self) -> usize;
    /// `y = A·x`.
    fn matvec(&self, x: &[f32]) -> Vec<f32>;
    /// `y = Aᵀ·x`.
    fn matvec_t(&self, x: &[f32]) -> Vec<f32>;

    /// `y = A·x` into a caller-provided buffer, borrowing `scratch` for
    /// intermediates. Bit-identical to [`Self::matvec`].
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()`.
    fn matvec_into(&self, x: &[f32], y: &mut [f32], scratch: &mut MatVecScratch);

    /// Batched `ys[b] = A·xs[b]` over contiguous `batch × cols` inputs
    /// and `batch × rows` outputs. Bit-identical per input to
    /// [`Self::matvec`]; implementations may fuse the batch (the
    /// block-circulant kernel streams its weight spectra once per batch).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `batch` and the shape.
    fn matvec_batch_into(
        &self,
        xs: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        let (rows, cols) = (self.rows(), self.cols());
        assert_eq!(
            xs.len(),
            batch * cols,
            "input length must equal batch × cols"
        );
        assert_eq!(
            ys.len(),
            batch * rows,
            "output length must equal batch × rows"
        );
        for b in 0..batch {
            self.matvec_into(
                &xs[b * cols..(b + 1) * cols],
                &mut ys[b * rows..(b + 1) * rows],
                scratch,
            );
        }
    }
}

impl MatVec for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn matvec(&self, x: &[f32]) -> Vec<f32> {
        Matrix::matvec(self, x)
    }
    fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        Matrix::matvec_t(self, x)
    }
    fn matvec_into(&self, x: &[f32], y: &mut [f32], _scratch: &mut MatVecScratch) {
        Matrix::matvec_into(self, x, y);
    }
}

/// A weight matrix in either representation, chosen at run time.
///
/// Phase I of E-RNN may assign *different* block sizes to different weight
/// matrices (Sec. VI-B step 3 uses larger blocks for input/output matrices),
/// including leaving some dense; this enum is the uniform container.
///
/// ```
/// use ernn_linalg::{Matrix, MatVec, WeightMatrix, BlockCirculantMatrix};
/// let dense = Matrix::from_fn(4, 4, |r, c| (r + c) as f32);
/// let w = WeightMatrix::Circulant(BlockCirculantMatrix::project_dense(&dense, 2));
/// assert_eq!(w.rows(), 4);
/// assert_eq!(w.param_count(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum WeightMatrix {
    /// Uncompressed storage.
    Dense(Matrix),
    /// Block-circulant compressed storage.
    Circulant(BlockCirculantMatrix),
}

impl WeightMatrix {
    /// Number of stored parameters.
    pub fn param_count(&self) -> usize {
        match self {
            WeightMatrix::Dense(m) => m.rows() * m.cols(),
            WeightMatrix::Circulant(m) => m.param_count(),
        }
    }

    /// Block size of the representation (1 for dense).
    pub fn block_size(&self) -> usize {
        match self {
            WeightMatrix::Dense(_) => 1,
            WeightMatrix::Circulant(m) => m.block_size(),
        }
    }

    /// Materializes a dense copy.
    pub fn to_dense(&self) -> Matrix {
        match self {
            WeightMatrix::Dense(m) => m.clone(),
            WeightMatrix::Circulant(m) => m.to_dense(),
        }
    }
}

impl MatVec for WeightMatrix {
    fn rows(&self) -> usize {
        match self {
            WeightMatrix::Dense(m) => m.rows(),
            WeightMatrix::Circulant(m) => m.rows(),
        }
    }
    fn cols(&self) -> usize {
        match self {
            WeightMatrix::Dense(m) => m.cols(),
            WeightMatrix::Circulant(m) => m.cols(),
        }
    }
    fn matvec(&self, x: &[f32]) -> Vec<f32> {
        match self {
            WeightMatrix::Dense(m) => m.matvec(x),
            WeightMatrix::Circulant(m) => m.matvec(x),
        }
    }
    fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        match self {
            WeightMatrix::Dense(m) => m.matvec_t(x),
            WeightMatrix::Circulant(m) => m.matvec_t(x),
        }
    }
    fn matvec_into(&self, x: &[f32], y: &mut [f32], scratch: &mut MatVecScratch) {
        match self {
            WeightMatrix::Dense(m) => MatVec::matvec_into(m, x, y, scratch),
            WeightMatrix::Circulant(m) => m.matvec_into(x, y, scratch),
        }
    }
    fn matvec_batch_into(
        &self,
        xs: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        match self {
            WeightMatrix::Dense(m) => MatVec::matvec_batch_into(m, xs, ys, batch, scratch),
            WeightMatrix::Circulant(m) => m.matvec_batch_into(xs, ys, batch, scratch),
        }
    }
}

impl From<Matrix> for WeightMatrix {
    fn from(m: Matrix) -> Self {
        WeightMatrix::Dense(m)
    }
}

impl From<BlockCirculantMatrix> for WeightMatrix {
    fn from(m: BlockCirculantMatrix) -> Self {
        WeightMatrix::Circulant(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `matvec_into` (one scratch reused across calls) and a batch-3
    /// `matvec_batch_into` both equal per-input `matvec` bit for bit.
    fn assert_into_forms_match_matvec(w: &WeightMatrix) {
        let xs: Vec<Vec<f32>> = (0..3)
            .map(|b| (0..8).map(|i| (i as f32 - b as f32) * 0.1).collect())
            .collect();
        let mut scratch = MatVecScratch::new();
        for x in &xs {
            let mut y = vec![0.0f32; 8];
            w.matvec_into(x, &mut y, &mut scratch);
            assert_eq!(y, w.matvec(x));
        }
        let flat: Vec<f32> = xs.iter().flatten().copied().collect();
        let mut ys = vec![0.0f32; 3 * 8];
        w.matvec_batch_into(&flat, &mut ys, 3, &mut scratch);
        for (b, x) in xs.iter().enumerate() {
            assert_eq!(&ys[b * 8..(b + 1) * 8], w.matvec(x).as_slice(), "lane {b}");
        }
    }

    #[test]
    fn enum_dispatch_matches_inner() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let dense = Matrix::xavier(8, 8, &mut rng);
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let w = WeightMatrix::Dense(dense.clone());
        assert_eq!(w.matvec(&x), dense.matvec(&x));
        assert_eq!(w.matvec_t(&x), dense.matvec_t(&x));
        assert_into_forms_match_matvec(&w);

        let bc = BlockCirculantMatrix::project_dense(&dense, 4);
        let w = WeightMatrix::Circulant(bc.clone());
        assert_eq!(w.matvec(&x), bc.matvec(&x));
        assert_eq!(w.param_count(), bc.param_count());
        assert_eq!(w.block_size(), 4);
        assert_into_forms_match_matvec(&w);
    }

    #[test]
    fn from_conversions() {
        let m = Matrix::zeros(2, 2);
        let w: WeightMatrix = m.into();
        assert_eq!(w.block_size(), 1);
        assert_eq!(w.param_count(), 4);
    }
}
