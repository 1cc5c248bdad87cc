//! The block-circulant weight matrix (paper Sec. III-A).
//!
//! A weight matrix `W ∈ R^{m×n}` is partitioned into `p × q` square blocks
//! of size `L_b` (`p = ⌈m/L_b⌉`, `q = ⌈n/L_b⌉`, zero-padded at the edges).
//! Each block is a circulant matrix defined by its **first row** `w_ij`
//! (Fig. 4 convention: row `r` is the first row rotated right by `r`).
//! Storage drops from `O(n²)` to `O(n)` and the matvec runs as
//!
//! ```text
//! a_i = IFFT( Σ_j  conj(FFT(w_ij)) ∘ FFT(x_j) )          (Eqn. 4)
//! ```
//!
//! (the conjugation appears because a row-defined circulant performs a
//! circular *correlation*; the E-RNN PE datapath contains the matching
//! conjugation operator, Fig. 10). The implementation applies both
//! computation reductions from Sec. V-A: `FFT(x_j)` is computed once per
//! input block and the IFFT runs once per output block after
//! frequency-domain accumulation.

use crate::{MatVec, MatVecScratch, Matrix};
use ernn_fft::{is_power_of_two, spectrum_conj_mul_acc, stats, Complex32, RealFft};
use std::sync::Arc;

/// A block-circulant matrix with cached weight spectra.
///
/// Construct one either from explicit defining vectors
/// ([`BlockCirculantMatrix::from_blocks`]) or by Euclidean projection of a
/// dense matrix ([`BlockCirculantMatrix::project_dense`], the paper's
/// Eqn. 6 — the optimal solution of ADMM's second subproblem).
#[derive(Debug, Clone)]
pub struct BlockCirculantMatrix {
    /// Logical output dimension (rows of the represented matrix).
    rows: usize,
    /// Logical input dimension.
    cols: usize,
    /// Circulant block size `L_b`.
    block_size: usize,
    /// Number of block rows, `⌈rows / L_b⌉`.
    p: usize,
    /// Number of block columns, `⌈cols / L_b⌉`.
    q: usize,
    /// Defining first-row vectors, `p*q` blocks × `L_b` entries, block
    /// row-major.
    blocks: Vec<f32>,
    /// Cached `FFT(w_ij)` half spectra, `p*q` × `spectrum_len` entries.
    spectra: Vec<Complex32>,
    /// Process-wide shared real-FFT plan of size `L_b` (see
    /// [`RealFft::shared`]); clones of this matrix share the plan instead
    /// of recomputing twiddle tables.
    rfft: Arc<RealFft>,
    /// How many times the weight spectra have been (re)computed over this
    /// instance's lifetime (clones inherit the count). Construction counts
    /// as one; a steady count across matvecs is the observable guarantee
    /// that weight FFTs are cached rather than recomputed per request.
    refreshes: u64,
}

impl BlockCirculantMatrix {
    /// Builds a block-circulant matrix from defining vectors.
    ///
    /// `blocks` holds `⌈rows/L_b⌉ · ⌈cols/L_b⌉` first-row vectors of length
    /// `block_size`, in block row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two, dimensions are zero,
    /// or `blocks` has the wrong length.
    pub fn from_blocks(rows: usize, cols: usize, block_size: usize, blocks: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be non-zero");
        assert!(
            is_power_of_two(block_size),
            "block size must be a power of two, got {block_size}"
        );
        let p = rows.div_ceil(block_size);
        let q = cols.div_ceil(block_size);
        assert_eq!(
            blocks.len(),
            p * q * block_size,
            "expected {} block parameters, got {}",
            p * q * block_size,
            blocks.len()
        );
        let rfft = RealFft::shared(block_size);
        let mut m = BlockCirculantMatrix {
            rows,
            cols,
            block_size,
            p,
            q,
            blocks,
            spectra: Vec::new(),
            rfft,
            refreshes: 0,
        };
        m.refresh_spectra();
        m
    }

    /// Euclidean projection of a dense matrix onto the block-circulant
    /// manifold (paper Eqn. 6 / Fig. 5).
    ///
    /// For each block, each entry of the defining vector is the mean of the
    /// corresponding circulant diagonal. When the dense dimensions do not
    /// divide `block_size`, edge blocks are truncated: the mean runs over
    /// the in-bounds entries only, which keeps the projection the exact
    /// Euclidean minimizer over the *represented* (truncated) matrix and —
    /// crucially for ADMM — idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn project_dense(dense: &Matrix, block_size: usize) -> Self {
        assert!(
            is_power_of_two(block_size),
            "block size must be a power of two, got {block_size}"
        );
        let rows = dense.rows();
        let cols = dense.cols();
        let p = rows.div_ceil(block_size);
        let q = cols.div_ceil(block_size);
        let lb = block_size;
        let mut blocks = vec![0.0f32; p * q * lb];
        for bi in 0..p {
            for bj in 0..q {
                let base = (bi * q + bj) * lb;
                for k in 0..lb {
                    // Average along the diagonal (r, (r + k) mod L_b),
                    // counting only entries inside the logical matrix.
                    let mut sum = 0.0f32;
                    let mut count = 0usize;
                    for r in 0..lb {
                        let rr = bi * lb + r;
                        let cc = bj * lb + (r + k) % lb;
                        if rr < rows && cc < cols {
                            sum += dense.get(rr, cc);
                            count += 1;
                        }
                    }
                    blocks[base + k] = if count > 0 { sum / count as f32 } else { 0.0 };
                }
            }
        }
        BlockCirculantMatrix::from_blocks(rows, cols, block_size, blocks)
    }

    /// Logical number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Circulant block size `L_b`.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Block-grid shape `(p, q)`.
    #[inline]
    pub fn grid(&self) -> (usize, usize) {
        (self.p, self.q)
    }

    /// The stored defining vectors (block row-major, `L_b` per block).
    #[inline]
    pub fn blocks(&self) -> &[f32] {
        &self.blocks
    }

    /// The defining vector of block `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the block indices are out of range.
    pub fn block(&self, i: usize, j: usize) -> &[f32] {
        assert!(i < self.p && j < self.q, "block index out of range");
        let base = (i * self.q + j) * self.block_size;
        &self.blocks[base..base + self.block_size]
    }

    /// Number of stored parameters (`p·q·L_b`).
    #[inline]
    pub fn param_count(&self) -> usize {
        self.blocks.len()
    }

    /// Compression ratio versus dense storage of the logical matrix.
    pub fn compression_ratio(&self) -> f64 {
        (self.rows * self.cols) as f64 / self.param_count() as f64
    }

    /// Overwrites the defining vectors and refreshes the cached spectra.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` differs from [`Self::param_count`].
    pub fn set_blocks(&mut self, blocks: &[f32]) {
        assert_eq!(blocks.len(), self.blocks.len(), "block length mismatch");
        self.blocks.copy_from_slice(blocks);
        self.refresh_spectra();
    }

    /// Applies `f` to the defining vectors in place (e.g. an SGD step in
    /// C-LSTM-style training) and refreshes the cached spectra.
    pub fn update_blocks(&mut self, f: impl FnOnce(&mut [f32])) {
        f(&mut self.blocks);
        self.refresh_spectra();
    }

    /// Lifetime count of weight-spectrum recomputations (see the field
    /// docs); serving-layer tests use this to prove the FFT'd-weight cache
    /// is hit rather than rebuilt per request.
    #[inline]
    pub fn spectrum_refresh_count(&self) -> u64 {
        self.refreshes
    }

    /// Recomputes the cached weight spectra from the defining vectors and
    /// bumps [`Self::spectrum_refresh_count`]. Values are unchanged (the
    /// FFT of the same blocks); callers use this to model re-streaming a
    /// weight image — e.g. the serving registry loading a model into an
    /// accelerator's BRAM — while keeping the refresh counter honest.
    pub fn refresh_spectra(&mut self) {
        self.refreshes += 1;
        let sp_len = self.rfft.spectrum_len();
        self.spectra.clear();
        self.spectra.reserve(self.p * self.q * sp_len);
        for b in 0..self.p * self.q {
            let base = b * self.block_size;
            let spec = self
                .rfft
                .forward(&self.blocks[base..base + self.block_size]);
            self.spectra.extend_from_slice(&spec);
        }
    }

    fn spectrum(&self, i: usize, j: usize) -> &[Complex32] {
        let sp_len = self.rfft.spectrum_len();
        let base = (i * self.q + j) * sp_len;
        &self.spectra[base..base + sp_len]
    }

    /// FFT-based matvec `y = W·x` with FFT/IFFT decoupling (Sec. V-A1).
    ///
    /// Cost: `q` forward FFTs, `p·q` frequency-domain multiply-accumulates,
    /// `p` inverse FFTs. Thin allocating wrapper over
    /// [`Self::matvec_into`]; results are bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut y, &mut MatVecScratch::new());
        y
    }

    /// FFT-based matvec writing into a caller-provided output buffer,
    /// allocation-free once `scratch` has grown to this matrix's shape.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32], scratch: &mut MatVecScratch) {
        self.matvec_batch_into(x, y, 1, scratch);
    }

    /// Batch-fused FFT matvec: `ys[b] = W·xs[b]` for `batch` inputs laid
    /// out contiguously (`xs` is `batch × cols` row-major, `ys` is
    /// `batch × rows`).
    ///
    /// All `batch · q` input blocks are FFT'd first; the cached weight
    /// spectra are then streamed **once per batch** — each `(i, j)` block
    /// visit accumulates into all `batch` frequency-domain accumulators
    /// (observable via
    /// [`spectrum_block_reads`](ernn_fft::stats::FftStats::spectrum_block_reads):
    /// `p·q` reads per call, versus `batch · p·q` for sequential calls).
    /// This is the host-side analogue of how C-LSTM amortizes the weight
    /// stream across concurrent inputs. Per-input results are
    /// bit-identical to [`Self::matvec`]: each input sees the exact same
    /// operation sequence, only the weight-block traversal is shared.
    ///
    /// Allocation-free once `scratch` has grown to this shape and batch.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != batch * cols` or `ys.len() != batch * rows`.
    pub fn matvec_batch_into(
        &self,
        xs: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        assert_eq!(
            xs.len(),
            batch * self.cols,
            "input length must equal batch × cols"
        );
        assert_eq!(
            ys.len(),
            batch * self.rows,
            "output length must equal batch × rows"
        );
        let lb = self.block_size;
        let sp_len = self.rfft.spectrum_len();
        let MatVecScratch {
            padded,
            x_spectra,
            acc,
            block_out,
            fft,
        } = scratch;
        padded.resize(lb, 0.0);
        x_spectra.resize(batch * self.q * sp_len, Complex32::ZERO);
        acc.resize(batch * sp_len, Complex32::ZERO);
        block_out.resize(lb, 0.0);

        // Stage 1 (decoupled): FFT of every (zero-padded) input block, once.
        for b in 0..batch {
            let x = &xs[b * self.cols..(b + 1) * self.cols];
            for j in 0..self.q {
                let start = j * lb;
                let end = ((j + 1) * lb).min(self.cols);
                padded.iter_mut().for_each(|v| *v = 0.0);
                padded[..end - start].copy_from_slice(&x[start..end]);
                let spec = &mut x_spectra[(b * self.q + j) * sp_len..][..sp_len];
                self.rfft.forward_into(padded, spec, fft);
            }
        }

        // Stage 2+3: one pass over the weight spectra per batch — every
        // block visit feeds all `batch` accumulators — then one IFFT per
        // (output block, input). The pass visits exactly p·q blocks, so
        // the read counter is bumped once up front rather than paying an
        // atomic RMW inside the hot accumulate loop.
        stats::count_spectrum_block_reads((self.p * self.q) as u64);
        for i in 0..self.p {
            acc.iter_mut().for_each(|v| *v = Complex32::ZERO);
            for j in 0..self.q {
                let w = self.spectrum(i, j);
                for b in 0..batch {
                    let xsj = &x_spectra[(b * self.q + j) * sp_len..][..sp_len];
                    spectrum_conj_mul_acc(&mut acc[b * sp_len..][..sp_len], w, xsj);
                }
            }
            let start = i * lb;
            let end = ((i + 1) * lb).min(self.rows);
            for b in 0..batch {
                self.rfft
                    .inverse_into(&acc[b * sp_len..][..sp_len], block_out, fft);
                ys[b * self.rows..][start..end].copy_from_slice(&block_out[..end - start]);
            }
        }
    }

    /// Direct (no-FFT) matvec, O(L_b²) per block. Reference implementation
    /// used to validate [`Self::matvec`] and by the fixed-point simulator,
    /// which mirrors the hardware's integer datapath.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec_direct(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "input length must equal cols");
        let lb = self.block_size;
        let mut y = vec![0.0f32; self.rows];
        for i in 0..self.p {
            let rlimit = lb.min(self.rows - i * lb);
            for j in 0..self.q {
                let w = self.block(i, j);
                let jbase = j * lb;
                let climit = lb.min(self.cols - jbase);
                let xs = &x[jbase..jbase + climit];
                for (r, out) in y[i * lb..i * lb + rlimit].iter_mut().enumerate() {
                    // Row r of the block is w rotated right by r: entry
                    // (r, c) = w[(c − r) mod L_b], i.e. the wrapped tail
                    // w[L_b−r..] for c < r followed by w[..] for c ≥ r —
                    // two contiguous segments, no per-element modulo.
                    let mut acc = 0.0f32;
                    for (wv, xv) in w[lb - r..].iter().zip(xs) {
                        acc += wv * xv;
                    }
                    if r < climit {
                        for (wv, xv) in w.iter().zip(&xs[r..]) {
                            acc += wv * xv;
                        }
                    }
                    *out += acc;
                }
            }
        }
        y
    }

    /// Transposed matvec `y = Wᵀ·x`.
    ///
    /// Uses the identity that the transpose of a first-row circulant `w` is
    /// the circulant defined by `w'(k) = w((L_b − k) mod L_b)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "input length must equal rows");
        let lb = self.block_size;
        let mut y = vec![0.0f32; self.cols];
        for i in 0..self.p {
            let ibase = i * lb;
            let rlimit = lb.min(self.rows - ibase);
            let xs = &x[ibase..ibase + rlimit];
            for j in 0..self.q {
                let w = self.block(i, j);
                let jbase = j * lb;
                let climit = lb.min(self.cols - jbase);
                for (c, out) in y[jbase..jbase + climit].iter_mut().enumerate() {
                    // Column c reads w[(c − r) mod L_b] down the rows:
                    // w[c], w[c−1], …, w[0], then w[L_b−1] down to the wrap
                    // point — two reversed contiguous runs, no modulo.
                    let mut acc = 0.0f32;
                    for (wv, xv) in w[..=c].iter().rev().zip(xs) {
                        acc += wv * xv;
                    }
                    if c + 1 < rlimit {
                        let lo = lb + c + 1 - rlimit;
                        for (wv, xv) in w[lo..].iter().rev().zip(&xs[c + 1..]) {
                            acc += wv * xv;
                        }
                    }
                    *out += acc;
                }
            }
        }
        y
    }

    /// Gradient of a loss with respect to the defining vectors for
    /// `y = W·x`: given `∂L/∂y`, returns `∂L/∂w` in the same layout as
    /// [`Self::blocks`].
    ///
    /// Because entry `(r, c)` of block `(i, j)` equals `w_ij[(c−r) mod L_b]`,
    /// the gradient of `w_ij[k]` sums `dy[r] · x[(r+k) mod L_b]` along the
    /// diagonal — this is the exact gradient of the circulant
    /// parameterization used by C-LSTM-style training.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the matrix shape.
    pub fn grad_blocks(&self, x: &[f32], dy: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "input length must equal cols");
        assert_eq!(
            dy.len(),
            self.rows,
            "output-gradient length must equal rows"
        );
        let lb = self.block_size;
        let mut grad = vec![0.0f32; self.blocks.len()];
        for i in 0..self.p {
            let ibase = i * lb;
            let rlimit = lb.min(self.rows - ibase);
            let dys = &dy[ibase..ibase + rlimit];
            for j in 0..self.q {
                let jbase = j * lb;
                let climit = lb.min(self.cols - jbase);
                let xs = &x[jbase..jbase + climit];
                let base = (i * self.q + j) * lb;
                for (k, g) in grad[base..base + lb].iter_mut().enumerate() {
                    // Diagonal (r, (r + k) mod L_b): column index r + k
                    // until it wraps at r = L_b − k, then r + k − L_b —
                    // two contiguous dy/x segment products, no modulo.
                    let mut acc = 0.0f32;
                    if k < climit {
                        for (dv, xv) in dys.iter().zip(&xs[k..]) {
                            acc += dv * xv;
                        }
                    }
                    if k > 0 && lb - k < rlimit {
                        for (dv, xv) in dys[lb - k..].iter().zip(xs) {
                            acc += dv * xv;
                        }
                    }
                    *g = acc;
                }
            }
        }
        grad
    }

    /// Materializes the dense equivalent (logical dimensions, padding
    /// dropped).
    pub fn to_dense(&self) -> Matrix {
        let lb = self.block_size;
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            let (bi, bj) = (r / lb, c / lb);
            let (br, bc) = (r % lb, c % lb);
            self.block(bi, bj)[(bc + lb - br) % lb]
        })
    }

    /// Squared Euclidean distance between this matrix and a dense matrix of
    /// the same logical shape — the quantity ADMM's second subproblem
    /// minimizes.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn distance_sq(&self, dense: &Matrix) -> f32 {
        assert_eq!(dense.rows(), self.rows, "row mismatch");
        assert_eq!(dense.cols(), self.cols, "col mismatch");
        let own = self.to_dense();
        own.as_slice()
            .iter()
            .zip(dense.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

impl PartialEq for BlockCirculantMatrix {
    /// Two block-circulant matrices are equal when they represent the same
    /// logical matrix: shape, block size and defining vectors all match
    /// (the cached spectra are derived state and excluded).
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.block_size == other.block_size
            && self.blocks == other.blocks
    }
}

impl MatVec for BlockCirculantMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn matvec(&self, x: &[f32]) -> Vec<f32> {
        BlockCirculantMatrix::matvec(self, x)
    }
    fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        BlockCirculantMatrix::matvec_t(self, x)
    }
    fn matvec_into(&self, x: &[f32], y: &mut [f32], scratch: &mut MatVecScratch) {
        BlockCirculantMatrix::matvec_into(self, x, y, scratch);
    }
    fn matvec_batch_into(
        &self,
        xs: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        BlockCirculantMatrix::matvec_batch_into(self, xs, ys, batch, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn random_bc(
        rows: usize,
        cols: usize,
        lb: usize,
        seed: u64,
    ) -> (BlockCirculantMatrix, rand_chacha::ChaCha8Rng) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let p = rows.div_ceil(lb);
        let q = cols.div_ceil(lb);
        let blocks: Vec<f32> = (0..p * q * lb).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (
            BlockCirculantMatrix::from_blocks(rows, cols, lb, blocks),
            rng,
        )
    }

    #[test]
    fn to_dense_rows_rotate_right() {
        let bc = BlockCirculantMatrix::from_blocks(4, 4, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let d = bc.to_dense();
        assert_eq!(d.row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.row(1), &[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(d.row(2), &[3.0, 4.0, 1.0, 2.0]);
        assert_eq!(d.row(3), &[2.0, 3.0, 4.0, 1.0]);
    }

    #[test]
    fn fft_matvec_matches_dense() {
        let (bc, mut rng) = random_bc(8, 12, 4, 11);
        let x: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected = bc.to_dense().matvec(&x);
        let got = bc.matvec(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4, "{got:?} vs {expected:?}");
        }
    }

    #[test]
    fn direct_matvec_matches_dense() {
        let (bc, mut rng) = random_bc(8, 12, 4, 13);
        let x: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected = bc.to_dense().matvec(&x);
        let got = bc.matvec_direct(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_t_matches_dense_transpose() {
        let (bc, mut rng) = random_bc(8, 12, 4, 17);
        let x: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected = bc.to_dense().matvec_t(&x);
        let got = bc.matvec_t(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn projection_is_identity_on_circulant_input() {
        let (bc, _) = random_bc(8, 8, 4, 19);
        let reprojected = BlockCirculantMatrix::project_dense(&bc.to_dense(), 4);
        for (a, b) in bc.blocks().iter().zip(reprojected.blocks()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn euclidean_mapping_averages_diagonals() {
        // 2×2 block: entries (0,0),(1,1) share w[0]; (0,1),(1,0) share w[1].
        let dense = Matrix::from_rows(&[&[0.5, 0.4], &[-0.3, 0.5]]);
        let bc = BlockCirculantMatrix::project_dense(&dense, 2);
        let w = bc.block(0, 0);
        assert!((w[0] - 0.5).abs() < 1e-6); // (0.5 + 0.5)/2
        assert!((w[1] - 0.05).abs() < 1e-6); // (0.4 − 0.3)/2
    }

    #[test]
    fn euclidean_mapping_matches_paper_figure_5_layout() {
        // A 4×4 matrix with block size 2 has 4 independent 2×2 circulant
        // blocks; check each block's diagonal averaging independently.
        let dense = Matrix::from_rows(&[
            &[0.5, 0.4, 1.2, -0.3],
            &[-1.3, 0.5, 0.1, 0.7],
            &[-0.1, 1.4, 0.7, 0.5],
            &[0.6, -1.3, -0.9, 1.4],
        ]);
        let bc = BlockCirculantMatrix::project_dense(&dense, 2);
        // Block (0,0): diag {0.5, 0.5} -> 0.5; off-diag {0.4, -1.3} -> -0.45.
        assert!((bc.block(0, 0)[0] - 0.5).abs() < 1e-6);
        assert!((bc.block(0, 0)[1] - (-0.45)).abs() < 1e-6);
        // Block (0,1): diag {1.2, 0.7} -> 0.95; off-diag {-0.3, 0.1} -> -0.1.
        assert!((bc.block(0, 1)[0] - 0.95).abs() < 1e-6);
        assert!((bc.block(0, 1)[1] - (-0.1)).abs() < 1e-6);
        // Block (1,1): diag {0.7, 1.4} -> 1.05; off-diag {0.5, -0.9} -> -0.2.
        assert!((bc.block(1, 1)[0] - 1.05).abs() < 1e-6);
        assert!((bc.block(1, 1)[1] - (-0.2)).abs() < 1e-6);
    }

    #[test]
    fn projection_minimizes_distance() {
        // The projection must beat any perturbed circulant candidate.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let dense = Matrix::xavier(8, 8, &mut rng);
        let proj = BlockCirculantMatrix::project_dense(&dense, 4);
        let best = proj.distance_sq(&dense);
        for _ in 0..20 {
            let mut blocks = proj.blocks().to_vec();
            for b in &mut blocks {
                *b += rng.gen_range(-0.05..0.05);
            }
            let candidate = BlockCirculantMatrix::from_blocks(8, 8, 4, blocks);
            assert!(candidate.distance_sq(&dense) >= best - 1e-6);
        }
    }

    #[test]
    fn grad_blocks_matches_finite_difference() {
        let (mut bc, mut rng) = random_bc(8, 8, 4, 29);
        let x: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let dy: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let grad = bc.grad_blocks(&x, &dy);
        // L = dy · (W x); compare to central differences on each parameter.
        let eps = 1e-3f32;
        let n = bc.param_count();
        for k in (0..n).step_by(3) {
            let orig = bc.blocks()[k];
            let mut plus = bc.blocks().to_vec();
            plus[k] = orig + eps;
            bc.set_blocks(&plus);
            let lp: f32 = crate::ops::dot(&dy, &bc.matvec_direct(&x));
            let mut minus = plus;
            minus[k] = orig - eps;
            bc.set_blocks(&minus);
            let lm: f32 = crate::ops::dot(&dy, &bc.matvec_direct(&x));
            let mut restore = minus;
            restore[k] = orig;
            bc.set_blocks(&restore);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad[k]).abs() < 1e-2 * (1.0 + fd.abs()),
                "param {k}: fd={fd} grad={}",
                grad[k]
            );
        }
    }

    #[test]
    fn compression_ratio_matches_block_size_for_square() {
        let (bc, _) = random_bc(64, 64, 8, 31);
        assert!((bc.compression_ratio() - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_block() {
        let _ = BlockCirculantMatrix::from_blocks(6, 6, 3, vec![0.0; 12]);
    }

    #[test]
    fn update_blocks_refreshes_spectra() {
        let (mut bc, mut rng) = random_bc(8, 8, 4, 37);
        let x: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        bc.update_blocks(|b| b.iter_mut().for_each(|v| *v *= 2.0));
        let got = bc.matvec(&x);
        let expected = bc.matvec_direct(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn batched_matvec_streams_weight_spectra_once_per_batch() {
        let (bc, mut rng) = random_bc(16, 24, 8, 41);
        let (p, q) = bc.grid();
        let batch = 6usize;
        let xs: Vec<f32> = (0..batch * bc.cols())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut ys = vec![0.0f32; batch * bc.rows()];
        let mut scratch = MatVecScratch::new();

        // Sequential: one pass over the weight spectra per input.
        let before = ernn_fft::stats::thread_snapshot();
        for b in 0..batch {
            let (x, y) = (
                &xs[b * bc.cols()..(b + 1) * bc.cols()],
                &mut ys[b * bc.rows()..(b + 1) * bc.rows()],
            );
            bc.matvec_into(x, y, &mut scratch);
        }
        let seq = ernn_fft::stats::thread_snapshot().since(&before);
        assert_eq!(seq.spectrum_block_reads, (batch * p * q) as u64);

        // Fused: exactly one pass per batch, whatever the batch size.
        let before = ernn_fft::stats::thread_snapshot();
        bc.matvec_batch_into(&xs, &mut ys, batch, &mut scratch);
        let fused = ernn_fft::stats::thread_snapshot().since(&before);
        assert_eq!(fused.spectrum_block_reads, (p * q) as u64);
        // FFT work is identical either way; only the spectrum streaming
        // is amortized.
        assert_eq!(fused.forward_transforms, seq.forward_transforms);
        assert_eq!(fused.inverse_transforms, seq.inverse_transforms);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn into_and_batch_paths_are_bit_identical_to_matvec(
            lb_pow in 0u32..5,
            p in 1usize..4,
            q in 1usize..4,
            batch in 1usize..5,
            rows_off in 0usize..3,
            cols_off in 0usize..3,
            seed in any::<u64>(),
        ) {
            // Padded edge blocks included: logical dims need not divide L_b.
            let lb = 1usize << lb_pow;
            let rows = (p * lb).saturating_sub(rows_off).max(1);
            let cols = (q * lb).saturating_sub(cols_off).max(1);
            let (bc, mut rng) = random_bc(rows, cols, lb, seed);
            let xs: Vec<Vec<f32>> = (0..batch)
                .map(|_| (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let expected: Vec<Vec<f32>> = xs.iter().map(|x| bc.matvec(x)).collect();

            // matvec_into, with one reused scratch across calls.
            let mut scratch = MatVecScratch::new();
            for (x, want) in xs.iter().zip(expected.iter()) {
                let mut y = vec![0.0f32; rows];
                bc.matvec_into(x, &mut y, &mut scratch);
                prop_assert_eq!(&y, want);
            }

            // matvec_batch_into over the flattened batch.
            let flat: Vec<f32> = xs.iter().flatten().copied().collect();
            let mut ys = vec![0.0f32; batch * rows];
            bc.matvec_batch_into(&flat, &mut ys, batch, &mut scratch);
            for (b, want) in expected.iter().enumerate() {
                prop_assert_eq!(&ys[b * rows..(b + 1) * rows], want.as_slice());
            }
        }

        #[test]
        fn fft_and_direct_paths_agree(
            lb_pow in 0u32..5,
            p in 1usize..4,
            q in 1usize..4,
            seed in any::<u64>(),
        ) {
            let lb = 1usize << lb_pow;
            let rows = p * lb;
            let cols = q * lb;
            let (bc, mut rng) = random_bc(rows, cols, lb, seed);
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let fft = bc.matvec(&x);
            let direct = bc.matvec_direct(&x);
            for (a, b) in fft.iter().zip(direct.iter()) {
                prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
            }
        }

        #[test]
        fn padded_dims_agree_with_dense(
            rows in 1usize..20,
            cols in 1usize..20,
            seed in any::<u64>(),
        ) {
            let lb = 8;
            let (bc, mut rng) = random_bc(rows, cols, lb, seed);
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let expected = bc.to_dense().matvec(&x);
            let got = bc.matvec(&x);
            prop_assert_eq!(got.len(), rows);
            for (a, b) in got.iter().zip(expected.iter()) {
                prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
            }
        }
    }
}
