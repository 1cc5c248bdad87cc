//! Linear-algebra substrate for the E-RNN reproduction.
//!
//! Two matrix representations coexist in the E-RNN framework:
//!
//! * [`Matrix`] — plain dense row-major storage, used during training
//!   (the ADMM subproblem 1 trains *unconstrained* weights).
//! * [`BlockCirculantMatrix`] — the paper's compressed format (Sec. III-A):
//!   the matrix is partitioned into `L_b × L_b` blocks, each a circulant
//!   defined by its first row, stored as one vector per block and executed
//!   with FFT kernels (Eqn. 4) using the FFT/IFFT decoupling of Sec. V-A1.
//!
//! The bridge between them is the **Euclidean projection** of Eqn. 6
//! ([`BlockCirculantMatrix::project_dense`]), the optimal mapping of an
//! arbitrary matrix onto the block-circulant manifold that drives ADMM's
//! second subproblem.
//!
//! ```
//! use ernn_linalg::{BlockCirculantMatrix, Matrix};
//!
//! let dense = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f32 * 0.01);
//! let bc = BlockCirculantMatrix::project_dense(&dense, 4);
//! assert_eq!(bc.param_count(), 2 * 2 * 4); // p*q blocks, one vector each
//! let x = vec![1.0f32; 8];
//! let y_fft = bc.matvec(&x);
//! let y_direct = bc.matvec_direct(&x);
//! for (a, b) in y_fft.iter().zip(y_direct.iter()) {
//!     assert!((a - b).abs() < 1e-4);
//! }
//! ```

//! # Scratch / `_into` conventions
//!
//! Every matvec kernel has an allocating form (`matvec`) and in-place
//! forms (`matvec_into`, `matvec_batch_into`) that write into
//! caller-provided buffers and borrow a [`MatVecScratch`] for their
//! intermediates. The allocating form is bit-identical to the `_into`
//! kernels, while the `_into` forms
//! perform **zero heap allocations** once the scratch has grown to the
//! shapes in play. `matvec_batch_into` additionally fuses a whole batch:
//! all inputs are FFT'd first and the cached weight spectra are streamed
//! once per *batch* rather than once per input (the cache-locality win
//! that makes host-side batching pay; see
//! [`BlockCirculantMatrix::matvec_batch_into`]). One [`MatVecScratch`]
//! serves every matrix in a model — keep it per worker and thread it
//! through.

mod circulant;
mod dense;
pub mod ops;
mod scratch;
mod weight;

pub use circulant::BlockCirculantMatrix;
pub use dense::Matrix;
pub use scratch::MatVecScratch;
pub use weight::{MatVec, WeightMatrix};
