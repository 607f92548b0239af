//! Dense matrix substrate for the Approximate Random Dropout reproduction.
//!
//! The paper accelerates DNN training by shrinking the matrices that the GEMM
//! kernels operate on. This crate provides the CPU-side equivalent of that
//! substrate:
//!
//! * [`Matrix`] — a row-major, `f32` dense matrix with the elementwise and
//!   reduction operations a small training framework needs, stored in whole
//!   64-byte cache lines so that every matrix starts on a line.
//! * [`gemm`] — naive and cache-blocked matrix multiplication, plus the
//!   *compacted* GEMM that actually skips dropped rows / tiles, which is
//!   what Row-based and Tile-based Dropout Patterns do on the GPU: one
//!   gather core packs the kept operands of every compacting scheme (rows,
//!   N:M, blocks, tiles, CRS) into dense sub-GEMMs for the dense
//!   register-blocked micro-kernel, which walks K in fixed 128-deep panels.
//! * [`init`] — weight initialisation helpers (uniform, Xavier/Glorot,
//!   Gaussian via Box–Muller) so the crate has no dependency beyond `rand`.
//! * [`pool`] — a hand-rolled thread pool that splits the batch (row)
//!   dimension of every GEMM entry point across workers; `TENSOR_THREADS=1`
//!   pins execution fully serial, and results are bitwise identical for any
//!   thread count.
//! * [`simd`] — runtime-dispatched vector micro-kernels (AVX2 / AVX-512 /
//!   NEON with a mandatory scalar fallback) every GEMM block kernel, fused
//!   epilogue and polynomial `exp`/sigmoid/tanh routes through, with the
//!   same bits at every level; `TENSOR_SIMD=0` forces the scalar bodies.
//! * [`tune`] — a tuner that searches the pool's serial-fallback row
//!   threshold and persists it to `TUNE_GEMM.json` (`TENSOR_TUNE_FILE`
//!   points loads elsewhere).
//!
//! # Example
//!
//! ```
//! use tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

pub mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod simd;
pub mod tune;

pub use gemm::{
    blocked_gemm, blocked_gemm_into, gather_backward_into, gather_gemm_bias_act_into,
    gather_gemm_into, gemm_a_bt, gemm_a_bt_into, gemm_at_b, gemm_at_b_into, gemm_bias_act,
    gemm_bias_act_into, gemm_bias_act_masked_into, naive_gemm, row_compact_gemm, Activation,
    GatherEpilogue, GatherScratch, GemmError,
};
pub use init::{gaussian, uniform, xavier_uniform};
pub use matrix::{Matrix, ShapeError};
pub use simd::SimdLevel;
pub use tune::TuneConfig;

/// Absolute tolerance used by the crate's approximate float comparisons.
pub const DEFAULT_TOLERANCE: f32 = 1e-4;

/// Returns `true` when two slices agree elementwise within `tol`.
///
/// This is a test/diagnostic helper used throughout the workspace to compare
/// compacted kernels against their dense references.
///
/// # Example
///
/// ```
/// assert!(tensor::approx_eq_slice(&[1.0, 2.0], &[1.0, 2.0 + 1e-6], 1e-4));
/// assert!(!tensor::approx_eq_slice(&[1.0], &[1.5], 1e-4));
/// ```
pub fn approx_eq_slice(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_slice_accepts_small_differences() {
        assert!(approx_eq_slice(&[0.0, 1.0], &[0.0, 1.0 + 1e-5], 1e-4));
    }

    #[test]
    fn approx_eq_slice_rejects_length_mismatch() {
        assert!(!approx_eq_slice(&[0.0], &[0.0, 1.0], 1e-4));
    }

    #[test]
    fn approx_eq_slice_rejects_large_differences() {
        assert!(!approx_eq_slice(&[0.0, 1.0], &[0.0, 1.2], 1e-4));
    }
}
