//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] is deliberately small: it exposes the handful of operations
//! that the neural-network substrate and the dropout kernels need. Heavier
//! numerical routines (GEMM variants) live in [`crate::gemm`].
//!
//! # Storage
//!
//! A matrix keeps its values in whole 64-byte cache lines of 16 `f32`s, so
//! every matrix — weight, activation, gradient, workspace or packed panel —
//! starts on a line, and so does every row of a matrix whose width is a
//! multiple of 16. The GEMM block kernel's vector loads of B then split no
//! line: on one AVX-512 core a B starting 16–48 bytes off a line runs the
//! kernel up to 1.4× slower, and `malloc` aligns a `Vec<f32>` to only 16
//! bytes, so which matrices started on a line would depend on the order of
//! earlier allocations. Otherwise the storage behaves exactly like a
//! `Vec<f32>`: resizing reuses the allocation when its capacity suffices,
//! growth zero-fills, an empty matrix allocates nothing, and the spare
//! lanes of the last line are never read, so no value depends on what a
//! recycled buffer held before. [`Matrix::from_vec`] copies its vector
//! into lines.

use std::fmt;
use std::ops::{Deref, DerefMut, Index, IndexMut};
use std::slice;

/// Error returned when two matrices have incompatible shapes for an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    message: String,
}

impl ShapeError {
    /// Creates a new shape error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

/// `f32` values per storage line: one 64-byte cache line.
const LANES: usize = 16;

/// One cache line of values, the unit a [`Matrix`] allocates in.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([f32; LANES]);

// `Lines` views its lines as one run of `f32`s: a line has no padding.
const _: () = assert!(std::mem::size_of::<Line>() == LANES * std::mem::size_of::<f32>());

/// `len` values in whole lines, read as `&[f32]` through `Deref`. Every
/// method keeps `len <= lines.len() * LANES`, which the view relies on,
/// and every one but `clear` leaves `lines.len() == len.div_ceil(LANES)`.
/// The lanes past `len` are initialised but may hold stale values, so
/// nothing reads them.
#[derive(Default)]
struct Lines {
    lines: Vec<Line>,
    len: usize,
}

impl Lines {
    /// `len` copies of `value`.
    fn filled(len: usize, value: f32) -> Self {
        Self {
            lines: vec![Line([value; LANES]); len.div_ceil(LANES)],
            len,
        }
    }

    /// Drops every value, keeping the lines for the next `resize` to
    /// zero-fill (`Vec::clear`).
    fn clear(&mut self) {
        self.len = 0;
    }

    /// Keeps the first `min(len, self.len)` values and zero-fills the rest,
    /// reusing the allocation when its capacity suffices
    /// (`Vec::resize(len, 0.0)`).
    fn resize(&mut self, len: usize) {
        // Lines `Vec::resize` appends are zero; the lanes of the kept lines
        // past `self.len` may be stale.
        let stale = self.len.min(len)..len.min(self.lines.len() * LANES);
        self.lines.resize(len.div_ceil(LANES), Line([0.0; LANES]));
        self.len = len;
        self[stale].fill(0.0);
    }
}

impl Deref for Lines {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        // SAFETY: a `Line` is `LANES` initialised `f32`s with no padding
        // (`repr(C)`, size asserted above), so the `lines.len()` lines are
        // `lines.len() * LANES` contiguous `f32`s, aligned for `f32`, and
        // `len <= lines.len() * LANES`. An empty `Vec`'s pointer is dangling
        // but non-null and aligned, which a zero-length slice allows.
        unsafe { slice::from_raw_parts(self.lines.as_ptr().cast::<f32>(), self.len) }
    }
}

impl DerefMut for Lines {
    fn deref_mut(&mut self) -> &mut [f32] {
        // SAFETY: as in `deref`; the slice borrows `self` mutably, so it is
        // the only reference to the lines while it lives.
        unsafe { slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast::<f32>(), self.len) }
    }
}

impl Clone for Lines {
    fn clone(&self) -> Self {
        Self {
            lines: self.lines.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.lines.clone_from(&source.lines);
        self.len = source.len;
    }
}

impl PartialEq for Lines {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Lines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A row-major dense matrix of `f32` values, stored in whole 64-byte cache
/// lines so that its first value starts on a line (see the
/// [module docs](self)).
///
/// # Example
///
/// ```
/// use tensor::Matrix;
///
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 0.0);
/// assert_eq!(m.as_slice().as_ptr() as usize % 64, 0);
/// ```
#[derive(Debug, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Lines,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, reusing the existing allocation whenever
    /// its capacity suffices. This is what lets the training hot path cache
    /// inputs across iterations without a fresh heap allocation per step.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a matrix of the given shape filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: Lines::filled(rows * cols, value),
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector, copied into
    /// line-aligned storage.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        let mut m = Self::zeros(rows, cols);
        m.data.copy_from_slice(&data);
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = Self::zeros(rows.len(), c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "all rows must have the same length");
            m.row_mut(i).copy_from_slice(row);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for each element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for (j, v) in m.row_mut(i).iter_mut().enumerate() {
                *v = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix contains no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reshapes the matrix to `(rows, cols)` and zeroes every element,
    /// reusing the existing allocation whenever its capacity suffices.
    ///
    /// This is the buffer-recycling primitive behind the `*_into` GEMM
    /// variants: a warmed-up output matrix is resized in place instead of
    /// being reallocated each training iteration.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols);
    }

    /// Like [`Matrix::resize`] but leaving the contents unspecified: stale
    /// values from the previous use may remain anywhere in the buffer. For
    /// scratch buffers whose every element is immediately overwritten by a
    /// gather/pack loop — skipping the zero-fill halves the write traffic
    /// over the buffer. Use [`Matrix::resize`] whenever the consumer
    /// accumulates into (or only partially writes) the matrix.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols);
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(
            i < self.rows,
            "row index {} out of bounds ({})",
            i,
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(
            i < self.rows,
            "row index {} out of bounds ({})",
            i,
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(
            j < self.cols,
            "col index {} out of bounds ({})",
            j,
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the element at `(i, j)`, or `None` if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> Option<f32> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into `out`, resized in place (its buffer is
    /// reused when capacity allows, and every value is rewritten).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize_for_overwrite(self.cols, self.rows);
        crate::simd::transpose(&self.data, self.rows, self.cols, &mut out.data);
    }

    /// Dense matrix multiplication `self * rhs` using the blocked kernel.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        crate::gemm::blocked_gemm(self, rhs).expect("inner dimensions must agree")
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// Elementwise binary combination into a new matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn zip_map(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Result<Matrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new(format!(
                "zip_map of {:?} with {:?}",
                self.shape(),
                rhs.shape()
            )));
        }
        let mut out = self.clone();
        for (a, &b) in out.data.iter_mut().zip(rhs.as_slice()) {
            *a = f(*a, b);
        }
        Ok(out)
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_map(rhs, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_map(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product — this is exactly how conventional
    /// dropout applies its 0/1 mask to the output matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_map(rhs, |a, b| a * b)
    }

    /// Multiplies every element by a scalar, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha * rhs` (AXPY).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn axpy_inplace(&mut self, alpha: f32, rhs: &Matrix) -> Result<(), ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new(format!(
                "axpy of {:?} with {:?}",
                self.shape(),
                rhs.shape()
            )));
        }
        for (a, b) in self.data.iter_mut().zip(rhs.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Adds `bias` (a `1 x cols` row vector) to every row of the matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `bias` is not a row vector with `cols`
    /// entries.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Result<Matrix, ShapeError> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(ShapeError::new(format!(
                "broadcast of {:?} onto {:?}",
                bias.shape(),
                self.shape()
            )));
        }
        let mut out = self.clone();
        out.add_row_broadcast_inplace(bias)?;
        Ok(out)
    }

    /// Adds `bias` (a `1 x cols` row vector) to every row of the matrix in
    /// place — the allocation-free variant used by the training hot path.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `bias` is not a row vector with `cols`
    /// entries.
    pub fn add_row_broadcast_inplace(&mut self, bias: &Matrix) -> Result<(), ShapeError> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(ShapeError::new(format!(
                "broadcast of {:?} onto {:?}",
                bias.shape(),
                self.shape()
            )));
        }
        let cols = self.cols;
        for i in 0..self.rows {
            let row = self.row_mut(i);
            for (v, &b) in row.iter_mut().zip(&bias.data[..cols]) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Sums every element of the matrix.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of every element of the matrix. Returns 0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Sums each column into a `1 x cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.sum_rows_into(&mut out);
        out
    }

    /// Sums each column into `out`, resized to a `1 x cols` row vector — the
    /// buffer-recycling variant of [`Matrix::sum_rows`].
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize(1, self.cols);
        let acc = out.row_mut(0);
        for i in 0..self.rows {
            for (a, &v) in acc.iter_mut().zip(self.row(i)) {
                *a += v;
            }
        }
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Fraction of elements that are exactly zero.
    ///
    /// Used by the dropout tests to measure realised global dropout rates.
    pub fn zero_fraction(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f32 / self.data.len() as f32
    }

    /// Extracts the sub-matrix consisting of the listed rows, in order.
    ///
    /// This is the CPU analogue of the GPU kernel fetching only the kept rows
    /// of the weight matrix into shared memory (Row-based Dropout Pattern).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Extracts the sub-matrix consisting of the listed columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for i in 0..self.rows {
            for (dst, &src) in indices.iter().enumerate() {
                out[(i, dst)] = self[(i, src)];
            }
        }
        out
    }

    /// Scatters the rows of `compact` back into a zero matrix of this
    /// matrix's shape at the listed row positions.
    ///
    /// This mirrors step 3 of the paper's Fig. 3(a): the compact GEMM output
    /// fills `1/dp` of the rows of the output matrix and the rest stays zero.
    ///
    /// # Panics
    ///
    /// Panics if `compact.rows() != indices.len()`, the column counts differ,
    /// or an index is out of bounds.
    pub fn scatter_rows_of(&self, compact: &Matrix, indices: &[usize]) -> Matrix {
        assert_eq!(compact.rows(), indices.len(), "row count mismatch");
        assert_eq!(compact.cols(), self.cols, "column count mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (src, &dst) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(compact.row(src));
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                write!(f, "{:8.4}", self[(i, j)])?;
                if j + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_expected_values() {
        let z = Matrix::zeros(2, 3);
        let o = Matrix::ones(2, 3);
        assert_eq!(z.sum(), 0.0);
        assert_eq!(o.sum(), 6.0);
        assert_eq!(z.shape(), (2, 3));
    }

    #[test]
    fn identity_is_diagonal() {
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_builds_row_major_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn add_and_sub_are_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::ones(2, 2);
        assert_eq!(a.add(&b).unwrap()[(1, 1)], 5.0);
        assert_eq!(a.sub(&b).unwrap()[(0, 0)], 0.0);
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn hadamard_matches_mask_semantics() {
        let out = Matrix::from_rows(&[&[12.0, 23.0], &[6.0, 71.0]]);
        let mask = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let masked = out.hadamard(&mask).unwrap();
        assert_eq!(masked[(0, 0)], 12.0);
        assert_eq!(masked[(0, 1)], 0.0);
        assert_eq!(masked[(1, 0)], 0.0);
        assert_eq!(masked[(1, 1)], 71.0);
    }

    #[test]
    fn broadcast_adds_bias_to_each_row() {
        let x = Matrix::zeros(3, 2);
        let b = Matrix::from_rows(&[&[1.0, -1.0]]);
        let y = x.add_row_broadcast(&b).unwrap();
        assert_eq!(y[(0, 0)], 1.0);
        assert_eq!(y[(2, 1)], -1.0);
    }

    #[test]
    fn broadcast_rejects_wrong_width() {
        let x = Matrix::zeros(3, 2);
        let b = Matrix::from_rows(&[&[1.0, -1.0, 0.0]]);
        assert!(x.add_row_broadcast(&b).is_err());
    }

    #[test]
    fn sum_rows_collapses_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let s = m.sum_rows();
        assert_eq!(s.shape(), (1, 2));
        assert_eq!(s[(0, 0)], 4.0);
        assert_eq!(s[(0, 1)], 6.0);
    }

    #[test]
    fn zero_fraction_counts_zeros() {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        assert!((m.zero_fraction() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn select_rows_extracts_in_order() {
        let m = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[2.0, 2.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn select_cols_extracts_in_order() {
        let m = Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[3.0, 4.0, 5.0]]);
        let s = m.select_cols(&[2, 1]);
        assert_eq!(s.row(0), &[2.0, 1.0]);
        assert_eq!(s.row(1), &[5.0, 4.0]);
    }

    #[test]
    fn scatter_rows_restores_positions_and_zero_fills() {
        let full = Matrix::zeros(4, 2);
        let compact = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let out = full.scatter_rows_of(&compact, &[1, 3]);
        assert_eq!(out.row(0), &[0.0, 0.0]);
        assert_eq!(out.row(1), &[1.0, 1.0]);
        assert_eq!(out.row(2), &[0.0, 0.0]);
        assert_eq!(out.row(3), &[2.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy_inplace(0.5, &b).unwrap();
        assert_eq!(a[(0, 0)], 2.0);
    }

    #[test]
    fn frobenius_norm_of_unit_vector() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        let s = format!("{m}");
        assert!(s.contains("Matrix 2x2"));
    }

    fn on_line(m: &Matrix) -> bool {
        m.as_slice().as_ptr() as usize % 64 == 0
    }

    const SHAPES: [(usize, usize); 9] = [
        (0, 0),
        (0, 4),
        (1, 1),
        (1, 3),
        (2, 5),
        (3, 17),
        (7, 9),
        (16, 16),
        (5, 33),
    ];

    #[test]
    fn every_constructor_starts_on_a_cache_line() {
        assert!(on_line(&Matrix::default()));
        for (r, c) in SHAPES {
            let values: Vec<f32> = (0..r * c).map(|v| v as f32).collect();
            let rows: Vec<&[f32]> = values.chunks(c.max(1)).take(r).collect();
            let m = Matrix::from_fn(r, c, |i, j| (i * c + j) as f32);
            let built = [
                Matrix::zeros(r, c),
                Matrix::filled(r, c, 2.5),
                Matrix::ones(r, c),
                Matrix::identity(c),
                Matrix::from_vec(r, c, values.clone()),
                m.map(|x| x + 1.0),
                m.zip_map(&m, |x, y| x * y).unwrap(),
                m.transpose(),
                m.clone(),
            ];
            assert!(on_line(&m), "from_fn {r}x{c}");
            for (which, built) in built.iter().enumerate() {
                assert!(on_line(built), "constructor {which} at {r}x{c}");
            }
            if r > 0 && c > 0 {
                assert!(on_line(&Matrix::from_rows(&rows)), "from_rows {r}x{c}");
                assert_eq!(Matrix::from_rows(&rows), m);
            }
            assert_eq!(Matrix::from_vec(r, c, values), m);
        }
    }

    #[test]
    fn every_resizer_starts_on_a_cache_line() {
        let big = Matrix::from_fn(7, 9, |i, j| (i * 9 + j) as f32);
        let small = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32 - 4.0);
        for (r, c) in SHAPES {
            let mut m = Matrix::from_fn(3, 5, |i, j| (i + j) as f32);
            m.resize(r, c);
            assert!(on_line(&m), "resize to {r}x{c}");
            let mut m = Matrix::from_fn(3, 5, |i, j| (i + j) as f32);
            m.resize_for_overwrite(r, c);
            assert!(on_line(&m), "resize_for_overwrite to {r}x{c}");
        }
        let mut into_smaller = Matrix::zeros(1, 1);
        into_smaller.clone_from(&big);
        assert!(on_line(&into_smaller));
        assert_eq!(into_smaller, big);
        let mut into_larger = big.clone();
        let ptr = into_larger.as_slice().as_ptr();
        into_larger.clone_from(&small);
        assert!(on_line(&into_larger));
        assert_eq!(into_larger, small);
        assert_eq!(into_larger.as_slice().as_ptr(), ptr, "capacity reused");
    }

    #[test]
    fn resizing_within_capacity_keeps_the_buffer() {
        let mut m = Matrix::zeros(8, 40);
        let ptr = m.as_slice().as_ptr();
        for (r, c) in [(3, 17), (8, 40), (1, 1), (0, 0), (5, 33), (2, 160)] {
            m.resize(r, c);
            assert_eq!(m.as_slice().as_ptr(), ptr, "resize to {r}x{c}");
            m.resize_for_overwrite(c, r);
            assert_eq!(
                m.as_slice().as_ptr(),
                ptr,
                "resize_for_overwrite to {c}x{r}"
            );
        }
    }

    #[test]
    fn a_shrunk_matrix_reads_only_its_own_values() {
        // Shrinking leaves the old values in the spare lanes of the last
        // line: equality, `Debug` and the reductions must not see them.
        let mut m = Matrix::from_fn(3, 17, |i, j| (i * 17 + j) as f32 + 0.5);
        m.resize_for_overwrite(3, 5);
        let fresh = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f32 + 0.5);
        assert_eq!(m, fresh);
        assert_eq!(format!("{m:?}"), format!("{fresh:?}"));
        assert_eq!(m.sum().to_bits(), fresh.sum().to_bits());
        assert_eq!(m.zero_fraction(), fresh.zero_fraction());
        assert_eq!(m.transpose(), fresh.transpose());
    }

    #[test]
    fn regrowing_after_a_shrink_zero_fills_as_vec_does() {
        let values: Vec<f32> = (0..51).map(|v| v as f32 + 0.5).collect();
        let mut m = Matrix::from_vec(3, 17, values.clone());
        let mut v = values;
        for (r, c) in [(3, 5), (3, 17), (1, 7), (4, 20), (2, 2), (2, 9)] {
            m.resize_for_overwrite(r, c);
            v.resize(r * c, 0.0);
            assert_eq!(m.as_slice(), &v[..], "resize_for_overwrite to {r}x{c}");
        }
        m.resize(3, 17);
        assert_eq!(m, Matrix::zeros(3, 17));
    }

    #[test]
    fn get_returns_none_out_of_bounds() {
        let m = Matrix::zeros(1, 1);
        assert_eq!(m.get(0, 0), Some(0.0));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.get(0, 1), None);
    }
}
