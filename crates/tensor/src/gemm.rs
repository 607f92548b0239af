//! GEMM kernels: dense references and the compacted variants that actually
//! skip dropped rows / tiles.
//!
//! The paper's central observation is that conventional dropout cannot shrink
//! the GEMM because the dropped positions are irregular; the Row-based and
//! Tile-based patterns make the dropped positions *predictable*, so the kernel
//! can build compact operand matrices and multiply those instead. On the CPU
//! every compacting scheme runs through one gather core ([`GatherScratch`],
//! [`gather_gemm_bias_act_into`], [`gather_backward_into`]): its kept set
//! resolves into a few dense (kept-K × kept-N) sub-GEMMs whose operands are
//! packed once and fed to the same micro-kernel as the dense path. The
//! compacted kernels are validated against the dense kernels by unit and
//! property tests.
//!
//! # Kernel architecture
//!
//! Every product runs on one register-blocked micro-kernel,
//! [`simd::gemm_axpy4`], that dispatches through [`crate::simd`] to
//! runtime-detected bodies (AVX2 and AVX-512, with the scalar reference as
//! the fallback — bitwise identical at every level, see the `simd` module
//! docs). It holds a block of C (4 × 32 on AVX-512, 4 × 16 on AVX2) in
//! registers across a 128-deep K panel, so a panel of B stays
//! cache-resident while every row block passes over it, and it reads A
//! through a row and a K stride:
//!
//! * `A·B` reads A at strides `[lda, 1]`;
//! * the weight gradient `Aᵀ·B` reads A at `[1, lda]`, so it needs no
//!   transpose;
//! * the input gradient `A·Bᵀ` packs `Bᵀ` once per call (a cache-blocked
//!   transpose) into a recycled [`Matrix`] and runs `A·(Bᵀ)`.
//!
//! B is always a whole [`Matrix`], whose storage starts on a 64-byte cache
//! line (see [`crate::matrix`]), so B's first row starts on a line, and
//! every row of B does when its width `n` is a multiple of 16: the
//! kernel's vector loads of those rows then split no line. On one AVX-512
//! core a B starting 16–48 bytes off a line ran the kernel up to 1.4×
//! slower. Rows of other widths (a compacting arm's panel of kept columns,
//! a 10-wide output layer) still start wherever `n` puts them.
//!
//! Each element of C is the chain `c ← fma(a_p, b_p, c)` over `p` in K
//! order from `c = 0`, one rounding per term, so `gemm_a_bt(a, b)` equals
//! `blocked_gemm(a, bᵀ)` and `gemm_at_b(a, b)` equals `blocked_gemm(aᵀ, b)`
//! bit for bit; `gemm::tests` keeps that chain as the bitwise reference.
//! Column fringes run masked at vector width and row fringes on narrower
//! instantiations of the same block. The dense path carries no per-element
//! `aip == 0.0` branch (skipping zeros is the compacted kernels' job — a
//! data-dependent branch in the dense loop defeats SIMD exactly like warp
//! divergence defeats the GPU kernel in the paper's Fig. 1(b)). Each kernel
//! has
//!
//! * an allocating entry point (`blocked_gemm`, `gemm_at_b`, …) and a
//!   `*_into` variant that writes into a caller-owned output buffer so the
//!   training hot path can recycle allocations across iterations,
//! * transposed-operand variants [`gemm_at_b`] (`C = Aᵀ·B`) and
//!   [`gemm_a_bt`] (`C = A·Bᵀ`) so callers never materialise a
//!   `transpose()` of their own,
//! * batch-dimension parallelism: output rows are split across the
//!   [`crate::pool`] worker threads. Every output row is produced by exactly
//!   one worker, and each of its elements sees the same operations wherever
//!   the chunk starts, so results are bitwise identical for any thread
//!   count.

use crate::matrix::Matrix;
use crate::pool;
use crate::simd;
use std::cell::Cell;
use std::fmt;
use std::ops::Range;

/// Error returned when GEMM operands have incompatible shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmError {
    message: String,
}

impl GemmError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for GemmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gemm error: {}", self.message)
    }
}

impl std::error::Error for GemmError {}

fn check_inner(a: &Matrix, b: &Matrix) -> Result<(), GemmError> {
    if a.cols() != b.rows() {
        return Err(GemmError::new(format!(
            "inner dimensions disagree: {:?} * {:?}",
            a.shape(),
            b.shape()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Dense kernels
// ---------------------------------------------------------------------------

/// Textbook triple-loop GEMM, `C = A * B`.
///
/// Used as the ground-truth reference for the packed and compacted kernels;
/// deliberately kept naive (including the zero-skip branch the paper's
/// Fig. 1(b) motivates against) so the production kernels have an
/// independent implementation to be validated against.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.rows()`.
pub fn naive_gemm(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    check_inner(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            if aip == 0.0 {
                continue;
            }
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += aip * brow[j];
            }
        }
    }
    Ok(c)
}

/// Whether `b`'s storage starts on a 64-byte line, as every [`Matrix`]'s
/// does: the block kernel's vector loads of B's rows then split no line.
fn starts_on_line(b: &Matrix) -> bool {
    b.as_slice().as_ptr() as usize % 64 == 0
}

/// Per-row-chunk dense product `chunk += A[rows] · B` through the
/// register-blocked `axpy4`-form kernel ([`simd::gemm_axpy4`]). `chunk`
/// must be zeroed by the caller and hold exactly `rows.len() * b.cols()`
/// values.
fn dense_rows(a: &Matrix, b: &Matrix, rows: Range<usize>, chunk: &mut [f32]) {
    debug_assert!(starts_on_line(b));
    let k = a.cols();
    let a_rows = &a.as_slice()[rows.start * k..];
    simd::gemm_axpy4(a_rows, [k, 1], b.as_slice(), chunk, rows.len(), k, b.cols());
}

/// Packed, batch-parallel GEMM, `C = A * B`, writing into `out`.
///
/// `out` is resized (reusing its buffer when capacity allows) and zeroed.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.rows()`.
pub fn blocked_gemm_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), GemmError> {
    check_inner(a, b)?;
    let m = a.rows();
    let n = b.cols();
    out.resize(m, n);
    pool::run_row_chunks(m, n, out.as_mut_slice(), |rows, chunk| {
        dense_rows(a, b, rows, chunk);
    });
    Ok(())
}

/// Packed, batch-parallel GEMM, `C = A * B`.
///
/// Kept under its historical name (the seed's cache-blocked kernel) because
/// it remains the workspace-wide dense entry point; the implementation is now
/// the packed micro-kernel pipeline described in the module docs.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.rows()`.
pub fn blocked_gemm(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    let mut out = Matrix::zeros(0, 0);
    blocked_gemm_into(a, b, &mut out)?;
    Ok(out)
}

/// Transposed-operand GEMM `C = Aᵀ · B` without materialising `Aᵀ`, writing
/// into `out`.
///
/// With activations `A` of shape `(batch, in)` and output gradients `B` of
/// shape `(batch, out)` this is exactly the weight-gradient product
/// `dW = Xᵀ·G` of the backward pass.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.rows() != b.rows()` (the shared batch
/// dimension).
pub fn gemm_at_b_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), GemmError> {
    if a.rows() != b.rows() {
        return Err(GemmError::new(format!(
            "batch dimensions disagree: {:?}ᵀ * {:?}",
            a.shape(),
            b.shape()
        )));
    }
    let (batch, k, n) = (a.rows(), a.cols(), b.cols());
    out.resize(k, n);
    if batch == 0 {
        return Ok(());
    }
    debug_assert!(starts_on_line(b));
    // Row `p` of C reads column `p` of A: strides `[1, k]` walk Aᵀ in place.
    pool::run_row_chunks(k, n, out.as_mut_slice(), |prows, chunk| {
        let a_cols = &a.as_slice()[prows.start..];
        simd::gemm_axpy4(a_cols, [1, k], b.as_slice(), chunk, prows.len(), batch, n);
    });
    Ok(())
}

/// Transposed-operand GEMM `C = Aᵀ · B` without materialising `Aᵀ`.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.rows() != b.rows()`.
pub fn gemm_at_b(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    let mut out = Matrix::zeros(0, 0);
    gemm_at_b_into(a, b, &mut out)?;
    Ok(out)
}

/// Transposed-operand GEMM `C = A · Bᵀ`, writing into `out`: packs `Bᵀ`
/// once per call into a buffer recycled across calls on this thread, then
/// runs the dense kernel over it, so the result is bitwise
/// `blocked_gemm(a, bᵀ)`.
///
/// With output gradients `A` of shape `(batch, out)` and weights `B` of
/// shape `(in, out)` this is exactly the input-gradient product `dX = G·Wᵀ`
/// of the backward pass.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.cols()` (the shared inner
/// dimension).
pub fn gemm_a_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), GemmError> {
    if a.cols() != b.cols() {
        return Err(GemmError::new(format!(
            "inner dimensions disagree: {:?} * {:?}ᵀ",
            a.shape(),
            b.shape()
        )));
    }
    thread_local! {
        static B_T: Cell<Matrix> = Cell::new(Matrix::default());
    }
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    // Taken out while in use, so a nested call would pack into a buffer
    // of its own instead of this one.
    let mut b_t = B_T.with(Cell::take);
    b.transpose_into(&mut b_t);
    debug_assert!(starts_on_line(&b_t));
    out.resize(m, n);
    pool::run_row_chunks(m, n, out.as_mut_slice(), |rows, chunk| {
        let a_rows = &a.as_slice()[rows.start * k..];
        simd::gemm_axpy4(a_rows, [k, 1], b_t.as_slice(), chunk, rows.len(), k, n);
    });
    B_T.with(|cell| cell.set(b_t));
    Ok(())
}

/// Transposed-operand GEMM `C = A · Bᵀ` (see [`gemm_a_bt_into`]).
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != b.cols()`.
pub fn gemm_a_bt(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    let mut out = Matrix::zeros(0, 0);
    gemm_a_bt_into(a, b, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Compacted kernels: one gather-GEMM core
// ---------------------------------------------------------------------------

/// One dense sub-GEMM of a compacted product, `A[:, k] · W[k, n]`: its
/// inner (K) indices and output (N) columns as ranges into
/// [`GatherScratch`]'s index buffers. `None` means every index in order, so
/// that axis needs no gather at all.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GatherClass {
    k: Option<Range<usize>>,
    n: Option<Range<usize>>,
}

/// The gather core's resolved compaction and every buffer it packs into.
///
/// Every compacting scheme runs through one core: its kept set resolves
/// into one or more disjoint *classes*, each a dense (kept-K × kept-N)
/// sub-GEMM whose operands are packed into dense panels for the dense
/// micro-kernel ([`blocked_gemm_into`]):
///
/// * [`GatherScratch::resolve_cols`] — scattered kept output neurons (the
///   Row-based Dropout Pattern), one class over the full K;
///   [`GatherScratch::resolve_nm`] validates the N:M group structure first;
/// * [`GatherScratch::resolve_blocks`] — contiguous kept blocks of neurons,
///   expanded to their columns: the same single full-K class;
/// * [`GatherScratch::resolve_k`] / [`GatherScratch::resolve_nk`] —
///   K-dimension sampling (CRS), alone or composed with kept neurons;
/// * [`GatherScratch::resolve_tiles`] — the Tile-based Dropout Pattern:
///   tile rows that keep the same strips form one class, so a TDP plan is
///   at most `dp` sub-GEMMs, a single full-K column gather whenever `dp`
///   divides the tiles per row, and the plain dense GEMM when every tile
///   is kept.
///
/// Every product packs each class's weight panel `W[k, n]` afresh into one
/// recycled panel buffer: the forward pass ([`gather_gemm_into`],
/// [`gather_gemm_bias_act_into`]) multiplies it, and
/// [`gather_backward_into`] packs it again for its `dX` product, which
/// transposes it (see [`gemm_a_bt_into`]). Nothing is kept between calls
/// but the buffers, so the weights may change between the passes. All
/// buffers are recycled across calls, so a warmed hot path performs no
/// allocations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatherScratch {
    classes: Vec<GatherClass>,
    k_idx: Vec<usize>,
    n_idx: Vec<usize>,
    /// Tile grouping: the representative tile row of each class, and the
    /// class of every tile row (`usize::MAX` when it keeps no tile).
    reps: Vec<usize>,
    row_class: Vec<usize>,
    /// The packed `W[k, n]` panel of the class being multiplied (unused
    /// for a class gathering neither axis, which multiplies `W` itself).
    panel: Matrix,
    a_kept: Matrix,
    g_kept: Matrix,
    product: Matrix,
}

impl GatherScratch {
    fn reset(&mut self) {
        self.classes.clear();
        self.k_idx.clear();
        self.n_idx.clear();
    }

    /// One class over every inner index and the `kept_cols` output
    /// columns: the row-pattern (and any scattered-neuron) compaction.
    pub fn resolve_cols(&mut self, kept_cols: &[usize]) {
        self.reset();
        self.n_idx.extend_from_slice(kept_cols);
        self.classes.push(GatherClass {
            k: None,
            n: Some(0..kept_cols.len()),
        });
    }

    /// [`GatherScratch::resolve_cols`] for N:M structured sparsity, after
    /// validating that `kept_cols` keeps exactly `min(n, group)` ascending
    /// lanes of every `m`-wide group of the `out_features` columns (the
    /// structure a sparse-tensor-core kernel relies on).
    ///
    /// # Errors
    ///
    /// Returns a [`GemmError`] if `kept_cols` lacks the `n`-of-`m` group
    /// structure.
    pub fn resolve_nm(
        &mut self,
        kept_cols: &[usize],
        n: usize,
        m: usize,
        out_features: usize,
    ) -> Result<(), GemmError> {
        check_nm_structure(kept_cols, n, m, out_features)?;
        self.resolve_cols(kept_cols);
        Ok(())
    }

    /// One class over every inner index and the columns of the kept
    /// `block`-wide groups of the `n` output columns (structured unit
    /// dropout; the last block may be ragged).
    ///
    /// # Errors
    ///
    /// Returns a [`GemmError`] if `block == 0`, a block index is out of
    /// bounds, or `kept_blocks` is not strictly ascending.
    pub fn resolve_blocks(
        &mut self,
        kept_blocks: &[usize],
        block: usize,
        n: usize,
    ) -> Result<(), GemmError> {
        if block == 0 {
            return Err(GemmError::new("block width must be positive"));
        }
        let total = n.div_ceil(block);
        if let Some(&bad) = kept_blocks.iter().find(|&&b| b >= total) {
            return Err(GemmError::new(format!(
                "block index {bad} out of bounds for {total} blocks of width {block}"
            )));
        }
        check_ascending(kept_blocks, "kept blocks")?;
        self.reset();
        for &b in kept_blocks {
            self.n_idx.extend(b * block..((b + 1) * block).min(n));
        }
        self.classes.push(GatherClass {
            k: None,
            n: Some(0..self.n_idx.len()),
        });
        Ok(())
    }

    /// One class over the `kept_k` inner indices and every output column:
    /// the K-dimension sampled (CRS) product.
    pub fn resolve_k(&mut self, kept_k: &[usize]) {
        self.reset();
        self.k_idx.extend_from_slice(kept_k);
        self.classes.push(GatherClass {
            k: Some(0..kept_k.len()),
            n: None,
        });
    }

    /// One class over the `kept_k` inner indices and the `kept_cols` output
    /// columns: CRS composed with an output-neuron pattern, compacting both
    /// GEMM dimensions at once.
    pub fn resolve_nk(&mut self, kept_k: &[usize], kept_cols: &[usize]) {
        self.reset();
        self.k_idx.extend_from_slice(kept_k);
        self.n_idx.extend_from_slice(kept_cols);
        self.classes.push(GatherClass {
            k: Some(0..kept_k.len()),
            n: Some(0..kept_cols.len()),
        });
    }

    /// Resolves the kept tiles of a `k × n` weight's `tile × tile` grid
    /// (row-major linear indices, ascending) into classes: tile rows keeping
    /// the same strips share one (kept-K × kept-N) sub-GEMM, and an axis a
    /// class covers entirely needs no gather.
    ///
    /// # Errors
    ///
    /// Returns a [`GemmError`] if `tile == 0`, a tile index is outside the
    /// grid, or `kept_tiles` is not strictly ascending.
    pub fn resolve_tiles(
        &mut self,
        kept_tiles: &[usize],
        tile: usize,
        k: usize,
        n: usize,
    ) -> Result<(), GemmError> {
        if tile == 0 {
            return Err(GemmError::new("tile size must be positive"));
        }
        let (per_row, per_col) = (n.div_ceil(tile), k.div_ceil(tile));
        if let Some(&bad) = kept_tiles.iter().find(|&&t| t >= per_row * per_col) {
            return Err(GemmError::new(format!(
                "tile index {bad} out of bounds for a {per_col}x{per_row} tile grid"
            )));
        }
        check_ascending(kept_tiles, "kept tiles")?;
        self.reset();
        // The kept tiles of tile row `r`, as a range of the ascending list,
        // and whether two tile rows keep the same strips.
        let row_tiles = |r: usize| {
            let lo = kept_tiles.partition_point(|&t| t < r * per_row);
            lo..kept_tiles.partition_point(|&t| t < (r + 1) * per_row)
        };
        let same_strips = |r1: usize, r2: usize| {
            let (s1, s2) = (&kept_tiles[row_tiles(r1)], &kept_tiles[row_tiles(r2)]);
            s1.len() == s2.len()
                && s1
                    .iter()
                    .zip(s2)
                    .all(|(&t1, &t2)| t1 - r1 * per_row == t2 - r2 * per_row)
        };
        self.reps.clear();
        self.row_class.clear();
        for r in 0..per_col {
            let class = if row_tiles(r).is_empty() {
                usize::MAX
            } else if let Some(c) = self.reps.iter().position(|&rep| same_strips(rep, r)) {
                c
            } else {
                self.reps.push(r);
                self.reps.len() - 1
            };
            self.row_class.push(class);
        }
        for (c, &rep) in self.reps.iter().enumerate() {
            let (k0, n0) = (self.k_idx.len(), self.n_idx.len());
            for (r, _) in self
                .row_class
                .iter()
                .enumerate()
                .filter(|&(_, &rc)| rc == c)
            {
                self.k_idx.extend(r * tile..((r + 1) * tile).min(k));
            }
            for &t in &kept_tiles[row_tiles(rep)] {
                let strip = t - rep * per_row;
                self.n_idx.extend(strip * tile..((strip + 1) * tile).min(n));
            }
            // An axis covered entirely is every index in order: no gather.
            let k_range = if self.k_idx.len() - k0 == k {
                self.k_idx.truncate(k0);
                None
            } else {
                Some(k0..self.k_idx.len())
            };
            let n_range = if self.n_idx.len() - n0 == n {
                self.n_idx.truncate(n0);
                None
            } else {
                Some(n0..self.n_idx.len())
            };
            self.classes.push(GatherClass {
                k: k_range,
                n: n_range,
            });
        }
        Ok(())
    }

    /// The output columns of the first resolved class: the kept neurons of
    /// a single output-column gather (`resolve_cols`, `resolve_nm`,
    /// `resolve_blocks`, `resolve_nk`); empty when that class computes
    /// every column.
    pub fn kept_cols(&self) -> &[usize] {
        match self.classes.first() {
            Some(GatherClass { n: Some(r), .. }) => &self.n_idx[r.clone()],
            _ => &[],
        }
    }

    /// Validates the resolved indices against a `k × n` weight operand.
    fn check_fits(&self, k: usize, n: usize) -> Result<(), GemmError> {
        check_kept_k(&self.k_idx, k)?;
        check_kept_cols(&self.n_idx, n)
    }
}

fn check_ascending(kept: &[usize], what: &str) -> Result<(), GemmError> {
    if kept.windows(2).any(|w| w[0] >= w[1]) {
        return Err(GemmError::new(format!("{what} must be strictly ascending")));
    }
    Ok(())
}

fn check_kept_cols(kept: &[usize], n: usize) -> Result<(), GemmError> {
    if let Some(&bad) = kept.iter().find(|&&j| j >= n) {
        return Err(GemmError::new(format!(
            "kept output index {bad} out of bounds for {n} output features"
        )));
    }
    Ok(())
}

/// Validates that every kept inner-dimension (K) index of a sampled GEMM is
/// in bounds.
fn check_kept_k(kept_k: &[usize], k: usize) -> Result<(), GemmError> {
    if let Some(&bad) = kept_k.iter().find(|&&p| p >= k) {
        return Err(GemmError::new(format!(
            "kept inner index {bad} out of bounds for inner dimension {k}"
        )));
    }
    Ok(())
}

/// Validates that `kept_cols` has the N:M group structure: exactly
/// `min(n, group_size)` ascending kept lanes inside every `m`-wide group of
/// the `out_features` output columns.
fn check_nm_structure(
    kept_cols: &[usize],
    n: usize,
    m: usize,
    out_features: usize,
) -> Result<(), GemmError> {
    if n == 0 || m == 0 || n > m {
        return Err(GemmError::new(format!("invalid N:M parameters {n}:{m}")));
    }
    let mut it = kept_cols.iter().peekable();
    let mut start = 0;
    while start < out_features {
        let size = m.min(out_features - start);
        let expected = n.min(size);
        let mut in_group = 0;
        let mut prev = None;
        while let Some(&&j) = it.peek() {
            if j >= start + size {
                break;
            }
            if j < start || prev.is_some_and(|p| j <= p) {
                return Err(GemmError::new(format!(
                    "kept lane {j} breaks the ascending N:M group order"
                )));
            }
            prev = Some(j);
            in_group += 1;
            it.next();
        }
        if in_group != expected {
            return Err(GemmError::new(format!(
                "group starting at {start} keeps {in_group} lanes, expected {expected} for {n}:{m}"
            )));
        }
        start += size;
    }
    if it.next().is_some() {
        return Err(GemmError::new("kept lane beyond the output width"));
    }
    Ok(())
}

/// Packs the `kept` columns of `src` into the dense panel `dst`
/// (`src.rows() × kept.len()`) — the scalar gather step shared by the
/// output-column and K-dimension gathers alike.
fn pack_cols(src: &Matrix, kept: &[usize], dst: &mut Matrix) {
    let rows = src.rows();
    dst.resize_for_overwrite(rows, kept.len());
    for r in 0..rows {
        let srow = src.row(r);
        let drow = dst.row_mut(r);
        for (c, &j) in kept.iter().enumerate() {
            drow[c] = srow[j];
        }
    }
}

/// Packs a class's weight operand `W[k, n]` into `panel` and returns it, or
/// returns `w` itself when the class gathers neither axis.
fn pack_panel<'a>(
    w: &'a Matrix,
    k: Option<&[usize]>,
    n: Option<&[usize]>,
    panel: &'a mut Matrix,
) -> &'a Matrix {
    match (k, n) {
        (None, None) => return w,
        (None, Some(n)) => pack_cols(w, n, panel),
        (Some(k), None) => {
            panel.resize_for_overwrite(k.len(), w.cols());
            for (r, &p) in k.iter().enumerate() {
                panel.row_mut(r).copy_from_slice(w.row(p));
            }
        }
        (Some(k), Some(n)) => {
            panel.resize_for_overwrite(k.len(), n.len());
            for (r, &p) in k.iter().enumerate() {
                let (srow, drow) = (w.row(p), panel.row_mut(r));
                for (c, &j) in n.iter().enumerate() {
                    drow[c] = srow[j];
                }
            }
        }
    }
    panel
}

/// Gathers the kept columns of `g`, scaled by `scale`, into `dst`.
fn gather_scaled_cols(g: &Matrix, kept_cols: &[usize], scale: f32, dst: &mut Matrix) {
    let batch = g.rows();
    dst.resize_for_overwrite(batch, kept_cols.len());
    for i in 0..batch {
        let src = g.row(i);
        let out = dst.row_mut(i);
        for (c, &j) in kept_cols.iter().enumerate() {
            out[c] = src[j] * scale;
        }
    }
}

/// `dst[rows[r], cols[c]] = src[r, c] · scale`, where `None` means every
/// index in order and no scale means a plain copy — the write-back of a
/// compact product into its full-size output.
fn scatter_into(
    src: &Matrix,
    rows: Option<&[usize]>,
    cols: Option<&[usize]>,
    scale: Option<f32>,
    dst: &mut Matrix,
) {
    for r in 0..src.rows() {
        let s = src.row(r);
        let d = dst.row_mut(rows.map_or(r, |rows| rows[r]));
        match (cols, scale) {
            (Some(cols), None) => {
                for (c, &j) in cols.iter().enumerate() {
                    d[j] = s[c];
                }
            }
            (Some(cols), Some(k)) => {
                for (c, &j) in cols.iter().enumerate() {
                    d[j] = s[c] * k;
                }
            }
            (None, None) => d.copy_from_slice(s),
            (None, Some(k)) => {
                for (dv, &sv) in d.iter_mut().zip(s) {
                    *dv = sv * k;
                }
            }
        }
    }
}

/// One class's dense sub-GEMM `dst = A[:, k] · W[k, n]`, packing both
/// operands (`a_kept` and the class's weight `panel`).
fn class_gemm(
    a: &Matrix,
    w: &Matrix,
    k: Option<&[usize]>,
    n: Option<&[usize]>,
    a_kept: &mut Matrix,
    panel: &mut Matrix,
    dst: &mut Matrix,
) -> Result<(), GemmError> {
    let a_src = match k {
        Some(k) => {
            pack_cols(a, k, a_kept);
            &*a_kept
        }
        None => a,
    };
    blocked_gemm_into(a_src, pack_panel(w, k, n, panel), dst)
}

/// Raw compacted product of the classes resolved in `scratch`:
/// `C = Σ_class A[:, k] · W[k, n]`, each class's compact product scattered
/// into (and, across classes, accumulated in) its output columns; columns
/// no class computes are exactly zero.
///
/// A single class gathering no output column writes straight into `out`, so
/// resolving every inner index in order is bitwise [`blocked_gemm_into`].
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree or a resolved
/// index is out of bounds for `a` and `w`.
pub fn gather_gemm_into(
    a: &Matrix,
    w: &Matrix,
    scratch: &mut GatherScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_inner(a, w)?;
    scratch.check_fits(w.rows(), w.cols())?;
    let GatherScratch {
        classes,
        k_idx,
        n_idx,
        panel,
        a_kept,
        product,
        ..
    } = scratch;
    let single = classes.len() == 1;
    if !(single && classes[0].n.is_none()) {
        out.resize(a.rows(), w.cols());
    }
    for class in classes.iter() {
        let k = class.k.clone().map(|r| &k_idx[r]);
        let n = class.n.clone().map(|r| &n_idx[r]);
        if single && n.is_none() {
            class_gemm(a, w, k, n, a_kept, panel, out)?;
            continue;
        }
        class_gemm(a, w, k, n, a_kept, panel, product)?;
        if single {
            scatter_into(product, None, n, None, out);
            continue;
        }
        // Several classes share output columns: accumulate.
        for i in 0..product.rows() {
            let (src, dst) = (product.row(i), out.row_mut(i));
            match n {
                Some(n) => {
                    for (c, &j) in n.iter().enumerate() {
                        dst[j] += src[c];
                    }
                }
                None => {
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
        }
    }
    Ok(())
}

/// How the fused gather epilogue finishes the compacted product `v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GatherEpilogue {
    /// Dropped output neurons (row, N:M, block, and their CRS
    /// compositions): kept column `j` becomes `act((v · pre + bias[j]) ·
    /// post)` and every other column `act(0)`. Needs a single
    /// output-column class.
    Neurons {
        /// Scale of the raw product before the bias (the CRS `K/k`
        /// estimator; 1 without CRS).
        pre: f32,
        /// Inverted-dropout scale of the kept neurons.
        post: f32,
    },
    /// Dropped synapses or inner products (tile, CRS): every column becomes
    /// `act(v · pre + bias[j])`, so the bias survives where no kept synapse
    /// feeds a neuron.
    Synapses {
        /// Scale of the raw product before the bias.
        pre: f32,
    },
}

impl GatherEpilogue {
    /// The factor the backward pass scales the output gradient by: every
    /// scale the forward product went through.
    pub fn grad_scale(self) -> f32 {
        match self {
            GatherEpilogue::Neurons { pre, post } => pre * post,
            GatherEpilogue::Synapses { pre } => pre,
        }
    }
}

/// Fused whole-layer form of [`gather_gemm_into`]: the compacted product of
/// the classes resolved in `scratch` with the bias add, scales and
/// activation of `epilogue` in the write-back.
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree, `bias` is not a
/// `1 × w.cols()` row vector, a resolved index is out of bounds, or a
/// [`GatherEpilogue::Neurons`] epilogue meets anything but a single
/// output-column class.
pub fn gather_gemm_bias_act_into(
    a: &Matrix,
    w: &Matrix,
    bias: &Matrix,
    epilogue: GatherEpilogue,
    act: Activation,
    scratch: &mut GatherScratch,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_inner(a, w)?;
    check_bias(bias, w.cols())?;
    let brow = bias.row(0);
    match epilogue {
        GatherEpilogue::Synapses { pre } => {
            gather_gemm_into(a, w, scratch, out)?;
            for i in 0..out.rows() {
                let row = out.row_mut(i);
                simd::scale_add_bias(row, pre, brow);
                act.apply_slice(row);
            }
        }
        GatherEpilogue::Neurons { pre, post } => {
            let (k, n) = match scratch.classes.as_slice() {
                [GatherClass { k, n: Some(n) }] => (k.clone(), n.clone()),
                _ => {
                    return Err(GemmError::new(
                        "a neuron epilogue needs a single output-column class",
                    ))
                }
            };
            scratch.check_fits(w.rows(), w.cols())?;
            let GatherScratch {
                k_idx,
                n_idx,
                panel,
                a_kept,
                product,
                ..
            } = scratch;
            let (k, kept) = (k.map(|r| &k_idx[r]), &n_idx[n]);
            class_gemm(a, w, k, Some(kept), a_kept, panel, product)?;
            // Scatter with the whole epilogue fused into the write-back:
            // kept columns take their activated scaled-bias pre-activation,
            // and dropped columns, whose pre-activation is exactly zero,
            // stay zero (`act(0) = 0`) — no activation pass over them.
            out.resize_for_overwrite(a.rows(), w.cols());
            for i in 0..out.rows() {
                let (src, dst) = (product.row(i), out.row_mut(i));
                dst.fill(0.0);
                for (c, &j) in kept.iter().enumerate() {
                    dst[j] = act.apply((src[c] * pre + brow[j]) * post);
                }
            }
        }
    }
    Ok(())
}

/// Backward pair of the gather core over the classes resolved in
/// `scratch`: `dW[k, n] = scale · X[:, k]ᵀ · G[:, n]` and
/// `dX[:, k] = scale · G[:, n] · W[k, n]ᵀ` per class, every entry no class
/// covers exactly zero. Classes partition the inner indices, so each output
/// entry comes from exactly one compact product. With `dx_out` `None` only
/// `dW` is computed (a first layer, whose input needs no gradient).
///
/// The scale rides in the gradient gather when a class compacts the output
/// columns, and in the scatter otherwise. The `dX` product packs the
/// class's weight panel from `w` and runs [`gemm_a_bt_into`] over it.
///
/// # Errors
///
/// Returns a [`GemmError`] if the batch dimensions of `x` and `g`, the
/// output widths of `g` and `w`, or the inner dimensions of `x` and `w`
/// disagree, or a resolved index is out of bounds.
#[allow(clippy::too_many_arguments)] // a GEMM pair: 3 operands, 1 scale, scratch, 2 outputs
pub fn gather_backward_into(
    x: &Matrix,
    g: &Matrix,
    w: &Matrix,
    scale: f32,
    scratch: &mut GatherScratch,
    dw_out: &mut Matrix,
    mut dx_out: Option<&mut Matrix>,
) -> Result<(), GemmError> {
    if x.rows() != g.rows() {
        return Err(GemmError::new(format!(
            "batch dimensions disagree: {:?}ᵀ * {:?}",
            x.shape(),
            g.shape()
        )));
    }
    if g.cols() != w.cols() {
        return Err(GemmError::new(format!(
            "output widths disagree: {:?} * {:?}ᵀ",
            g.shape(),
            w.shape()
        )));
    }
    check_inner(x, w)?;
    scratch.check_fits(w.rows(), w.cols())?;
    let GatherScratch {
        classes,
        k_idx,
        n_idx,
        panel,
        a_kept,
        g_kept,
        product,
        ..
    } = scratch;
    let single = classes.len() == 1;
    let dense = single && classes[0].k.is_none() && classes[0].n.is_none();
    if !dense {
        dw_out.resize(w.rows(), w.cols());
    }
    if let Some(dx_out) = dx_out.as_deref_mut() {
        if !(single && classes[0].k.is_none()) {
            dx_out.resize(g.rows(), w.rows());
        }
    }
    for class in classes.iter() {
        let k = class.k.clone().map(|r| &k_idx[r]);
        let n = class.n.clone().map(|r| &n_idx[r]);
        let (g_src, post) = match n {
            Some(n) => {
                gather_scaled_cols(g, n, scale, g_kept);
                (&*g_kept, None)
            }
            None => (g, Some(scale)),
        };
        let x_src = match k {
            Some(k) => {
                pack_cols(x, k, a_kept);
                &*a_kept
            }
            None => x,
        };
        if dense {
            gemm_at_b_into(x, g, dw_out)?;
            if scale != 1.0 {
                dw_out.map_inplace(|v| v * scale);
            }
        } else {
            gemm_at_b_into(x_src, g_src, product)?;
            scatter_into(product, k, n, post, dw_out);
        }
        let Some(dx_out) = dx_out.as_deref_mut() else {
            continue;
        };
        let w_src = pack_panel(w, k, n, panel);
        if dense {
            gemm_a_bt_into(g, w, dx_out)?;
            if scale != 1.0 {
                dx_out.map_inplace(|v| v * scale);
            }
        } else if single && k.is_none() {
            gemm_a_bt_into(g_src, w_src, dx_out)?;
        } else {
            gemm_a_bt_into(g_src, w_src, product)?;
            scatter_into(product, None, k, post, dx_out);
        }
    }
    Ok(())
}

/// Row-compacted GEMM used by the Row-based Dropout Pattern.
///
/// Computes `C = A * W` where only the rows of the *output* listed in
/// `kept_output_rows` are needed — equivalently only the corresponding
/// columns of `W` (the synapses feeding the kept neurons) participate.
///
/// Layout convention used across the workspace: activations are
/// `(batch, in_features)` and weights are `(in_features, out_features)`, so
/// dropping output *neurons* means dropping *columns* of `W` and columns of
/// the output. The paper describes the transposed layout (dropping rows of
/// `Wᵀ`); both are the same compaction. The returned matrix has the full
/// `(batch, out_features)` shape with dropped columns left at zero, exactly
/// like step 3 of the paper's Fig. 3(a).
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree or any kept index
/// is out of bounds.
pub fn row_compact_gemm(
    a: &Matrix,
    w: &Matrix,
    kept_output_rows: &[usize],
) -> Result<Matrix, GemmError> {
    let mut scratch = GatherScratch::default();
    scratch.resolve_cols(kept_output_rows);
    let mut out = Matrix::zeros(0, 0);
    gather_gemm_into(a, w, &mut scratch, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Fused whole-layer kernels (GEMM + bias + activation)
// ---------------------------------------------------------------------------

/// Activation function fused into a kernel's write-back epilogue.
///
/// A fused kernel is bitwise identical to the unfused
/// GEMM → bias → [`Activation::apply`] chain it replaces, at every SIMD
/// level: [`Activation::apply`] on one scalar agrees bitwise with
/// [`Activation::apply_slice`] on a row. Every activation maps 0 to 0, so
/// a dropped output column stays exactly zero. Models that need sigmoid,
/// tanh or `exp` call [`crate::simd`]'s slice kernels on their own rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Pass-through (`f(v) = v`): bias add only.
    Identity,
    /// Rectified linear unit, `max(0, v)` — scalar-exact at every SIMD
    /// level.
    Relu,
}

impl Activation {
    /// Applies the activation to one scalar.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Activation::Identity => v,
            Activation::Relu => v.max(0.0),
        }
    }

    /// Applies the activation elementwise to a row, vectorised when a SIMD
    /// level is active; bitwise identical to mapping [`Activation::apply`]
    /// over the row.
    #[inline]
    pub fn apply_slice(self, row: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => simd::relu_slice(row),
        }
    }
}

/// Validates that `bias` is a `1 × n` row vector.
fn check_bias(bias: &Matrix, n: usize) -> Result<(), GemmError> {
    if bias.rows() != 1 || bias.cols() != n {
        return Err(GemmError::new(format!(
            "bias must be a 1x{n} row vector, got {:?}",
            bias.shape()
        )));
    }
    Ok(())
}

/// Shared dense epilogue: `chunk[r][j] = act((chunk[r][j] + bias[j]) * mult)`
/// where `mult` is `mask[j] * scale` when a column mask is given and 1
/// (skipped entirely) otherwise. Runs inside the pool chunk closure while the
/// freshly written rows are still cache-hot.
fn bias_act_epilogue(
    chunk: &mut [f32],
    n: usize,
    bias: &[f32],
    mask_scale: Option<(&[f32], f32)>,
    act: Activation,
) {
    // A zero-width layer has no row to walk (`chunks_exact_mut` rejects a
    // width of 0): its output is `m × 0`.
    if n == 0 {
        return;
    }
    for row in chunk.chunks_exact_mut(n) {
        match mask_scale {
            Some((mask, scale)) => simd::add_bias_mask_scale(row, bias, mask, scale),
            None => simd::add_bias(row, bias),
        }
        act.apply_slice(row);
    }
}

/// Fused dense whole-layer kernel, `C = act(A·W + bias)`, or with
/// `mask = Some((mask, scale))` `C = act((A·W + bias) ⊙ (mask · scale))`,
/// writing into `out`.
///
/// The bias add, the per-output-column multiplier (the conventional
/// Bernoulli-masked layer of the paper's Fig. 1(a)) and the activation run
/// in the write-back loop of the packed GEMM — one pass over the output
/// while it is cache-hot, instead of the GEMM → bias broadcast → mask →
/// activation chain of separate kernels. Results are bitwise identical to
/// that chain and thread-invariant like every other kernel here.
///
/// # Errors
///
/// Returns a [`GemmError`] if `a.cols() != w.rows()`, `bias` is not a
/// `1 × w.cols()` row vector, or a mask's length is not `w.cols()`.
pub fn gemm_bias_act_into(
    a: &Matrix,
    w: &Matrix,
    bias: &Matrix,
    mask: Option<(&[f32], f32)>,
    act: Activation,
    out: &mut Matrix,
) -> Result<(), GemmError> {
    check_inner(a, w)?;
    let n = w.cols();
    check_bias(bias, n)?;
    let mask_len = mask.map_or(n, |(mask, _)| mask.len());
    if mask_len != n {
        return Err(GemmError::new(format!(
            "column mask length {mask_len} must match {n} output features"
        )));
    }
    let m = a.rows();
    out.resize(m, n);
    pool::run_row_chunks(m, n, out.as_mut_slice(), |rows, chunk| {
        dense_rows(a, w, rows, chunk);
        bias_act_epilogue(chunk, n, bias.row(0), mask, act);
    });
    Ok(())
}

/// Allocating, unmasked variant of [`gemm_bias_act_into`].
///
/// # Errors
///
/// Returns a [`GemmError`] under the same conditions.
pub fn gemm_bias_act(
    a: &Matrix,
    w: &Matrix,
    bias: &Matrix,
    act: Activation,
) -> Result<Matrix, GemmError> {
    let mut out = Matrix::zeros(0, 0);
    gemm_bias_act_into(a, w, bias, None, act, &mut out)?;
    Ok(out)
}

/// Reference implementation of tile dropout through explicit masking.
///
/// Builds the full masked weight matrix (kept tiles preserved, dropped tiles
/// zeroed) and multiplies densely — the slow path that conventional dropout
/// is stuck with. Used to validate the gather core's tile classes
/// ([`GatherScratch::resolve_tiles`]).
///
/// # Errors
///
/// Returns a [`GemmError`] if the inner dimensions disagree or `tile == 0`.
pub fn tile_masked_gemm_reference(
    a: &Matrix,
    w: &Matrix,
    kept_tiles: &[usize],
    tile: usize,
) -> Result<Matrix, GemmError> {
    if tile == 0 {
        return Err(GemmError::new("tile size must be positive"));
    }
    let tiles_per_row = w.cols().div_ceil(tile);
    let mut masked = Matrix::zeros(w.rows(), w.cols());
    for &t in kept_tiles {
        let tile_row = t / tiles_per_row;
        let tile_col = t % tiles_per_row;
        for p in (tile_row * tile)..((tile_row + 1) * tile).min(w.rows()) {
            for j in (tile_col * tile)..((tile_col + 1) * tile).min(w.cols()) {
                masked[(p, j)] = w[(p, j)];
            }
        }
    }
    naive_gemm(a, &masked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        init::uniform(rng, r, c, -1.0, 1.0)
    }

    /// Raw gather-core product over the classes `resolve` sets up.
    fn gather(
        a: &Matrix,
        w: &Matrix,
        resolve: impl FnOnce(&mut GatherScratch) -> Result<(), GemmError>,
    ) -> Result<Matrix, GemmError> {
        let mut scratch = GatherScratch::default();
        resolve(&mut scratch)?;
        let mut out = Matrix::zeros(0, 0);
        gather_gemm_into(a, w, &mut scratch, &mut out)?;
        Ok(out)
    }

    fn tile_gather(
        a: &Matrix,
        w: &Matrix,
        kept: &[usize],
        tile: usize,
    ) -> Result<Matrix, GemmError> {
        gather(a, w, |s| s.resolve_tiles(kept, tile, w.rows(), w.cols()))
    }

    fn block_gather(
        a: &Matrix,
        w: &Matrix,
        blocks: &[usize],
        block: usize,
    ) -> Result<Matrix, GemmError> {
        gather(a, w, |s| s.resolve_blocks(blocks, block, w.cols()))
    }

    fn nm_gather(
        a: &Matrix,
        w: &Matrix,
        kept: &[usize],
        n: usize,
        m: usize,
    ) -> Result<Matrix, GemmError> {
        gather(a, w, |s| s.resolve_nm(kept, n, m, w.cols()))
    }

    fn k_gather(a: &Matrix, w: &Matrix, kept_k: &[usize]) -> Result<Matrix, GemmError> {
        gather(a, w, |s| {
            s.resolve_k(kept_k);
            Ok(())
        })
    }

    /// The output-neuron epilogue without a CRS scale.
    fn neurons(post: f32) -> GatherEpilogue {
        GatherEpilogue::Neurons { pre: 1.0, post }
    }

    #[test]
    fn naive_gemm_small_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = naive_gemm(&a, &b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn gemm_rejects_mismatched_inner_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(naive_gemm(&a, &b).is_err());
        assert!(blocked_gemm(&a, &b).is_err());
        assert!(gemm_at_b(&a, &b).is_err());
        assert!(gemm_a_bt(&a, &Matrix::zeros(4, 2)).is_err());
    }

    #[test]
    fn blocked_matches_naive_on_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_matrix(&mut rng, 37, 53);
        let b = random_matrix(&mut rng, 53, 41);
        let c1 = naive_gemm(&a, &b).unwrap();
        let c2 = blocked_gemm(&a, &b).unwrap();
        assert!(crate::approx_eq_slice(c1.as_slice(), c2.as_slice(), 1e-3));
    }

    /// `A·B` and `Aᵀ·B` reach the same block kernel through A's row-major
    /// and transposed strides, so on `a.transpose()` they must agree bit
    /// for bit, with K below, at and just past multiples of the panel
    /// depth (the one-chain reference is `chain_reference` below).
    #[test]
    fn k_panels_match_a_single_panel_pass_bitwise() {
        let mut rng = StdRng::seed_from_u64(43);
        for k in [0, 1, 3, 4, 5, 127, 128, 129, 131, 255, 256, 257, 784] {
            for (m, n) in [(1, 1), (5, 3), (37, 20)] {
                let a = random_matrix(&mut rng, m, k);
                let b = random_matrix(&mut rng, k, n);
                let mut panelled = Matrix::zeros(0, 0);
                let mut single = Matrix::zeros(0, 0);
                blocked_gemm_into(&a, &b, &mut panelled).unwrap();
                gemm_at_b_into(&a.transpose(), &b, &mut single).unwrap();
                assert_eq!(panelled, single, "m {m}, k {k}, n {n}");
            }
        }
    }

    /// The one product rule, one element at a time: `C[i][j]` is the chain
    /// `c = a(i, p).mul_add(b(p, j), c)` over `p` in K order from `c = 0`,
    /// for a `k`-deep product of the `(m, k, n)` shape. The test-only bitwise
    /// reference of every product form; the accessors read a transposed
    /// operand in place, so the reference shares no packing with the
    /// kernels.
    fn chain_reference(
        (m, k, n): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
    ) -> Matrix {
        Matrix::from_fn(m, n, |i, j| {
            (0..k).fold(0.0f32, |c, p| a(i, p).mul_add(b(p, j), c))
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Checks every product form, both fused dense layers and the gather
    /// core with every index kept on one `(m, k, n)` shape against
    /// [`chain_reference`], by bits.
    fn check_block_kernels(rng: &mut StdRng, (m, k, n): (usize, usize, usize), threads: usize) {
        let shape = format!("m {m}, k {k}, n {n}, {threads} thread(s)");
        let mut a = random_matrix(rng, m, k);
        for v in a.as_mut_slice().iter_mut().skip(3).step_by(7) {
            *v = 0.0;
        }
        let b = random_matrix(rng, k, n);
        let mut out = Matrix::default();
        blocked_gemm_into(&a, &b, &mut out).unwrap();
        let dense = chain_reference((m, k, n), |i, p| a[(i, p)], |p, j| b[(p, j)]);
        assert_eq!(bits(&out), bits(&dense), "A·B, {shape}");
        // Xᵀ·G with X = a: batch m, C k × n ...
        let g = random_matrix(rng, m, n);
        gemm_at_b_into(&a, &g, &mut out).unwrap();
        let x_t_g = chain_reference((k, m, n), |i, p| a[(p, i)], |p, j| g[(p, j)]);
        assert_eq!(bits(&out), bits(&x_t_g), "Xᵀ·G, {shape}");
        // ... and with X = aᵀ: batch k, C m × n.
        let (at, g2) = (a.transpose(), random_matrix(rng, k, n));
        gemm_at_b_into(&at, &g2, &mut out).unwrap();
        let a_t_b = chain_reference((m, k, n), |i, p| at[(p, i)], |p, j| g2[(p, j)]);
        assert_eq!(bits(&out), bits(&a_t_b), "Aᵀ·B, {shape}");
        // G·Wᵀ with G = a and W = bᵀ: C m × n, into a recycled buffer of
        // NaNs, which the product must not read.
        let w = b.transpose();
        out = Matrix::filled(m, n, f32::NAN);
        gemm_a_bt_into(&a, &w, &mut out).unwrap();
        let g_w_t = chain_reference((m, k, n), |i, p| a[(i, p)], |p, j| w[(j, p)]);
        assert_eq!(bits(&out), bits(&g_w_t), "G·Wᵀ, {shape}");
        let (bias, act) = (random_matrix(rng, 1, n), Activation::Relu);
        let mask: Vec<f32> = (0..n).map(|c| if c % 3 == 1 { 0.0 } else { 1.0 }).collect();
        gemm_bias_act_into(&a, &b, &bias, None, act, &mut out).unwrap();
        let mut reference = dense.clone();
        bias_act_epilogue(reference.as_mut_slice(), n, bias.row(0), None, act);
        assert_eq!(bits(&out), bits(&reference), "fused, {shape}");
        let masked = Some((mask.as_slice(), 2.0));
        gemm_bias_act_into(&a, &b, &bias, masked, act, &mut out).unwrap();
        let mut reference = dense.clone();
        bias_act_epilogue(reference.as_mut_slice(), n, bias.row(0), masked, act);
        assert_eq!(bits(&out), bits(&reference), "fused masked, {shape}");
        // The gather core with every index kept, gathering the output
        // columns (the dX product straight into its output) and both axes
        // (the dX product scattered): the packed panels hold all of W, so
        // every product is the dense chain. G·Wᵀ here is `g · bᵀ`.
        let (all_k, all_n): (Vec<usize>, Vec<usize>) = ((0..k).collect(), (0..n).collect());
        let g_b_t = chain_reference((m, n, k), |i, p| g[(i, p)], |p, j| b[(j, p)]);
        let mut scratch = GatherScratch::default();
        let (mut dw, mut dx) = (Matrix::default(), Matrix::default());
        for nk in [false, true] {
            match nk {
                false => scratch.resolve_cols(&all_n),
                true => scratch.resolve_nk(&all_k, &all_n),
            }
            let form = format!("{} gather, {shape}", if nk { "K×N" } else { "N" });
            gather_gemm_into(&a, &b, &mut scratch, &mut out).unwrap();
            assert_eq!(bits(&out), bits(&dense), "{form}: A·W");
            gather_backward_into(&a, &g, &b, 1.0, &mut scratch, &mut dw, Some(&mut dx)).unwrap();
            assert_eq!(bits(&dw), bits(&x_t_g), "{form}: Xᵀ·G");
            assert_eq!(bits(&dx), bits(&g_b_t), "{form}: G·Wᵀ");
        }
    }

    /// Every product form, both fused dense layers and the all-kept gather
    /// forms equal the one-chain reference bit for bit, over shapes that hit
    /// every row, column and K fringe of the block kernels (4-row blocks,
    /// 16/32-wide column blocks and their masked fringes, 8 × 8 transpose
    /// blocks, 128-deep panels), with zeros in A, at pool widths 1–3 (width
    /// 3 starts chunks off a multiple of 4). The grid is subsampled by cost
    /// so the debug run stays short, plus a few dear shapes of full blocks
    /// on every axis.
    #[test]
    fn block_kernels_match_the_row_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        let mut checked = 0;
        for threads in [1, 2, 3] {
            pool::set_threads(threads);
            for shape in [(128, 257, 131), (70, 131, 97)] {
                check_block_kernels(&mut rng, shape, threads);
            }
            for_grid_shape(threads, |shape| {
                check_block_kernels(&mut rng, shape, threads);
                checked += 1;
            });
        }
        pool::set_threads(pool::env_default_threads());
        assert!(checked > 4000, "the grid checked only {checked} shapes");
    }

    /// Calls `check` on the cost-subsampled fringe grid of `(m, k, n)`
    /// shapes, skipping shapes a `threads`-wide pool would run serially.
    fn for_grid_shape(threads: usize, mut check: impl FnMut((usize, usize, usize))) {
        const SIZES: [usize; 22] = [
            0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 129, 131, 255, 256, 257,
        ];
        const BUDGET: usize = 512;
        for (i, &m) in SIZES.iter().enumerate() {
            for (j, &k) in SIZES.iter().enumerate() {
                for (l, &n) in SIZES.iter().enumerate() {
                    // A pool splits only outputs of at least 32 rows.
                    let serial = threads > 1 && m.max(k) < pool::PAR_MIN_ROWS;
                    let stride = ((m + 1) * (k + 1) * (n + 1) / BUDGET).max(1);
                    let hash = ((i * 22 + j) * 22 + l) * 3 + threads;
                    if serial || (hash.wrapping_mul(0x9E37_79B9) >> 8) % stride != 0 {
                        continue;
                    }
                    check((m, k, n));
                }
            }
        }
    }

    /// The transposed forms are the plain product over a transposed
    /// operand, bit for bit, at every SIMD level the host supports:
    /// `gemm_a_bt(a, b) == blocked_gemm(a, bᵀ)` and
    /// `gemm_at_b(a, b) == blocked_gemm(aᵀ, b)`, over the fringe grid.
    #[test]
    fn transposed_forms_equal_the_plain_product_bitwise_at_every_level() {
        use crate::simd::SimdLevel;
        let mut rng = StdRng::seed_from_u64(0x7A5E);
        let levels = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];
        for requested in levels {
            simd::tests::with_level(requested, |level| {
                let mut checked = 0;
                for_grid_shape(1, |(m, k, n)| {
                    let what = format!("m {m}, k {k}, n {n} at {level:?}");
                    let (a, b) = (random_matrix(&mut rng, m, k), random_matrix(&mut rng, n, k));
                    let a_bt = gemm_a_bt(&a, &b).unwrap();
                    let plain = blocked_gemm(&a, &b.transpose()).unwrap();
                    assert_eq!(bits(&a_bt), bits(&plain), "A·Bᵀ, {what}");
                    let (x, g) = (random_matrix(&mut rng, k, m), random_matrix(&mut rng, k, n));
                    let at_b = gemm_at_b(&x, &g).unwrap();
                    let plain = blocked_gemm(&x.transpose(), &g).unwrap();
                    assert_eq!(bits(&at_b), bits(&plain), "Aᵀ·B, {what}");
                    checked += 1;
                });
                assert!(checked > 1000, "the grid checked only {checked} shapes");
            });
        }
    }

    /// A layer with no outputs returns an `m × 0` output from both fused
    /// dense kernels, for an empty batch and an empty input as well.
    #[test]
    fn zero_width_fused_layers_return_an_empty_output() {
        for (m, k) in [(2, 3), (0, 3), (2, 0), (0, 0)] {
            let (a, w, bias) = (
                Matrix::zeros(m, k),
                Matrix::zeros(k, 0),
                Matrix::zeros(1, 0),
            );
            let out = gemm_bias_act(&a, &w, &bias, Activation::Relu).unwrap();
            assert_eq!(out.shape(), (m, 0));
            let mut out = Matrix::filled(3, 3, 1.0);
            let mask = Some((&[][..], 2.0));
            gemm_bias_act_into(&a, &w, &bias, mask, Activation::Relu, &mut out).unwrap();
            assert_eq!(out.shape(), (m, 0));
        }
    }

    #[test]
    fn identity_is_neutral_for_all_kernels() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 16, 16);
        let i = Matrix::identity(16);
        assert!(crate::approx_eq_slice(
            naive_gemm(&a, &i).unwrap().as_slice(),
            a.as_slice(),
            1e-5
        ));
        assert!(crate::approx_eq_slice(
            blocked_gemm(&a, &i).unwrap().as_slice(),
            a.as_slice(),
            1e-5
        ));
    }

    #[test]
    fn blocked_into_reuses_the_output_buffer() {
        let mut rng = StdRng::seed_from_u64(29);
        let a = random_matrix(&mut rng, 12, 20);
        let b = random_matrix(&mut rng, 20, 16);
        let mut out = Matrix::zeros(12, 16);
        blocked_gemm_into(&a, &b, &mut out).unwrap();
        let ptr_before = out.as_slice().as_ptr();
        blocked_gemm_into(&a, &b, &mut out).unwrap();
        assert_eq!(
            ptr_before,
            out.as_slice().as_ptr(),
            "same-shape recomputation must not reallocate"
        );
        let reference = naive_gemm(&a, &b).unwrap();
        assert!(crate::approx_eq_slice(
            out.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(31);
        let a = random_matrix(&mut rng, 33, 21); // (batch, in)
        let b = random_matrix(&mut rng, 33, 17); // (batch, out)
        let fused = gemm_at_b(&a, &b).unwrap();
        let reference = naive_gemm(&a.transpose(), &b).unwrap();
        assert_eq!(fused.shape(), (21, 17));
        assert!(crate::approx_eq_slice(
            fused.as_slice(),
            reference.as_slice(),
            1e-3
        ));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(37);
        let a = random_matrix(&mut rng, 19, 27); // (batch, out)
        let b = random_matrix(&mut rng, 23, 27); // (in, out)
        let fused = gemm_a_bt(&a, &b).unwrap();
        let reference = naive_gemm(&a, &b.transpose()).unwrap();
        assert_eq!(fused.shape(), (19, 23));
        assert!(crate::approx_eq_slice(
            fused.as_slice(),
            reference.as_slice(),
            1e-3
        ));
    }

    #[test]
    fn transposed_variants_handle_ragged_batch_remainders() {
        // Batch sizes that are not multiples of the 4-row panel exercise the
        // scalar tail of the unrolled loops.
        let mut rng = StdRng::seed_from_u64(41);
        for batch in [1, 2, 3, 5, 6, 7] {
            let a = random_matrix(&mut rng, batch, 9);
            let b = random_matrix(&mut rng, batch, 11);
            let fused = gemm_at_b(&a, &b).unwrap();
            let reference = naive_gemm(&a.transpose(), &b).unwrap();
            assert!(
                crate::approx_eq_slice(fused.as_slice(), reference.as_slice(), 1e-4),
                "batch {batch}"
            );
        }
    }

    #[test]
    fn row_compact_matches_column_masked_dense() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(&mut rng, 8, 12);
        let w = random_matrix(&mut rng, 12, 10);
        let kept = vec![0, 3, 6, 9];
        let compact = row_compact_gemm(&a, &w, &kept).unwrap();

        // Dense reference: zero the dropped columns of W, then multiply.
        let mut masked = w.clone();
        for j in 0..w.cols() {
            if !kept.contains(&j) {
                for p in 0..w.rows() {
                    masked[(p, j)] = 0.0;
                }
            }
        }
        let reference = naive_gemm(&a, &masked).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn row_compact_rejects_out_of_bounds_index() {
        let a = Matrix::zeros(2, 3);
        let w = Matrix::zeros(3, 4);
        assert!(row_compact_gemm(&a, &w, &[4]).is_err());
    }

    #[test]
    fn row_compact_with_all_rows_equals_dense() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_matrix(&mut rng, 6, 7);
        let w = random_matrix(&mut rng, 7, 5);
        let all: Vec<usize> = (0..5).collect();
        let compact = row_compact_gemm(&a, &w, &all).unwrap();
        let dense = naive_gemm(&a, &w).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            dense.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn row_compact_with_no_rows_is_zero() {
        let a = Matrix::ones(3, 4);
        let w = Matrix::ones(4, 5);
        let c = row_compact_gemm(&a, &w, &[]).unwrap();
        assert_eq!(c.sum(), 0.0);
        assert_eq!(c.shape(), (3, 5));
    }

    #[test]
    fn row_compact_scratch_is_recycled() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = random_matrix(&mut rng, 6, 10);
        let w = random_matrix(&mut rng, 10, 8);
        let mut scratch = GatherScratch::default();
        let mut out = Matrix::zeros(0, 0);
        scratch.resolve_cols(&[0, 2, 4, 6]);
        gather_gemm_into(&a, &w, &mut scratch, &mut out).unwrap();
        let pack_ptr = scratch.panel.as_slice().as_ptr();
        let out_ptr = out.as_slice().as_ptr();
        // Second call with the same kept-count: every buffer is reused.
        scratch.resolve_cols(&[1, 3, 5, 7]);
        gather_gemm_into(&a, &w, &mut scratch, &mut out).unwrap();
        assert_eq!(pack_ptr, scratch.panel.as_slice().as_ptr());
        assert_eq!(out_ptr, out.as_slice().as_ptr());
    }

    #[test]
    fn tile_compact_matches_masked_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = random_matrix(&mut rng, 9, 12);
        let w = random_matrix(&mut rng, 12, 10);
        let tile = 4;
        let kept = vec![0, 2, 5, 7];
        let compact = tile_gather(&a, &w, &kept, tile).unwrap();
        let reference = tile_masked_gemm_reference(&a, &w, &kept, tile).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn tile_compact_with_all_tiles_equals_dense() {
        let mut rng = StdRng::seed_from_u64(19);
        let a = random_matrix(&mut rng, 8, 8);
        let w = random_matrix(&mut rng, 8, 8);
        let tile = 4;
        let all: Vec<usize> = (0..4).collect();
        let compact = tile_gather(&a, &w, &all, tile).unwrap();
        let dense = naive_gemm(&a, &w).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            dense.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn tile_compact_rejects_zero_tile_size() {
        let a = Matrix::zeros(4, 4);
        let w = Matrix::zeros(4, 4);
        assert!(tile_gather(&a, &w, &[0], 0).is_err());
    }

    #[test]
    fn tile_compact_rejects_out_of_range_tile() {
        let a = Matrix::zeros(4, 4);
        let w = Matrix::zeros(4, 4);
        // 4x4 weight with tile 4 has exactly one tile (index 0).
        assert!(tile_gather(&a, &w, &[1], 4).is_err());
    }

    #[test]
    fn tile_compact_handles_non_divisible_edges() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_matrix(&mut rng, 5, 7);
        let w = random_matrix(&mut rng, 7, 9);
        let tile = 4; // 2x3 tile grid with ragged edges
        let kept = vec![0, 3, 5];
        let compact = tile_gather(&a, &w, &kept, tile).unwrap();
        let reference = tile_masked_gemm_reference(&a, &w, &kept, tile).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn tile_classes_group_rows_that_keep_the_same_strips() {
        // The MLP's first layer at tile 32: 25 tile rows (the last ragged)
        // of 8 strips. TDP keeps tiles t ≡ bias (mod dp), so tile row r keeps
        // strips c ≡ bias − 8r (mod dp): at most dp distinct strip sets, one
        // when dp divides 8.
        let (k, n, tile, total) = (784, 256, 32, 25 * 8);
        let mut scratch = GatherScratch::default();
        for dp in 1..=8 {
            for bias in 0..dp {
                let kept: Vec<usize> = (bias..total).step_by(dp).collect();
                scratch.resolve_tiles(&kept, tile, k, n).unwrap();
                let classes = &scratch.classes;
                assert!(classes.len() <= dp, "dp {dp} bias {bias}");
                if 8 % dp == 0 {
                    assert_eq!(classes.len(), 1, "dp {dp}: one column gather");
                    assert!(classes[0].k.is_none(), "dp {dp}: over the full K");
                    assert_eq!(classes[0].n.is_none(), dp == 1, "dense only at dp 1");
                }
                // The classes partition the inner indices.
                let mut ks = scratch.k_idx.clone();
                ks.sort_unstable();
                ks.dedup();
                assert_eq!(ks.len(), scratch.k_idx.len(), "dp {dp} bias {bias}");
            }
        }
    }

    /// Dense column-multiplier reference for the column gathers (rows, N:M,
    /// blocks): zero the dropped columns of `w`, multiply naively.
    fn col_masked_reference(a: &Matrix, w: &Matrix, kept: &[usize]) -> Matrix {
        let mut masked = w.clone();
        for j in 0..w.cols() {
            if !kept.contains(&j) {
                for p in 0..w.rows() {
                    masked[(p, j)] = 0.0;
                }
            }
        }
        naive_gemm(a, &masked).unwrap()
    }

    #[test]
    fn nm_compact_matches_column_masked_dense() {
        let mut rng = StdRng::seed_from_u64(51);
        let a = random_matrix(&mut rng, 6, 9);
        let w = random_matrix(&mut rng, 9, 8);
        // 2:4 over 8 columns: lanes {1,3} and {4,6}.
        let kept = vec![1, 3, 4, 6];
        let compact = nm_gather(&a, &w, &kept, 2, 4).unwrap();
        let reference = col_masked_reference(&a, &w, &kept);
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn nm_compact_rejects_malformed_group_structure() {
        let a = Matrix::zeros(2, 4);
        let w = Matrix::zeros(4, 8);
        // Three lanes in the first group of four.
        assert!(nm_gather(&a, &w, &[0, 1, 2, 4, 6], 2, 4).is_err());
        // Unsorted lanes inside a group.
        assert!(nm_gather(&a, &w, &[3, 1, 4, 6], 2, 4).is_err());
        // Lane past the output width.
        assert!(nm_gather(&a, &w, &[1, 3, 4, 8], 2, 4).is_err());
        // Correct structure passes.
        assert!(nm_gather(&a, &w, &[0, 1, 4, 5], 2, 4).is_ok());
    }

    #[test]
    fn nm_compact_handles_ragged_tail_group() {
        let mut rng = StdRng::seed_from_u64(53);
        let a = random_matrix(&mut rng, 3, 5);
        let w = random_matrix(&mut rng, 5, 10);
        // 3:4 over 10 columns: tail group {8, 9} keeps min(3, 2) = 2 lanes.
        let kept = vec![0, 2, 3, 5, 6, 7, 8, 9];
        let compact = nm_gather(&a, &w, &kept, 3, 4).unwrap();
        let reference = col_masked_reference(&a, &w, &kept);
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn gather_backward_forms_match_dense_references() {
        let mut rng = StdRng::seed_from_u64(57);
        let x = random_matrix(&mut rng, 7, 5); // (batch, in)
        let g = random_matrix(&mut rng, 7, 9); // (batch, out)
        let w = random_matrix(&mut rng, 5, 9); // (in, out)
        let kept = vec![0, 3, 4, 8];
        let scale = 2.25f32;
        let mut scratch = GatherScratch::default();

        // dW reference: Xᵀ · (scale · G ⊙ column mask).
        let mut g_masked = Matrix::zeros(7, 9);
        for i in 0..7 {
            for &j in &kept {
                g_masked[(i, j)] = g[(i, j)] * scale;
            }
        }
        let dw_ref = naive_gemm(&x.transpose(), &g_masked).unwrap();
        let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        scratch.resolve_cols(&kept);
        gather_backward_into(&x, &g, &w, scale, &mut scratch, &mut dw, Some(&mut dx)).unwrap();
        assert_eq!(dw.shape(), (5, 9));
        assert!(crate::approx_eq_slice(
            dw.as_slice(),
            dw_ref.as_slice(),
            1e-4
        ));

        // dX reference: (scale · G ⊙ mask) · Wᵀ with dropped columns of W
        // contributing nothing.
        let dx_ref = naive_gemm(&g_masked, &w.transpose()).unwrap();
        assert_eq!(dx.shape(), (7, 5));
        assert!(crate::approx_eq_slice(
            dx.as_slice(),
            dx_ref.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn fused_gather_backward_matches_the_standalone_pair() {
        let mut rng = StdRng::seed_from_u64(59);
        let x = random_matrix(&mut rng, 6, 4);
        let g = random_matrix(&mut rng, 6, 10);
        let w = random_matrix(&mut rng, 4, 10);
        let kept = vec![1, 2, 6, 9];
        let scale = 3.0f32;

        // Without a forward pass the pair packs W[:, kept] itself …
        let mut s1 = GatherScratch::default();
        s1.resolve_cols(&kept);
        let mut dw_ref = Matrix::zeros(0, 0);
        let mut dx_ref = Matrix::zeros(0, 0);
        gather_backward_into(&x, &g, &w, scale, &mut s1, &mut dw_ref, Some(&mut dx_ref)).unwrap();

        // … and so it does after a forward pass, even one over other
        // weights: the backward keeps nothing from the forward's panel.
        let mut s2 = GatherScratch::default();
        s2.resolve_cols(&kept);
        let mut y = Matrix::zeros(0, 0);
        gather_gemm_into(&x, &w.scale(0.5), &mut s2, &mut y).unwrap();
        let mut dw = Matrix::zeros(0, 0);
        let mut dx = Matrix::zeros(0, 0);
        gather_backward_into(&x, &g, &w, scale, &mut s2, &mut dw, Some(&mut dx)).unwrap();
        assert_eq!(dw, dw_ref);
        assert_eq!(dx, dx_ref);

        // Shape mismatches are rejected up front.
        let bad_x = Matrix::zeros(5, 4);
        assert!(
            gather_backward_into(&bad_x, &g, &w, scale, &mut s2, &mut dw, Some(&mut dx)).is_err()
        );
        let bad_w = Matrix::zeros(4, 9);
        assert!(
            gather_backward_into(&x, &g, &bad_w, scale, &mut s2, &mut dw, Some(&mut dx)).is_err()
        );
    }

    #[test]
    fn gather_backward_rejects_bad_shapes() {
        let mut scratch = GatherScratch::default();
        let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let mut backward = |x: &Matrix, g: &Matrix, w: &Matrix, kept: &[usize]| {
            scratch.resolve_cols(kept);
            gather_backward_into(x, g, w, 1.0, &mut scratch, &mut dw, Some(&mut dx))
        };
        // Batch, output-width and inner-dimension mismatches.
        let (x, g, w) = (
            Matrix::zeros(3, 4),
            Matrix::zeros(3, 5),
            Matrix::zeros(4, 5),
        );
        assert!(backward(&x, &Matrix::zeros(2, 5), &w, &[0]).is_err());
        assert!(backward(&x, &g, &Matrix::zeros(4, 6), &[0]).is_err());
        assert!(backward(&Matrix::zeros(3, 3), &g, &w, &[0]).is_err());
        // A kept column past the output width.
        assert!(backward(&x, &g, &w, &[5]).is_err());
        assert!(backward(&x, &g, &w, &[4]).is_ok());
    }

    #[test]
    fn block_compact_matches_column_masked_dense() {
        let mut rng = StdRng::seed_from_u64(61);
        let a = random_matrix(&mut rng, 5, 7);
        let w = random_matrix(&mut rng, 7, 10); // 3 blocks of 4 (last ragged)
        let kept_blocks = vec![0, 2];
        let kept_cols: Vec<usize> = (0..4).chain(8..10).collect();
        let compact = block_gather(&a, &w, &kept_blocks, 4).unwrap();
        let reference = col_masked_reference(&a, &w, &kept_cols);
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn block_compact_with_all_blocks_equals_dense() {
        let mut rng = StdRng::seed_from_u64(63);
        let a = random_matrix(&mut rng, 6, 8);
        let w = random_matrix(&mut rng, 8, 12);
        let compact = block_gather(&a, &w, &[0, 1, 2], 4).unwrap();
        let dense = naive_gemm(&a, &w).unwrap();
        assert!(crate::approx_eq_slice(
            compact.as_slice(),
            dense.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn block_compact_rejects_bad_parameters() {
        let a = Matrix::zeros(2, 4);
        let w = Matrix::zeros(4, 8);
        assert!(block_gather(&a, &w, &[0], 0).is_err());
        assert!(block_gather(&a, &w, &[2], 4).is_err()); // 2 blocks only
        assert!(block_gather(&a, &w, &[1, 1], 4).is_err()); // repeated block
    }

    #[test]
    fn block_backward_forms_match_dense_references() {
        let mut rng = StdRng::seed_from_u64(67);
        let x = random_matrix(&mut rng, 6, 5); // (batch, in)
        let g = random_matrix(&mut rng, 6, 11); // (batch, out): 3 blocks of 4
        let w = random_matrix(&mut rng, 5, 11); // (in, out)
        let kept_blocks = vec![1, 2];
        let kept_cols: Vec<usize> = (4..11).collect();
        let scale = 1.75f32;

        let mut g_masked = Matrix::zeros(6, 11);
        for i in 0..6 {
            for &j in &kept_cols {
                g_masked[(i, j)] = g[(i, j)] * scale;
            }
        }

        let dw_ref = naive_gemm(&x.transpose(), &g_masked).unwrap();
        let mut scratch = GatherScratch::default();
        scratch.resolve_blocks(&kept_blocks, 4, 11).unwrap();
        let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        gather_backward_into(&x, &g, &w, scale, &mut scratch, &mut dw, Some(&mut dx)).unwrap();
        assert_eq!(dw.shape(), (5, 11));
        assert!(crate::approx_eq_slice(
            dw.as_slice(),
            dw_ref.as_slice(),
            1e-3
        ));

        let dx_ref = naive_gemm(&g_masked, &w.transpose()).unwrap();
        assert_eq!(dx.shape(), (6, 5));
        assert!(crate::approx_eq_slice(
            dx.as_slice(),
            dx_ref.as_slice(),
            1e-3
        ));
    }

    #[test]
    fn block_backward_with_ragged_batch_exercises_scalar_tail() {
        // Batch sizes off the 4-row panel exercise the scalar tail of the
        // unrolled at_b kernel.
        let mut rng = StdRng::seed_from_u64(71);
        let mut scratch = GatherScratch::default();
        scratch.resolve_blocks(&[0], 4, 8).unwrap();
        for batch in [1usize, 2, 3, 5] {
            let x = random_matrix(&mut rng, batch, 4);
            let g = random_matrix(&mut rng, batch, 8);
            let w = random_matrix(&mut rng, 4, 8);
            let mut g_masked = Matrix::zeros(batch, 8);
            for i in 0..batch {
                for j in 0..4 {
                    g_masked[(i, j)] = g[(i, j)];
                }
            }
            let dw_ref = naive_gemm(&x.transpose(), &g_masked).unwrap();
            let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            gather_backward_into(&x, &g, &w, 1.0, &mut scratch, &mut dw, Some(&mut dx)).unwrap();
            assert!(
                crate::approx_eq_slice(dw.as_slice(), dw_ref.as_slice(), 1e-4),
                "batch {batch}"
            );
        }
    }

    /// Both activations, for sweeping the fused-kernel tests.
    const ACTIVATIONS: [Activation; 2] = [Activation::Identity, Activation::Relu];

    #[test]
    fn fused_dense_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(81);
        let a = random_matrix(&mut rng, 9, 13);
        let w = random_matrix(&mut rng, 13, 11);
        let bias = random_matrix(&mut rng, 1, 11);
        for act in ACTIVATIONS {
            let mut reference = blocked_gemm(&a, &w).unwrap();
            reference.add_row_broadcast_inplace(&bias).unwrap();
            reference.map_inplace(|v| act.apply(v));
            let fused = gemm_bias_act(&a, &w, &bias, act).unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn fused_dense_masked_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(83);
        let a = random_matrix(&mut rng, 7, 10);
        let w = random_matrix(&mut rng, 10, 8);
        let bias = random_matrix(&mut rng, 1, 8);
        let mask: Vec<f32> = (0..8).map(|j| if j % 3 == 0 { 0.0 } else { 1.0 }).collect();
        let scale = 1.5f32;
        for act in ACTIVATIONS {
            let mut reference = blocked_gemm(&a, &w).unwrap();
            reference.add_row_broadcast_inplace(&bias).unwrap();
            for i in 0..reference.rows() {
                for (v, &m) in reference.row_mut(i).iter_mut().zip(&mask) {
                    *v *= m * scale;
                }
            }
            reference.map_inplace(|v| act.apply(v));
            let mut fused = Matrix::zeros(0, 0);
            let masked = Some((mask.as_slice(), scale));
            gemm_bias_act_into(&a, &w, &bias, masked, act, &mut fused).unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn fused_gather_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(85);
        let a = random_matrix(&mut rng, 6, 9);
        let w = random_matrix(&mut rng, 9, 12);
        let bias = random_matrix(&mut rng, 1, 12);
        let kept = vec![0usize, 3, 5, 6, 10];
        let scale = 2.0f32;
        for act in ACTIVATIONS {
            // Unfused chain: compacted GEMM, then the gather path's epilogue
            // ((v + bias) * scale on kept columns only), then the activation.
            let mut reference = row_compact_gemm(&a, &w, &kept).unwrap();
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                for &j in &kept {
                    row[j] = (row[j] + bias[(0, j)]) * scale;
                }
            }
            reference.map_inplace(|v| act.apply(v));
            let mut scratch = GatherScratch::default();
            scratch.resolve_cols(&kept);
            let mut fused = Matrix::zeros(0, 0);
            gather_gemm_bias_act_into(&a, &w, &bias, neurons(scale), act, &mut scratch, &mut fused)
                .unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn fused_nm_validates_structure_and_matches_gather() {
        let mut rng = StdRng::seed_from_u64(87);
        let a = random_matrix(&mut rng, 5, 6);
        let w = random_matrix(&mut rng, 6, 8);
        let bias = random_matrix(&mut rng, 1, 8);
        let kept = vec![1usize, 3, 4, 6]; // 2:4 over 8 columns
        let relu = Activation::Relu;
        let mut scratch = GatherScratch::default();
        scratch.resolve_nm(&kept, 2, 4, 8).unwrap();
        let mut fused = Matrix::zeros(0, 0);
        gather_gemm_bias_act_into(&a, &w, &bias, neurons(2.0), relu, &mut scratch, &mut fused)
            .unwrap();
        scratch.resolve_cols(&kept);
        let mut reference = Matrix::zeros(0, 0);
        gather_gemm_bias_act_into(
            &a,
            &w,
            &bias,
            neurons(2.0),
            relu,
            &mut scratch,
            &mut reference,
        )
        .unwrap();
        assert_eq!(fused, reference);
        // Malformed group structure is rejected.
        assert!(scratch.resolve_nm(&[0, 1, 2, 4], 2, 4, 8).is_err());
    }

    #[test]
    fn fused_block_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(89);
        let a = random_matrix(&mut rng, 6, 7);
        let w = random_matrix(&mut rng, 7, 11); // 3 blocks of 4, last ragged
        let bias = random_matrix(&mut rng, 1, 11);
        let kept_blocks = vec![0usize, 2];
        let scale = 2.0f32;
        for act in ACTIVATIONS {
            let mut reference = block_gather(&a, &w, &kept_blocks, 4).unwrap();
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                for &b in &kept_blocks {
                    for j in (b * 4)..((b + 1) * 4).min(11) {
                        row[j] = (row[j] + bias[(0, j)]) * scale;
                    }
                }
            }
            reference.map_inplace(|v| act.apply(v));
            let mut scratch = GatherScratch::default();
            scratch.resolve_blocks(&kept_blocks, 4, 11).unwrap();
            let epilogue = GatherEpilogue::Neurons {
                pre: 1.0,
                post: scale,
            };
            let mut fused = Matrix::zeros(0, 0);
            gather_gemm_bias_act_into(&a, &w, &bias, epilogue, act, &mut scratch, &mut fused)
                .unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
        // Unsorted kept lists are rejected (each column is kept once).
        assert!(GatherScratch::default()
            .resolve_blocks(&[2, 0], 4, 11)
            .is_err());
    }

    #[test]
    fn fused_tile_matches_unfused_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(91);
        let a = random_matrix(&mut rng, 5, 8);
        let w = random_matrix(&mut rng, 8, 9); // ragged 2x3 tile grid at tile 4
        let bias = random_matrix(&mut rng, 1, 9);
        let kept = vec![0usize, 2, 5];
        let scale = 2.0f32;
        for act in ACTIVATIONS {
            // Unfused tile chain: compacted GEMM, scale, bias broadcast over
            // every column, then the activation.
            let mut reference = tile_gather(&a, &w, &kept, 4).unwrap();
            reference.map_inplace(|v| v * scale);
            reference.add_row_broadcast_inplace(&bias).unwrap();
            reference.map_inplace(|v| act.apply(v));
            let mut scratch = GatherScratch::default();
            scratch.resolve_tiles(&kept, 4, 8, 9).unwrap();
            let epilogue = GatherEpilogue::Synapses { pre: scale };
            let mut fused = Matrix::zeros(0, 0);
            gather_gemm_bias_act_into(&a, &w, &bias, epilogue, act, &mut scratch, &mut fused)
                .unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn fused_kernels_reject_malformed_bias() {
        let a = Matrix::zeros(2, 3);
        let w = Matrix::zeros(3, 4);
        let bad_bias = Matrix::zeros(1, 5);
        let mut out = Matrix::zeros(0, 0);
        let relu = Activation::Relu;
        assert!(gemm_bias_act_into(&a, &w, &bad_bias, None, relu, &mut out).is_err());
        let short_mask = Some((&[1.0; 3][..], 1.0));
        let bias = Matrix::zeros(1, 4);
        assert!(gemm_bias_act_into(&a, &w, &bias, short_mask, relu, &mut out).is_err());
        let mut scratch = GatherScratch::default();
        scratch.resolve_cols(&[0]);
        assert!(gather_gemm_bias_act_into(
            &a,
            &w,
            &bad_bias,
            neurons(1.0),
            relu,
            &mut scratch,
            &mut out
        )
        .is_err());
    }

    #[test]
    fn fused_dropped_columns_carry_the_activation_of_zero() {
        // A dropped neuron's pre-activation is exactly zero; the fused kernel
        // must report act(0) = +0.0 there just like the unfused chain's
        // elementwise activation pass does, while a kept column whose
        // pre-activation is negative goes through ReLU.
        let a = Matrix::ones(2, 3);
        let w = Matrix::ones(3, 4);
        let bias = Matrix::from_rows(&[&[-9.0, 1.0, -9.0, -9.0]]);
        let mut scratch = GatherScratch::default();
        scratch.resolve_cols(&[1, 2]);
        let mut out = Matrix::zeros(0, 0);
        let relu = Activation::Relu;
        gather_gemm_bias_act_into(&a, &w, &bias, neurons(1.0), relu, &mut scratch, &mut out)
            .unwrap();
        for i in 0..2 {
            let bits: Vec<u32> = out.row(i).iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, [0.0f32, 4.0, 0.0, 0.0].map(f32::to_bits), "row {i}");
        }
    }

    #[test]
    fn dense_path_keeps_exact_zeros_in_operands() {
        // The packed kernel has no zero-skip branch; a zero in A must simply
        // contribute nothing (and not disturb vectorised lanes).
        let a = Matrix::from_rows(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 3.0]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[10.0, 20.0], &[100.0, 200.0]]);
        let c = blocked_gemm(&a, &b).unwrap();
        let reference = naive_gemm(&a, &b).unwrap();
        assert_eq!(c, reference);
    }

    /// Dense reference of the K-sampled product: zero the dropped columns of
    /// `A` (equivalently the dropped rows of `W`) and multiply densely.
    fn k_masked_reference(a: &Matrix, w: &Matrix, kept_k: &[usize]) -> Matrix {
        let mut masked = a.clone();
        for i in 0..a.rows() {
            for (p, v) in masked.row_mut(i).iter_mut().enumerate() {
                if !kept_k.contains(&p) {
                    *v = 0.0;
                }
            }
        }
        naive_gemm(&masked, w).unwrap()
    }

    #[test]
    fn gather_k_matches_masked_dense_reference() {
        let mut rng = StdRng::seed_from_u64(91);
        let a = random_matrix(&mut rng, 9, 14);
        let w = random_matrix(&mut rng, 14, 11);
        let kept_k = vec![0, 2, 3, 7, 8, 12, 13];
        let sampled = k_gather(&a, &w, &kept_k).unwrap();
        let reference = k_masked_reference(&a, &w, &kept_k);
        assert_eq!(sampled.shape(), (9, 11));
        assert!(crate::approx_eq_slice(
            sampled.as_slice(),
            reference.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn gather_k_with_all_indices_is_bitwise_dense() {
        // The k == K degeneracy: packing every inner index in order feeds the
        // blocked core bitwise-identical operands, so the sampled product must
        // equal the dense kernel exactly, not approximately.
        let mut rng = StdRng::seed_from_u64(93);
        let a = random_matrix(&mut rng, 13, 22);
        let w = random_matrix(&mut rng, 22, 17);
        let all: Vec<usize> = (0..22).collect();
        let sampled = k_gather(&a, &w, &all).unwrap();
        let dense = blocked_gemm(&a, &w).unwrap();
        assert_eq!(sampled, dense);
    }

    #[test]
    fn gather_k_fused_with_all_indices_matches_dense_fused_bitwise() {
        let mut rng = StdRng::seed_from_u64(95);
        let a = random_matrix(&mut rng, 8, 18);
        let w = random_matrix(&mut rng, 18, 12);
        let bias = random_matrix(&mut rng, 1, 12);
        let all: Vec<usize> = (0..18).collect();
        let mut scratch = GatherScratch::default();
        scratch.resolve_k(&all);
        let epilogue = GatherEpilogue::Synapses { pre: 1.0 };
        for act in ACTIVATIONS {
            let mut sampled = Matrix::zeros(0, 0);
            gather_gemm_bias_act_into(&a, &w, &bias, epilogue, act, &mut scratch, &mut sampled)
                .unwrap();
            let dense = gemm_bias_act(&a, &w, &bias, act).unwrap();
            assert_eq!(sampled, dense, "{act:?}");
        }
    }

    #[test]
    fn gather_k_fused_matches_unfused_chain_bitwise_for_all_activations() {
        let mut rng = StdRng::seed_from_u64(97);
        let a = random_matrix(&mut rng, 7, 15);
        let w = random_matrix(&mut rng, 15, 10);
        let bias = random_matrix(&mut rng, 1, 10);
        let kept_k = vec![1, 2, 5, 6, 9, 11, 14];
        let crs_scale = 15.0f32 / 7.0;
        let mut scratch = GatherScratch::default();
        scratch.resolve_k(&kept_k);
        let epilogue = GatherEpilogue::Synapses { pre: crs_scale };
        for act in ACTIVATIONS {
            let mut reference = Matrix::zeros(0, 0);
            gather_gemm_into(&a, &w, &mut scratch, &mut reference).unwrap();
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                crate::simd::scale_add_bias(row, crs_scale, bias.row(0));
                act.apply_slice(row);
            }
            let mut fused = Matrix::zeros(0, 0);
            gather_gemm_bias_act_into(&a, &w, &bias, epilogue, act, &mut scratch, &mut fused)
                .unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn gather_nk_fused_matches_unfused_chain_bitwise_for_all_activations() {
        let mut rng = StdRng::seed_from_u64(99);
        let a = random_matrix(&mut rng, 6, 12);
        let w = random_matrix(&mut rng, 12, 9);
        let bias = random_matrix(&mut rng, 1, 9);
        let kept_k = vec![0, 3, 4, 7, 10, 11];
        let kept_cols = vec![1, 2, 5, 8];
        let crs_scale = 2.0f32;
        let row_scale = 1.8f32;
        let mut scratch = GatherScratch::default();
        scratch.resolve_nk(&kept_k, &kept_cols);
        let epilogue = GatherEpilogue::Neurons {
            pre: crs_scale,
            post: row_scale,
        };
        for act in ACTIVATIONS {
            let mut reference = Matrix::zeros(0, 0);
            gather_gemm_into(&a, &w, &mut scratch, &mut reference).unwrap();
            let brow = bias.row(0);
            for i in 0..reference.rows() {
                let row = reference.row_mut(i);
                for &j in &kept_cols {
                    row[j] = (row[j] * crs_scale + brow[j]) * row_scale;
                }
                act.apply_slice(row);
            }
            let mut fused = Matrix::zeros(0, 0);
            gather_gemm_bias_act_into(&a, &w, &bias, epilogue, act, &mut scratch, &mut fused)
                .unwrap();
            assert_eq!(fused, reference, "{act:?}");
        }
    }

    #[test]
    fn gather_k_backward_matches_masked_dense_references() {
        let mut rng = StdRng::seed_from_u64(101);
        let x = random_matrix(&mut rng, 8, 13); // (batch, in)
        let g = random_matrix(&mut rng, 8, 10); // (batch, out)
        let w = random_matrix(&mut rng, 13, 10); // (in, out)
        let kept_k = vec![0, 1, 4, 6, 9, 12];
        let scale = 13.0f32 / 6.0;
        let mut x_masked = x.clone();
        for i in 0..x.rows() {
            for (p, v) in x_masked.row_mut(i).iter_mut().enumerate() {
                if !kept_k.contains(&p) {
                    *v = 0.0;
                }
            }
        }
        let mut w_masked = w.clone();
        for p in 0..w.rows() {
            if !kept_k.contains(&p) {
                w_masked.row_mut(p).fill(0.0);
            }
        }
        let mut dw_ref = naive_gemm(&x_masked.transpose(), &g).unwrap();
        dw_ref.map_inplace(|v| v * scale);
        let mut dx_ref = naive_gemm(&g, &w_masked.transpose()).unwrap();
        dx_ref.map_inplace(|v| v * scale);

        let mut scratch = GatherScratch::default();
        let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        scratch.resolve_k(&kept_k);
        gather_backward_into(&x, &g, &w, scale, &mut scratch, &mut dw, Some(&mut dx)).unwrap();
        assert_eq!(dw.shape(), (13, 10));
        assert_eq!(dx.shape(), (8, 13));
        assert!(crate::approx_eq_slice(
            dw.as_slice(),
            dw_ref.as_slice(),
            1e-3
        ));
        assert!(crate::approx_eq_slice(
            dx.as_slice(),
            dx_ref.as_slice(),
            1e-3
        ));
        // Dropped weight rows and input-gradient columns are exactly zero.
        assert_eq!(dw.row(2).iter().map(|v| v.abs()).sum::<f32>(), 0.0);
        assert_eq!((0..8).map(|i| dx[(i, 2)].abs()).sum::<f32>(), 0.0);
    }

    #[test]
    fn gather_nk_backward_matches_masked_dense_references() {
        let mut rng = StdRng::seed_from_u64(103);
        let x = random_matrix(&mut rng, 7, 12); // (batch, in)
        let g = random_matrix(&mut rng, 7, 9); // (batch, out)
        let w = random_matrix(&mut rng, 12, 9); // (in, out)
        let kept_k = vec![1, 3, 6, 8, 11];
        let kept_cols = vec![0, 2, 5, 7];
        let scale = 2.4f32;
        // Reference: zero dropped inner columns of X, dropped output columns
        // of G and both dropped grids of W, then run the dense backward.
        let mut x_masked = x.clone();
        for i in 0..x.rows() {
            for (p, v) in x_masked.row_mut(i).iter_mut().enumerate() {
                if !kept_k.contains(&p) {
                    *v = 0.0;
                }
            }
        }
        let mut g_masked = g.clone();
        for i in 0..g.rows() {
            for (j, v) in g_masked.row_mut(i).iter_mut().enumerate() {
                if !kept_cols.contains(&j) {
                    *v = 0.0;
                }
            }
        }
        let mut w_masked = w.clone();
        for p in 0..w.rows() {
            for (j, v) in w_masked.row_mut(p).iter_mut().enumerate() {
                if !kept_k.contains(&p) || !kept_cols.contains(&j) {
                    *v = 0.0;
                }
            }
        }
        let mut dw_ref = naive_gemm(&x_masked.transpose(), &g_masked).unwrap();
        dw_ref.map_inplace(|v| v * scale);
        let mut dx_ref = naive_gemm(&g_masked, &w_masked.transpose()).unwrap();
        dx_ref.map_inplace(|v| v * scale);

        let mut scratch = GatherScratch::default();
        let (mut dw, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        scratch.resolve_nk(&kept_k, &kept_cols);
        gather_backward_into(&x, &g, &w, scale, &mut scratch, &mut dw, Some(&mut dx)).unwrap();
        assert!(crate::approx_eq_slice(
            dw.as_slice(),
            dw_ref.as_slice(),
            1e-3
        ));
        assert!(crate::approx_eq_slice(
            dx.as_slice(),
            dx_ref.as_slice(),
            1e-3
        ));
        // A dropped (row, col) grid entry of dW stays exactly zero.
        assert_eq!(dw[(0, 0)], 0.0); // row 0 not kept
        assert_eq!(dw[(1, 1)], 0.0); // col 1 not kept
    }

    #[test]
    fn gather_k_scratch_is_recycled() {
        let mut rng = StdRng::seed_from_u64(105);
        let a = random_matrix(&mut rng, 6, 16);
        let w = random_matrix(&mut rng, 16, 8);
        let mut scratch = GatherScratch::default();
        let mut out = Matrix::zeros(0, 0);
        scratch.resolve_k(&[0, 2, 4, 6, 8, 10]);
        gather_gemm_into(&a, &w, &mut scratch, &mut out).unwrap();
        let a_ptr = scratch.a_kept.as_slice().as_ptr();
        let w_ptr = scratch.panel.as_slice().as_ptr();
        let out_ptr = out.as_slice().as_ptr();
        // Second call with the same kept-count: every buffer is reused.
        scratch.resolve_k(&[1, 3, 5, 7, 9, 11]);
        gather_gemm_into(&a, &w, &mut scratch, &mut out).unwrap();
        assert_eq!(a_ptr, scratch.a_kept.as_slice().as_ptr());
        assert_eq!(w_ptr, scratch.panel.as_slice().as_ptr());
        assert_eq!(out_ptr, out.as_slice().as_ptr());
    }

    #[test]
    fn gather_k_with_no_indices_is_zero() {
        let a = Matrix::ones(3, 5);
        let w = Matrix::ones(5, 4);
        let c = k_gather(&a, &w, &[]).unwrap();
        assert_eq!(c.shape(), (3, 4));
        assert_eq!(c.sum(), 0.0);
    }

    #[test]
    fn gather_k_rejects_out_of_bounds_inner_index() {
        let a = Matrix::zeros(2, 3);
        let w = Matrix::zeros(3, 4);
        let g = Matrix::zeros(2, 4);
        let mut scratch = GatherScratch::default();
        let mut out = Matrix::zeros(0, 0);
        let mut dx = Matrix::zeros(0, 0);
        assert!(k_gather(&a, &w, &[3]).is_err());
        scratch.resolve_k(&[3]);
        assert!(
            gather_backward_into(&a, &g, &w, 1.0, &mut scratch, &mut out, Some(&mut dx)).is_err()
        );
        scratch.resolve_nk(&[3], &[0]);
        assert!(gather_gemm_into(&a, &w, &mut scratch, &mut out).is_err());
        scratch.resolve_nk(&[0], &[4]);
        assert!(gather_gemm_into(&a, &w, &mut scratch, &mut out).is_err());
    }
}
