//! Regular dropout patterns: Row-based (RDP) and Tile-based (TDP).
//!
//! A *dropout pattern* (paper §III) is the combination of units dropped in a
//! single training iteration. Both pattern families are parameterised by a
//! period `dp` and a bias `b ∈ {0, …, dp−1}`: one unit out of every `dp`
//! consecutive units is kept (the one whose index is congruent to `b` modulo
//! `dp`) and the other `dp − 1` are dropped, so the pattern's global dropout
//! rate is `(dp − 1) / dp`.
//!
//! For RDP a "unit" is one output neuron — equivalently one row of the
//! (transposed) weight matrix of the next layer. For TDP a "unit" is one
//! `tile × tile` sub-matrix of the weight matrix.
//!
//! Note on the paper's Eq. (1): the text says rows satisfying
//! `(i − b) mod dp = 0` are *dropped*, but the worked example ("when dp = 3,
//! b = 1 … drop two rows in every successive three rows") and Fig. 3(a) make
//! clear the intent is that those rows are *kept* and the remaining
//! `(dp−1)/dp` are dropped. We implement the keep-one-in-`dp` semantics the
//! figures and all reported dropout rates require.

use crate::error::DropoutError;
use tensor::Matrix;

/// Which family of regular pattern is being used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Row-based Dropout Pattern — drop whole neurons (rows of `Wᵀ`).
    Row,
    /// Tile-based Dropout Pattern — drop `tile × tile` blocks of synapses.
    Tile,
}

impl std::fmt::Display for PatternKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternKind::Row => write!(f, "ROW"),
            PatternKind::Tile => write!(f, "TILE"),
        }
    }
}

/// Common interface shared by [`RowPattern`] and [`TilePattern`].
pub trait DropoutPattern {
    /// The pattern period `dp` (one unit kept in every `dp`).
    fn dp(&self) -> usize;

    /// The bias `b ∈ {0, …, dp−1}` selecting which residue class is kept.
    fn bias(&self) -> usize;

    /// The fraction of units dropped by this pattern, `(dp − 1) / dp`.
    fn global_dropout_rate(&self) -> f64 {
        (self.dp() - 1) as f64 / self.dp() as f64
    }

    /// Which family this pattern belongs to.
    fn kind(&self) -> PatternKind;
}

/// Row-based Dropout Pattern (RDP).
///
/// Keeps output neurons whose index `i` satisfies `(i − b) mod dp == 0` and
/// drops the rest, so exactly `⌈(n − b)/dp⌉` of `n` neurons survive.
///
/// # Example
///
/// ```
/// use approx_dropout::{DropoutPattern, RowPattern};
///
/// # fn main() -> Result<(), approx_dropout::DropoutError> {
/// let p = RowPattern::new(3, 1)?;
/// assert_eq!(p.kept_rows(7), vec![1, 4]);
/// assert!((p.global_dropout_rate() - 2.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowPattern {
    dp: usize,
    bias: usize,
}

impl RowPattern {
    /// Creates a row pattern with period `dp` and bias `bias`.
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::InvalidPattern`] if `dp == 0` or `bias >= dp`.
    pub fn new(dp: usize, bias: usize) -> Result<Self, DropoutError> {
        if dp == 0 {
            return Err(DropoutError::InvalidPattern("dp must be at least 1".into()));
        }
        if bias >= dp {
            return Err(DropoutError::InvalidPattern(format!(
                "bias {bias} must be smaller than dp {dp}"
            )));
        }
        Ok(Self { dp, bias })
    }

    /// The identity pattern (`dp = 1`): nothing is dropped.
    pub fn identity() -> Self {
        Self { dp: 1, bias: 0 }
    }

    /// Returns `true` when neuron `i` is kept by this pattern.
    pub fn is_kept(&self, i: usize) -> bool {
        i % self.dp == self.bias
    }

    /// Indices of the kept neurons among `n` neurons, in ascending order.
    pub fn kept_rows(&self, n: usize) -> Vec<usize> {
        (self.bias..n).step_by(self.dp).collect()
    }

    /// Indices of the dropped neurons among `n` neurons, in ascending order.
    pub fn dropped_rows(&self, n: usize) -> Vec<usize> {
        (0..n).filter(|&i| !self.is_kept(i)).collect()
    }

    /// 0/1 mask over `n` output neurons (1 = kept).
    pub fn neuron_mask(&self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| if self.is_kept(i) { 1.0 } else { 0.0 })
            .collect()
    }

    /// Mask matrix of shape `(batch, n)` replicating [`Self::neuron_mask`] on
    /// every row — the shape conventional dropout would use for the
    /// elementwise multiply in Fig. 1(a).
    pub fn mask_matrix(&self, batch: usize, n: usize) -> Matrix {
        let mask = self.neuron_mask(n);
        Matrix::from_fn(batch, n, |_, j| mask[j])
    }

    /// Largest useful period for a layer with `n` output neurons.
    ///
    /// Larger periods would keep at most one neuron, which is what `dp = n`
    /// already achieves.
    pub fn max_dp(n: usize) -> usize {
        n.max(1)
    }

    /// Number of distinct sub-models available with periods up to `max_dp`
    /// (one per `(dp, bias)` combination): `Σ_{dp=1}^{max_dp} dp`.
    ///
    /// The paper prints this as `(M + 1)/2`; the summation it describes is
    /// `M (M + 1) / 2`, which is what we return.
    pub fn sub_model_count(max_dp: usize) -> usize {
        max_dp * (max_dp + 1) / 2
    }
}

impl DropoutPattern for RowPattern {
    fn dp(&self) -> usize {
        self.dp
    }

    fn bias(&self) -> usize {
        self.bias
    }

    fn kind(&self) -> PatternKind {
        PatternKind::Row
    }
}

/// The tile grid induced by a weight matrix shape and a tile size.
///
/// Tiles are numbered row-major: tile `t` covers weight rows
/// `[⌊t / tiles_per_row⌋ · tile, …)` and columns
/// `[(t mod tiles_per_row) · tile, …)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileGrid {
    weight_rows: usize,
    weight_cols: usize,
    tile: usize,
}

impl TileGrid {
    /// Creates a grid for a `weight_rows × weight_cols` weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::InvalidPattern`] if `tile == 0`.
    pub fn new(weight_rows: usize, weight_cols: usize, tile: usize) -> Result<Self, DropoutError> {
        if tile == 0 {
            return Err(DropoutError::InvalidPattern(
                "tile size must be at least 1".into(),
            ));
        }
        Ok(Self {
            weight_rows,
            weight_cols,
            tile,
        })
    }

    /// Tile edge length.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Number of tiles along the weight-matrix column direction.
    pub fn tiles_per_row(&self) -> usize {
        self.weight_cols.div_ceil(self.tile)
    }

    /// Number of tiles along the weight-matrix row direction.
    pub fn tiles_per_col(&self) -> usize {
        self.weight_rows.div_ceil(self.tile)
    }

    /// Total number of tiles in the grid.
    pub fn total_tiles(&self) -> usize {
        self.tiles_per_row() * self.tiles_per_col()
    }

    /// Shape of the underlying weight matrix.
    pub fn weight_shape(&self) -> (usize, usize) {
        (self.weight_rows, self.weight_cols)
    }

    /// Half-open `(row_range, col_range)` covered by tile `t`, clipped to the
    /// weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `t >= total_tiles()`.
    pub fn tile_bounds(&self, t: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        assert!(t < self.total_tiles(), "tile index {t} out of bounds");
        let tr = t / self.tiles_per_row();
        let tc = t % self.tiles_per_row();
        let r0 = tr * self.tile;
        let c0 = tc * self.tile;
        (
            r0..(r0 + self.tile).min(self.weight_rows),
            c0..(c0 + self.tile).min(self.weight_cols),
        )
    }
}

/// Tile-based Dropout Pattern (TDP).
///
/// Keeps tiles whose linear index `t` satisfies `(t − b) mod dp == 0` and
/// drops the other `dp − 1` in every `dp` consecutive tiles, which drops the
/// same fraction of synaptic connections.
///
/// # Example
///
/// ```
/// use approx_dropout::{DropoutPattern, TileGrid, TilePattern};
///
/// # fn main() -> Result<(), approx_dropout::DropoutError> {
/// let grid = TileGrid::new(64, 64, 32)?; // 2x2 tiles
/// let p = TilePattern::new(4, 1, 32)?;
/// assert_eq!(p.kept_tiles(&grid), vec![1]);
/// assert!((p.global_dropout_rate() - 0.75).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TilePattern {
    dp: usize,
    bias: usize,
    tile: usize,
}

impl TilePattern {
    /// Creates a tile pattern with period `dp`, bias `bias` and square tile
    /// edge `tile`.
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::InvalidPattern`] if `dp == 0`, `bias >= dp` or
    /// `tile == 0`.
    pub fn new(dp: usize, bias: usize, tile: usize) -> Result<Self, DropoutError> {
        if dp == 0 {
            return Err(DropoutError::InvalidPattern("dp must be at least 1".into()));
        }
        if bias >= dp {
            return Err(DropoutError::InvalidPattern(format!(
                "bias {bias} must be smaller than dp {dp}"
            )));
        }
        if tile == 0 {
            return Err(DropoutError::InvalidPattern(
                "tile size must be at least 1".into(),
            ));
        }
        Ok(Self { dp, bias, tile })
    }

    /// The identity pattern (`dp = 1`): nothing is dropped.
    pub fn identity(tile: usize) -> Self {
        Self {
            dp: 1,
            bias: 0,
            tile,
        }
    }

    /// Tile edge length.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Returns `true` when tile `t` is kept by this pattern.
    pub fn is_kept(&self, t: usize) -> bool {
        t % self.dp == self.bias
    }

    /// Indices of kept tiles within `grid`, in ascending order.
    pub fn kept_tiles(&self, grid: &TileGrid) -> Vec<usize> {
        (self.bias..grid.total_tiles()).step_by(self.dp).collect()
    }

    /// Indices of dropped tiles within `grid`, in ascending order.
    pub fn dropped_tiles(&self, grid: &TileGrid) -> Vec<usize> {
        (0..grid.total_tiles())
            .filter(|&t| !self.is_kept(t))
            .collect()
    }

    /// 0/1 mask of the full weight matrix (1 = synapse kept).
    pub fn weight_mask(&self, grid: &TileGrid) -> Matrix {
        let (rows, cols) = grid.weight_shape();
        let mut mask = Matrix::zeros(rows, cols);
        for t in self.kept_tiles(grid) {
            let (rr, cc) = grid.tile_bounds(t);
            for r in rr.clone() {
                for c in cc.clone() {
                    mask[(r, c)] = 1.0;
                }
            }
        }
        mask
    }

    /// Largest useful period for a given grid: the total number of tiles.
    pub fn max_dp(grid: &TileGrid) -> usize {
        grid.total_tiles().max(1)
    }

    /// Number of distinct sub-models with periods up to `max_dp`
    /// (`Σ_{dp=1}^{max_dp} dp`); see the note on [`RowPattern::sub_model_count`].
    pub fn sub_model_count(max_dp: usize) -> usize {
        max_dp * (max_dp + 1) / 2
    }
}

impl DropoutPattern for TilePattern {
    fn dp(&self) -> usize {
        self.dp
    }

    fn bias(&self) -> usize {
        self.bias
    }

    fn kind(&self) -> PatternKind {
        PatternKind::Tile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DropoutPlan, KernelSchedule, LayerShape};

    #[test]
    fn row_pattern_rejects_bad_parameters() {
        assert!(RowPattern::new(0, 0).is_err());
        assert!(RowPattern::new(3, 3).is_err());
        assert!(RowPattern::new(3, 4).is_err());
        assert!(RowPattern::new(3, 2).is_ok());
    }

    #[test]
    fn row_pattern_keeps_one_in_dp() {
        let p = RowPattern::new(4, 2).unwrap();
        let kept = p.kept_rows(10);
        assert_eq!(kept, vec![2, 6]);
        let dropped = p.dropped_rows(10);
        assert_eq!(dropped.len(), 8);
        for i in 0..10 {
            assert_eq!(p.is_kept(i), kept.contains(&i));
        }
    }

    #[test]
    fn row_identity_keeps_everything() {
        let p = RowPattern::identity();
        assert_eq!(p.kept_rows(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(p.global_dropout_rate(), 0.0);
    }

    #[test]
    fn row_pattern_matches_paper_example() {
        // Paper Fig. 3(a): dp = 3 — "drop 2 rows every 3 rows", keeping rows
        // 0, 3, 6, … when the bias selects residue 0.
        let p = RowPattern::new(3, 0).unwrap();
        assert_eq!(p.kept_rows(9), vec![0, 3, 6]);
        assert!((p.global_dropout_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_mask_matrix_replicates_rows() {
        let p = RowPattern::new(2, 1).unwrap();
        let m = p.mask_matrix(3, 4);
        assert_eq!(m.shape(), (3, 4));
        for i in 0..3 {
            assert_eq!(m.row(i), &[0.0, 1.0, 0.0, 1.0]);
        }
    }

    #[test]
    fn row_sub_model_count_is_triangular() {
        assert_eq!(RowPattern::sub_model_count(1), 1);
        assert_eq!(RowPattern::sub_model_count(4), 10);
        assert_eq!(RowPattern::max_dp(2048), 2048);
    }

    #[test]
    fn tile_grid_counts_tiles_with_ragged_edges() {
        let grid = TileGrid::new(100, 70, 32).unwrap();
        assert_eq!(grid.tiles_per_col(), 4);
        assert_eq!(grid.tiles_per_row(), 3);
        assert_eq!(grid.total_tiles(), 12);
        let (rr, cc) = grid.tile_bounds(11);
        assert_eq!(rr, 96..100);
        assert_eq!(cc, 64..70);
    }

    #[test]
    fn tile_grid_rejects_zero_tile() {
        assert!(TileGrid::new(10, 10, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn tile_bounds_panics_out_of_range() {
        let grid = TileGrid::new(32, 32, 32).unwrap();
        let _ = grid.tile_bounds(1);
    }

    #[test]
    fn tile_pattern_matches_paper_example() {
        // Paper Fig. 3(b): dp = 4, "drop 3 tiles every 4 tiles".
        let grid = TileGrid::new(96, 96, 32).unwrap(); // 3x3 = 9 tiles
        let p = TilePattern::new(4, 0, 32).unwrap();
        assert_eq!(p.kept_tiles(&grid), vec![0, 4, 8]);
        assert_eq!(p.dropped_tiles(&grid).len(), 6);
        assert!((p.global_dropout_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tile_pattern_rejects_bad_parameters() {
        assert!(TilePattern::new(0, 0, 32).is_err());
        assert!(TilePattern::new(2, 2, 32).is_err());
        assert!(TilePattern::new(2, 0, 0).is_err());
    }

    #[test]
    fn tile_weight_mask_covers_only_kept_tiles() {
        let grid = TileGrid::new(4, 4, 2).unwrap(); // 2x2 tiles
        let p = TilePattern::new(2, 1, 2).unwrap(); // keeps tiles 1 and 3
        let mask = p.weight_mask(&grid);
        // Tile 1 covers rows 0..2, cols 2..4; tile 3 covers rows 2..4, cols 2..4.
        assert_eq!(mask[(0, 0)], 0.0);
        assert_eq!(mask[(0, 3)], 1.0);
        assert_eq!(mask[(3, 3)], 1.0);
        assert_eq!(mask[(3, 0)], 0.0);
        assert!((mask.zero_fraction() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn tile_max_dp_is_total_tiles() {
        let grid = TileGrid::new(2048, 2048, 32).unwrap();
        assert_eq!(TilePattern::max_dp(&grid), 64 * 64);
        // TDP offers far more sub-models than RDP for the same layer, which
        // is the paper's argument for its better accuracy.
        assert!(
            TilePattern::sub_model_count(TilePattern::max_dp(&grid))
                > RowPattern::sub_model_count(RowPattern::max_dp(2048))
        );
    }

    #[test]
    fn sampled_row_pattern_reports_realized_fraction() {
        let p = RowPattern::new(2, 0).unwrap();
        let plan = DropoutPlan::row(LayerShape::vector(10), p);
        assert_eq!(plan.compact_rows().unwrap(), &[0, 2, 4, 6, 8]);
        assert!((plan.realized_drop_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(plan.scale(), 2.0);
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::RowCompact { kept: 5, total: 10 }
        );
        assert!((plan.nominal_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampled_tile_pattern_resolves_against_grid() {
        let grid = TileGrid::new(64, 64, 32).unwrap();
        let p = TilePattern::new(2, 0, 32).unwrap();
        let plan = DropoutPlan::tile(LayerShape::new(64, 64), p, grid);
        let (kept, plan_grid) = plan.kept_tiles().unwrap();
        assert_eq!(plan_grid.total_tiles(), 4);
        assert_eq!(kept, &[0, 2]);
        assert_eq!(plan_grid.tile(), 32);
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::TileCompact { kept: 2, total: 4 }
        );
    }

    #[test]
    fn pattern_kind_display() {
        assert_eq!(PatternKind::Row.to_string(), "ROW");
        assert_eq!(PatternKind::Tile.to_string(), "TILE");
    }

    #[test]
    fn empty_layer_has_zero_realized_fraction() {
        let p = RowPattern::new(3, 0).unwrap();
        let plan = DropoutPlan::row(LayerShape::vector(0), p);
        assert_eq!(plan.realized_drop_fraction(), 0.0);
    }
}
