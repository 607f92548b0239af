//! Column-row sampling (CRS) of the GEMM inner dimension — the second
//! approximation axis, orthogonal to every dropout family.
//!
//! Adelman & Silberstein (arXiv:1805.08079) observe that the *GEMM itself*
//! can be approximated: writing `A·W = Σ_p A[:,p]·W[p,:]` as a sum of `K`
//! outer products, keeping only `k` of the terms and scaling the result by
//! `K/k` yields an unbiased estimator of the dense product at `k/K` of the
//! multiply-accumulate work. Unlike the paper's dropout patterns this
//! compacts the **inner** dimension, so it composes with any output-neuron
//! dropout plan: a row-compacted GEMM can additionally sample its inner
//! dimension and the speedups multiply (the composed
//! [`crate::KernelSchedule::RowCrsCompact`] launch).
//!
//! [`CrsSampling`] draws the kept inner indices **uniformly** without
//! replacement. The CRS paper's norm-proportional criterion needs the
//! operand norms of the very iteration being planned, which the
//! plan-before-execute API deliberately never sees — uniform sampling keeps
//! the scheme weight-agnostic, keeps `K/k` the exact unbiasedness factor,
//! and keeps planning as cheap as the dropout schemes it rides along with.

use crate::error::DropoutError;
use crate::plan::{DropoutPlan, LayerShape};
use crate::scheme::DropoutScheme;
use rand::{Rng, RngCore};

/// CRS sampling of the GEMM inner dimension as a [`DropoutScheme`]: each
/// iteration keeps `round(keep · K)` (clamped to `1..=K`) uniformly chosen
/// inner indices of the layer's `K = in_features` dimension and records the
/// `K/k` unbiasedness scale in the plan.
///
/// Optionally wraps an inner dropout scheme ([`CrsSampling::composed`]);
/// the inner scheme plans first and the CRS selection is attached on top,
/// upgrading a dense plan to [`crate::KernelSchedule::CrsCompact`] and a
/// row-compacted plan to the composed
/// [`crate::KernelSchedule::RowCrsCompact`] launch.
#[derive(Debug, Clone)]
pub struct CrsSampling {
    /// Fraction of the inner dimension kept, in `(0, 1]`.
    keep: f64,
    /// Optional composed dropout scheme (identity or row family) that plans
    /// the output dimension before the CRS selection is attached.
    inner: Option<Box<dyn DropoutScheme>>,
    /// Fisher–Yates scratch (inner-index permutation), recycled across
    /// iterations so planning stays allocation-free once warmed.
    scratch: Vec<usize>,
}

impl CrsSampling {
    /// Creates a pure CRS scheme keeping the given fraction of the inner
    /// dimension.
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::InvalidPattern`] unless `0 < keep <= 1`.
    pub fn new(keep: f64) -> Result<Self, DropoutError> {
        if !(keep > 0.0 && keep <= 1.0) {
            return Err(DropoutError::InvalidPattern(format!(
                "CRS keep fraction must be in (0, 1], got {keep}"
            )));
        }
        Ok(Self {
            keep,
            inner: None,
            scratch: Vec::new(),
        })
    }

    /// Creates a composed scheme: `inner` plans the output dimension (its
    /// dropout decision is untouched), then the CRS selection samples the
    /// inner dimension of the same kernel call.
    ///
    /// The inner scheme must resolve to a dense or row-compacted plan —
    /// CRS does not compose with the mask, tile, N:M or block families
    /// (attaching to one of those panics at plan time).
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::InvalidPattern`] unless `0 < keep <= 1`.
    pub fn composed(keep: f64, inner: Box<dyn DropoutScheme>) -> Result<Self, DropoutError> {
        let mut scheme = Self::new(keep)?;
        scheme.inner = Some(inner);
        Ok(scheme)
    }

    /// How many inner indices the scheme keeps for an inner dimension of
    /// `total_k`: `round(keep · K)` clamped to `1..=K` (0 only when the
    /// dimension itself is empty).
    pub fn kept_count(&self, total_k: usize) -> usize {
        if total_k == 0 {
            return 0;
        }
        ((total_k as f64 * self.keep).round() as usize).clamp(1, total_k)
    }

    /// Samples the kept inner indices for an inner dimension of `total_k`
    /// into `kept` (cleared by the caller, ascending): a partial
    /// Fisher–Yates shuffle draws `kept_count(total_k)` distinct indices.
    fn sample_kept(&mut self, rng: &mut dyn RngCore, total_k: usize, kept: &mut Vec<usize>) {
        let take = self.kept_count(total_k);
        self.scratch.clear();
        self.scratch.extend(0..total_k);
        for i in 0..take {
            let j = rng.gen_range(i..total_k);
            self.scratch.swap(i, j);
        }
        let chosen = &mut self.scratch[..take];
        chosen.sort_unstable();
        kept.extend_from_slice(chosen);
    }
}

impl DropoutScheme for CrsSampling {
    fn plan_into(&mut self, rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan) {
        let total_k = shape.in_features;
        let composed = self.inner.is_some();
        if let Some(inner) = self.inner.as_mut() {
            inner.plan_into(rng, shape, out);
        }
        if composed {
            out.attach_crs_with(total_k, |kept| self.sample_kept(rng, total_k, kept));
        } else {
            out.reset_crs_with(shape, total_k, |kept| self.sample_kept(rng, total_k, kept));
        }
    }

    fn nominal_rate(&self) -> f64 {
        // CRS itself drops no neurons; the composed scheme reports the
        // inner dropout rate, the pure scheme the fraction of inner
        // products skipped.
        match &self.inner {
            Some(inner) => inner.nominal_rate(),
            None => 1.0 - self.keep,
        }
    }

    fn label(&self) -> &'static str {
        match &self.inner {
            Some(_) => "row-crs",
            None => "crs",
        }
    }

    fn clone_box(&self) -> Box<dyn DropoutScheme> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_cache::{PlanCache, PlanKey};
    use crate::{scheme, DropoutRate, KernelSchedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn crs_rejects_bad_keep_fractions() {
        assert!(CrsSampling::new(0.0).is_err());
        assert!(CrsSampling::new(-0.5).is_err());
        assert!(CrsSampling::new(1.5).is_err());
        assert!(CrsSampling::new(f64::NAN).is_err());
        assert!(CrsSampling::new(0.5).is_ok());
        assert!(CrsSampling::new(1.0).is_ok());
    }

    #[test]
    fn kept_count_rounds_and_clamps() {
        let scheme = CrsSampling::new(0.5).unwrap();
        assert_eq!(scheme.kept_count(8), 4);
        assert_eq!(scheme.kept_count(1), 1);
        assert_eq!(scheme.kept_count(0), 0);
        let tiny = CrsSampling::new(0.01).unwrap();
        // Never keeps zero indices of a non-empty dimension.
        assert_eq!(tiny.kept_count(8), 1);
        let full = CrsSampling::new(1.0).unwrap();
        assert_eq!(full.kept_count(7), 7);
    }

    #[test]
    fn crs_plan_keeps_k_ascending_distinct_indices() {
        let mut scheme = CrsSampling::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let plan = scheme.plan(&mut rng, LayerShape::new(24, 16));
            let selection = plan.crs_selection().unwrap();
            assert_eq!(selection.kept_indices().len(), 12);
            assert_eq!(selection.total(), 24);
            assert!(selection.kept_indices().windows(2).all(|w| w[0] < w[1]));
            assert!(selection.kept_indices().iter().all(|&p| p < 24));
            assert_eq!(plan.crs_scale(), 2.0);
            assert_eq!(
                plan.kernel_schedule(),
                KernelSchedule::CrsCompact {
                    kept_k: 12,
                    total_k: 24
                }
            );
        }
    }

    #[test]
    fn crs_selection_varies_across_iterations() {
        let mut scheme = CrsSampling::new(0.25).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..40 {
            let plan = scheme.plan(&mut rng, LayerShape::new(32, 8));
            seen.insert(plan.crs_selection().unwrap().kept_indices().to_vec());
        }
        assert!(seen.len() > 5, "only {} distinct selections", seen.len());
    }

    #[test]
    fn plan_into_equals_plan_draw_for_draw() {
        let mut a = CrsSampling::new(0.5).unwrap();
        let mut b = a.clone();
        let shape = LayerShape::new(40, 24);
        // A dirty buffer of another family and shape must reset cleanly.
        let mut recycled = DropoutPlan::block_unit(LayerShape::vector(12), 4, vec![1, 2], 2.0, 0.5);
        for step in 0..10 {
            let fresh = a.plan(&mut StdRng::seed_from_u64(step), shape);
            b.plan_into(&mut StdRng::seed_from_u64(step), shape, &mut recycled);
            assert_eq!(fresh, recycled, "step {step}");
        }
    }

    #[test]
    fn plan_into_recycles_the_kept_index_buffer() {
        let mut scheme = CrsSampling::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let shape = LayerShape::new(32, 16);
        let mut plan = DropoutPlan::default();
        scheme.plan_into(&mut rng, shape, &mut plan);
        let ptr = plan.crs_selection().unwrap().kept_indices().as_ptr();
        for _ in 0..8 {
            scheme.plan_into(&mut rng, shape, &mut plan);
            assert_eq!(
                ptr,
                plan.crs_selection().unwrap().kept_indices().as_ptr(),
                "plan_into must reuse the kept-index buffer"
            );
        }
    }

    #[test]
    fn composed_scheme_attaches_crs_to_the_row_plan() {
        let row = scheme::row(DropoutRate::new(0.5).unwrap(), 8).unwrap();
        let mut composed = CrsSampling::composed(0.5, row).unwrap();
        assert_eq!(composed.label(), "row-crs");
        assert!((composed.nominal_rate() - 0.5).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(3);
        let plan = composed.plan(&mut rng, LayerShape::new(20, 32));
        // Both axes are present in one plan…
        let rows = plan.compact_rows().expect("row decision survives");
        let selection = plan.crs_selection().expect("CRS attached");
        assert_eq!(selection.total(), 20);
        assert_eq!(selection.kept_indices().len(), 10);
        // …and the schedule is the composed launch.
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::RowCrsCompact {
                kept_n: rows.len(),
                total_n: 32,
                kept_k: 10,
                total_k: 20,
            }
        );
    }

    #[test]
    fn composed_with_identity_inner_degenerates_to_pure_crs_schedule() {
        let mut composed = CrsSampling::composed(0.5, scheme::none()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let plan = composed.plan(&mut rng, LayerShape::new(16, 8));
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::CrsCompact {
                kept_k: 8,
                total_k: 16
            }
        );
        assert_eq!(composed.nominal_rate(), 0.0);
    }

    #[test]
    fn same_seed_same_shape_yields_the_same_kept_set_through_the_cache() {
        // The PlanCache determinism contract extended to CRS: a miss
        // (sample now) and a hit (reuse) of the same key produce bitwise
        // identical plans, and re-sampling fresh from the key's seed
        // reproduces the same kept set.
        let cache = PlanCache::new(2);
        let mut scheme = CrsSampling::new(0.5).unwrap();
        let key = PlanKey::new(11, LayerShape::new(48, 24), 3);
        let mut warm = DropoutPlan::default();
        cache.fetch(key, &mut warm, |d| {
            let mut rng = StdRng::seed_from_u64(key.seed());
            scheme.plan_into(&mut rng, key.shape, d);
        });
        let mut via_cache = DropoutPlan::default();
        assert!(cache.fetch(key, &mut via_cache, |_| panic!("must hit")));
        let mut fresh = DropoutPlan::default();
        let mut rng = StdRng::seed_from_u64(key.seed());
        scheme.clone().plan_into(&mut rng, key.shape, &mut fresh);
        assert_eq!(via_cache, fresh);
        assert_eq!(
            via_cache.crs_selection().unwrap().kept_indices(),
            fresh.crs_selection().unwrap().kept_indices()
        );
    }
}
