//! Conventional (baseline) random dropout.
//!
//! This is the method of Srivastava et al. that the paper accelerates: every
//! neuron is dropped independently with probability `p`, the resulting 0/1
//! mask is multiplied into the layer output, and — crucially — none of the
//! dropped computation is skipped, because the GEMM has already run by the
//! time the mask is applied.
//!
//! * [`Bernoulli`] — the baseline: one draw per output neuron, shared by the
//!   whole batch, applied by mask kernels after a dense GEMM (paper
//!   Fig. 1(a)).
//! * [`DivergentBernoulli`] — the same numerics scheduled as the naive
//!   in-kernel `if (kept)` skip (paper Fig. 1(b)); exists so the timing
//!   model can price the paper's motivating anti-pattern.

use crate::plan::{DropoutPlan, LayerShape};
use crate::rate::DropoutRate;
use crate::scheme::DropoutScheme;
use rand::{Rng, RngCore};

/// Pushes one 0/1 entry (1 = kept) per output neuron onto `mask`: one
/// `gen::<f64>() < p` draw each, in neuron order.
fn fill_neuron_mask(rate: DropoutRate, rng: &mut dyn RngCore, n: usize, mask: &mut Vec<f32>) {
    let p = rate.value();
    mask.extend((0..n).map(|_| if rng.gen::<f64>() < p { 0.0 } else { 1.0 }));
}

/// Conventional Bernoulli dropout (the paper's baseline): one independent
/// draw per output neuron, applied as a mask after a dense GEMM.
///
/// # Example
///
/// ```
/// use approx_dropout::{Bernoulli, DropoutRate, DropoutScheme, LayerShape};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), approx_dropout::DropoutError> {
/// let mut dropout = Bernoulli::new(DropoutRate::new(0.5)?);
/// let mut rng = StdRng::seed_from_u64(1);
/// let plan = dropout.plan(&mut rng, LayerShape::new(4, 8));
/// assert_eq!(plan.bernoulli_mask().map(<[f32]>::len), Some(8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    rate: DropoutRate,
}

impl Bernoulli {
    /// Creates the baseline scheme at the given drop rate.
    pub fn new(rate: DropoutRate) -> Self {
        Self { rate }
    }

    /// The configured rate.
    pub fn rate(&self) -> DropoutRate {
        self.rate
    }
}

impl DropoutScheme for Bernoulli {
    fn plan_into(&mut self, rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan) {
        let rate = self.rate;
        out.reset_bernoulli_with(shape, rate.inverted_scale() as f32, rate.value(), |mask| {
            fill_neuron_mask(rate, rng, shape.out_features, mask)
        });
    }

    fn nominal_rate(&self) -> f64 {
        self.rate.value()
    }

    fn label(&self) -> &'static str {
        "bernoulli"
    }

    fn clone_box(&self) -> Box<dyn DropoutScheme> {
        Box::new(*self)
    }
}

/// Bernoulli dropout executed as the naive in-kernel `if (kept)` skip of
/// Fig. 1(b). Numerically identical to [`Bernoulli`]; only the
/// [`crate::KernelSchedule`] differs — which is exactly the point of the
/// plan–execute split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivergentBernoulli {
    rate: DropoutRate,
}

impl DivergentBernoulli {
    /// Creates the divergent-execution baseline at the given drop rate.
    pub fn new(rate: DropoutRate) -> Self {
        Self { rate }
    }
}

impl DropoutScheme for DivergentBernoulli {
    fn plan_into(&mut self, rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan) {
        let rate = self.rate;
        out.reset_divergent_with(shape, rate.inverted_scale() as f32, rate.value(), |mask| {
            fill_neuron_mask(rate, rng, shape.out_features, mask)
        });
    }

    fn nominal_rate(&self) -> f64 {
        self.rate.value()
    }

    fn label(&self) -> &'static str {
        "divergent"
    }

    fn clone_box(&self) -> Box<dyn DropoutScheme> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::Matrix;

    fn bernoulli_plan(rate: DropoutRate, seed: u64, shape: LayerShape) -> DropoutPlan {
        Bernoulli::new(rate).plan(&mut StdRng::seed_from_u64(seed), shape)
    }

    #[test]
    fn mask_is_binary() {
        let plan = bernoulli_plan(DropoutRate::new(0.5).unwrap(), 0, LayerShape::vector(100));
        let mask = plan.bernoulli_mask().unwrap();
        assert!(mask.iter().all(|&x| x == 0.0 || x == 1.0));
    }

    #[test]
    fn empirical_rate_tracks_target() {
        let plan = bernoulli_plan(
            DropoutRate::new(0.7).unwrap(),
            1,
            LayerShape::vector(40_000),
        );
        let dropped = plan.realized_drop_fraction();
        assert!((dropped - 0.7).abs() < 0.02, "dropped fraction {dropped}");
    }

    #[test]
    fn zero_rate_keeps_everything() {
        let plan = bernoulli_plan(DropoutRate::disabled(), 2, LayerShape::vector(256));
        assert_eq!(plan.realized_drop_fraction(), 0.0);
        assert_eq!(plan.column_multiplier(256), vec![1.0; 256]);
    }

    #[test]
    fn apply_rescales_kept_entries() {
        let plan = bernoulli_plan(DropoutRate::new(0.5).unwrap(), 3, LayerShape::vector(8));
        let mask = plan.bernoulli_mask().unwrap();
        let mut y = Matrix::ones(8, 8);
        plan.apply_mask(&mut y);
        for i in 0..8 {
            for (j, &m) in mask.iter().enumerate() {
                if m == 1.0 {
                    assert!((y[(i, j)] - 2.0).abs() < 1e-6);
                } else {
                    assert_eq!(y[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn neuron_mask_has_requested_length() {
        let plan = bernoulli_plan(DropoutRate::new(0.3).unwrap(), 4, LayerShape::new(16, 128));
        assert_eq!(plan.bernoulli_mask().unwrap().len(), 128);
    }

    #[test]
    fn expectation_is_preserved_by_inverted_scaling() {
        // E[dropout(x)] ≈ x thanks to the 1/(1-p) rescale.
        let mut scheme = Bernoulli::new(DropoutRate::new(0.5).unwrap());
        let mut rng = StdRng::seed_from_u64(5);
        let mut plan = DropoutPlan::default();
        let mut acc = 0.0;
        let trials = 20_000;
        for _ in 0..trials {
            scheme.plan_into(&mut rng, LayerShape::vector(1), &mut plan);
            let mut y = Matrix::filled(1, 1, 3.0);
            plan.apply_mask(&mut y);
            acc += y[(0, 0)] as f64;
        }
        let mean = acc / trials as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean was {mean}");
    }
}
