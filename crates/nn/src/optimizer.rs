//! SGD with momentum — the optimiser used by every experiment in the paper
//! (learning rate 0.01, momentum 0.9 for the MLPs; learning rate 1.0 with
//! decay for the LSTMs) — and the one parameter walk every model family
//! trains through: each trainable tensor is one `Param`, each family visits
//! its `Param`s through `Params::visit_params`, and gradient clipping
//! (`clip_gradients`) and the SGD step (`Sgd::step`) are one function each
//! over that walk.

use tensor::Matrix;

/// One trainable tensor: its value, the gradient of the last backward
/// pass and the momentum velocity, all three of one shape.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Param {
    pub(crate) value: Matrix,
    pub(crate) grad: Matrix,
    pub(crate) velocity: Matrix,
}

impl Param {
    /// A parameter holding `value`, with a zero gradient and velocity.
    pub(crate) fn new(value: Matrix) -> Self {
        let (rows, cols) = value.shape();
        Self {
            value,
            grad: Matrix::zeros(rows, cols),
            velocity: Matrix::zeros(rows, cols),
        }
    }
}

/// The parameter walk: a model calls `f` once on every trainable tensor it
/// owns, its sub-layers' included, and never twice on one. A walk
/// allocates nothing: it runs once per training step.
pub(crate) trait Params {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));
}

/// The largest `|g|` over every gradient of `model`: an `f32::max` fold
/// from 0, which skips NaN entries, so the order of the walk is moot.
pub(crate) fn largest_grad(model: &mut impl Params) -> f32 {
    let mut max_abs = 0.0f32;
    model.visit_params(&mut |p| {
        let grad = p.grad.as_slice();
        max_abs = grad.iter().fold(max_abs, |m, &v| m.max(v.abs()));
    });
    max_abs
}

/// Max-abs gradient clipping across a whole model: when the
/// [`largest_grad`] exceeds `grad_clip`, every gradient is multiplied by
/// `grad_clip / max`. A `grad_clip` of 0 turns clipping off.
pub(crate) fn clip_gradients(model: &mut impl Params, grad_clip: f32) {
    if grad_clip > 0.0 {
        let max_abs = largest_grad(model);
        if max_abs > grad_clip {
            let factor = grad_clip / max_abs;
            model.visit_params(&mut |p| p.grad.map_inplace(|v| v * factor));
        }
    }
}

/// Plain SGD with classical momentum.
///
/// The update is `v ← µ·v − lr·g`, `w ← w + v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient `µ` (0 disables momentum).
    pub momentum: f32,
}

impl Sgd {
    /// Creates an optimiser with the given learning rate and momentum.
    ///
    /// # Panics
    ///
    /// Panics if the learning rate is not positive or the momentum is
    /// outside `[0, 1)`.
    pub fn new(learning_rate: f32, momentum: f32) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            learning_rate,
            momentum,
        }
    }

    /// The paper's MLP setting: lr 0.01, momentum 0.9.
    pub fn paper_mlp() -> Self {
        Self::new(0.01, 0.9)
    }

    /// Returns a copy with a different learning rate (used for LSTM decay).
    pub fn with_learning_rate(mut self, learning_rate: f32) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        self.learning_rate = learning_rate;
        self
    }

    /// Applies one momentum-SGD update in place.
    ///
    /// # Panics
    ///
    /// Panics if the parameter, gradient and velocity shapes disagree.
    pub fn update(&self, param: &mut Matrix, grad: &Matrix, velocity: &mut Matrix) {
        assert_eq!(
            param.shape(),
            grad.shape(),
            "parameter/gradient shape mismatch"
        );
        assert_eq!(
            param.shape(),
            velocity.shape(),
            "parameter/velocity shape mismatch"
        );
        let lr = self.learning_rate;
        let mu = self.momentum;
        let p = param.as_mut_slice();
        let g = grad.as_slice();
        let v = velocity.as_mut_slice();
        for i in 0..p.len() {
            v[i] = mu * v[i] - lr * g[i];
            p[i] += v[i];
        }
    }

    /// Applies [`Sgd::update`] to every tensor of `model`'s walk with its
    /// stored gradient.
    pub(crate) fn step(&self, model: &mut impl Params) {
        model.visit_params(&mut |p| self.update(&mut p.value, &p.grad, &mut p.velocity));
    }
}

impl Default for Sgd {
    fn default() -> Self {
        Self::paper_mlp()
    }
}

/// Asserts that `model`'s walk visits `tensors` distinct `Param`s holding
/// `parameter_count` values between them: a walk that skips a tensor
/// leaves it untrained, and one that visits a tensor twice steps it twice.
#[cfg(test)]
pub(crate) fn assert_walk_covers(model: &mut impl Params, tensors: usize, parameter_count: usize) {
    let (mut addresses, mut values) = (Vec::new(), 0);
    model.visit_params(&mut |p| {
        addresses.push(p as *const Param as usize);
        values += p.value.len();
    });
    assert_eq!(addresses.len(), tensors, "visits");
    assert_eq!(values, parameter_count, "values visited");
    addresses.sort_unstable();
    addresses.dedup();
    assert_eq!(addresses.len(), tensors, "a Param was visited twice");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_without_momentum_is_plain_sgd() {
        let sgd = Sgd::new(0.1, 0.0);
        let mut w = Matrix::filled(1, 2, 1.0);
        let g = Matrix::filled(1, 2, 2.0);
        let mut v = Matrix::zeros(1, 2);
        sgd.update(&mut w, &g, &mut v);
        assert!((w[(0, 0)] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let sgd = Sgd::new(0.1, 0.9);
        let mut w = Matrix::zeros(1, 1);
        let g = Matrix::filled(1, 1, 1.0);
        let mut v = Matrix::zeros(1, 1);
        sgd.update(&mut w, &g, &mut v); // v = -0.1, w = -0.1
        sgd.update(&mut w, &g, &mut v); // v = -0.19, w = -0.29
        assert!((w[(0, 0)] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn repeated_updates_descend_a_quadratic() {
        // Minimise f(w) = (w - 3)^2 by gradient descent.
        let sgd = Sgd::new(0.1, 0.9);
        let mut w = Matrix::zeros(1, 1);
        let mut v = Matrix::zeros(1, 1);
        for _ in 0..200 {
            let grad = Matrix::filled(1, 1, 2.0 * (w[(0, 0)] - 3.0));
            sgd.update(&mut w, &grad, &mut v);
        }
        assert!((w[(0, 0)] - 3.0).abs() < 1e-2, "w = {}", w[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_learning_rate() {
        let _ = Sgd::new(0.0, 0.9);
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0, 1)")]
    fn rejects_momentum_of_one() {
        let _ = Sgd::new(0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_shape_mismatch() {
        let sgd = Sgd::default();
        let mut w = Matrix::zeros(1, 2);
        let g = Matrix::zeros(2, 1);
        let mut v = Matrix::zeros(1, 2);
        sgd.update(&mut w, &g, &mut v);
    }

    /// Two hand-set tensors behind one walk.
    struct Toy([Param; 2]);

    impl Params for Toy {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            for p in &mut self.0 {
                f(p);
            }
        }
    }

    fn toy(first: &[f32], second: &[f32]) -> Toy {
        let param = |g: &[f32]| {
            let mut p = Param::new(Matrix::zeros(1, g.len()));
            p.grad = Matrix::from_rows(&[g]);
            p
        };
        Toy([param(first), param(second)])
    }

    fn grad_bits(model: &Toy) -> Vec<Vec<u32>> {
        let bits = |p: &Param| p.grad.as_slice().iter().map(|v| v.to_bits()).collect();
        model.0.iter().map(bits).collect()
    }

    #[test]
    fn clipping_scales_every_gradient_by_the_clip_over_the_global_max() {
        let (first, second) = ([0.5f32, -3.0, 1.25], [7.5f32, -0.1]);
        for (clip, max) in [(2.0f32, 7.5f32), (7.4999, 7.5)] {
            let mut model = toy(&first, &second);
            clip_gradients(&mut model, clip);
            let factor = clip / max;
            let scaled = |g: &[f32]| g.iter().map(|v| (v * factor).to_bits()).collect::<Vec<_>>();
            assert_eq!(grad_bits(&model), vec![scaled(&first), scaled(&second)]);
        }
        // The max may sit in either tensor, and its sign does not matter.
        let mut model = toy(&[-9.0, 1.0], &[2.0]);
        clip_gradients(&mut model, 3.0);
        assert_eq!(model.0[0].grad.as_slice(), &[-3.0, 1.0 / 3.0]);
        assert_eq!(model.0[1].grad.as_slice(), &[2.0 / 3.0]);
    }

    #[test]
    fn clipping_leaves_gradients_at_or_under_the_clip_untouched() {
        let (first, second) = ([0.5f32, -3.0, 1.25], [7.5f32, -0.1]);
        for clip in [7.5f32, 8.0, 100.0, 0.0] {
            let mut model = toy(&first, &second);
            let before = grad_bits(&model);
            clip_gradients(&mut model, clip);
            assert_eq!(grad_bits(&model), before, "clip {clip}");
        }
    }

    #[test]
    fn a_nan_gradient_never_becomes_the_max() {
        for nan_first in [true, false] {
            let (with_nan, finite) = ([f32::NAN, 2.0], [-4.0f32]);
            let mut model = if nan_first {
                toy(&with_nan, &finite)
            } else {
                toy(&finite, &with_nan)
            };
            assert_eq!(largest_grad(&mut model), 4.0);
            clip_gradients(&mut model, 1.0);
            let grads: Vec<f32> = model
                .0
                .iter()
                .flat_map(|p| p.grad.as_slice().to_vec())
                .collect();
            let finite: Vec<f32> = grads.iter().copied().filter(|v| !v.is_nan()).collect();
            assert_eq!(finite, if nan_first { [0.5, -1.0] } else { [-1.0, 0.5] });
            assert_eq!(grads.iter().filter(|v| v.is_nan()).count(), 1);
        }
    }

    #[test]
    fn step_updates_every_tensor_of_the_walk() {
        let sgd = Sgd::new(0.5, 0.0);
        let mut model = toy(&[1.0, -2.0], &[4.0]);
        sgd.step(&mut model);
        sgd.step(&mut model);
        assert_eq!(model.0[0].value.as_slice(), &[-1.0, 2.0]);
        assert_eq!(model.0[1].value.as_slice(), &[-4.0]);
    }

    #[test]
    fn default_matches_paper_mlp_setting() {
        let sgd = Sgd::default();
        assert!((sgd.learning_rate - 0.01).abs() < 1e-9);
        assert!((sgd.momentum - 0.9).abs() < 1e-9);
        let faster = sgd.with_learning_rate(1.0);
        assert!((faster.learning_rate - 1.0).abs() < 1e-9);
    }
}
