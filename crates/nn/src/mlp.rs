//! The multilayer perceptron used by the §IV-A/B experiments.
//!
//! A network of fully connected + ReLU blocks with a per-hidden-layer
//! [`DropoutScheme`] and a linear output layer trained with softmax
//! cross-entropy and SGD with momentum. At the start of every iteration each
//! hidden layer asks its scheme for a [`approx_dropout::DropoutPlan`] —
//! conventional Bernoulli masking (the baseline), a Row-based Dropout
//! Pattern or a Tile-based Dropout Pattern — and [`crate::layers::Linear`]
//! executes whatever plan it gets. Prefer building MLPs through
//! [`crate::builder::NetworkBuilder`], which supports the per-layer
//! `(p1, p2)` rate pairs of Fig. 4 fluently.

use crate::layers::Linear;
use crate::loss::{softmax_cross_entropy_into, CrossEntropyScratch};
use crate::optimizer::{Param, Params, Sgd};
use approx_dropout::{Activation, DropoutPlan, DropoutScheme, LayerShape};
use rand::{Rng, RngCore};
use tensor::{ops, Matrix};

/// Configuration of an MLP.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input dimensionality (784 for the MNIST-like task).
    pub input_dim: usize,
    /// Hidden-layer widths, e.g. `[2048, 2048]`.
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub output_dim: usize,
    /// Dropout scheme applied to every hidden layer (can be overridden per
    /// layer with [`Mlp::set_layer_dropout`]).
    pub dropout: Box<dyn DropoutScheme>,
    /// SGD learning rate (0.01 in the paper).
    pub learning_rate: f32,
    /// SGD momentum (0.9 in the paper).
    pub momentum: f32,
}

impl MlpConfig {
    /// A down-scaled stand-in for the paper's 4-layer MLP that trains in
    /// seconds on one CPU core: 64 → `hidden` → `hidden` → 10.
    pub fn scaled_paper_mlp(hidden: usize, dropout: Box<dyn DropoutScheme>) -> Self {
        Self {
            input_dim: 64,
            hidden: vec![hidden, hidden],
            output_dim: 10,
            dropout,
            learning_rate: 0.01,
            momentum: 0.9,
        }
    }
}

/// Where a forward pass gets each dropout site's [`DropoutPlan`]: sampled
/// from the site's own scheme (the stand-alone training loop), injected by
/// the caller (a serving layer resolving plans through a memoized
/// `PlanCache`), or the identity plan (evaluation). Shared with
/// [`crate::lstm`] and [`crate::transformer`], whose forwards offer the
/// same three sources.
pub(crate) enum PlanSource<'a> {
    /// Sample a fresh plan per layer from its scheme.
    Sample(&'a mut dyn RngCore),
    /// Copy the caller's pre-resolved plans (one per hidden layer) into the
    /// per-layer plan slots; `clone_from` recycles the slot buffers, so
    /// injection allocates nothing once the slots are warm.
    Inject(&'a [DropoutPlan]),
    /// Reset every plan slot to [`DropoutPlan::none`] in place: the dense
    /// forward of evaluation, run by the training code on its own buffers.
    Dense,
}

impl PlanSource<'_> {
    /// Resolves the plan of dropout site `site` (its index in the family's
    /// plan-injection order) into `slot`: drawn from `scheme` against
    /// `shape`, copied from the injected plans, or reset to the identity.
    pub(crate) fn resolve(
        &mut self,
        site: usize,
        scheme: &mut dyn DropoutScheme,
        shape: LayerShape,
        slot: &mut DropoutPlan,
    ) {
        match self {
            PlanSource::Sample(rng) => scheme.plan_into(&mut **rng, shape, slot),
            PlanSource::Inject(plans) => slot.clone_from(&plans[site]),
            PlanSource::Dense => slot.reset_none(shape),
        }
    }
}

/// Statistics of one training batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainBatchStats {
    /// Mean cross-entropy loss of the batch (measured with dropout active).
    pub loss: f32,
    /// Training accuracy on the batch.
    pub accuracy: f64,
}

/// A fully connected classifier with per-layer dropout schemes.
#[derive(Debug, Clone)]
pub struct Mlp {
    hidden: Vec<HiddenBlock>,
    output: Linear,
    sgd: Sgd,
    /// Softmax cross-entropy scratch recycled across iterations.
    xent: CrossEntropyScratch,
    /// Recycled logits buffer the fused output layer writes into, so the
    /// output layer allocates nothing per iteration either.
    logits_ws: Matrix,
    /// Ping-pong gradient buffers for the backward chain: each layer's
    /// [`Linear::backward_into`] writes its `dX` into one while the other
    /// holds the incoming gradient, then the two swap — no per-iteration
    /// gradient allocation anywhere in the backward pass.
    grad_ws: (Matrix, Matrix),
}

#[derive(Debug, Clone)]
struct HiddenBlock {
    linear: Linear,
    dropout: Box<dyn DropoutScheme>,
    /// Reusable plan buffer: the scheme re-resolves it in place each
    /// iteration ([`DropoutScheme::plan_into`]), recycling its allocations.
    plan: DropoutPlan,
    /// Post-ReLU activation feeding the next layer (buffer reused across
    /// iterations). Also gates the backward ReLU: `relu(z) > 0 ⇔ z > 0`,
    /// so the pre-activation matrix no longer needs to be cached at all.
    activation: Matrix,
}

impl Mlp {
    /// Builds the network with Xavier-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no hidden layers or a zero dimension.
    pub fn new<R: Rng + ?Sized>(config: &MlpConfig, rng: &mut R) -> Self {
        assert!(
            !config.hidden.is_empty(),
            "at least one hidden layer is required"
        );
        assert!(
            config.input_dim > 0 && config.output_dim > 0,
            "dimensions must be positive"
        );
        let mut hidden = Vec::new();
        let mut in_dim = config.input_dim;
        for &width in &config.hidden {
            assert!(width > 0, "hidden width must be positive");
            hidden.push(HiddenBlock {
                linear: Linear::new(rng, in_dim, width),
                dropout: config.dropout.clone(),
                plan: DropoutPlan::default(),
                activation: Matrix::default(),
            });
            in_dim = width;
        }
        let output = Linear::new(rng, in_dim, config.output_dim);
        Self {
            hidden,
            output,
            sgd: Sgd::new(config.learning_rate, config.momentum),
            xent: CrossEntropyScratch::default(),
            logits_ws: Matrix::default(),
            grad_ws: (Matrix::default(), Matrix::default()),
        }
    }

    /// Number of hidden layers.
    pub fn hidden_layers(&self) -> usize {
        self.hidden.len()
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.hidden
            .iter()
            .map(|b| b.linear.parameter_count())
            .sum::<usize>()
            + self.output.parameter_count()
    }

    /// Overrides the dropout scheme of one hidden layer (0-based), as the
    /// `(p1, p2)` rate pairs of Fig. 4 require.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn set_layer_dropout(&mut self, layer: usize, dropout: Box<dyn DropoutScheme>) {
        assert!(layer < self.hidden.len(), "layer index out of range");
        self.hidden[layer].dropout = dropout;
    }

    /// Borrows the dropout scheme of one hidden layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_dropout(&self, layer: usize) -> &dyn DropoutScheme {
        assert!(layer < self.hidden.len(), "layer index out of range");
        self.hidden[layer].dropout.as_ref()
    }

    /// One training step on a batch: forward with freshly planned dropout,
    /// softmax cross-entropy, backward, SGD update.
    ///
    /// # Panics
    ///
    /// Panics if the batch shape does not match the network input or the
    /// number of labels.
    pub fn train_batch<R: Rng>(
        &mut self,
        inputs: &Matrix,
        labels: &[usize],
        rng: &mut R,
    ) -> TrainBatchStats {
        self.train_batch_inner(inputs, labels, PlanSource::Sample(rng))
    }

    /// One training step executing caller-provided dropout plans (one per
    /// hidden layer) instead of sampling from the per-layer schemes — the
    /// hook a serving layer uses to train replicas with plans resolved
    /// through a memoized plan cache. Numerically identical to
    /// [`Mlp::train_batch`] whenever `plans` holds the plans the schemes
    /// would have sampled.
    ///
    /// # Panics
    ///
    /// Panics if `plans.len()` differs from the number of hidden layers or
    /// the batch shape does not match the network input.
    pub fn train_batch_with_plans(
        &mut self,
        inputs: &Matrix,
        labels: &[usize],
        plans: &[DropoutPlan],
    ) -> TrainBatchStats {
        self.train_batch_inner(inputs, labels, PlanSource::Inject(plans))
    }

    fn train_batch_inner(
        &mut self,
        inputs: &Matrix,
        labels: &[usize],
        source: PlanSource<'_>,
    ) -> TrainBatchStats {
        let stats = self.forward_loss(inputs, labels, source);
        self.backward();
        let sgd = self.sgd;
        sgd.step(self);
        stats
    }

    /// The [`LayerShape`] of every hidden (dropout-carrying) layer, in
    /// order — the shapes a serving layer keys its plan cache by.
    pub fn layer_shapes(&self) -> Vec<LayerShape> {
        self.hidden
            .iter()
            .map(|b| LayerShape::new(b.linear.in_features(), b.linear.out_features()))
            .collect()
    }

    /// The one forward pass of training and evaluation: every hidden layer
    /// with its plan from `source`, the output layer into `logits_ws`, then
    /// the softmax cross-entropy (into `xent`) and accuracy of the logits
    /// against `labels`.
    fn forward_loss(
        &mut self,
        inputs: &Matrix,
        labels: &[usize],
        mut source: PlanSource<'_>,
    ) -> TrainBatchStats {
        if let PlanSource::Inject(plans) = &source {
            assert_eq!(
                plans.len(),
                self.hidden.len(),
                "one injected plan per hidden layer is required"
            );
        }
        for l in 0..self.hidden.len() {
            let (prev, rest) = self.hidden.split_at_mut(l);
            let block = &mut rest[0];
            let x: &Matrix = if l == 0 {
                inputs
            } else {
                &prev[l - 1].activation
            };
            let shape = LayerShape::new(block.linear.in_features(), block.linear.out_features());
            source.resolve(l, block.dropout.as_mut(), shape, &mut block.plan);
            // One fused whole-layer kernel, written straight into the
            // recycled activation buffer.
            block
                .linear
                .forward_act_into(x, &block.plan, Activation::Relu, &mut block.activation);
        }
        let x: &Matrix = match self.hidden.last() {
            Some(block) => &block.activation,
            None => inputs,
        };
        let out_shape = LayerShape::new(self.output.in_features(), self.output.out_features());
        self.output.forward_act_into(
            x,
            &DropoutPlan::none(out_shape),
            Activation::Identity,
            &mut self.logits_ws,
        );
        TrainBatchStats {
            loss: softmax_cross_entropy_into(&self.logits_ws, labels, &mut self.xent),
            accuracy: self.xent.accuracy(),
        }
    }

    /// Backward pass from the logits gradient the last
    /// [`Mlp::forward_loss`] left in `xent`. Every layer's `dX` lands in
    /// one of the two recycled ping-pong buffers
    /// ([`Linear::backward_into`]); nothing is allocated per iteration once
    /// the buffers are warmed. The input layer's `dX` would be the gradient
    /// of the data, which nothing reads, so that layer computes only its
    /// parameter gradients ([`Linear::backward_params`]).
    fn backward(&mut self) {
        let (mut grad, mut scratch) = std::mem::take(&mut self.grad_ws);
        self.output
            .backward_into(self.xent.grad_logits(), &mut grad);
        for (idx, block) in self.hidden.iter_mut().enumerate().rev() {
            // The post-ReLU activation gates the gradient exactly like the
            // pre-activation would: relu(z) > 0 ⇔ z > 0.
            ops::relu_grad_mask_inplace(&mut grad, &block.activation);
            if idx == 0 {
                block.linear.backward_params(&grad);
            } else {
                block.linear.backward_into(&grad, &mut scratch);
                std::mem::swap(&mut grad, &mut scratch);
            }
        }
        self.grad_ws = (grad, scratch);
    }

    /// Evaluates mean loss and accuracy on a labelled set with dropout
    /// off: the training forward with every plan reset to the identity, on
    /// the model's own recycled buffers, so a warmed call allocates
    /// nothing. It overwrites the forward caches a training step refills
    /// before its backward pass, and draws no randomness, so interleaving
    /// evaluations leaves a training trajectory bit for bit unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the batch shape does not match the network input or the
    /// number of labels.
    pub fn evaluate(&mut self, inputs: &Matrix, labels: &[usize]) -> (f32, f64) {
        let stats = self.forward_loss(inputs, labels, PlanSource::Dense);
        (stats.loss, stats.accuracy)
    }
}

impl Params for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for block in &mut self.hidden {
            block.linear.visit_params(f);
        }
        self.output.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::assert_walk_covers;
    use approx_dropout::scheme;
    use approx_dropout::{DropoutRate, PatternKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    /// A tiny two-cluster classification task that a small MLP must solve.
    fn toy_problem(rng: &mut StdRng, n: usize) -> (Matrix, Vec<usize>) {
        let mut data = Matrix::zeros(n, 8);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            labels.push(class);
            for j in 0..8 {
                let center = if class == 0 { 1.0 } else { -1.0 };
                data[(i, j)] = center + 0.3 * init::standard_normal(rng);
            }
        }
        (data, labels)
    }

    fn config(dropout: Box<dyn DropoutScheme>) -> MlpConfig {
        MlpConfig {
            input_dim: 8,
            hidden: vec![32, 32],
            output_dim: 2,
            dropout,
            learning_rate: 0.05,
            momentum: 0.9,
        }
    }

    /// Pattern dropout on very small layers has high gradient variance (a
    /// period-dp pattern keeps only 32/dp neurons and scales them by dp), so
    /// the pattern tests use a gentler optimiser setting — the full-scale
    /// experiments in the bench crate use the paper's hyper-parameters on
    /// realistically wide layers.
    fn pattern_config(dropout: Box<dyn DropoutScheme>) -> MlpConfig {
        MlpConfig {
            input_dim: 8,
            hidden: vec![64, 64],
            output_dim: 2,
            dropout,
            learning_rate: 0.01,
            momentum: 0.5,
        }
    }

    #[test]
    fn mlp_learns_toy_problem_without_dropout() {
        let mut rng = StdRng::seed_from_u64(0);
        let (x, y) = toy_problem(&mut rng, 64);
        let mut mlp = Mlp::new(&config(scheme::none()), &mut rng);
        for _ in 0..60 {
            let _ = mlp.train_batch(&x, &y, &mut rng);
        }
        let (_, acc) = mlp.evaluate(&x, &y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn mlp_learns_with_bernoulli_dropout() {
        let mut rng = StdRng::seed_from_u64(1);
        let (x, y) = toy_problem(&mut rng, 64);
        let dropout = scheme::bernoulli(DropoutRate::new(0.5).unwrap());
        let mut mlp = Mlp::new(&config(dropout), &mut rng);
        for _ in 0..120 {
            let _ = mlp.train_batch(&x, &y, &mut rng);
        }
        let (_, acc) = mlp.evaluate(&x, &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn mlp_learns_with_row_pattern_dropout() {
        let mut rng = StdRng::seed_from_u64(2);
        let (x, y) = toy_problem(&mut rng, 64);
        let dropout = scheme::row(DropoutRate::new(0.5).unwrap(), 4).unwrap();
        let mut mlp = Mlp::new(&pattern_config(dropout), &mut rng);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            last_loss = mlp.train_batch(&x, &y, &mut rng).loss;
        }
        assert!(last_loss.is_finite(), "training diverged");
        let (_, acc) = mlp.evaluate(&x, &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn mlp_learns_with_tile_pattern_dropout() {
        let mut rng = StdRng::seed_from_u64(3);
        let (x, y) = toy_problem(&mut rng, 64);
        let dropout = scheme::tile(DropoutRate::new(0.5).unwrap(), 4, 8).unwrap();
        let mut mlp = Mlp::new(&pattern_config(dropout), &mut rng);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            last_loss = mlp.train_batch(&x, &y, &mut rng).loss;
        }
        assert!(last_loss.is_finite(), "training diverged");
        let (_, acc) = mlp.evaluate(&x, &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(4);
        let (x, y) = toy_problem(&mut rng, 32);
        let mut mlp = Mlp::new(&config(scheme::none()), &mut rng);
        let first = mlp.train_batch(&x, &y, &mut rng).loss;
        for _ in 0..40 {
            let _ = mlp.train_batch(&x, &y, &mut rng);
        }
        let last = mlp.train_batch(&x, &y, &mut rng).loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn per_layer_dropout_can_differ() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&config(scheme::none()), &mut rng);
        mlp.set_layer_dropout(0, scheme::bernoulli(DropoutRate::new(0.7).unwrap()));
        mlp.set_layer_dropout(1, scheme::bernoulli(DropoutRate::new(0.3).unwrap()));
        assert!((mlp.layer_dropout(0).nominal_rate() - 0.7).abs() < 1e-12);
        assert!((mlp.layer_dropout(1).nominal_rate() - 0.3).abs() < 1e-12);
        let (x, y) = toy_problem(&mut rng, 16);
        let stats = mlp.train_batch(&x, &y, &mut rng);
        assert!(stats.loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "layer index out of range")]
    fn set_layer_dropout_checks_bounds() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut mlp = Mlp::new(&config(scheme::none()), &mut rng);
        mlp.set_layer_dropout(5, scheme::none());
    }

    #[test]
    #[should_panic(expected = "at least one hidden layer")]
    fn new_rejects_empty_hidden_list() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = MlpConfig {
            hidden: vec![],
            ..config(scheme::none())
        };
        let _ = Mlp::new(&cfg, &mut rng);
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mut rng = StdRng::seed_from_u64(8);
        let mlp = Mlp::new(&config(scheme::none()), &mut rng);
        // 8*32+32 + 32*32+32 + 32*2+2
        assert_eq!(
            mlp.parameter_count(),
            8 * 32 + 32 + 32 * 32 + 32 + 32 * 2 + 2
        );
        assert_eq!(mlp.hidden_layers(), 2);
    }

    #[test]
    fn parameter_walk_visits_every_tensor_once() {
        // A weight and a bias per layer, the output layer's included.
        let mut rng = StdRng::seed_from_u64(9);
        for hidden in [vec![32], vec![32, 16], vec![16, 16, 8]] {
            let layers = hidden.len() + 1;
            let cfg = MlpConfig {
                hidden,
                ..config(scheme::none())
            };
            let mut mlp = Mlp::new(&cfg, &mut rng);
            let count = mlp.parameter_count();
            assert_walk_covers(&mut mlp, 2 * layers, count);
        }
    }

    #[test]
    fn eval_is_deterministic_even_with_dropout_configured() {
        let mut rng = StdRng::seed_from_u64(9);
        let dropout = scheme::bernoulli(DropoutRate::new(0.5).unwrap());
        let mut mlp = Mlp::new(&config(dropout), &mut rng);
        let (x, labels) = (Matrix::ones(4, 8), [0, 1, 0, 1]);
        let a = mlp.evaluate(&x, &labels);
        let logits = mlp.logits_ws.clone();
        let b = mlp.evaluate(&x, &labels);
        assert_eq!(a, b);
        assert_eq!(logits, mlp.logits_ws);
    }

    #[test]
    fn scaled_paper_mlp_has_expected_shape() {
        let cfg = MlpConfig::scaled_paper_mlp(128, scheme::none());
        assert_eq!(cfg.input_dim, 64);
        assert_eq!(cfg.hidden, vec![128, 128]);
        assert_eq!(cfg.output_dim, 10);
    }

    #[test]
    fn all_three_modes_flow_through_the_same_plan_path() {
        // One network, three schemes: the layer code has no per-scheme
        // branches, only plan execution.
        let mut rng = StdRng::seed_from_u64(10);
        let (x, y) = toy_problem(&mut rng, 16);
        for dropout in [
            scheme::bernoulli(DropoutRate::new(0.5).unwrap()),
            scheme::pattern(DropoutRate::new(0.5).unwrap(), PatternKind::Row).unwrap(),
            scheme::pattern(DropoutRate::new(0.5).unwrap(), PatternKind::Tile).unwrap(),
        ] {
            let mut mlp = Mlp::new(&pattern_config(dropout), &mut rng);
            let stats = mlp.train_batch(&x, &y, &mut rng);
            assert!(stats.loss.is_finite());
        }
    }
}
