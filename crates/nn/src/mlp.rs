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
use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_into, CrossEntropyScratch};
use crate::metrics::accuracy;
use crate::optimizer::Sgd;
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

/// Where a training forward pass gets each hidden layer's [`DropoutPlan`]:
/// sampled from the layer's own scheme (the stand-alone training loop) or
/// injected by the caller (a serving layer resolving plans through a
/// memoized `PlanCache`). Shared with [`crate::lstm`], whose training step
/// offers the same two entry points.
pub(crate) enum PlanSource<'a> {
    /// Sample a fresh plan per layer from its scheme.
    Sample(&'a mut dyn RngCore),
    /// Copy the caller's pre-resolved plans (one per hidden layer) into the
    /// per-layer plan slots; `clone_from` recycles the slot buffers, so
    /// injection allocates nothing once the slots are warm.
    Inject(&'a [DropoutPlan]),
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
    /// Softmax cross-entropy scratch recycled across training iterations.
    xent: CrossEntropyScratch,
    /// Recycled logits buffer: lent to the fused forward pass and returned
    /// by [`Mlp::train_batch`] after the loss is computed, so the output
    /// layer allocates nothing per iteration either.
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
    /// `true` between a forward pass and the matching backward pass.
    armed: bool,
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
                armed: false,
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
        let logits = self.forward_train_inner(inputs, source);
        let mut xent = std::mem::take(&mut self.xent);
        let loss = softmax_cross_entropy_into(&logits, labels, &mut xent);
        let acc = accuracy(&logits, labels);
        // Hand the logits buffer back to the workspace so the next
        // iteration's fused output layer reuses it.
        self.logits_ws = logits;
        self.backward(xent.grad_logits());
        self.xent = xent;
        self.step();
        TrainBatchStats {
            loss,
            accuracy: acc,
        }
    }

    /// The [`LayerShape`] of every hidden (dropout-carrying) layer, in
    /// order — the shapes a serving layer keys its plan cache by.
    pub fn layer_shapes(&self) -> Vec<LayerShape> {
        self.hidden
            .iter()
            .map(|b| LayerShape::new(b.linear.in_features(), b.linear.out_features()))
            .collect()
    }

    fn forward_train_inner(&mut self, inputs: &Matrix, mut source: PlanSource<'_>) -> Matrix {
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
            match &mut source {
                PlanSource::Sample(rng) => {
                    let shape =
                        LayerShape::new(block.linear.in_features(), block.linear.out_features());
                    block.dropout.plan_into(&mut **rng, shape, &mut block.plan);
                }
                PlanSource::Inject(plans) => block.plan.clone_from(&plans[l]),
            }
            // One fused whole-layer kernel, written straight into the
            // recycled activation buffer.
            let mut activation = std::mem::take(&mut block.activation);
            block
                .linear
                .forward_act_into(x, &block.plan, Activation::Relu, &mut activation);
            block.activation = activation;
            block.armed = true;
        }
        let x: &Matrix = match self.hidden.last() {
            Some(block) => &block.activation,
            None => inputs,
        };
        let out_shape = LayerShape::new(self.output.in_features(), self.output.out_features());
        let out_plan = DropoutPlan::none(out_shape);
        // Borrow the recycled logits buffer (train_batch returns it after
        // the loss; external callers simply keep the matrix).
        let mut logits = std::mem::take(&mut self.logits_ws);
        self.output
            .forward_act_into(x, &out_plan, Activation::Identity, &mut logits);
        logits
    }

    /// Inference forward pass: dense GEMMs, no dropout, no caching.
    pub fn forward_eval(&self, inputs: &Matrix) -> Matrix {
        let mut x: Option<Matrix> = None;
        for block in &self.hidden {
            let input = x.as_ref().unwrap_or(inputs);
            x = Some(ops::relu(&block.linear.infer(input)));
        }
        self.output.infer(x.as_ref().unwrap_or(inputs))
    }

    /// Backward pass given the gradient of the loss w.r.t. the logits.
    /// Every layer's `dX` lands in one of the two recycled ping-pong
    /// buffers ([`Linear::backward_into`]); nothing is allocated per
    /// iteration once the buffers are warmed.
    fn backward(&mut self, grad_logits: &Matrix) {
        let (mut grad, mut scratch) = std::mem::take(&mut self.grad_ws);
        self.output.backward_into(grad_logits, &mut grad);
        for block in self.hidden.iter_mut().rev() {
            assert!(block.armed, "backward needs a training forward pass");
            block.armed = false;
            // The post-ReLU activation gates the gradient exactly like the
            // pre-activation would: relu(z) > 0 ⇔ z > 0.
            ops::relu_grad_mask_inplace(&mut grad, &block.activation);
            block.linear.backward_into(&grad, &mut scratch);
            std::mem::swap(&mut grad, &mut scratch);
        }
        self.grad_ws = (grad, scratch);
    }

    /// Applies the SGD update to every layer.
    fn step(&mut self) {
        let sgd = self.sgd;
        for block in &mut self.hidden {
            block.linear.step(&sgd);
        }
        self.output.step(&sgd);
    }

    /// Evaluates mean loss and accuracy on a labelled set (no dropout).
    pub fn evaluate(&self, inputs: &Matrix, labels: &[usize]) -> (f32, f64) {
        let logits = self.forward_eval(inputs);
        let loss = softmax_cross_entropy(&logits, labels).loss;
        (loss, accuracy(&logits, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn eval_is_deterministic_even_with_dropout_configured() {
        let mut rng = StdRng::seed_from_u64(9);
        let dropout = scheme::bernoulli(DropoutRate::new(0.5).unwrap());
        let mlp = Mlp::new(&config(dropout), &mut rng);
        let x = Matrix::ones(4, 8);
        let a = mlp.forward_eval(&x);
        let b = mlp.forward_eval(&x);
        assert_eq!(a, b);
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
