//! Neural-network training substrate for the Approximate Random Dropout
//! reproduction — the stand-in for the Caffe framework the paper modifies.
//!
//! Dropout flows through the **plan–execute** API of the `approx_dropout`
//! crate: every droppable layer owns a [`DropoutScheme`] which samples a
//! [`DropoutPlan`] per iteration *before* any GEMM runs, and the layer code
//! executes whatever plan it receives — there is no per-mode dispatch in the
//! network types, so new pattern families plug in as a single trait
//! implementation. The same sampled plans drive the GPU timing model in
//! `gpu_sim`, keeping speedup figures consistent with training numerics.
//!
//! The crate provides exactly the pieces the paper's experiments need:
//!
//! * [`layers::Linear`] — a fully connected layer whose forward/backward
//!   passes execute any [`DropoutPlan`]: conventional Bernoulli masking, a
//!   row-compacted GEMM over kept neurons, or a tile-compacted GEMM over
//!   kept weight tiles.
//! * [`mlp::Mlp`] — the 4-layer MLP of §IV-A/B with per-layer dropout
//!   schemes, softmax cross-entropy loss and SGD-with-momentum updates.
//! * [`lstm`] — an LSTM language model (an embedding table, stacked cells,
//!   inter-layer dropout and a softmax projection that is its own
//!   [`layers::Linear`], not tied to the embeddings) used for the §IV-C
//!   experiments.
//! * [`builder`] — fluent [`builder::NetworkBuilder`] / [`builder::LstmBuilder`]
//!   with per-layer scheme overrides (Fig. 4's `(p1, p2)` pairs).
//! * [`optimizer::Sgd`] — plain SGD with momentum (lr 0.01, momentum 0.9 for
//!   the MLP experiments). Every family trains through one parameter walk
//!   in [`optimizer`]: each trainable tensor is one `Param`, and gradient
//!   clipping (`clip_gradients`, max-abs over every gradient of a model)
//!   and the update (`Sgd::step`) are one function each over that walk.
//! * [`loss`] / [`metrics`] — one softmax cross-entropy,
//!   [`loss::softmax_cross_entropy_into`], one polynomial `exp` per logit
//!   (`tensor::simd::exp_slice`) written straight into the recycled
//!   gradient buffer of
//!   [`loss::CrossEntropyScratch`], which also counts the argmax hits
//!   behind [`loss::CrossEntropyScratch::accuracy`], for training and
//!   evaluation alike; perplexity.
//!
//! # Example: train a tiny MLP with row-pattern dropout
//!
//! ```
//! use nn::builder::NetworkBuilder;
//! use approx_dropout::{scheme, DropoutRate};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use tensor::Matrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut mlp = NetworkBuilder::new(8, 3)
//!     .hidden_layers(&[16, 16])
//!     .dropout(scheme::row(DropoutRate::new(0.5)?, 16)?)
//!     .learning_rate(0.05)
//!     .build(&mut rng);
//! let x = Matrix::ones(4, 8);
//! let labels = vec![0, 1, 2, 0];
//! let stats = mlp.train_batch(&x, &labels, &mut rng);
//! assert!(stats.loss.is_finite());
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod layers;
pub mod loss;
pub mod lstm;
pub mod metrics;
pub mod mlp;
pub mod optimizer;
pub mod transformer;

/// Re-export of the dropout scheme constructors (`schemes::row(...)`, …) so
/// network code can configure dropout without importing `approx_dropout`
/// directly.
pub use approx_dropout::scheme as schemes;
pub use approx_dropout::{DropoutPlan, DropoutScheme, KernelSchedule, LayerShape};
pub use builder::{LstmBuilder, NetworkBuilder};
pub use layers::Linear;
pub use loss::{softmax_cross_entropy_into, CrossEntropyScratch};
pub use metrics::perplexity_from_nll;
pub use mlp::{Mlp, MlpConfig, TrainBatchStats};
pub use optimizer::Sgd;
pub use transformer::{TransformerLm, TransformerLmConfig};
