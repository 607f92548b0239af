//! Approximate Random Dropout — the core contribution of the DATE 2019 paper
//! *"Approximate Random Dropout for DNN training acceleration in GPGPU"*.
//!
//! Conventional dropout draws an independent Bernoulli variable per neuron
//! (or synapse), which makes the set of dropped units irregular and therefore
//! impossible for a SIMT GPU to skip. This crate replaces the Bernoulli draw
//! with **regular dropout patterns** whose dropped positions are known before
//! the GEMM is launched, so the kernel can build compact operand matrices and
//! do `1/dp` of the work:
//!
//! * [`RowPattern`] — Row-based Dropout Pattern (RDP): keep one row of the
//!   weight matrix in every `dp`, i.e. drop whole neurons.
//! * [`TilePattern`] — Tile-based Dropout Pattern (TDP): keep one 32×32 tile
//!   in every `dp`, i.e. drop structured groups of synapses (the regular
//!   analogue of DropConnect).
//! * [`search::sgd_search`] — Algorithm 1, the SGD-based Search Algorithm
//!   that produces a distribution `K` over pattern periods such that the
//!   expected global dropout rate equals the target rate `p` while the
//!   distribution stays dense (many distinct sub-models).
//! * [`PatternSampler`] — per-iteration sampling of `(dp, bias)` from `K`, as
//!   described in §III-D of the paper.
//! * [`scheme`] / [`plan`] — the plan–execute API: a [`DropoutScheme`] samples
//!   a [`DropoutPlan`] per iteration *before* any GEMM runs, and the same plan
//!   drives both the training passes (`nn`) and the GPU timing model
//!   (`gpu_sim`) — mirroring the paper's pre-launch pattern selection.
//! * [`equivalence`] — empirical checks of the statistical-equivalence claim
//!   `p_n ≈ p_g ≈ p` (Eq. 2 and Eq. 3).
//!
//! # Quickstart
//!
//! ```
//! use approx_dropout::{
//!     DropoutPlan, DropoutRate, LayerShape, PatternKind, PatternSampler, RowPattern, SearchConfig,
//! };
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), approx_dropout::DropoutError> {
//! // Target dropout rate 0.5, patterns with periods up to dp = 8.
//! let rate = DropoutRate::new(0.5)?;
//! let dist = approx_dropout::search::sgd_search(rate, 8, &SearchConfig::default())?;
//! assert!((dist.expected_global_rate() - 0.5).abs() < 0.02);
//!
//! // Draw the pattern for one training iteration and resolve its plan.
//! let mut rng = StdRng::seed_from_u64(0);
//! let sampler = PatternSampler::new(dist, PatternKind::Row);
//! let (dp, bias) = sampler.sample_params(&mut rng, 2048);
//! let plan = DropoutPlan::row(LayerShape::vector(2048), RowPattern::new(dp, bias)?);
//! assert!(plan.compact_rows().unwrap().len() <= 2048);
//! # Ok(())
//! # }
//! ```

pub mod bernoulli;
pub mod crs;
pub mod equivalence;
pub mod error;
pub mod pattern;
pub mod plan;
pub mod plan_cache;
pub mod rate;
pub mod sampler;
pub mod scheme;
pub mod search;
pub mod spec;
pub mod structured;

pub use bernoulli::{Bernoulli, DivergentBernoulli};
pub use crs::CrsSampling;
pub use error::DropoutError;
pub use pattern::{DropoutPattern, PatternKind, RowPattern, TileGrid, TilePattern};
pub use plan::{CrsSelection, DropoutPlan, KernelSchedule, LayerShape};
pub use plan_cache::{PlanCache, PlanCacheStats, PlanKey};
pub use rate::DropoutRate;
pub use sampler::{ApproxDropoutBuilder, ApproxDropoutLayer, PatternSampler};
pub use scheme::{DropoutScheme, NoDropout};
pub use search::{PatternDistribution, SearchConfig, SearchOutcome};
pub use spec::{SchemeSpec, SchemeSpecError};
pub use structured::{BlockUnit, NmSparsity};
pub use tensor::Activation;

/// Default tile edge length used by the Tile-based Dropout Pattern.
///
/// The paper fixes 32×32 to match the 32 shared-memory banks of an NVIDIA
/// GPU and to balance sub-model diversity against control granularity.
pub const DEFAULT_TILE_SIZE: usize = 32;

#[cfg(test)]
mod tests {
    #[test]
    fn default_tile_size_matches_paper() {
        assert_eq!(super::DEFAULT_TILE_SIZE, 32);
    }
}
