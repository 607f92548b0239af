//! [`ServeConfig`]: the validated, builder-constructed server
//! configuration.
//!
//! The old field-struct `ServeConfig` let any call site assemble an
//! unchecked configuration (zero epoch rounds, more workers than the
//! tensor pool supports, starved QoS classes…). The redesigned type keeps
//! every field private and funnels construction through
//! [`ServeConfig::builder`], which checks the whole configuration at build
//! time and reports a typed [`ServeConfigError`] — so a running
//! [`crate::Server`] never has to re-validate and an invalid deployment
//! fails loudly at the one place it can be fixed.

use crate::autoscale::AutoscaleConfig;
use crate::batcher::BatchPolicy;
use crate::qos::QosWeights;
use std::fmt;

/// Why a [`ServeConfigBuilder`] refused to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeConfigError {
    /// More fixed workers requested than [`tensor::pool::MAX_THREADS`].
    TooManyWorkers {
        /// Workers requested.
        requested: usize,
        /// The hard cap.
        max: usize,
    },
    /// Seed epochs need at least one dispatch per epoch.
    ZeroEpochRounds,
    /// A QoS class was given weight 0, which would starve it outright.
    ZeroQosWeight,
    /// A bounded queue needs room for at least one job per shard.
    ZeroQueueBound,
    /// A coalescing policy with a zero row bound can never batch.
    ZeroBatchRows,
    /// The autoscale configuration is inconsistent; the message names the
    /// violated constraint.
    InvalidAutoscale(&'static str),
    /// The adaptive latency-cost knob must be finite and non-negative.
    InvalidLatencyCost(f64),
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::TooManyWorkers { requested, max } => {
                write!(
                    f,
                    "{requested} workers requested, but the pool caps at {max}"
                )
            }
            ServeConfigError::ZeroEpochRounds => write!(f, "epoch_rounds must be at least 1"),
            ServeConfigError::ZeroQosWeight => {
                write!(f, "every QoS class needs a nonzero weight")
            }
            ServeConfigError::ZeroQueueBound => {
                write!(f, "queue_bound must admit at least 1 job per shard")
            }
            ServeConfigError::ZeroBatchRows => {
                write!(f, "a coalescing policy needs max_batch_rows >= 1")
            }
            ServeConfigError::InvalidAutoscale(msg) => write!(f, "invalid autoscale config: {msg}"),
            ServeConfigError::InvalidLatencyCost(v) => {
                write!(f, "latency_cost must be finite and >= 0, got {v}")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Configuration of a [`crate::Server`]; constructed only through
/// [`ServeConfig::builder`] (fields are private so an unvalidated value
/// cannot exist).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    workers: usize,
    policy: BatchPolicy,
    plan_cache: bool,
    epoch_rounds: u64,
    init_seed: u64,
    qos_weights: QosWeights,
    queue_bound: Option<usize>,
    autoscale: Option<AutoscaleConfig>,
    latency_cost: f64,
}

impl ServeConfig {
    /// Starts a builder preloaded with the defaults: worker count follows
    /// the tensor pool, adaptive batching, plan cache on (16 shards), 8
    /// dispatches per seed epoch, default QoS weights, unbounded queue, no
    /// autoscaling.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            workers: 0,
            policy: BatchPolicy::adaptive_default(),
            plan_cache: true,
            epoch_rounds: 8,
            init_seed: 42,
            qos_weights: QosWeights::default(),
            queue_bound: None,
            autoscale: None,
            latency_cost: 0.05,
        }
    }

    /// Fixed worker shards (`0` = follow the tensor pool width).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The batching policy every worker applies.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Whether dropout plans resolve through the shared memoized cache.
    pub fn plan_cache(&self) -> bool {
        self.plan_cache
    }

    /// Train dispatches of one model that share a seed epoch.
    pub fn epoch_rounds(&self) -> u64 {
        self.epoch_rounds
    }

    /// Seed replica weight initialization derives from.
    pub fn init_seed(&self) -> u64 {
        self.init_seed
    }

    /// QoS scheduling weights of the request queue.
    pub fn qos_weights(&self) -> QosWeights {
        self.qos_weights
    }

    /// Per-shard job bound of the request queue (`None` = unbounded, no
    /// admission control).
    pub fn queue_bound(&self) -> Option<usize> {
        self.queue_bound
    }

    /// Autoscaling policy (`None` = fixed worker fleet).
    pub fn autoscale(&self) -> Option<AutoscaleConfig> {
        self.autoscale
    }

    /// Device-µs the adaptive batcher will spend holding a batch to save
    /// one job-µs of queueing latency.
    pub fn latency_cost(&self) -> f64 {
        self.latency_cost
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::builder()
            .build()
            .expect("the default serve configuration is valid")
    }
}

/// Builder for [`ServeConfig`]; see [`ServeConfig::builder`] for the
/// defaults and [`ServeConfigBuilder::build`] for the checks.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    workers: usize,
    policy: BatchPolicy,
    plan_cache: bool,
    epoch_rounds: u64,
    init_seed: u64,
    qos_weights: QosWeights,
    queue_bound: Option<usize>,
    autoscale: Option<AutoscaleConfig>,
    latency_cost: f64,
}

impl ServeConfigBuilder {
    /// Fixed worker shards; `0` follows the tensor pool width. Ignored as
    /// a fleet size when autoscaling is on (the initial count is clamped
    /// into the autoscale range).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The batching policy every worker applies.
    pub fn policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Resolve dropout plans through the shared memoized cache.
    pub fn plan_cache(mut self, enabled: bool) -> Self {
        self.plan_cache = enabled;
        self
    }

    /// Train dispatches of one model that share a seed epoch.
    pub fn epoch_rounds(mut self, rounds: u64) -> Self {
        self.epoch_rounds = rounds;
        self
    }

    /// Seed replica weight initialization derives from.
    pub fn init_seed(mut self, seed: u64) -> Self {
        self.init_seed = seed;
        self
    }

    /// QoS scheduling weights of the request queue.
    pub fn qos_weights(mut self, weights: QosWeights) -> Self {
        self.qos_weights = weights;
        self
    }

    /// Bound the request queue at `bound` jobs per shard and turn on
    /// admission control (shed-or-reject by [`crate::JobSpec::shed_rank`]).
    pub fn queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = Some(bound);
        self
    }

    /// Autoscale the worker fleet under `config`.
    pub fn autoscale(mut self, config: AutoscaleConfig) -> Self {
        self.autoscale = Some(config);
        self
    }

    /// Device-µs the adaptive batcher spends holding a batch to save one
    /// job-µs of queueing latency (higher dispatches sooner).
    pub fn latency_cost(mut self, cost: f64) -> Self {
        self.latency_cost = cost;
        self
    }

    /// Validates the whole configuration and builds the [`ServeConfig`].
    pub fn build(self) -> Result<ServeConfig, ServeConfigError> {
        let max = tensor::pool::MAX_THREADS;
        if self.workers > max {
            return Err(ServeConfigError::TooManyWorkers {
                requested: self.workers,
                max,
            });
        }
        if self.epoch_rounds == 0 {
            return Err(ServeConfigError::ZeroEpochRounds);
        }
        if !self.qos_weights.all_nonzero() {
            return Err(ServeConfigError::ZeroQosWeight);
        }
        if self.queue_bound == Some(0) {
            return Err(ServeConfigError::ZeroQueueBound);
        }
        if self.policy.max_batch_rows() == Some(0) {
            return Err(ServeConfigError::ZeroBatchRows);
        }
        if let Some(autoscale) = &self.autoscale {
            autoscale
                .validate()
                .map_err(ServeConfigError::InvalidAutoscale)?;
        }
        if !(self.latency_cost.is_finite() && self.latency_cost >= 0.0) {
            return Err(ServeConfigError::InvalidLatencyCost(self.latency_cost));
        }
        Ok(ServeConfig {
            workers: self.workers,
            policy: self.policy,
            plan_cache: self.plan_cache,
            epoch_rounds: self.epoch_rounds,
            init_seed: self.init_seed,
            qos_weights: self.qos_weights,
            queue_bound: self.queue_bound,
            autoscale: self.autoscale,
            latency_cost: self.latency_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_config_builds() {
        let config = ServeConfig::default();
        assert_eq!(config.workers(), 0);
        assert!(config.plan_cache());
        assert!(config.queue_bound().is_none());
        assert_eq!(config.policy().label(), "adaptive");
    }

    #[test]
    fn builder_sets_every_field() {
        let config = ServeConfig::builder()
            .workers(2)
            .policy(BatchPolicy::PerRequest)
            .plan_cache(false)
            .epoch_rounds(3)
            .init_seed(7)
            .queue_bound(64)
            .latency_cost(0.1)
            .build()
            .expect("valid config");
        assert_eq!(config.workers(), 2);
        assert_eq!(config.policy(), BatchPolicy::PerRequest);
        assert!(!config.plan_cache());
        assert_eq!(config.epoch_rounds(), 3);
        assert_eq!(config.init_seed(), 7);
        assert_eq!(config.queue_bound(), Some(64));
        assert!((config.latency_cost() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_report_typed_errors() {
        let max = tensor::pool::MAX_THREADS;
        assert_eq!(
            ServeConfig::builder().workers(max + 1).build().unwrap_err(),
            ServeConfigError::TooManyWorkers {
                requested: max + 1,
                max
            }
        );
        assert_eq!(
            ServeConfig::builder().epoch_rounds(0).build().unwrap_err(),
            ServeConfigError::ZeroEpochRounds
        );
        assert_eq!(
            ServeConfig::builder()
                .qos_weights(crate::qos::QosWeights {
                    interactive: 8,
                    batch: 0,
                    background: 1
                })
                .build()
                .unwrap_err(),
            ServeConfigError::ZeroQosWeight
        );
        assert_eq!(
            ServeConfig::builder().queue_bound(0).build().unwrap_err(),
            ServeConfigError::ZeroQueueBound
        );
        assert_eq!(
            ServeConfig::builder()
                .policy(BatchPolicy::Dynamic {
                    max_batch_rows: 0,
                    deadline: Duration::from_micros(100)
                })
                .build()
                .unwrap_err(),
            ServeConfigError::ZeroBatchRows
        );
        assert!(matches!(
            ServeConfig::builder().latency_cost(f64::NAN).build(),
            Err(ServeConfigError::InvalidLatencyCost(_))
        ));
        let autoscale = crate::autoscale::AutoscaleConfig {
            min_workers: 0,
            ..Default::default()
        };
        assert!(matches!(
            ServeConfig::builder().autoscale(autoscale).build(),
            Err(ServeConfigError::InvalidAutoscale(_))
        ));
    }
}
