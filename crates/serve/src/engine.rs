//! Execution engine: replicas, deterministic plan resolution, pricing.
//!
//! A [`Replica`] is one worker shard's instance of a catalog model — an
//! [`nn::Mlp`] or [`nn::lstm::LstmLm`] plus its per-layer dropout schemes
//! and recycled [`DropoutPlan`] slots. A [`ShardEngine`] owns the replicas
//! of one worker shard and executes coalesced batches against them.
//!
//! # The determinism contract
//!
//! Every plan a replica executes is a pure function of its [`PlanKey`]:
//! layer `l` of model `m` in seed epoch `e` is always sampled from
//! `StdRng::seed_from_u64(key.seed())`, whether the resolution goes through
//! the shared [`PlanCache`] (miss → sample once, hit → reuse) or samples
//! directly because caching is disabled. Turning the cache on therefore
//! changes *when* sampling work happens — once per `(model, layer, epoch)`
//! instead of once per dispatch — but never *what* is executed: the
//! cache-on and cache-off serving paths are bitwise identical, which the
//! integration tests pin. The **seed epoch** advances every
//! `epoch_rounds` dispatches of a model, so dropout keeps re-randomizing
//! across training while sampling cost is amortized within an epoch — the
//! software analogue of moving mask generation off the training hot path.
//!
//! # Pricing
//!
//! [`simulated_iteration_us`] prices one coalesced dispatch on a
//! [`GpuConfig`] through the same `price_fc_schedule`-based timing model
//! the reproduction uses everywhere else, and
//! [`simulated_policy_speedup`] compares per-request dispatch against a
//! coalesced batch — the launch-overhead amortization that makes dynamic
//! batching win on the device model, independent of CPU wall clock.

use crate::job::{JobKind, JobSpec};
use crate::model::{ModelSpec, NetworkKind};
use approx_dropout::{DropoutPlan, DropoutScheme, LayerShape, PlanCache, PlanKey};
use gpu_sim::GpuConfig;
use nn::lstm::LstmLm;
use nn::Mlp;
use nn::TransformerLm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tensor::Matrix;

/// Epochs of history [`ShardEngine`] keeps in the shared plan cache before
/// evicting: generous enough that shards serving skewed traffic (whose
/// models advance epochs at different rates) rarely evict each other's
/// live entries, small enough that the table stays bounded by the live
/// `(model, layer)` pairs.
const EVICT_MARGIN: u64 = 4;

/// Stable scheme identifier of one model layer, used in [`PlanKey`]s: a
/// catalog model's layer `l` resolves the same plans on every shard and in
/// every process serving the same catalog.
pub fn scheme_id(model: usize, layer: usize) -> u64 {
    ((model as u64) << 16) | layer as u64
}

/// Materialized inputs of one coalesced batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchInputs {
    /// MLP inputs: one matrix row and one label per request row.
    Dense {
        /// `(rows, input_dim)` input samples.
        inputs: Matrix,
        /// One class label per row.
        labels: Vec<usize>,
    },
    /// LSTM inputs: one token sequence (`seq_len + 1` ids) per request row.
    Tokens(Vec<Vec<usize>>),
}

/// Expands a coalesced batch's jobs into concrete inputs, deterministically
/// from each job's seed — replaying a trace materializes identical bytes
/// regardless of which worker runs it or how jobs were grouped.
pub fn materialize(spec: &ModelSpec, jobs: &[JobSpec]) -> BatchInputs {
    match &spec.network {
        NetworkKind::Mlp {
            input_dim, classes, ..
        } => {
            let rows: usize = jobs.iter().map(|j| j.rows).sum();
            let mut inputs = Matrix::zeros(rows, *input_dim);
            let mut labels = Vec::with_capacity(rows);
            let mut row = 0;
            for job in jobs {
                let mut rng = StdRng::seed_from_u64(job.seed);
                for _ in 0..job.rows {
                    for value in inputs.row_mut(row) {
                        *value = rng.gen::<f32>();
                    }
                    labels.push(rng.gen_range(0..*classes));
                    row += 1;
                }
            }
            BatchInputs::Dense { inputs, labels }
        }
        NetworkKind::Lstm { vocab, seq_len, .. }
        | NetworkKind::TransformerLm { vocab, seq_len, .. } => {
            let mut sequences = Vec::with_capacity(jobs.iter().map(|j| j.rows).sum());
            for job in jobs {
                let mut rng = StdRng::seed_from_u64(job.seed);
                for _ in 0..job.rows {
                    sequences.push((0..seq_len + 1).map(|_| rng.gen_range(0..*vocab)).collect());
                }
            }
            BatchInputs::Tokens(sequences)
        }
    }
}

/// Resolves the full plan set of `model`'s spec for one seed epoch without
/// a replica or cache — the reference the determinism tests compare
/// against, and the plan source for the simulated pricing path.
pub fn resolve_spec_plans(spec: &ModelSpec, model: usize, epoch: u64) -> Vec<DropoutPlan> {
    spec.layer_shapes()
        .into_iter()
        .enumerate()
        .map(|(layer, shape)| {
            let key = PlanKey::new(scheme_id(model, layer), shape, epoch);
            let mut scheme = spec
                .scheme
                .build()
                .expect("catalog scheme configuration must be valid");
            let mut rng = StdRng::seed_from_u64(key.seed());
            scheme.plan(&mut rng, shape)
        })
        .collect()
}

/// The network a replica wraps. Boxed: the variants are large (inline
/// weight matrices and workspaces) and replicas live on worker threads.
#[derive(Debug)]
enum ReplicaNet {
    Mlp(Box<Mlp>),
    Lstm(Box<LstmLm>),
    Transformer(Box<TransformerLm>),
}

/// One worker shard's instance of a catalog model.
#[derive(Debug)]
pub struct Replica {
    model: usize,
    spec: ModelSpec,
    net: ReplicaNet,
    /// One scheme instance per droppable layer (layers keep independent
    /// pattern statistics, like the training loops do).
    schemes: Vec<Box<dyn DropoutScheme>>,
    /// Recycled per-layer plan slots — warmed once, then re-resolved in
    /// place on every dispatch with zero allocation.
    plans: Vec<DropoutPlan>,
    shapes: Vec<LayerShape>,
    /// Train dispatches executed so far; `dispatches / epoch_rounds` is the
    /// replica's current seed epoch.
    dispatches: u64,
}

impl Replica {
    /// Instantiates `spec` as catalog model `model`, with weights drawn
    /// from `init_seed` (mixed with the model id, so replicas of different
    /// models never share initialization).
    pub fn new(model: usize, spec: &ModelSpec, init_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(
            init_seed.wrapping_add((model as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let net = match &spec.network {
            NetworkKind::Mlp { .. } => {
                ReplicaNet::Mlp(Box::new(Mlp::new(&spec.mlp_config(), &mut rng)))
            }
            NetworkKind::Lstm { .. } => {
                ReplicaNet::Lstm(Box::new(LstmLm::new(&spec.lstm_config(), &mut rng)))
            }
            NetworkKind::TransformerLm { .. } => ReplicaNet::Transformer(Box::new(
                TransformerLm::new(&spec.transformer_config(), &mut rng),
            )),
        };
        let shapes = spec.layer_shapes();
        Self {
            model,
            spec: spec.clone(),
            net,
            schemes: (0..shapes.len())
                .map(|_| {
                    spec.scheme
                        .build()
                        .expect("catalog scheme configuration must be valid")
                })
                .collect(),
            plans: vec![DropoutPlan::default(); shapes.len()],
            shapes,
            dispatches: 0,
        }
    }

    /// Catalog index of the model this replica serves.
    pub fn model(&self) -> usize {
        self.model
    }

    /// The spec the replica was built from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Train dispatches executed so far.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// The per-layer plans of the last resolved epoch.
    pub fn plans(&self) -> &[DropoutPlan] {
        &self.plans
    }

    /// Resolves the replica's per-layer plans for `epoch`, through `cache`
    /// when given (hit → allocation-free `clone_from`, miss → sample once
    /// and memoize) and by direct seeded sampling otherwise. Either path
    /// yields the bitwise-identical plans of [`resolve_spec_plans`].
    pub fn resolve_plans(&mut self, epoch: u64, cache: Option<&PlanCache>) {
        for (layer, ((plan, scheme), &shape)) in self
            .plans
            .iter_mut()
            .zip(self.schemes.iter_mut())
            .zip(self.shapes.iter())
            .enumerate()
        {
            let key = PlanKey::new(scheme_id(self.model, layer), shape, epoch);
            match cache {
                Some(cache) => {
                    cache.fetch(key, plan, |dest| {
                        let mut rng = StdRng::seed_from_u64(key.seed());
                        scheme.plan_into(&mut rng, shape, dest);
                    });
                }
                None => {
                    let mut rng = StdRng::seed_from_u64(key.seed());
                    scheme.plan_into(&mut rng, shape, plan);
                }
            }
        }
    }

    /// One SGD step over the batch with the currently resolved plans.
    /// Returns the batch loss.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the replica's network family.
    pub fn train(&mut self, inputs: &BatchInputs) -> f32 {
        match (&mut self.net, inputs) {
            (ReplicaNet::Mlp(mlp), BatchInputs::Dense { inputs, labels }) => {
                mlp.train_batch_with_plans(inputs, labels, &self.plans).loss
            }
            (ReplicaNet::Lstm(lm), BatchInputs::Tokens(tokens)) => {
                lm.train_batch_with_plans(tokens, &self.plans).loss
            }
            (ReplicaNet::Transformer(lm), BatchInputs::Tokens(tokens)) => {
                lm.train_batch_with_plans(tokens, &self.plans).loss
            }
            _ => panic!("batch inputs do not match the replica's network family"),
        }
    }

    /// Dense evaluation over the batch (dropout off). Returns the loss.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the replica's network family.
    pub fn infer(&self, inputs: &BatchInputs) -> f32 {
        match (&self.net, inputs) {
            (ReplicaNet::Mlp(mlp), BatchInputs::Dense { inputs, labels }) => {
                mlp.evaluate(inputs, labels).0
            }
            (ReplicaNet::Lstm(lm), BatchInputs::Tokens(tokens)) => lm.evaluate(tokens).loss,
            (ReplicaNet::Transformer(lm), BatchInputs::Tokens(tokens)) => lm.evaluate(tokens).loss,
            _ => panic!("batch inputs do not match the replica's network family"),
        }
    }
}

/// Result of one dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOutcome {
    /// Catalog model the batch ran against.
    pub model: usize,
    /// Train or infer.
    pub kind: JobKind,
    /// Total coalesced request rows.
    pub rows: usize,
    /// Seed epoch the dispatch resolved plans for.
    pub epoch: u64,
    /// Batch loss (training loss or dense evaluation loss).
    pub value: f32,
}

/// The execution core of one worker shard: its replicas, the shared plan
/// cache, and the epoch schedule. Single-threaded by construction — the
/// threaded server gives each worker its own engine, and the deterministic
/// tests drive one engine directly.
#[derive(Debug)]
pub struct ShardEngine {
    replicas: Vec<Replica>,
    cache: Option<Arc<PlanCache>>,
    epoch_rounds: u64,
    /// Highest epoch this engine has evicted up to (avoids re-locking every
    /// shard of the cache on every dispatch).
    evicted_to: u64,
}

impl ShardEngine {
    /// Builds the engine with one replica of every model of `catalog`.
    /// `epoch_rounds` train dispatches of a model share one seed epoch
    /// (clamped to at least 1).
    pub fn new(
        catalog: &[ModelSpec],
        cache: Option<Arc<PlanCache>>,
        epoch_rounds: u64,
        init_seed: u64,
    ) -> Self {
        Self {
            replicas: catalog
                .iter()
                .enumerate()
                .map(|(model, spec)| Replica::new(model, spec, init_seed))
                .collect(),
            cache,
            epoch_rounds: epoch_rounds.max(1),
            evicted_to: 0,
        }
    }

    /// The replicas this engine owns.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Executes one coalesced batch (all jobs must share a batch key owned
    /// by this engine) and returns its outcome.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is empty, mixes batch keys, or targets a model
    /// this engine does not own.
    pub fn execute(&mut self, jobs: &[JobSpec]) -> BatchOutcome {
        let (model, kind) = jobs
            .first()
            .expect("a batch carries at least one job")
            .batch_key();
        assert!(
            jobs.iter().all(|j| j.batch_key() == (model, kind)),
            "a batch must not mix models or kinds"
        );
        let epoch_rounds = self.epoch_rounds;
        let cache = self.cache.clone();
        let replica = self
            .replicas
            .iter_mut()
            .find(|r| r.model() == model)
            .unwrap_or_else(|| panic!("model {model} is not owned by this shard"));
        let inputs = materialize(replica.spec(), jobs);
        let rows = jobs.iter().map(|j| j.rows).sum();
        let epoch = replica.dispatches / epoch_rounds;
        let value = match kind {
            JobKind::Train => {
                replica.resolve_plans(epoch, cache.as_deref());
                replica.dispatches += 1;
                replica.train(&inputs)
            }
            JobKind::Infer => replica.infer(&inputs),
        };
        if let Some(cache) = &cache {
            // Keep the shared table bounded: drop epochs that have fallen
            // well behind this engine's progress. Other shards' slower
            // models may get evicted early and simply re-sample on their
            // next fetch — plans are pure functions of their key, so this
            // costs a miss, never correctness.
            if epoch > self.evicted_to + EVICT_MARGIN {
                self.evicted_to = epoch;
                cache.evict_before(epoch - EVICT_MARGIN);
            }
        }
        BatchOutcome {
            model,
            kind,
            rows,
            epoch,
            value,
        }
    }
}

/// Simulated device time (µs) of one training dispatch of `spec` at
/// `batch_rows` coalesced rows under the given per-layer `plans`, priced
/// through the repo's kernel-level timing model (`price_fc_schedule` under
/// the hood).
pub fn simulated_iteration_us(
    gpu: &GpuConfig,
    spec: &ModelSpec,
    plans: &[DropoutPlan],
    batch_rows: usize,
) -> f64 {
    spec.timing_model(gpu.clone(), batch_rows)
        .iteration_time_from_plans(plans)
        .total_us()
}

/// Simulated speedup of dispatching `requests` jobs of `rows_per_request`
/// rows as **one** coalesced batch instead of one dispatch each, with both
/// sides executing the identical epoch-`epoch` plans of catalog model
/// `model`. Deterministic — every input is a pure function of the
/// arguments — so bench baselines can gate it at the tight `sim_*`
/// tolerance.
pub fn simulated_policy_speedup(
    gpu: &GpuConfig,
    spec: &ModelSpec,
    model: usize,
    epoch: u64,
    rows_per_request: usize,
    requests: usize,
) -> f64 {
    assert!(rows_per_request > 0 && requests > 0, "empty workload");
    let plans = resolve_spec_plans(spec, model, epoch);
    let per_request = requests as f64 * simulated_iteration_us(gpu, spec, &plans, rows_per_request);
    let coalesced = simulated_iteration_us(gpu, spec, &plans, rows_per_request * requests);
    per_request / coalesced
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_dropout::SchemeSpec;

    fn mlp_spec() -> ModelSpec {
        ModelSpec::mlp(
            "m",
            16,
            vec![32, 24],
            4,
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 4,
            },
        )
    }

    fn train_job(rows: usize, seed: u64) -> JobSpec {
        JobSpec {
            tenant: 0,
            model: 0,
            rows,
            seed,
            kind: JobKind::Train,
            qos: crate::qos::QosClass::Batch,
        }
    }

    #[test]
    fn materialize_is_grouping_invariant() {
        // The same two jobs materialize the same bytes whether coalesced
        // or split — the property that lets batching change cost without
        // changing the workload.
        let spec = mlp_spec();
        let (a, b) = (train_job(3, 11), train_job(2, 22));
        let coalesced = materialize(&spec, &[a, b]);
        let (first, second) = (materialize(&spec, &[a]), materialize(&spec, &[b]));
        let BatchInputs::Dense { inputs, labels } = coalesced else {
            panic!("mlp batch must be dense");
        };
        let (
            BatchInputs::Dense {
                inputs: ia,
                labels: la,
            },
            BatchInputs::Dense {
                inputs: ib,
                labels: lb,
            },
        ) = (first, second)
        else {
            panic!("mlp batch must be dense");
        };
        assert_eq!(inputs.row(0), ia.row(0));
        assert_eq!(inputs.row(3), ib.row(0));
        assert_eq!(labels[..3], la[..]);
        assert_eq!(labels[3..], lb[..]);
    }

    #[test]
    fn replica_plans_match_spec_resolution_with_and_without_cache() {
        let spec = mlp_spec();
        let reference = resolve_spec_plans(&spec, 0, 3);
        let mut direct = Replica::new(0, &spec, 9);
        direct.resolve_plans(3, None);
        assert_eq!(direct.plans(), &reference[..]);
        let cache = PlanCache::new(4);
        let mut cached = Replica::new(0, &spec, 9);
        cached.resolve_plans(3, Some(&cache)); // miss path
        cached.resolve_plans(3, Some(&cache)); // hit path
        assert_eq!(cached.plans(), &reference[..]);
        assert_eq!(cache.stats().hits, spec.dropout_layers() as u64);
    }

    #[test]
    fn engine_epochs_advance_every_epoch_rounds_dispatches() {
        let spec = mlp_spec();
        let mut engine = ShardEngine::new(&[spec], None, 2, 7);
        let epochs: Vec<u64> = (0..5)
            .map(|i| engine.execute(&[train_job(2, i)]).epoch)
            .collect();
        assert_eq!(epochs, vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn lstm_replicas_train_and_infer() {
        let spec = ModelSpec::lstm("l", 40, 16, 2, 4, SchemeSpec::Bernoulli { rate: 0.25 });
        let mut engine = ShardEngine::new(&[spec], None, 4, 1);
        let job = JobSpec {
            tenant: 1,
            model: 0,
            rows: 2,
            seed: 5,
            kind: JobKind::Train,
            qos: crate::qos::QosClass::Batch,
        };
        let outcome = engine.execute(&[job]);
        assert!(outcome.value.is_finite());
        let infer = JobSpec {
            kind: JobKind::Infer,
            ..job
        };
        assert!(engine.execute(&[infer]).value.is_finite());
    }

    #[test]
    fn coalesced_dispatch_prices_cheaper_than_per_request() {
        let spec = mlp_spec();
        for gpu in [GpuConfig::gtx_1080ti(), GpuConfig::sparse_tensor_core()] {
            let speedup = simulated_policy_speedup(&gpu, &spec, 0, 0, 8, 16);
            assert!(
                speedup > 1.0,
                "coalescing must amortize launch overhead, got {speedup}"
            );
        }
    }
}
