//! Training-as-a-service front end for the Approximate Random Dropout
//! reproduction.
//!
//! The paper amortizes dropout overhead so training runs at hardware
//! speed; this crate is the subsystem that turns the repo's
//! plan–execute–price pipeline into a multi-tenant service that stays
//! predictable under heavy traffic. The request path is
//!
//! ```text
//!  tenants ──▶ admission ──▶ ShardedQueue ──▶ adaptive batcher ──▶ workers
//!             (bounded,      (QoS-weighted    (hold only while     (replicas on
//!              shed-or-       fair queueing    the merge win        the tensor
//!              reject by      per tenant ×     beats the queueing   pool; fleet
//!              shed rank)     class lane)      cost)                autoscaled)
//! ```
//!
//! * [`ServeConfig`] — builder-validated configuration: every field is
//!   private, construction goes through [`ServeConfig::builder`], and an
//!   invalid deployment fails with a typed [`ServeConfigError`].
//! * [`QosClass`] / [`QosWeights`] — every [`JobSpec`] carries a QoS
//!   class; [`ShardedQueue::pop_fair`] serves `(tenant, class)` lanes by
//!   virtual-time weighted fair queueing, so a flooding Background tenant
//!   cannot starve Interactive traffic.
//! * Admission control — with a bounded queue, overload shreds by price:
//!   the cheapest queued work ([`JobSpec::shed_rank`]: Background before
//!   Interactive, Infer before Train) is displaced first, and a job that
//!   is itself the cheapest in sight bounces as
//!   [`AdmissionError::Rejected`] instead of growing the backlog.
//! * [`BatchPolicy::Adaptive`] — workers hold a partially filled batch
//!   only while `arrival_rate × merge_win > latency_cost × jobs_waiting`
//!   ([`gpu_sim::hold_batch`]); the arrival rate is a per-batch-key EWMA
//!   ([`ArrivalTracker`]) and the merge win is priced once per model on
//!   the gpu-sim timing model ([`AdaptiveController`]).
//! * [`Autoscaler`] — the worker fleet follows smoothed queue depth with
//!   hysteresis and cooldown, capped by `tensor::pool::MAX_THREADS`; a
//!   warm [`PlanCache`] (plans resolve as hits, so replicas spawn cheap)
//!   lowers the scale-up threshold.
//! * [`PlanCache`] (from `approx_dropout`) — dropout plans are pure
//!   functions of `(scheme, LayerShape, seed epoch)`, so one worker's
//!   sample is every other dispatch's allocation-free `clone_from`; see
//!   the determinism contract in [`engine`].
//! * [`SchemeSpec`] (re-exported from `approx_dropout`) — catalog entries
//!   configure dropout as plain data round-trippable through the text
//!   grammar (`"row:0.5:8"`, `"nm:2:4"`, `"crs:0.5"`).
//!
//! Completed jobs report latency split into queue wait and execution
//! ([`JobResult`]); the post-shutdown [`ServeReport`] summarizes both as
//! percentile [`LatencySummary`]s. The `bench_serve` binary in
//! `crates/bench` drives this crate with closed-loop policy comparisons
//! and an open-loop overload scenario, and gates both the adaptive
//! batcher's throughput and the admission controller's tail-latency
//! protection in CI.

pub mod adaptive;
pub mod admission;
pub mod autoscale;
pub mod batcher;
pub mod config;
pub mod engine;
pub mod job;
pub mod model;
pub mod qos;
pub mod queue;
pub mod server;

pub use adaptive::{AdaptiveController, ArrivalTracker};
pub use admission::{AdmissionError, JobReply};
pub use approx_dropout::{PlanCache, PlanCacheStats, PlanKey, SchemeSpec, SchemeSpecError};
pub use autoscale::{AutoscaleConfig, Autoscaler, ScaleDecision};
pub use batcher::BatchPolicy;
pub use config::{ServeConfig, ServeConfigBuilder, ServeConfigError};
pub use engine::{
    materialize, resolve_spec_plans, scheme_id, simulated_iteration_us, simulated_policy_speedup,
    BatchInputs, BatchOutcome, Replica, ShardEngine,
};
pub use job::{JobKind, JobSpec};
pub use model::{ModelSpec, NetworkKind};
pub use qos::{QosClass, QosWeights};
pub use queue::{Push, ShardedQueue};
pub use server::{Client, JobResult, LatencySummary, ServeReport, Server};
