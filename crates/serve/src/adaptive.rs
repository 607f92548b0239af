//! Adaptive batching: arrival-rate tracking and the priced hold decision.
//!
//! The fixed `Dynamic { deadline }` knob burns its full deadline whenever
//! traffic is quiet and still cuts batches too early when traffic is hot —
//! the deadline encodes a *guess* about the arrival rate. The adaptive
//! policy measures instead: an [`ArrivalTracker`] keeps a per-batch-key
//! EWMA of inter-arrival gaps (fed by [`crate::Client::submit`]), an
//! [`AdaptiveController`] prices each model's **merge win** — the
//! simulated device time saved by coalescing one more arrival, dominated
//! by the kernel-launch overhead the paper's economics revolve around —
//! once at startup, and every hold decision is then
//! [`gpu_sim::hold_batch`]: keep the batch open only while
//! `arrival_rate × merge_win` exceeds `latency_cost × jobs_waiting`.
//!
//! The controller lives on the submit *and* worker paths, so it is shared
//! behind a mutexed map; the map holds two `f64`s per live batch key.

use crate::engine::{resolve_spec_plans, simulated_iteration_us};
use crate::job::JobKind;
use crate::model::ModelSpec;
use gpu_sim::GpuConfig;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// EWMA smoothing factor for inter-arrival gaps: light enough to ride out
/// single stragglers, heavy enough to track a rate change within ~10
/// arrivals.
const GAP_ALPHA: f64 = 0.2;

/// Smoothed gaps of silence after which a key's rate collapses to zero.
/// The reciprocal-of-silence decay alone shrinks the rate too slowly for
/// a worker that is *blocking tenants while it holds*: a key that has
/// missed this many expected arrivals in a row has changed regime — the
/// flow stopped (often *because* everything it could batch with is
/// already in the held batch) — so predicting another arrival from the
/// historical gap is wrong, not just stale.
const STALE_GAPS: f64 = 3.0;

/// Floor on the smoothed gap when judging staleness, in µs: workers poll
/// the queue at ~20 µs granularity, so silences shorter than a couple of
/// polls say nothing about the flow even for extremely hot keys.
const STALE_FLOOR_US: f64 = 50.0;

/// Per-key arrival state: the smoothed gap and the last arrival time.
#[derive(Debug, Clone, Copy)]
struct Arrivals {
    ewma_gap_us: f64,
    last: Instant,
}

/// Observes job submissions and estimates per-batch-key arrival rates.
///
/// Rates are *staleness-decayed*: a key that stopped arriving reports a
/// rate based on the time since its last arrival, not its historical gap,
/// so a worker never holds a batch for traffic that has dried up.
#[derive(Debug, Default)]
pub struct ArrivalTracker {
    keys: Mutex<HashMap<(usize, JobKind), Arrivals>>,
}

impl ArrivalTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one arrival of `key` at `now`.
    pub fn observe(&self, key: (usize, JobKind), now: Instant) {
        let mut keys = self.keys.lock().expect("arrival tracker poisoned");
        match keys.get_mut(&key) {
            Some(state) => {
                let gap = now.duration_since(state.last).as_secs_f64() * 1e6;
                state.ewma_gap_us = if state.ewma_gap_us > 0.0 {
                    (1.0 - GAP_ALPHA) * state.ewma_gap_us + GAP_ALPHA * gap
                } else {
                    gap
                };
                state.last = now;
            }
            None => {
                keys.insert(
                    key,
                    Arrivals {
                        ewma_gap_us: 0.0,
                        last: now,
                    },
                );
            }
        }
    }

    /// Estimated arrival rate of `key` in jobs per µs at `now`: the
    /// reciprocal of the smoothed gap, widened by the time already waited
    /// since the last arrival, and collapsing to 0 outright once the key
    /// has been silent for `STALE_GAPS` smoothed gaps (the flow stopped;
    /// holding for it would stall the batch). Returns 0 for keys never
    /// observed twice.
    pub fn rate_per_us(&self, key: (usize, JobKind), now: Instant) -> f64 {
        let keys = self.keys.lock().expect("arrival tracker poisoned");
        let Some(state) = keys.get(&key) else {
            return 0.0;
        };
        if state.ewma_gap_us <= 0.0 {
            return 0.0;
        }
        let silent_us = now.duration_since(state.last).as_secs_f64() * 1e6;
        if silent_us > STALE_GAPS * state.ewma_gap_us.max(STALE_FLOOR_US) {
            return 0.0;
        }
        1.0 / state.ewma_gap_us.max(silent_us).max(1.0)
    }
}

/// The worker-side half of adaptive batching: per-model merge wins priced
/// once at startup, consulted on every hold decision.
#[derive(Debug)]
pub struct AdaptiveController {
    /// Simulated device µs saved by merging one more typical-size arrival
    /// into an open dispatch of model `m`, indexed by catalog position.
    merge_win_us: Vec<f64>,
    /// Device-µs a worker will spend holding to save one job-µs of queue
    /// latency; higher values dispatch sooner.
    latency_cost: f64,
}

/// Rows of the "typical arrival" the merge win is priced at. The win is
/// dominated by the per-dispatch launch overhead, which is independent of
/// the probe size, so a small probe prices every realistic job size well.
const PROBE_ROWS: usize = 4;

impl AdaptiveController {
    /// Prices the merge win of every catalog model on `gpu` at epoch-0
    /// plans: dispatching two probe batches separately versus coalesced —
    /// the launch-overhead amortization [`crate::simulated_policy_speedup`]
    /// measures, expressed as an absolute µs win per merge.
    pub fn new(catalog: &[ModelSpec], gpu: &GpuConfig, latency_cost: f64) -> Self {
        let merge_win_us = catalog
            .iter()
            .enumerate()
            .map(|(model, spec)| {
                let plans = resolve_spec_plans(spec, model, 0);
                let solo = simulated_iteration_us(gpu, spec, &plans, PROBE_ROWS);
                let merged = simulated_iteration_us(gpu, spec, &plans, 2 * PROBE_ROWS);
                gpu_sim::merge_win_us(solo, solo, merged)
            })
            .collect();
        Self {
            merge_win_us,
            latency_cost,
        }
    }

    /// The priced merge win of catalog model `model` in simulated µs.
    pub fn merge_win_us(&self, model: usize) -> f64 {
        self.merge_win_us.get(model).copied().unwrap_or(0.0)
    }

    /// Whether a worker holding `jobs_waiting` jobs of `spec`'s batch key
    /// should keep the batch open for the next expected arrival.
    pub fn should_hold(
        &self,
        tracker: &ArrivalTracker,
        key: (usize, JobKind),
        jobs_waiting: usize,
        now: Instant,
    ) -> bool {
        gpu_sim::hold_batch(
            tracker.rate_per_us(key, now),
            self.merge_win_us(key.0),
            jobs_waiting,
            self.latency_cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_dropout::SchemeSpec;
    use std::time::Duration;

    #[test]
    fn tracker_estimates_a_steady_rate() {
        let tracker = ArrivalTracker::new();
        let key = (0, JobKind::Train);
        let start = Instant::now();
        // One arrival every 100 µs, injected via synthetic instants.
        for i in 0..20u64 {
            tracker.observe(key, start + Duration::from_micros(100 * i));
        }
        let rate = tracker.rate_per_us(key, start + Duration::from_micros(1900));
        assert!(
            (rate - 0.01).abs() < 0.002,
            "expected ~0.01 jobs/µs, got {rate}"
        );
    }

    #[test]
    fn rate_decays_while_a_key_is_silent() {
        let tracker = ArrivalTracker::new();
        let key = (0, JobKind::Infer);
        let start = Instant::now();
        for i in 0..10u64 {
            tracker.observe(key, start + Duration::from_micros(50 * i));
        }
        let hot = tracker.rate_per_us(key, start + Duration::from_micros(500));
        let cold = tracker.rate_per_us(key, start + Duration::from_micros(500_000));
        assert!(hot > 100.0 * cold, "silence must decay the rate");
    }

    #[test]
    fn unseen_keys_report_zero_rate() {
        let tracker = ArrivalTracker::new();
        assert_eq!(
            tracker.rate_per_us((9, JobKind::Train), Instant::now()),
            0.0
        );
        // A single arrival is not a rate either.
        tracker.observe((9, JobKind::Train), Instant::now());
        assert_eq!(
            tracker.rate_per_us((9, JobKind::Train), Instant::now()),
            0.0
        );
    }

    #[test]
    fn controller_prices_a_positive_merge_win() {
        let catalog = vec![ModelSpec::mlp(
            "m",
            32,
            vec![64],
            8,
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 4,
            },
        )];
        let controller = AdaptiveController::new(&catalog, &GpuConfig::gtx_1080ti(), 0.05);
        assert!(
            controller.merge_win_us(0) > 0.0,
            "coalescing must save launch overhead"
        );
        assert_eq!(controller.merge_win_us(7), 0.0, "unknown model, no win");
    }

    #[test]
    fn hot_keys_hold_and_cold_keys_dispatch() {
        let catalog = vec![ModelSpec::mlp(
            "m",
            32,
            vec![64],
            8,
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 4,
            },
        )];
        let controller = AdaptiveController::new(&catalog, &GpuConfig::gtx_1080ti(), 0.05);
        let tracker = ArrivalTracker::new();
        let key = (0, JobKind::Train);
        let start = Instant::now();
        // Hot: arrivals every 2 µs → holding one job is clearly worth it.
        for i in 0..50u64 {
            tracker.observe(key, start + Duration::from_micros(2 * i));
        }
        let now = start + Duration::from_micros(100);
        assert!(controller.should_hold(&tracker, key, 1, now));
        // The same key long silent: the decayed rate must cut the batch.
        let much_later = start + Duration::from_secs(10);
        assert!(!controller.should_hold(&tracker, key, 1, much_later));
        // A key with no observed traffic never holds.
        assert!(!controller.should_hold(&tracker, (0, JobKind::Infer), 1, now));
    }
}
