//! Replica autoscaling: worker count follows smoothed queue depth.
//!
//! The serving layer can spawn and retire worker shards at runtime. The
//! policy half lives here as a pure state machine — [`Autoscaler::observe`]
//! consumes queue-depth samples and emits [`ScaleDecision`]s — so the
//! hysteresis behavior is unit-testable with synthetic clocks; the
//! mechanism half (actually spawning/retiring threads and re-routing
//! shards) lives in [`crate::server`].
//!
//! Three guards keep the controller from thrashing:
//!
//! * **Smoothing** — depth samples pass through an EWMA, so a single bursty
//!   poll cannot trigger a scale event.
//! * **Hysteresis band** — scale up above `high_watermark` queued jobs per
//!   worker, down below `low_watermark`; depth oscillating inside the band
//!   changes nothing.
//! * **Cooldown** — after any event the controller holds still for
//!   `cooldown`, giving the new worker count time to move the depth before
//!   being judged.
//!
//! The plan cache feeds the decision
//! ([`approx_dropout::PlanCacheStats::is_warm`]): a warm cache means a
//! fresh replica resolves its dropout plans from memoized entries instead
//! of re-running pattern searches, so scaling up is cheap and the
//! up-threshold drops by a quarter.

use std::time::{Duration, Instant};

/// Configuration of the [`Autoscaler`] (validated by
/// [`crate::ServeConfig::builder`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Fewest workers the scaler may retire down to (≥ 1).
    pub min_workers: usize,
    /// Most workers the scaler may spawn, capped by
    /// [`tensor::pool::MAX_THREADS`].
    pub max_workers: usize,
    /// Scale up when the smoothed queue depth (queued jobs per active
    /// worker) exceeds this.
    pub high_watermark: f64,
    /// Scale down when the smoothed depth falls below this (must stay
    /// below `high_watermark` — the gap is the hysteresis band).
    pub low_watermark: f64,
    /// EWMA smoothing factor applied to depth samples, in `(0, 1]`.
    pub alpha: f64,
    /// Minimum time between scale events.
    pub cooldown: Duration,
    /// How often the supervisor samples the queue.
    pub interval: Duration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            min_workers: 1,
            max_workers: 8,
            high_watermark: 8.0,
            low_watermark: 1.0,
            alpha: 0.3,
            cooldown: Duration::from_millis(5),
            interval: Duration::from_micros(500),
        }
    }
}

impl AutoscaleConfig {
    /// Why this configuration is invalid, if it is.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.min_workers == 0 {
            return Err("autoscale min_workers must be at least 1");
        }
        if self.max_workers < self.min_workers {
            return Err("autoscale max_workers must be >= min_workers");
        }
        if self.max_workers > tensor::pool::MAX_THREADS {
            return Err("autoscale max_workers exceeds tensor::pool::MAX_THREADS");
        }
        if !(self.low_watermark >= 0.0 && self.high_watermark > self.low_watermark) {
            return Err("autoscale watermarks need 0 <= low < high");
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err("autoscale alpha must be in (0, 1]");
        }
        if self.cooldown.is_zero() || self.interval.is_zero() {
            return Err("autoscale cooldown and interval must be nonzero");
        }
        Ok(())
    }
}

/// What the scaler wants done to the worker fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Spawn one worker.
    Up,
    /// Retire one worker.
    Down,
}

/// The pure scaling state machine; see the module docs.
#[derive(Debug)]
pub struct Autoscaler {
    config: AutoscaleConfig,
    smoothed: f64,
    seeded: bool,
    last_event: Option<Instant>,
}

impl Autoscaler {
    /// Creates the scaler (config must already be validated).
    pub fn new(config: AutoscaleConfig) -> Self {
        Self {
            config,
            smoothed: 0.0,
            seeded: false,
            last_event: None,
        }
    }

    /// Feeds one sample — `queued_jobs` across the queue, `active` current
    /// workers, whether the plan cache [`is
    /// warm`](approx_dropout::PlanCacheStats::is_warm) — and returns the
    /// scale event to apply, if any.
    pub fn observe(
        &mut self,
        queued_jobs: usize,
        active: usize,
        warm_cache: bool,
        now: Instant,
    ) -> Option<ScaleDecision> {
        let depth = queued_jobs as f64 / active.max(1) as f64;
        self.smoothed = if self.seeded {
            (1.0 - self.config.alpha) * self.smoothed + self.config.alpha * depth
        } else {
            self.seeded = true;
            depth
        };
        if let Some(last) = self.last_event {
            if now.duration_since(last) < self.config.cooldown {
                return None;
            }
        }
        // A warm cache makes spawning a replica cheap (plans resolve as
        // cache hits), so react to congestion a quarter-threshold earlier.
        let high = if warm_cache {
            self.config.high_watermark * 0.75
        } else {
            self.config.high_watermark
        };
        if self.smoothed > high && active < self.config.max_workers {
            self.last_event = Some(now);
            Some(ScaleDecision::Up)
        } else if self.smoothed < self.config.low_watermark && active > self.config.min_workers {
            self.last_event = Some(now);
            Some(ScaleDecision::Down)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AutoscaleConfig {
        AutoscaleConfig {
            min_workers: 1,
            max_workers: 4,
            high_watermark: 8.0,
            low_watermark: 1.0,
            alpha: 0.5,
            cooldown: Duration::from_millis(10),
            interval: Duration::from_millis(1),
        }
    }

    #[test]
    fn default_config_validates() {
        AutoscaleConfig::default()
            .validate()
            .expect("default valid");
    }

    #[test]
    fn invalid_configs_are_named() {
        let mut c = config();
        c.min_workers = 0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.max_workers = tensor::pool::MAX_THREADS + 1;
        assert!(c.validate().is_err());
        let mut c = config();
        c.low_watermark = c.high_watermark;
        assert!(c.validate().is_err());
        let mut c = config();
        c.alpha = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn sustained_depth_scales_up_then_idles_down() {
        let mut scaler = Autoscaler::new(config());
        let t0 = Instant::now();
        // Deep queue, sustained: first samples smooth up, then an Up fires.
        let mut ups = 0;
        for i in 0..10 {
            if scaler.observe(100, 1, false, t0 + Duration::from_millis(20 * i))
                == Some(ScaleDecision::Up)
            {
                ups += 1;
            }
        }
        assert!(ups > 0, "sustained depth must scale up");
        // Queue drained: downs follow once the smoothed depth decays.
        let mut downs = 0;
        for i in 10..30 {
            if scaler.observe(0, 2, false, t0 + Duration::from_millis(20 * i))
                == Some(ScaleDecision::Down)
            {
                downs += 1;
            }
        }
        assert!(downs > 0, "an idle queue must scale down");
    }

    #[test]
    fn oscillation_inside_the_band_never_thrashes() {
        let mut scaler = Autoscaler::new(config());
        let t0 = Instant::now();
        // Depth bounces between 2 and 6 jobs/worker — inside the 1..8 band.
        for i in 0..50 {
            let depth = if i % 2 == 0 { 2 } else { 6 };
            assert_eq!(
                scaler.observe(depth, 1, false, t0 + Duration::from_millis(20 * i)),
                None,
                "in-band oscillation at sample {i} must not scale"
            );
        }
    }

    #[test]
    fn cooldown_blocks_back_to_back_events() {
        let mut scaler = Autoscaler::new(config());
        let t0 = Instant::now();
        // Prime the EWMA past the watermark, then fire.
        assert_eq!(scaler.observe(100, 1, false, t0), Some(ScaleDecision::Up));
        // A sample right after — still over the watermark — must wait out
        // the 10 ms cooldown even though the depth justifies another Up.
        assert_eq!(
            scaler.observe(100, 2, false, t0 + Duration::from_millis(1)),
            None
        );
        assert_eq!(
            scaler.observe(100, 2, false, t0 + Duration::from_millis(12)),
            Some(ScaleDecision::Up)
        );
    }

    #[test]
    fn bounds_are_respected() {
        let mut scaler = Autoscaler::new(config());
        let t0 = Instant::now();
        // At max_workers no Up fires regardless of depth.
        assert_eq!(scaler.observe(1000, 4, false, t0), None);
        // At min_workers no Down fires regardless of idleness.
        let mut scaler = Autoscaler::new(config());
        assert_eq!(scaler.observe(0, 1, false, t0), None);
    }

    #[test]
    fn warm_cache_lowers_the_scale_up_threshold() {
        // Smoothed depth of 7 sits under the cold watermark (8) but over
        // the warm one (6): only the warm-cache path scales up.
        let t0 = Instant::now();
        let mut cold = Autoscaler::new(config());
        assert_eq!(cold.observe(7, 1, false, t0), None);
        let mut warm = Autoscaler::new(config());
        assert_eq!(warm.observe(7, 1, true, t0), Some(ScaleDecision::Up));
    }
}
