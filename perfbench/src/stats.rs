//! Order statistics shared by every workload: nearest-rank percentiles, the
//! tail rule, and open-loop latency measured from each job's due time.

use std::time::Duration;

/// Percentiles the tail rule chooses from, in per-mille, highest first.
pub const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 500];

/// Samples a reported tail percentile must leave beyond its rank.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples:
/// `ceil(per_mille · n / 1000)`, clamped to `1..=n`. Integer arithmetic, so
/// p99 of 1000 samples is rank 990 exactly.
fn nearest_rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile (in per-mille) of ascending `sorted` samples.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "a percentile needs samples");
    sorted[nearest_rank(sorted.len(), per_mille) - 1]
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), 500)
}

/// The reported tail: a percentile, its value and how many samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in per-mille (990 = p99).
    pub per_mille: usize,
    /// Sample at that nearest rank.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

impl Tail {
    /// `p99`, `p99.9`, ... for printing.
    pub fn label(&self) -> String {
        match self.per_mille % 10 {
            0 => format!("p{}", self.per_mille / 10),
            tenth => format!("p{}.{tenth}", self.per_mille / 10),
        }
    }
}

/// The highest [`TAIL_LADDER`] percentile that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; `None` when even the median does
/// not (fewer than 20 samples).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&per_mille| {
        let rank = nearest_rank(n, per_mille);
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            per_mille,
            value: sorted[rank - 1],
            beyond,
        })
    })
}

/// Latency of an open-loop job counted from when it was due, not from when
/// the generator got round to sending it: the generator's lateness plus the
/// server's submit-to-reply latency. A stalled generator therefore inflates
/// the latency of every job it sent late instead of hiding the stall.
/// Offsets are measured from the start of the schedule.
pub fn latency_from_due(due: Duration, sent: Duration, server_latency: Duration) -> Duration {
    sent.saturating_sub(due) + server_latency
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_use_exact_ranks() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 500), 500.0);
        assert_eq!(percentile(&v, 990), 990.0);
        assert_eq!(percentile(&v, 999), 999.0);
        let small = ramp(7);
        assert_eq!(percentile(&small, 500), 4.0);
        assert_eq!(percentile(&small, 0), 1.0);
        assert_eq!(percentile(&small, 1000), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.9 leaves 1, p99 leaves 10.
        let t = tail(&ramp(1000)).expect("enough samples");
        assert_eq!((t.per_mille, t.value, t.beyond), (990, 990.0, 10));
        assert_eq!(t.label(), "p99");
        // 999 samples: p99 is rank 990 and leaves only 9, so p95.
        let t = tail(&ramp(999)).expect("enough samples");
        assert_eq!((t.per_mille, t.beyond), (950, 49));
        // 200 samples: p95 is rank 190 and leaves exactly 10.
        let t = tail(&ramp(200)).expect("enough samples");
        assert_eq!((t.per_mille, t.value, t.beyond), (950, 190.0, 10));
        // 10 000 samples reach p99.9.
        let t = tail(&ramp(10_000)).expect("enough samples");
        assert_eq!(t.label(), "p99.9");
        // Fewer than 20 samples support no tail at all.
        assert!(tail(&ramp(19)).is_none());
        assert_eq!(tail(&ramp(20)).map(|t| t.per_mille), Some(500));
    }

    #[test]
    fn a_stalled_generator_inflates_later_latencies() {
        let ms = Duration::from_millis;
        // Jobs due every millisecond; the generator stalls until 3 ms and
        // then sends all four at once; the server answers each in 0.5 ms.
        let service = Duration::from_micros(500);
        let latencies: Vec<Duration> = (0..4)
            .map(|i| latency_from_due(ms(i), ms(3), service))
            .collect();
        assert_eq!(
            latencies,
            vec![
                Duration::from_micros(3500),
                Duration::from_micros(2500),
                Duration::from_micros(1500),
                Duration::from_micros(500),
            ]
        );
        // Measured from the send time instead, the stall would vanish.
        assert!(latencies.iter().all(|&l| l >= service));
        // Sending early (never happens, but must not underflow) costs nothing.
        assert_eq!(latency_from_due(ms(5), ms(4), service), service);
    }
}
