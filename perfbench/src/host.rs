//! Run-context diagnostics: host steal time from `/proc/stat`, peak RSS from
//! `/proc/self/status` (reset through `/proc/self/clear_refs`), and a fixed
//! reference loop timed before and after the workload. None of these is
//! gated; they tell a slow host apart from a slow change (a vCPU can run
//! slower while the process still gets all of its wall time).

use std::hint::black_box;
use std::time::Instant;

/// Aggregate CPU jiffies of the first `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Time the hypervisor ran something else while this guest was runnable.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat` text. Kernels older than
/// 2.6.11 print no steal column; those read as zero steal.
pub fn parse_cpu_times(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 4 {
        return None;
    }
    // Guest time is already counted inside user/nice, so only the first
    // eight columns make up the total.
    let head = &fields[..fields.len().min(8)];
    Some(CpuTimes {
        total: head.iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    })
}

/// Current aggregate CPU times, `None` where `/proc/stat` is unavailable.
pub fn cpu_times() -> Option<CpuTimes> {
    parse_cpu_times(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub fn steal_frac(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`
/// text, in kB.
pub fn parse_peak_rss_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// Peak resident set size of this process in MB (0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets this process's peak resident set (`VmHWM`) to its current size,
/// so [`peak_rss_mb`] covers only what runs after the reset (the reference
/// loop's buffer would otherwise set a floor under it). Needs Linux 4.0 or
/// later; returns whether the reset took.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Floats the reference loop streams through: 16 MiB, past a core's L2 and
/// into the shared cache the training workloads' weights also live in, so
/// neighbours that slow those workloads slow the reference too.
const REFERENCE_FLOATS: usize = 4 << 20;
const REFERENCE_PASSES: usize = 8;

/// Times the benchmark's fixed reference loop, in milliseconds: vectorised
/// multiply-adds streamed over a buffer larger than L2. Its work never
/// changes, so a slower reading means a slower host, not slower code.
pub fn reference_ms() -> f64 {
    let data: Vec<f32> = (0..REFERENCE_FLOATS).map(|i| (i % 7) as f32).collect();
    let start = Instant::now();
    let mut acc = [0.0f32; 16];
    for _ in 0..REFERENCE_PASSES {
        for chunk in black_box(&data).chunks_exact(16) {
            for (a, &x) in acc.iter_mut().zip(chunk) {
                *a = *a * 0.5 + x;
            }
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  4705 150 1120 16250 520 0 12 310 0 0\n\
                        cpu0 2350 75 560 8125 260 0 6 155 0 0\n\
                        intr 123 0 0\n";

    #[test]
    fn proc_stat_aggregate_line_parses_with_steal() {
        let t = parse_cpu_times(STAT).expect("valid stat");
        assert_eq!(t.steal, 310);
        assert_eq!(t.total, 4705 + 150 + 1120 + 16250 + 520 + 12 + 310);
        let later = CpuTimes {
            total: t.total + 1000,
            steal: t.steal + 50,
        };
        assert!((steal_frac(t, later) - 0.05).abs() < 1e-12);
        assert_eq!(steal_frac(t, t), 0.0);
    }

    #[test]
    fn proc_stat_without_steal_or_with_garbage() {
        let old = "cpu  10 0 5 85\n";
        assert_eq!(
            parse_cpu_times(old),
            Some(CpuTimes {
                total: 100,
                steal: 0
            })
        );
        assert_eq!(parse_cpu_times("cpu0 1 2 3 4\n"), None);
        assert_eq!(parse_cpu_times("cpu  1 x 3 4\n"), None);
        assert_eq!(parse_cpu_times("cpu  1 2\n"), None);
    }

    #[test]
    fn proc_status_peak_rss_parses() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_peak_rss_kb(status), Some(51234));
        assert_eq!(parse_peak_rss_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_peak_rss_kb("VmHWM:\t 12 MB\n"), None);
    }

    /// One test, so no other test's reference buffer is resident during
    /// the reset.
    #[test]
    fn reference_loop_is_timed_and_its_buffer_left_out_of_the_peak() {
        assert!(reference_ms() > 0.0);
        let before = peak_rss_mb();
        if reset_peak_rss() {
            // The 16 MiB buffer is freed, so the reset peak sits below it.
            assert!(
                peak_rss_mb() < before - 8.0,
                "{} vs {before}",
                peak_rss_mb()
            );
        }
    }
}
