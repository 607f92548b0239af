//! The repository benchmark.
//!
//! One command runs one workload on one core and prints its metrics, with
//! the result as the last line of standard output:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mlp_train|lm_train|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the workload untraced and then traced with the same seed and op
//! count, reports the per-layer metrics from the traced run, the tracing
//! overhead, and checks that both runs end on the same loss bit for bit.
//! Per-layer metrics of modules the workload bypasses come from a short
//! traced pass of the workload that exercises them, so every traced run
//! reports every per-layer metric.
//!
//! The process exits non-zero when any op failed or any output was wrong.

mod host;
mod lm;
mod mlp;
mod serving;
mod stats;
mod trace;
mod training;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::Tracer;

/// The end-to-end metrics every untraced run must report.
const E2E_METRICS: [&str; 6] = [
    "setup_s",
    "throughput_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "final_loss",
    "peak_rss_mb",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Length of the short traced pass that fills in the per-layer metrics of
/// modules the traced workload bypasses.
const SIDE_SECONDS: f64 = 2.0;

/// One workload: what an op is, why it is measured, what it exercises and
/// which modules it bypasses (where the prediction for any change is "no
/// change").
pub struct Workload {
    pub name: &'static str,
    pub op: &'static str,
    pub why: &'static str,
    pub exercises: &'static str,
    pub bypasses: &'static str,
    /// Training workloads repeat their final loss bit for bit.
    pub deterministic_loss: bool,
    pub run: fn(&RunSpec, &mut Tracer) -> Outcome,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mlp_train",
        op: "one SGD step on each of six 784-256-256-10 MLP replicas (batch 128, rate 0.5), \
             one per Linear arm: bernoulli, row, tile, block16, nm24, crs",
        why: "GEMM kernels and per-arm dispatch do nearly all the work; arms slated for \
              deletion sit beside arms that should not move",
        exercises: "tensor, core (plan_into every step), nn (Linear, Mlp), data (set-up)",
        bypasses: "serve, LSTM cell, attention",
        deterministic_loss: true,
        run: mlp::run,
    },
    Workload {
        name: "lm_train",
        op: "one LSTM LM step (row:0.5:8) and one transformer LM step (head-drop \
             transformer:0.25:16) on synthetic-PTB batches",
        why: "per-timestep skinny GEMMs, gate and softmax math, embedding scatter and the \
              vocab projection dominate; mlp_train barely touches them",
        exercises: "nn (LstmLm, TransformerLm, loss), core, tensor, data (set-up)",
        bypasses: "serve, the tile and block16 MLP arms",
        deterministic_loss: true,
        run: lm::run,
    },
    Workload {
        name: "serve_mixed",
        op: "a Train job of one of four closed-loop Batch tenants, or an open-loop \
             Interactive Infer job (Poisson, 200/s), on one worker",
        why: "per-job compute is small, so admission, fair queueing, adaptive holds, \
              plan-cache lookups and the reply path dominate",
        exercises: "serve, core (plan cache), gpu-sim (adaptive pricing at start), nn",
        bypasses: "the tile and block16 arms, the transformer",
        deterministic_loss: false,
        run: serving::run,
    },
];

/// Arguments every workload run receives.
pub struct RunSpec {
    pub seed: u64,
    pub seconds: f64,
}

/// Named readings with units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Adds `other`'s readings; readings already present win.
    pub fn fill_from(&mut self, other: Metrics) {
        for (k, v) in other.0 {
            self.0.entry(k).or_insert(v);
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, &(v, unit))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations, one line each.
    pub violations: Vec<String>,
    /// Losses that were NaN or infinite.
    pub nonfinite: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Context printed before the result (tail percentile, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one failed op and records why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.violations.push(why);
    }

    /// Adds another run's counts, violations and per-layer metrics (this
    /// run's readings win); its end-to-end metrics and notes are dropped.
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.nonfinite += other.nonfinite;
        self.violations.extend(other.violations);
        self.layers.fill_from(other.layers);
    }
}

/// Derives an independent seed for one input stream (SplitMix64 finalizer).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sets `setup_s` to the median set-up time and notes every set-up.
pub fn setup_metric(out: &mut Outcome, setup_s: &[f64]) {
    out.e2e.set("setup_s", stats::median(setup_s), "s");
    let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    out.notes
        .push(format!("set-ups took {} s", each.join(", ")));
}

/// Sets `latency_tail_ms` from ascending latencies and notes which
/// percentile it is.
pub fn latency_tail(out: &mut Outcome, sorted: &[f64], what: &str) {
    match stats::tail(sorted) {
        Some(t) => {
            out.e2e.set("latency_tail_ms", t.value, "ms");
            out.notes.push(format!(
                "latency_tail_ms is the {} {what} latency of {} samples ({} beyond it)",
                t.label(),
                sorted.len(),
                t.beyond
            ));
        }
        None => out.notes.push(format!(
            "{} {what} samples support no tail percentile",
            sorted.len()
        )),
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                map.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(extra) = map
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Pins the tensor pool to one thread and applies the committed GEMM tuning
/// the way the bench binaries do: only when it was tuned for this thread
/// count and ISA. Returns what happened, for the diagnostics line.
fn init_runtime() -> String {
    tensor::pool::set_threads(1);
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../TUNE_GEMM.json"));
    let isa = tensor::simd::level().name();
    match tensor::tune::TuneConfig::load(path) {
        Ok(config) if config.threads == 1 && config.isa == isa => match config.apply() {
            Ok(()) => "applied".to_string(),
            Err(e) => format!("skipped ({e})"),
        },
        Ok(config) => format!(
            "skipped (tuned for {} thread(s) on {}, running 1 on {isa})",
            config.threads, config.isa
        ),
        Err(e) => format!("skipped ({e})"),
    }
}

/// Where traced runs write their spans: under the build directory, which
/// the repository ignores.
fn span_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(dir)
        .join("perfbench")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

fn traced(args: &Args) -> Outcome {
    let spec = RunSpec {
        seed: args.seed,
        seconds: args.seconds,
    };
    let w = args.workload;
    let untraced = (w.run)(&spec, &mut Tracer::disabled());
    let mut tr = Tracer::enabled();
    let mut out = (w.run)(&spec, &mut tr);
    if let (Some(a), Some(b)) = (
        out.e2e.get("throughput_per_s"),
        untraced.e2e.get("throughput_per_s"),
    ) {
        out.layers.set("trace.overhead_per_s", a - b, "1/s");
        out.notes
            .push(format!("throughput_per_s traced {a:.4} vs untraced {b:.4}"));
    }
    if w.deterministic_loss {
        let (a, b) = (out.e2e.get("final_loss"), untraced.e2e.get("final_loss"));
        if a.map(f64::to_bits) != b.map(f64::to_bits) {
            out.fail(format!(
                "traced final_loss {a:?} differs from untraced {b:?}"
            ));
        }
    }
    out.absorb(untraced);
    let side = RunSpec {
        seed: args.seed,
        seconds: SIDE_SECONDS,
    };
    for other in WORKLOADS.iter().filter(|o| o.name != w.name) {
        out.absorb((other.run)(&side, &mut tr));
    }
    let path = span_path(w.name, args.seed);
    match tr.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("could not write spans to {}: {e}", path.display())),
    }
    out.notes.push(format!(
        "{:<40} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    ));
    for (name, t) in trace::self_times(tr.spans()) {
        out.notes.push(format!(
            "{name:<40} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let tune = init_runtime();
    let w = args.workload;
    println!("workload {}: {}", w.name, w.op);
    println!("  why: {}", w.why);
    println!("  exercises: {}", w.exercises);
    println!("  bypasses (predicted no change): {}", w.bypasses);

    let cpu_before = host::cpu_times();
    let ref_before = host::reference_ms();
    let rss_reset = if host::reset_peak_rss() {
        "reset"
    } else {
        "not reset"
    };
    let mut out = if args.trace {
        traced(&args)
    } else {
        (w.run)(
            &RunSpec {
                seed: args.seed,
                seconds: args.seconds,
            },
            &mut Tracer::disabled(),
        )
    };
    let ref_after = host::reference_ms();
    let steal = match (cpu_before, host::cpu_times()) {
        (Some(a), Some(b)) => host::steal_frac(a, b),
        _ => 0.0,
    };
    println!(
        "host: isa {} | pool threads {} | cores {} | tune file {tune} | steal {steal:.4} | \
         reference loop {ref_before:.3} ms before, {ref_after:.3} ms after | \
         peak RSS {rss_reset} after the reference loop",
        tensor::simd::level().name(),
        tensor::pool::threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    out.layers.set("host.steal_frac", steal, "ratio");
    out.layers
        .set("host.ref_ms", (ref_before + ref_after) / 2.0, "ms");
    out.layers
        .set("nn.nonfinite_losses", out.nonfinite as f64, "count");

    if !args.trace {
        for name in E2E_METRICS.iter().filter(|n| out.e2e.get(n).is_none()) {
            out.violations
                .push(format!("end-to-end metric {name} was not measured"));
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    for v in out.violations.iter().take(20) {
        println!("VIOLATION: {v}");
    }
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    for (name, &(value, unit)) in &metrics.0 {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let ok = out.failed == 0 && out.violations.is_empty();
    let all_finite = metrics.0.values().all(|(v, _)| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ok && all_finite,
        out.attempted.max(1),
        out.failed,
        if all_finite {
            metrics.json()
        } else {
            "{}".to_string()
        }
    );
    if !(ok && all_finite) {
        std::process::exit(1);
    }
}
