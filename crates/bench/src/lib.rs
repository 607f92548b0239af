//! Shared experiment plumbing for the per-table / per-figure binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the paper.
//! They share these ingredients, provided here:
//!
//! * [`Method::scheme`] — one `DropoutScheme` constructor per evaluated
//!   method. The **same** scheme type drives both the GPU timing model (at
//!   the paper's network sizes) and the scaled CPU training runs, so the
//!   reported speedups and accuracies come from a single dropout path.
//! * [`train_scaled_mlp`] / [`train_scaled_lstm`] — train down-scaled
//!   networks on the synthetic datasets to obtain accuracy/perplexity
//!   numbers on a single CPU core within seconds. The scale factor does not
//!   change the *qualitative* accuracy comparison (pattern dropout vs
//!   conventional dropout), which is what EXPERIMENTS.md records.
//! * [`Report`] — a plain-text table printer so each binary emits rows in
//!   the same format as the corresponding table of the paper.
//! * [`scorecard::Scorecard`] — the typed JSON report of the gated bench
//!   binaries: each value declared as a simulated ratio, a measured CPU
//!   ratio or a recorded value, with its floor beside it; and
//!   [`baseline`], the committed-baseline gate behind their
//!   `--check-baseline` mode.

pub mod baseline;
pub mod scorecard;

use approx_dropout::{DropoutScheme, SchemeSpec};
use data::{CorpusConfig, MnistConfig, SyntheticCorpus, SyntheticMnist};
use gpu_sim::{GpuConfig, LstmSpec, MlpSpec, NetworkTimingModel, DEFAULT_TIMING_SAMPLES};
use nn::builder::{LstmBuilder, NetworkBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fixed RNG seed shared by every timing expectation so tables are
/// reproducible run to run.
pub const TIMING_SEED: u64 = 0x5EED;

/// `true` when `--smoke` was passed: the bench binaries' tiny CI shapes.
pub fn smoke_flag() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Best-of-`reps` wall-clock seconds for one invocation of `f` (after one
/// warm-up call), which filters scheduler noise better than a mean.
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Cores the machine reports. Thread scaling is bounded by them, so the
/// bench reports record them to make a flat scaling curve interpretable.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses the `--threads N` (or `--threads=N`) flag the bench binaries
/// share, so the pool width is settable per invocation without the
/// `TENSOR_THREADS` environment variable (which stays as the fallback
/// when the flag is absent). Returns `None` when the flag was not given;
/// terminates the process on a malformed value rather than silently
/// benchmarking at the wrong width.
pub fn threads_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let value = if arg == "--threads" {
            iter.next().map(String::as_str)
        } else if let Some(inline) = arg.strip_prefix("--threads=") {
            Some(inline)
        } else {
            continue;
        };
        match value
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            Some(n) => return Some(n),
            None => {
                eprintln!("--threads expects a positive integer, got {value:?}");
                std::process::exit(2);
            }
        }
    }
    None
}

/// Applies [`threads_from_args`] to the global tensor pool and returns the
/// explicit width, if one was given.
pub fn apply_threads_flag() -> Option<usize> {
    let threads = threads_from_args()?;
    tensor::pool::set_threads(threads);
    Some(threads)
}

/// `TENSOR_THREADS` parsed exactly as the pool parses it (clamped to
/// [`tensor::pool::MAX_THREADS`]; unparsable values mean 1, the documented
/// slow-and-correct misconfiguration behaviour). `None` when unset.
fn env_threads_override() -> Option<usize> {
    let value = std::env::var("TENSOR_THREADS").ok()?;
    Some(match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n.min(tensor::pool::MAX_THREADS),
        _ => 1,
    })
}

/// Resolves the pool width the bench runs (and any `--tune` search) at:
/// `--threads` wins, `TENSOR_THREADS` is the fallback, the machine width is
/// the default. When the flag **and** the environment variable are both set
/// and disagree, the process exits loudly instead of letting one silently
/// shadow the other — a bench (or autotune) at the wrong width is worse
/// than no bench. The winner is applied to the global pool and returned.
pub fn resolve_threads() -> usize {
    let flag = threads_from_args();
    let env = env_threads_override();
    if let (Some(f), Some(e)) = (flag, env) {
        if f != e {
            eprintln!(
                "--threads {f} conflicts with TENSOR_THREADS={e}: one would silently shadow \
                 the other; drop one or make them agree"
            );
            std::process::exit(2);
        }
    }
    let threads = flag
        .or(env)
        .unwrap_or_else(tensor::pool::env_default_threads);
    tensor::pool::set_threads(threads);
    threads
}

/// `true` when `--no-simd` was passed: the bench forces the scalar kernel
/// path regardless of what the CPU supports (equivalent to
/// `TENSOR_SIMD=0`, but scoped to the invocation).
pub fn no_simd_flag() -> bool {
    std::env::args().any(|a| a == "--no-simd")
}

/// `true` when `--tune` was passed: rerun the blocking autotuner and
/// persist the result instead of loading a committed config.
fn tune_flag() -> bool {
    std::env::args().any(|a| a == "--tune")
}

/// The tune-file path the bench binaries use and whether it was named
/// explicitly: `TENSOR_TUNE_FILE` when set (explicit — mismatches are hard
/// errors), else the committed `TUNE_GEMM.json` at the workspace root
/// (lenient — a config tuned on other hardware is skipped with a warning).
pub fn tune_file_path() -> (std::path::PathBuf, bool) {
    match std::env::var(tensor::tune::TUNE_FILE_ENV) {
        Ok(p) if !p.trim().is_empty() => (std::path::PathBuf::from(p), true),
        _ => {
            let default = format!(
                "{}/../../{}",
                env!("CARGO_MANIFEST_DIR"),
                tensor::tune::TUNE_FILE_NAME
            );
            (std::path::PathBuf::from(default), false)
        }
    }
}

/// What [`init_bench`] resolved for this invocation.
#[derive(Debug, Clone)]
pub struct BenchSetup {
    /// Global pool width after `--threads` / `TENSOR_THREADS` resolution.
    pub threads: usize,
    /// Active SIMD dispatch level after `--no-simd` / `TENSOR_SIMD`.
    pub simd_level: tensor::SimdLevel,
    /// Tune file whose blockings are active (`None`: built-in defaults).
    pub tuned_from: Option<std::path::PathBuf>,
}

/// Shared startup for the bench binaries: resolves the pool width (loudly,
/// see [`resolve_threads`]), applies `--no-simd`, then either reruns the
/// blocking autotuner (`--tune`, persisting to the tune file) or loads the
/// persisted config. A loaded config only applies when its recorded thread
/// count and ISA match this invocation: a mismatch is a hard error for an
/// explicit `TENSOR_TUNE_FILE` and a warning (config skipped) for the
/// committed default, which legitimately travels between machines.
pub fn init_bench(label: &str) -> BenchSetup {
    let threads = resolve_threads();
    if no_simd_flag() {
        tensor::simd::set_level(tensor::SimdLevel::Scalar);
    }
    let simd_level = tensor::simd::level();
    let (path, explicit) = tune_file_path();
    let tuned_from = if tune_flag() {
        eprintln!(
            "{label}: autotuning GEMM blockings ({threads} thread(s), {})...",
            simd_level.name()
        );
        let config = tensor::tune::autotune();
        if let Err(err) = config.save(&path) {
            eprintln!("{label}: cannot write tune file {}: {err}", path.display());
            std::process::exit(1);
        }
        config.apply().expect("freshly searched config is valid");
        eprintln!("{label}: wrote tuned config to {}", path.display());
        Some(path)
    } else {
        match tensor::tune::TuneConfig::load(&path) {
            Ok(config) => {
                let mismatch = if config.threads != threads {
                    Some(format!(
                        "tuned at {} thread(s), running at {threads}",
                        config.threads
                    ))
                } else if config.isa != simd_level.name() {
                    Some(format!(
                        "tuned for isa {:?}, running with {:?}",
                        config.isa,
                        simd_level.name()
                    ))
                } else {
                    None
                };
                match mismatch {
                    None => {
                        config.apply().expect("config validated on load");
                        eprintln!("{label}: applied tuned config {}", path.display());
                        Some(path)
                    }
                    Some(why) if explicit => {
                        eprintln!(
                            "{label}: refusing tune file {} ({why}); regenerate with --tune",
                            path.display()
                        );
                        std::process::exit(2);
                    }
                    Some(why) => {
                        eprintln!(
                            "{label}: skipping tune file {} ({why}); using default blockings",
                            path.display()
                        );
                        None
                    }
                }
            }
            Err(err) if explicit => {
                eprintln!("{label}: cannot load tune file: {err}");
                std::process::exit(2);
            }
            Err(err) => {
                if path.exists() {
                    eprintln!("{label}: skipping unreadable tune file: {err}");
                }
                None
            }
        }
    };
    BenchSetup {
        threads,
        simd_level,
        tuned_from,
    }
}

/// Number of training iterations the scaled accuracy runs use by default.
/// Set the `ARD_FAST=1` environment variable to cut this down for smoke runs.
pub fn default_train_iterations() -> usize {
    if std::env::var("ARD_FAST").map(|v| v == "1").unwrap_or(false) {
        40
    } else {
        250
    }
}

/// The three dropout execution modes compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Conventional random dropout (the baseline).
    Baseline,
    /// Row-based Dropout Pattern.
    Row,
    /// Tile-based Dropout Pattern.
    Tile,
}

impl Method {
    /// Label used in the printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Baseline => "original",
            Method::Row => "ROW",
            Method::Tile => "TILE",
        }
    }

    /// The plain-data [`SchemeSpec`] of this method at the paper's full
    /// network scale (`max_dp = 16`, 32×32 tiles) — printable and
    /// parseable through the spec text grammar.
    pub fn spec(&self, rate: f64) -> SchemeSpec {
        match self {
            Method::Baseline => SchemeSpec::Bernoulli { rate },
            Method::Row => SchemeSpec::Row { rate, max_dp: 16 },
            Method::Tile => SchemeSpec::Tile {
                rate,
                max_dp: 16,
                tile: 32,
            },
        }
    }

    /// The [`SchemeSpec`] for the down-scaled CPU training runs: same
    /// families, smaller period cap and tile so the narrow layers still see
    /// several tiles per grid.
    pub fn scaled_spec(&self, rate: f64) -> SchemeSpec {
        match self {
            Method::Baseline => SchemeSpec::Bernoulli { rate },
            Method::Row => SchemeSpec::Row { rate, max_dp: 8 },
            Method::Tile => SchemeSpec::Tile {
                rate,
                max_dp: 8,
                tile: 16,
            },
        }
    }

    /// The dropout scheme for this method at the paper's full network scale
    /// ([`Method::spec`] materialized). Drives the GPU timing model.
    ///
    /// # Panics
    ///
    /// Panics only if the statically chosen rate is invalid.
    pub fn scheme(&self, rate: f64) -> Box<dyn DropoutScheme> {
        self.spec(rate)
            .build()
            .expect("experiment scheme configurations are valid")
    }

    /// The dropout scheme for the down-scaled CPU training runs
    /// ([`Method::scaled_spec`] materialized).
    ///
    /// # Panics
    ///
    /// Panics only if the statically chosen rate is invalid.
    pub fn scaled_scheme(&self, rate: f64) -> Box<dyn DropoutScheme> {
        self.scaled_spec(rate)
            .build()
            .expect("experiment scheme configurations are valid")
    }
}

/// GPU timing model for the paper's MLP with the given hidden sizes.
pub fn mlp_timing_model(h1: usize, h2: usize) -> NetworkTimingModel {
    NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::with_hidden(h1, h2))
}

/// GPU timing model for the paper's dictionary LSTM (2 × 1500, vocab 8800).
pub fn lstm_timing_model() -> NetworkTimingModel {
    NetworkTimingModel::lstm(GpuConfig::gtx_1080ti(), LstmSpec::paper_dictionary_lstm())
}

/// GPU timing model for the PTB LSTM (3 × 1500, vocab 10 000) with an
/// adjustable batch size (Fig. 6(b) sweeps it from 20 to 40).
pub fn ptb_timing_model(batch: usize) -> NetworkTimingModel {
    let mut spec = LstmSpec::paper_ptb_lstm();
    spec.batch = batch;
    NetworkTimingModel::lstm(GpuConfig::gtx_1080ti(), spec)
}

/// Expected per-iteration time (µs) of `method` at `rate` on `model`,
/// averaged over the default number of sampled plans.
pub fn iteration_time_us(model: &NetworkTimingModel, method: Method, rate: f64) -> f64 {
    model
        .expected_iteration_time(&*method.scheme(rate), DEFAULT_TIMING_SAMPLES, TIMING_SEED)
        .total_us()
}

/// Simulated speedup of `method` over the conventional-dropout baseline at a
/// uniform per-layer `rate`.
pub fn speedup_vs_baseline(model: &NetworkTimingModel, method: Method, rate: f64) -> f64 {
    model.speedup(
        &*Method::Baseline.scheme(rate),
        &*method.scheme(rate),
        DEFAULT_TIMING_SAMPLES,
        TIMING_SEED,
    )
}

/// Simulated speedup of `method` over the conventional-dropout baseline for
/// an MLP with per-layer rates `(r1, r2)`.
pub fn mlp_speedup(model: &NetworkTimingModel, method: Method, r1: f64, r2: f64) -> f64 {
    let mut baseline = vec![Method::Baseline.scheme(r1), Method::Baseline.scheme(r2)];
    let mut new = vec![method.scheme(r1), method.scheme(r2)];
    model.speedup_per_layer(&mut baseline, &mut new, DEFAULT_TIMING_SAMPLES, TIMING_SEED)
}

/// Result of a scaled accuracy-training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyResult {
    /// Held-out accuracy (fraction in `[0, 1]`).
    pub accuracy: f64,
    /// Final training loss.
    pub loss: f64,
}

/// Trains the down-scaled MLP on the synthetic MNIST task with per-layer
/// dropout rates `(r1, r2)` and the given method; returns held-out accuracy.
pub fn train_scaled_mlp(
    method: Method,
    r1: f64,
    r2: f64,
    hidden: usize,
    iterations: usize,
) -> AccuracyResult {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let data = SyntheticMnist::new(MnistConfig::small());
    let mut mlp = NetworkBuilder::new(data.dim(), data.classes())
        .hidden_layers(&[hidden, hidden])
        .layer_dropout(0, method.scaled_scheme(r1))
        .layer_dropout(1, method.scaled_scheme(r2))
        .learning_rate(0.05)
        .momentum(0.5)
        .build(&mut rng);
    let mut loss = f64::INFINITY;
    for it in 0..iterations {
        let (x, y) = data.batch(64, it as u64);
        loss = mlp.train_batch(&x, &y, &mut rng).loss as f64;
    }
    let (ex, ey) = data.eval_set(256);
    let (_, accuracy) = mlp.evaluate(&ex, &ey);
    AccuracyResult { accuracy, loss }
}

/// Trains the down-scaled LSTM language model on the synthetic corpus and
/// returns held-out next-token accuracy and perplexity.
pub fn train_scaled_lstm(
    method: Method,
    rate: f64,
    vocab: usize,
    hidden: usize,
    layers: usize,
    batch: usize,
    iterations: usize,
) -> LmResult {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let corpus = SyntheticCorpus::new(CorpusConfig {
        vocab,
        ..CorpusConfig::small()
    });
    let mut lm = LstmBuilder::new(vocab, hidden)
        .layers(layers)
        .dropout(method.scaled_scheme(rate))
        .learning_rate(0.5)
        .momentum(0.0)
        .grad_clip(5.0)
        .build(&mut rng);
    for it in 0..iterations {
        let tokens = corpus.batch(batch, 12, it as u64);
        let _ = lm.train_batch(&tokens, &mut rng);
    }
    let eval = lm.evaluate(&corpus.batch(batch, 12, u64::MAX / 5));
    LmResult {
        accuracy: eval.accuracy,
        perplexity: eval.perplexity,
    }
}

/// Result of a scaled language-model run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmResult {
    /// Held-out next-token accuracy.
    pub accuracy: f64,
    /// Held-out perplexity.
    pub perplexity: f64,
}

/// Fixed-width plain-text table printer used by every experiment binary.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one data row.
    pub fn add_row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows added so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the report as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:<w$}"))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered report to standard output.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_labels_and_schemes() {
        assert_eq!(Method::Baseline.label(), "original");
        assert_eq!(Method::Row.label(), "ROW");
        assert_eq!(Method::Tile.label(), "TILE");
        assert_eq!(Method::Row.scheme(0.5).label(), "row");
        assert_eq!(Method::Tile.scheme(0.5).label(), "tile");
        assert_eq!(Method::Baseline.scheme(0.5).label(), "bernoulli");
        assert!((Method::Row.scaled_scheme(0.5).nominal_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mlp_speedup_reproduces_paper_ordering() {
        let model = mlp_timing_model(2048, 2048);
        let row = mlp_speedup(&model, Method::Row, 0.5, 0.5);
        let tile = mlp_speedup(&model, Method::Tile, 0.5, 0.5);
        let baseline = mlp_speedup(&model, Method::Baseline, 0.5, 0.5);
        assert!((baseline - 1.0).abs() < 1e-9);
        assert!(row > tile && tile > 1.0, "row {row}, tile {tile}");
    }

    #[test]
    fn scaled_mlp_training_reaches_reasonable_accuracy() {
        let result = train_scaled_mlp(Method::Baseline, 0.3, 0.3, 64, 60);
        assert!(result.accuracy > 0.6, "accuracy {}", result.accuracy);
        assert!(result.loss.is_finite());
    }

    #[test]
    fn scaled_lstm_training_beats_chance() {
        let result = train_scaled_lstm(Method::Row, 0.3, 60, 24, 2, 8, 40);
        assert!(result.accuracy > 1.0 / 60.0, "accuracy {}", result.accuracy);
        assert!(result.perplexity < 60.0, "perplexity {}", result.perplexity);
    }

    #[test]
    fn report_renders_aligned_rows() {
        let mut report = Report::new("Demo", &["a", "bbbb"]);
        assert!(report.is_empty());
        report.add_row(&["x".to_string(), "y".to_string()]);
        assert_eq!(report.len(), 1);
        let rendered = report.render();
        assert!(rendered.contains("== Demo =="));
        assert!(rendered.contains("a  bbbb"));
        assert!(rendered.contains("x  y"));
    }
}
