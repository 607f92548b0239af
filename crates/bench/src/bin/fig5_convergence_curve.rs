//! Fig. 5 — accuracy-vs-time training curves of the row pattern vs
//! conventional dropout at rate 0.5 on the LSTM.
//!
//! Both runs train the same down-scaled language model; the time axis
//! charges each iteration the time of its *own concretely sampled* dropout
//! plans on the GPU timing model at the paper's LSTM size
//! (`NetworkTimingModel::iteration_time_from_plans`), so the row-pattern
//! curve is compressed horizontally exactly as in the paper's figure — and
//! its per-iteration jitter (the sampled `(dp, bias)` varies) is carried
//! into the simulated clock instead of being averaged away.

use approx_dropout::DropoutScheme;
use bench::{lstm_timing_model, Method, TIMING_SEED};
use data::{CorpusConfig, SyntheticCorpus};
use nn::lstm::{LstmLm, LstmLmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One sample of a training curve.
struct Record {
    /// 1-based iteration index.
    iteration: usize,
    /// Simulated time of every iteration so far, in µs.
    elapsed_us: f64,
    /// Training accuracy of this iteration's batch.
    accuracy: f64,
}

/// Trains `iterations` steps, recording every 10th iteration and the last.
fn run(method: Method, iterations: usize) -> Vec<Record> {
    let corpus = SyntheticCorpus::new(CorpusConfig {
        vocab: 120,
        ..CorpusConfig::small()
    });
    let mut rng = StdRng::seed_from_u64(42);
    let config = LstmLmConfig {
        vocab: 120,
        embed_dim: 32,
        hidden: 32,
        layers: 2,
        dropout: method.scaled_scheme(0.5),
        learning_rate: 0.5,
        momentum: 0.0,
        grad_clip: 5.0,
    };
    let mut lm = LstmLm::new(&config, &mut rng);

    // Paper-scale timing: one scheme per droppable layer of the full-size
    // LSTM, planned iteration by iteration exactly like the training loop
    // plans its own layers — the time of iteration `t` is the time of the
    // plans sampled for iteration `t`.
    let model = lstm_timing_model();
    let mut timing_schemes: Vec<Box<dyn DropoutScheme>> = (0..model.dropout_layers())
        .map(|_| method.scheme(0.5))
        .collect();
    let mut timing_rng = StdRng::seed_from_u64(TIMING_SEED);

    let mut records = Vec::new();
    let mut elapsed_us = 0.0;
    for it in 0..iterations {
        let batch = corpus.batch(10, 12, it as u64);
        let stats = lm.train_batch(&batch, &mut rng);
        let plans = model.plan_iteration(&mut timing_schemes, &mut timing_rng);
        elapsed_us += model.iteration_time_from_plans(&plans).total_us();
        let iteration = it + 1;
        if iteration % 10 == 0 || iteration == iterations {
            records.push(Record {
                iteration,
                elapsed_us,
                accuracy: stats.accuracy,
            });
        }
    }
    records
}

/// The first record whose accuracy reaches `target`, if any.
fn first_reaching_accuracy(records: &[Record], target: f64) -> Option<&Record> {
    records.iter().find(|r| r.accuracy >= target)
}

fn main() {
    let iterations = if std::env::var("ARD_FAST").map(|v| v == "1").unwrap_or(false) {
        60
    } else {
        300
    };

    println!("# Fig. 5 — training accuracy vs simulated time (dropout 0.5)");
    println!("# time axis: per-iteration sampled plan times on the paper-scale LSTM model");
    println!(
        "{:<12} {:>16} {:>12} {:>18} {:>14}",
        "iteration", "baseline_time_ms", "baseline_acc", "row_pattern_time_ms", "row_pattern_acc"
    );

    let baseline = run(Method::Baseline, iterations);
    let row = run(Method::Row, iterations);
    for (b, r) in baseline.iter().zip(&row) {
        println!(
            "{:<12} {:>16.2} {:>12.3} {:>18.2} {:>14.3}",
            b.iteration,
            b.elapsed_us / 1e3,
            b.accuracy,
            r.elapsed_us / 1e3,
            r.accuracy
        );
    }

    if let (Some(b), Some(r)) = (baseline.last(), row.last()) {
        println!(
            "\n# mean per-iteration time: baseline {:.1} us, row pattern {:.1} us",
            b.elapsed_us / b.iteration as f64,
            r.elapsed_us / r.iteration as f64
        );
    }

    let target = 0.5;
    match (
        first_reaching_accuracy(&baseline, target),
        first_reaching_accuracy(&row, target),
    ) {
        (Some(b), Some(r)) => println!(
            "time to reach {:.0}% accuracy: baseline {:.1} ms, row pattern {:.1} ms ({:.2}x earlier)",
            target * 100.0,
            b.elapsed_us / 1e3,
            r.elapsed_us / 1e3,
            b.elapsed_us / r.elapsed_us
        ),
        _ => println!("target accuracy {:.0}% not reached within {iterations} iterations", target * 100.0),
    }
}
