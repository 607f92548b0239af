//! Planning is allocation-free once a plan buffer is warm: `plan_into` into
//! a recycled [`DropoutPlan`] makes no heap allocation for any scheme family,
//! and neither does a warmed `Mlp::train_batch` at one pool thread, nor a
//! warmed `evaluate` or training step of any model family, nor a warmed
//! serve dispatch.
//! The counting global allocator below is the only one in this test binary,
//! and it counts per thread, so nothing but the measured calls is counted.

use approx_dropout::{
    scheme, CrsSampling, DropoutPlan, DropoutRate, DropoutScheme, LayerShape, PlanCache,
    RowPattern, SchemeSpec, TilePattern,
};
use nn::lstm::{LstmLm, LstmLmConfig};
use nn::{Mlp, MlpConfig, TransformerLm, TransformerLmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{JobKind, JobSpec, ModelSpec, QosClass, ShardEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Heap allocations (and reallocations) made by the current thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell`, so bumping it neither allocates nor runs a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warmed_plan_into_allocates_nothing_for_every_scheme() {
    let rate = DropoutRate::new(0.5).unwrap();
    let schemes: Vec<Box<dyn DropoutScheme>> = vec![
        scheme::none(),
        scheme::bernoulli(rate),
        scheme::divergent_bernoulli(rate),
        scheme::row(rate, 16).unwrap(),
        scheme::tile(rate, 16, 8).unwrap(),
        Box::new(RowPattern::new(4, 1).unwrap()),
        Box::new(TilePattern::new(2, 0, 8).unwrap()),
        scheme::nm(2, 4).unwrap(),
        scheme::nm(1, 4).unwrap(),
        scheme::block_unit(rate, 8).unwrap(),
        scheme::crs(0.5).unwrap(),
        scheme::row_crs(rate, 16, 0.5).unwrap(),
        Box::new(CrsSampling::composed(0.5, Box::new(RowPattern::new(4, 1).unwrap())).unwrap()),
    ];
    let shape = LayerShape::new(64, 96);
    for mut s in schemes {
        let mut rng = StdRng::seed_from_u64(3);
        let mut plan = DropoutPlan::default();
        // Warm-up: the kept-index, mask and scratch buffers grow to the
        // largest kept set the scheme draws.
        for _ in 0..100 {
            s.plan_into(&mut rng, shape, &mut plan);
        }
        let before = ALLOCATIONS.with(Cell::get);
        for _ in 0..100 {
            s.plan_into(&mut rng, shape, &mut plan);
        }
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(
            allocations,
            0,
            "scheme {} allocated {allocations} times in 100 warmed plan_into calls",
            s.label()
        );
    }
}

/// Every MLP scheme family the training and evaluation pins sweep.
const MLP_SPECS: [&str; 9] = [
    "none",
    "bernoulli:0.5",
    "divergent:0.5",
    "row:0.5:16",
    "tile:0.5:16:8",
    "nm:2:4",
    "block:0.5:8",
    "crs:0.5",
    "row_crs:0.5:16:0.5",
];

fn build(spec: &str) -> Box<dyn DropoutScheme> {
    spec.parse::<SchemeSpec>().unwrap().build().unwrap()
}

/// A 32-48-48-10 MLP under `spec`.
fn mlp(spec: &str, rng: &mut StdRng) -> Mlp {
    let config = MlpConfig {
        input_dim: 32,
        hidden: vec![48, 48],
        output_dim: 10,
        dropout: build(spec),
        learning_rate: 0.01,
        momentum: 0.9,
    };
    Mlp::new(&config, rng)
}

/// `batch` random MLP inputs with their labels.
fn labelled(rng: &mut StdRng, batch: usize) -> (tensor::Matrix, Vec<usize>) {
    let inputs = tensor::init::uniform(rng, batch, 32, -1.0, 1.0);
    let labels = (0..batch).map(|_| rng.gen_range(0..10)).collect();
    (inputs, labels)
}

/// `batch` deterministic sequences of `seq + 1` tokens below 40.
fn tokens(batch: usize, seq: usize) -> Vec<Vec<usize>> {
    (0..batch)
        .map(|s| (0..=seq).map(|t| (s * 3 + t * 7) % 40).collect())
        .collect()
}

/// Allocations made by 100 calls of `pair` after `warmup` uncounted ones.
fn allocations_after_warmup(warmup: usize, mut pair: impl FnMut()) -> usize {
    for _ in 0..warmup {
        pair();
    }
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..100 {
        pair();
    }
    ALLOCATIONS.with(Cell::get) - before
}

/// README hot-path item 3: once warmed, a training step allocates nothing
/// when the pool runs one thread, for every scheme family — `Linear` caches
/// each step's plan through `DropoutPlan::clone_from`, so this also pins
/// that the plan copy recycles its buffers. Tile and block kept sets vary
/// in size, so their buffers keep growing to new highs for a while: the
/// warm-up is deliberately long.
#[test]
fn warmed_mlp_train_step_allocates_nothing_at_one_thread() {
    tensor::pool::set_threads(1);
    for spec in MLP_SPECS {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = mlp(spec, &mut rng);
        let (inputs, labels) = labelled(&mut rng, 16);
        let allocations = allocations_after_warmup(200, || {
            mlp.train_batch(&inputs, &labels, &mut rng);
        });
        assert_eq!(
            allocations, 0,
            "{spec}: {allocations} allocations in 100 warmed train steps"
        );
    }
}

/// README hot-path item 3 for evaluation, and for LSTM and transformer
/// training: `evaluate` runs each family's training forward with identity
/// plans on the model's own buffers, so once warmed neither it nor the
/// training step between two evaluations allocates. Training and
/// evaluation use different batch sizes on purpose: a cache that frees its
/// buffers when the batch shrinks reallocates them on every pair. The MLP
/// warm-up is as long as the pool pin's: tile and block kept sets keep
/// growing to new highs for a while.
#[test]
fn warmed_train_and_evaluate_pairs_allocate_nothing_for_every_family() {
    tensor::pool::set_threads(1);
    let mut failures = Vec::new();
    for spec in MLP_SPECS {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = mlp(spec, &mut rng);
        let (inputs, labels) = labelled(&mut rng, 16);
        let (eval_inputs, eval_labels) = labelled(&mut rng, 6);
        let allocations = allocations_after_warmup(300, || {
            mlp.train_batch(&inputs, &labels, &mut rng);
            mlp.evaluate(&eval_inputs, &eval_labels);
        });
        failures.push((format!("mlp {spec}"), allocations));
    }
    let (train, eval) = (tokens(4, 4), tokens(2, 4));
    for spec in ["none", "bernoulli:0.5", "row:0.5:8", "tile:0.5:8:8"] {
        let mut rng = StdRng::seed_from_u64(3);
        let config = LstmLmConfig {
            vocab: 40,
            embed_dim: 16,
            hidden: 16,
            layers: 2,
            dropout: build(spec),
            learning_rate: 0.5,
            momentum: 0.0,
            grad_clip: 5.0,
        };
        let mut lm = LstmLm::new(&config, &mut rng);
        let allocations = allocations_after_warmup(100, || {
            lm.train_batch(&train, &mut rng);
            lm.evaluate(&eval);
        });
        failures.push((format!("lstm {spec}"), allocations));
    }
    for (attn, ffn) in [
        ("none", "none"),
        ("transformer:0.5:4", "none"),
        ("nm:2:4", "row:0.5:8"),
        ("bernoulli:0.5", "bernoulli:0.5"),
    ] {
        let mut rng = StdRng::seed_from_u64(4);
        let config = TransformerLmConfig {
            vocab: 40,
            model_dim: 16,
            heads: 4,
            ff_dim: 32,
            layers: 2,
            attn_dropout: build(attn),
            ffn_dropout: build(ffn),
            learning_rate: 0.05,
            momentum: 0.0,
            grad_clip: 5.0,
        };
        let mut lm = TransformerLm::new(&config, &mut rng);
        let allocations = allocations_after_warmup(100, || {
            lm.train_batch(&train, &mut rng);
            lm.evaluate(&eval);
        });
        failures.push((format!("transformer {attn} / {ffn}"), allocations));
    }
    failures.retain(|&(_, allocations)| allocations > 0);
    assert!(
        failures.is_empty(),
        "allocations in 100 warmed train+evaluate pairs: {failures:?}"
    );
}

/// README hot-path item 3 for serving: every replica owns its batch inputs
/// and `serve::materialize` rewrites them in place, so once warmed a
/// `ShardEngine` dispatch allocates nothing — neither 100 Infer dispatches
/// with the plan cache on nor 100 Train dispatches with it off — over an
/// MLP, an LSTM and a transformer at 1–8 rows per dispatch. Row and
/// head-drop kept sets keep growing their gather buffers to new highs for
/// a while, so the warm-up is long.
#[test]
fn warmed_serve_dispatches_allocate_nothing() {
    tensor::pool::set_threads(1);
    let parse = |spec: &str| spec.parse::<SchemeSpec>().unwrap();
    let catalog = [
        ModelSpec::mlp("mlp", 16, vec![32, 24], 4, parse("row:0.5:8")),
        ModelSpec::lstm("lstm", 40, 16, 2, 6, parse("row:0.5:8")),
        ModelSpec::transformer_lm("tf", 40, 16, 4, 32, 2, 6, parse("transformer:0.5:4")),
    ];
    // Dispatch `i` runs model `i % 3` at 1–8 rows.
    let job = |i: usize, kind: JobKind| JobSpec {
        tenant: 0,
        model: i % 3,
        rows: 1 + (i / 3) % 8,
        seed: i as u64,
        kind,
        qos: QosClass::Batch,
    };
    let mut failures = Vec::new();
    for (cache, kind) in [
        (Some(Arc::new(PlanCache::new(4))), JobKind::Infer),
        (None, JobKind::Train),
    ] {
        let mut engine = ShardEngine::new(&catalog, cache, 2, 1);
        for i in 0..600 {
            engine.execute(&[job(i, JobKind::Train)]);
            engine.execute(&[job(i, JobKind::Infer)]);
        }
        let before = ALLOCATIONS.with(Cell::get);
        for i in 0..100 {
            engine.execute(&[job(i, kind)]);
        }
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        if allocations > 0 {
            failures.push((kind, allocations));
        }
    }
    assert!(
        failures.is_empty(),
        "allocations in 100 warmed serve dispatches: {failures:?}"
    );
}
