//! Integration tests for the serving-layer `DropoutPlan` cache: cached
//! plans must be bitwise identical to freshly sampled ones for every
//! scheme family, cache hits must recycle the destination buffers, and a
//! serve engine must produce bit-for-bit the same losses with the cache
//! on and off — and the same Train losses with its Infer dispatches
//! removed.

use approx_dropout::{
    scheme, DropoutPlan, DropoutRate, DropoutScheme, LayerShape, PlanCache, PlanKey, RowPattern,
    SchemeSpec, TilePattern,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{JobKind, JobSpec, ModelSpec, QosClass, ShardEngine};
use std::sync::Arc;

fn all_schemes() -> Vec<Box<dyn DropoutScheme>> {
    vec![
        scheme::none(),
        scheme::bernoulli(DropoutRate::new(0.5).unwrap()),
        scheme::divergent_bernoulli(DropoutRate::new(0.3).unwrap()),
        Box::new(RowPattern::new(3, 1).unwrap()),
        Box::new(TilePattern::new(2, 0, 8).unwrap()),
        scheme::row(DropoutRate::new(0.5).unwrap(), 8).unwrap(),
        scheme::tile(DropoutRate::new(0.5).unwrap(), 8, 16).unwrap(),
        scheme::nm(2, 4).unwrap(),
        scheme::block_unit(DropoutRate::new(0.5).unwrap(), 8).unwrap(),
    ]
}

/// Samples the plan for `key` exactly the way the serve engine does on a
/// cache miss: a fresh rng seeded from the key, drawn through `plan_into`.
fn sample_for_key(scheme: &mut dyn DropoutScheme, key: PlanKey, out: &mut DropoutPlan) {
    let mut rng = StdRng::seed_from_u64(key.seed());
    scheme.plan_into(&mut rng, key.shape, out);
}

/// The serving determinism contract: for every scheme family, a plan that
/// went through the cache (miss, then hit into a recycled dirty buffer)
/// is bitwise identical to one sampled directly from the key.
#[test]
fn cached_plan_is_bitwise_identical_to_fresh_for_every_scheme() {
    let cache = PlanCache::new(4);
    let shape = LayerShape::new(64, 96);
    for (id, reference) in all_schemes().into_iter().enumerate() {
        let mut sampler = reference.clone();
        let mut direct = reference.clone();
        for epoch in 0..3u64 {
            let key = PlanKey::new(id as u64, shape, epoch);
            let mut fresh = DropoutPlan::default();
            sample_for_key(direct.as_mut(), key, &mut fresh);

            // Miss path: the cache samples into the destination.
            let mut via_miss = DropoutPlan::default();
            let hit = cache.fetch(key, &mut via_miss, |out| {
                sample_for_key(sampler.as_mut(), key, out)
            });
            assert!(!hit, "first fetch of {} must miss", reference.label());
            assert_eq!(fresh, via_miss, "miss diverged for {}", reference.label());

            // Hit path: clone_from into a deliberately dirty buffer of a
            // different family, so stale state would surface.
            let mut via_hit = fresh.clone();
            let mut tile = TilePattern::new(3, 2, 4).unwrap();
            tile.plan_into(
                &mut StdRng::seed_from_u64(0),
                LayerShape::new(8, 8),
                &mut via_hit,
            );
            let hit = cache.fetch(key, &mut via_hit, |_| {
                panic!("second fetch of {} must not re-sample", reference.label())
            });
            assert!(hit);
            assert_eq!(fresh, via_hit, "hit diverged for {}", reference.label());
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.hits, stats.misses, "every key fetched twice");
}

/// Eviction costs a re-miss, never a different plan: re-sampling after
/// `evict_before` reproduces the evicted entry bit for bit.
#[test]
fn eviction_resamples_identical_plans() {
    let cache = PlanCache::new(2);
    let shape = LayerShape::vector(80);
    let mut scheme = scheme::row(DropoutRate::new(0.5).unwrap(), 8).unwrap();
    let key = PlanKey::new(7, shape, 2);

    let mut first = DropoutPlan::default();
    cache.fetch(key, &mut first, |out| {
        sample_for_key(scheme.as_mut(), key, out)
    });
    assert_eq!(cache.evict_before(3), 1, "epoch-2 entry must be evicted");

    let mut again = DropoutPlan::default();
    let hit = cache.fetch(key, &mut again, |out| {
        sample_for_key(scheme.as_mut(), key, out)
    });
    assert!(!hit, "evicted key must re-miss");
    assert_eq!(first, again, "re-sampled plan diverged from evicted one");
}

/// Infer dispatches never move training: the Train outcomes (loss bits and
/// seed epoch) of `trace` equal those of the same trace with its Infer
/// batches removed, so an evaluation neither changes a replica's weights
/// nor advances its epoch.
fn assert_infers_never_move_training(
    catalog: &[ModelSpec],
    trace: &[Vec<JobSpec>],
    epoch_rounds: u64,
    init_seed: u64,
) {
    let train_outcomes = |with_infers: bool| -> Vec<(u32, u64)> {
        let mut engine = ShardEngine::new(catalog, None, epoch_rounds, init_seed);
        trace
            .iter()
            .filter(|batch| with_infers || batch[0].kind == JobKind::Train)
            .map(|batch| engine.execute(batch))
            .filter(|outcome| outcome.kind == JobKind::Train)
            .map(|outcome| (outcome.value.to_bits(), outcome.epoch))
            .collect()
    };
    assert!(trace.iter().any(|batch| batch[0].kind == JobKind::Infer));
    assert_eq!(
        train_outcomes(true),
        train_outcomes(false),
        "Infer dispatches must not move a Train result"
    );
}

/// A deterministic multi-model trace (MLP and LSTM replicas, train and
/// infer dispatches, several seed epochs, enough dispatches to trigger
/// cache eviction) produces bit-for-bit identical losses whether plans
/// come from the shared cache or are sampled per dispatch, and its Infer
/// dispatches never move its Train losses.
#[test]
fn serve_results_bitwise_identical_with_and_without_cache() {
    let catalog = vec![
        ModelSpec::mlp(
            "mlp",
            12,
            vec![16, 16],
            4,
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 4,
            },
        ),
        ModelSpec::lstm(
            "lstm",
            32,
            16,
            2,
            6,
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 4,
            },
        ),
    ];
    let trace: Vec<Vec<JobSpec>> = (0..24)
        .map(|step| {
            let model = step % 2;
            let kind = if step % 5 == 4 {
                JobKind::Infer
            } else {
                JobKind::Train
            };
            (0..1 + step % 3)
                .map(|j| JobSpec {
                    tenant: j as u64,
                    model,
                    rows: 2 + (step + j) % 3,
                    seed: (step * 31 + j) as u64,
                    kind,
                    qos: QosClass::Batch,
                })
                .collect()
        })
        .collect();

    let run = |cache: Option<Arc<PlanCache>>| -> Vec<u32> {
        let mut engine = ShardEngine::new(&catalog, cache, 2, 42);
        trace
            .iter()
            .map(|batch| engine.execute(batch).value.to_bits())
            .collect()
    };

    let cache = Arc::new(PlanCache::new(4));
    let cached = run(Some(Arc::clone(&cache)));
    let uncached = run(None);
    assert_eq!(
        cached, uncached,
        "losses must be bitwise identical with the plan cache on and off"
    );
    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "the trace must actually exercise the hit path (got {stats:?})"
    );
    assert_infers_never_move_training(&catalog, &trace, 2, 42);
}

/// The transformer replica rides the same determinism contract: a trace of
/// whole-head-drop train and infer dispatches against `TransformerLm`
/// replicas produces bit-for-bit the same losses with the shared plan
/// cache on and off, and the same Train losses with its Infer dispatches
/// removed.
#[test]
fn transformer_serve_results_bitwise_identical_with_and_without_cache() {
    let catalog = vec![ModelSpec::transformer_lm(
        "transformer",
        40,
        16,
        4,
        32,
        2,
        6,
        SchemeSpec::Transformer {
            rate: 0.5,
            head_dim: 4,
        },
    )];
    let trace: Vec<Vec<JobSpec>> = (0..18)
        .map(|step| {
            let kind = if step % 4 == 3 {
                JobKind::Infer
            } else {
                JobKind::Train
            };
            (0..1 + step % 2)
                .map(|j| JobSpec {
                    tenant: j as u64,
                    model: 0,
                    rows: 2 + (step + j) % 3,
                    seed: (step * 17 + j) as u64,
                    kind,
                    qos: QosClass::Batch,
                })
                .collect()
        })
        .collect();

    let run = |cache: Option<Arc<PlanCache>>| -> Vec<u32> {
        let mut engine = ShardEngine::new(&catalog, cache, 2, 7);
        trace
            .iter()
            .map(|batch| engine.execute(batch).value.to_bits())
            .collect()
    };

    let cache = Arc::new(PlanCache::new(4));
    let cached = run(Some(Arc::clone(&cache)));
    let uncached = run(None);
    assert_eq!(
        cached, uncached,
        "transformer losses must be bitwise identical with the plan cache on and off"
    );
    assert!(
        cached.iter().all(|bits| f32::from_bits(*bits).is_finite()),
        "every trace step must produce a finite loss"
    );
    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "the transformer trace must exercise the hit path (got {stats:?})"
    );
    assert_infers_never_move_training(&catalog, &trace, 2, 7);
}
