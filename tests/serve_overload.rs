//! Integration tests for the serving layer's overload behavior: weighted
//! fairness across QoS classes, price-based shedding order, autoscaler
//! hysteresis, the `SchemeSpec` text grammar round-trip, and the latency
//! split contract of completed jobs.

use serve::{
    AdmissionError, AutoscaleConfig, Autoscaler, BatchPolicy, JobKind, JobSpec, ModelSpec, Push,
    QosClass, QosWeights, ScaleDecision, SchemeSpec, ServeConfig, Server, ShardedQueue,
};
use std::time::{Duration, Instant};

fn tiny_catalog() -> Vec<ModelSpec> {
    vec![ModelSpec::mlp(
        "m",
        16,
        vec![32],
        4,
        SchemeSpec::Row {
            rate: 0.5,
            max_dp: 4,
        },
    )]
}

fn job(tenant: u64, seed: u64, kind: JobKind, qos: QosClass) -> JobSpec {
    JobSpec {
        tenant,
        model: 0,
        rows: 4,
        seed,
        kind,
        qos,
    }
}

/// A flooding Background tenant cannot starve an Interactive tenant: with
/// the default 8/2/1 weights, every Interactive job is served long before
/// the Background backlog drains.
#[test]
fn weighted_fairness_serves_interactive_before_a_background_flood() {
    let queue: ShardedQueue<u64> = ShardedQueue::new(1, QosWeights::default());
    // 90 Background jobs queued first, then 10 Interactive arrivals.
    for i in 0..90u64 {
        queue.push(0, 1, QosClass::Background, 1, 4, i);
    }
    for i in 0..10u64 {
        queue.push(0, 2, QosClass::Interactive, 4, 4, 100 + i);
    }
    let order: Vec<u64> = std::iter::from_fn(|| queue.pop_fair(0)).collect();
    assert_eq!(order.len(), 100);
    let last_interactive = order
        .iter()
        .rposition(|&v| v >= 100)
        .expect("interactive jobs were queued");
    // 8:1 weights — all 10 interactive jobs fit in the first ~12 weighted
    // slots; leave slack for the catch-up rule on lane activation.
    assert!(
        last_interactive < 25,
        "interactive jobs must finish early, last at position {last_interactive} of {order:?}"
    );
    // Background still makes progress before interactive finishes (weighted
    // fairness, not strict priority).
    let backgrounds_before = order[..last_interactive]
        .iter()
        .filter(|&&v| v < 100)
        .count();
    assert!(
        backgrounds_before > 0,
        "background traffic must not be starved either"
    );
}

/// Price-based shedding on a full queue evicts in rank order — Background
/// before Batch before Interactive, Infer before Train within a class —
/// and bounces an arrival that is no more valuable than anything queued.
#[test]
fn shedding_order_is_background_first_and_infer_before_train() {
    let queue: ShardedQueue<&'static str> = ShardedQueue::with_bound(1, QosWeights::default(), 4);
    let specs = [
        ("bg-infer", QosClass::Background, JobKind::Infer),
        ("bg-train", QosClass::Background, JobKind::Train),
        ("batch-infer", QosClass::Batch, JobKind::Infer),
        ("batch-train", QosClass::Batch, JobKind::Train),
    ];
    for (label, qos, kind) in specs {
        let rank = qos.rank() * 2 + kind.rank();
        assert!(matches!(
            queue.push(0, 0, qos, rank, 4, label),
            Push::Enqueued
        ));
    }
    // The queue is at its bound; an Interactive/Train arrival (rank 5)
    // displaces the cheapest victim, and repeated arrivals walk the rank
    // order upward.
    let rank_interactive_train = QosClass::Interactive.rank() * 2 + JobKind::Train.rank();
    let mut evicted = Vec::new();
    for i in 0..4 {
        match queue.push(
            0,
            9,
            QosClass::Interactive,
            rank_interactive_train,
            4,
            "interactive",
        ) {
            Push::Displaced(victim) => evicted.push(victim),
            other => panic!("push {i} should displace, got {other:?}"),
        }
    }
    assert_eq!(
        evicted,
        vec!["bg-infer", "bg-train", "batch-infer", "batch-train"],
        "victims must leave in shed-rank order"
    );
    // Now only rank-5 jobs remain: an equal-rank arrival is rejected, not
    // displaced (no same-class churn).
    assert!(matches!(
        queue.push(
            0,
            9,
            QosClass::Interactive,
            rank_interactive_train,
            4,
            "one-too-many"
        ),
        Push::Rejected("one-too-many")
    ));
    assert_eq!(queue.shed_count(), 4);
    assert_eq!(queue.rejected_count(), 1);
}

/// The autoscaler's hysteresis: a noisy queue depth oscillating around the
/// watermarks produces isolated, cooldown-spaced events — never an
/// up/down thrash within one cooldown window.
#[test]
fn autoscaler_hysteresis_does_not_thrash() {
    let config = AutoscaleConfig {
        min_workers: 1,
        max_workers: 4,
        high_watermark: 8.0,
        low_watermark: 1.0,
        alpha: 0.5,
        cooldown: Duration::from_millis(10),
        interval: Duration::from_millis(1),
    };
    let mut scaler = Autoscaler::new(config);
    let start = Instant::now();
    let mut active = 1usize;
    let mut events = Vec::new();
    // Depth alternates between deep and empty every millisecond — the kind
    // of sawtooth a batch-draining worker produces.
    for step in 0..60u64 {
        let queued = if step % 2 == 0 { 40 } else { 0 };
        let now = start + Duration::from_millis(step);
        if let Some(decision) = scaler.observe(queued, active, false, now) {
            match decision {
                ScaleDecision::Up => active += 1,
                ScaleDecision::Down => active -= 1,
            }
            events.push((step, decision));
        }
    }
    assert!(
        !events.is_empty(),
        "a sustained deep queue must eventually scale up"
    );
    assert!(
        events.iter().all(|(_, d)| matches!(d, ScaleDecision::Up)),
        "the smoothed sawtooth averages deep — scaling down would thrash: {events:?}"
    );
    for pair in events.windows(2) {
        assert!(
            pair[1].0 - pair[0].0 >= 10,
            "events within one cooldown window: {events:?}"
        );
    }
}

/// Every scheme family round-trips exactly through the text grammar, and
/// every canonical spelling builds a working scheme.
#[test]
fn scheme_spec_round_trips_every_family() {
    let specs = [
        SchemeSpec::None,
        SchemeSpec::Bernoulli { rate: 0.5 },
        SchemeSpec::Divergent { rate: 0.3 },
        SchemeSpec::Row {
            rate: 0.5,
            max_dp: 8,
        },
        SchemeSpec::Tile {
            rate: 0.5,
            max_dp: 8,
            tile: 32,
        },
        SchemeSpec::Nm { n: 2, m: 4 },
        SchemeSpec::Block {
            rate: 0.5,
            block: 16,
        },
        SchemeSpec::Crs { keep: 0.5 },
        SchemeSpec::RowCrs {
            rate: 0.5,
            max_dp: 8,
            keep: 0.5,
        },
    ];
    for spec in specs {
        let text = spec.to_string();
        let parsed: SchemeSpec = text
            .parse()
            .unwrap_or_else(|e| panic!("{text:?} must re-parse: {e}"));
        assert_eq!(parsed, spec, "round trip changed {text:?}");
        let scheme = spec
            .build()
            .unwrap_or_else(|e| panic!("{text:?} must build: {e}"));
        assert!(!scheme.label().is_empty());
    }
    assert!("hexagonal:0.5".parse::<SchemeSpec>().is_err());
    assert!("row:0.5".parse::<SchemeSpec>().is_err(), "wrong arity");
    assert!("nm:two:4".parse::<SchemeSpec>().is_err(), "bad number");
}

/// End-to-end: a bounded server under a Background flood completes every
/// Interactive job (displacing flood work to make room) and reports the
/// losses; completed jobs obey `latency == queue_wait + exec`.
#[test]
fn bounded_server_never_drops_interactive_jobs() {
    let config = ServeConfig::builder()
        .workers(1)
        .policy(BatchPolicy::PerRequest)
        .queue_bound(8)
        .build()
        .expect("test config is valid");
    let server = Server::start(config, tiny_catalog());
    let client = server.client();
    // Flood: enough Background training work to keep the bounded queue
    // full many times over while the single worker grinds through it.
    let flood: Vec<_> = (0..120u64)
        .map(|i| client.submit(job(1, i, JobKind::Train, QosClass::Background)))
        .collect();
    // Interactive burst arrives on top of the full queue.
    let interactive: Vec<_> = (0..6u64)
        .map(|i| {
            client
                .submit(job(2, 1000 + i, JobKind::Infer, QosClass::Interactive))
                .expect("interactive jobs always displace flood work")
        })
        .collect();
    let mut interactive_done = 0;
    for rx in interactive {
        let result = rx
            .recv()
            .expect("worker answers every admitted job")
            .expect("interactive jobs are never shed");
        assert_eq!(
            result.latency,
            result.queue_wait + result.exec,
            "latency must split exactly into queue wait and execution"
        );
        interactive_done += 1;
    }
    assert_eq!(interactive_done, 6);
    let mut flood_lost = 0;
    for outcome in flood {
        match outcome {
            Err(AdmissionError::Rejected { .. }) => flood_lost += 1,
            Err(AdmissionError::Shed { .. }) => unreachable!("submit never returns Shed"),
            Err(AdmissionError::Invalid { .. }) => unreachable!("every job names model 0"),
            Err(AdmissionError::EmptyJob) => unreachable!("every job has rows"),
            Ok(rx) => match rx.recv().expect("worker answers every admitted job") {
                Ok(_) => {}
                Err(AdmissionError::Shed { by }) => {
                    assert_eq!(by, QosClass::Interactive, "only interactive arrivals evict");
                    flood_lost += 1;
                }
                Err(
                    AdmissionError::Rejected { .. }
                    | AdmissionError::Invalid { .. }
                    | AdmissionError::EmptyJob,
                ) => unreachable!("reply channels carry only Shed"),
            },
        }
    }
    let report = server.shutdown();
    assert!(
        flood_lost > 0,
        "a 120-job flood against a bound of 8 must lose work"
    );
    assert_eq!(
        report.shed + report.rejected,
        flood_lost,
        "the report must account for every lost flood job"
    );
}

/// A job naming a model outside the catalog is refused at the door with a
/// typed error instead of panicking its worker: the next valid job is still
/// answered and shutdown still returns a report.
#[test]
fn unknown_model_is_rejected_at_admission() {
    let config = ServeConfig::builder()
        .workers(1)
        .build()
        .expect("test config is valid");
    let server = Server::start(config, tiny_catalog());
    let client = server.client();
    let bad = JobSpec {
        model: 1,
        ..job(1, 0, JobKind::Train, QosClass::Batch)
    };
    match client.submit(bad) {
        Err(AdmissionError::Invalid { model, catalog }) => assert_eq!((model, catalog), (1, 1)),
        other => panic!("an unknown model must be refused, got {other:?}"),
    }
    let reply = client
        .submit(job(1, 1, JobKind::Train, QosClass::Batch))
        .expect("a valid job is admitted")
        .recv()
        .expect("the worker is alive and answers")
        .expect("the job is served");
    assert!(reply.value.is_finite());
    let report = server.shutdown();
    assert_eq!(report.jobs, 1);
}

/// A zero-row job is refused at the door for every model family and job
/// kind, instead of panicking an LSTM worker on an empty batch (stranding
/// its shard) or taking a data-free momentum step on an MLP: the next real
/// job on the same shard is still answered.
#[test]
fn zero_row_jobs_are_refused_at_admission() {
    let lstm = ModelSpec::lstm(
        "lm",
        16,
        8,
        1,
        4,
        SchemeSpec::Row {
            rate: 0.5,
            max_dp: 4,
        },
    );
    for catalog in [tiny_catalog(), vec![lstm]] {
        let config = ServeConfig::builder()
            .workers(1)
            .build()
            .expect("test config is valid");
        let server = Server::start(config, catalog);
        let client = server.client();
        for kind in [JobKind::Train, JobKind::Infer] {
            let empty = JobSpec {
                rows: 0,
                ..job(1, 0, kind, QosClass::Interactive)
            };
            match client.submit(empty) {
                Err(AdmissionError::EmptyJob) => {}
                other => panic!("a zero-row {kind:?} job must be refused, got {other:?}"),
            }
        }
        let reply = client
            .submit(job(1, 1, JobKind::Train, QosClass::Interactive))
            .expect("a real job is admitted")
            .recv()
            .expect("the worker is alive and answers")
            .expect("the job is served");
        assert!(reply.value.is_finite());
        let report = server.shutdown();
        assert_eq!(report.jobs, 1);
    }
}
