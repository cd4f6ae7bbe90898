//! Integration tests for whole-network serving: a network served as a
//! one-tenant `MultiEngine` fleet must be **bit-identical** to sequential
//! per-stage reference execution (outputs and `DataPathStats` rollup), a
//! failing group must deliver its typed error to every request in it, the
//! bounded queue must shed or block per policy, and plan-cache warming
//! must make compilation miss-free.

use epim_core::{ConvShape, EpitomeDesigner, EpitomeSpec};
use epim_models::lower::NetworkWeights;
use epim_models::network::{Network, OperatorChoice};
use epim_models::resnet::{Backbone, LayerInfo};
use epim_models::zoo;
use epim_pim::datapath::{AnalogModel, DataPathStats};
use epim_runtime::{
    FlowControl, MultiEngine, NetworkPlan, PlanCache, RuntimeError, TenantConfig, TenantId,
};
use epim_tensor::{init, rng, Tensor};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn layer(name: &str, conv: ConvShape, res: usize) -> LayerInfo {
    LayerInfo {
        name: name.to_string(),
        conv,
        out_h: res,
        out_w: res,
    }
}

/// The zoo's tiny ResNet (stem 8, inner width 4, 10 classes) with its two
/// 3×3 convolutions replaced by a shared epitome spec (so the plan cache
/// can pay off across layers).
fn tiny_resnet_network() -> (Network, EpitomeSpec) {
    zoo::tiny_epitome_network(8, 4, 10).unwrap()
}

/// Serves `net` for `input_hw` inputs as the only tenant of a fresh
/// `workers`-thread fleet.
fn serve_alone(
    net: &Network,
    weights: &NetworkWeights,
    input_hw: (usize, usize),
    analog: AnalogModel,
    config: TenantConfig,
    workers: usize,
) -> Result<(MultiEngine, TenantId), RuntimeError> {
    let cache = PlanCache::new();
    let mut builder = MultiEngine::builder(&cache).workers(workers);
    let id = builder.register("net", net, weights, input_hw, true, analog, config)?;
    Ok((builder.build()?, id))
}

/// The reference outputs of `requests`: sequential per-request execution
/// of the unoptimized program.
fn reference(net: &Network, weights: &NetworkWeights, requests: &[Tensor]) -> Vec<Tensor> {
    let prog = net.lower(16, 16).unwrap();
    requests
        .iter()
        .map(|x| {
            prog.forward_reference(weights, true, AnalogModel::ideal(), x)
                .unwrap()
                .0
        })
        .collect()
}

/// Serves `requests` through a fresh one-tenant fleet and checks outputs
/// and stats against sequential per-request reference execution, bit for
/// bit.
fn assert_serves_like_reference(
    net: &Network,
    weights: &NetworkWeights,
    input_hw: (usize, usize),
    analog: AnalogModel,
    (config, workers): (TenantConfig, usize),
    requests: Vec<Tensor>,
) {
    let prog = net.lower(input_hw.0, input_hw.1).unwrap();
    let mut want_stats = DataPathStats::default();
    let want: Vec<Tensor> = requests
        .iter()
        .map(|x| {
            let (y, s) = prog.forward_reference(weights, true, analog, x).unwrap();
            want_stats.accumulate(&s);
            y
        })
        .collect();

    let (engine, id) = serve_alone(net, weights, input_hw, analog, config, workers).unwrap();
    let results = engine.infer_many(id, requests).unwrap();
    for (i, (res, w)) in results.iter().zip(&want).enumerate() {
        let inference = res.as_ref().expect("inference succeeds");
        assert_eq!(inference.output, *w, "request {i} diverged from reference");
    }
    let stats = engine.tenant_stats(id).unwrap();
    assert_eq!(stats.requests, want.len() as u64);
    assert_eq!(
        stats.datapath, want_stats,
        "stats rollup diverged from sequential reference"
    );
}

/// The house invariant on the ResNet-style network: a burst served
/// through the pipelined engine equals per-request reference execution.
#[test]
fn resnet_style_network_serves_bit_identically() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 11).unwrap();
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let mut r = rng::seeded(12);
    let requests: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    assert_serves_like_reference(
        &net,
        &weights,
        (16, 16),
        analog,
        (
            TenantConfig {
                max_batch: 4,
                batch_window: Duration::from_millis(20),
                ..TenantConfig::default()
            },
            1,
        ),
        requests,
    );
}

/// Same invariant with pipelined workers and mixed request sizes (N=1 and
/// N=2 requests form their own shape groups).
#[test]
fn pipelined_workers_and_mixed_batch_sizes_stay_bit_identical() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 21).unwrap();
    let mut r = rng::seeded(22);
    let requests: Vec<Tensor> = (0..10)
        .map(|i| init::uniform(&[1 + (i % 2), 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    assert_serves_like_reference(
        &net,
        &weights,
        (16, 16),
        AnalogModel::ideal(),
        (
            TenantConfig {
                max_batch: 4,
                batch_window: Duration::from_millis(10),
                ..TenantConfig::default()
            },
            3,
        ),
        requests,
    );
}

// Random small chain networks with random epitome choices: the property
// form of the tentpole invariant.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn network_engine_matches_reference_on_random_networks(
        c0 in 2usize..=6,
        c1 in 2usize..=6,
        classes in 2usize..=8,
        epi0 in any::<bool>(),
        epi1 in any::<bool>(),
        quantized in any::<bool>(),
        workers in 1usize..=3,
        seed in 0u64..10_000,
    ) {
        let bb = Backbone {
            name: "chain".to_string(),
            layers: vec![
                layer("l0", ConvShape::new(c0, 3, 3, 3), 8),
                layer("l1", ConvShape::new(c1, c0, 3, 3), 4),
                layer("head", ConvShape::new(classes, c1, 1, 1), 1),
            ],
        };
        let designer = EpitomeDesigner::new(16, 16);
        let mut net = Network::baseline(bb.clone());
        if epi0 {
            let conv = bb.layers[0].conv;
            let spec = designer.design(conv, conv.matrix_rows() / 2, c0).unwrap();
            net.set_choice(0, OperatorChoice::Epitome(spec)).unwrap();
        }
        if epi1 {
            let conv = bb.layers[1].conv;
            let spec =
                designer.design(conv, conv.matrix_rows() / 2, (c1 / 2).max(1)).unwrap();
            net.set_choice(1, OperatorChoice::Epitome(spec)).unwrap();
        }
        let weights = NetworkWeights::random(&net, seed).unwrap();
        let analog = if quantized {
            AnalogModel {
                weight_noise_std: 0.02,
                adc_bits: Some(8),
                dac_bits: Some(9),
                noise_seed: seed,
                ..AnalogModel::ideal()
            }
        } else {
            AnalogModel::ideal()
        };
        let mut r = rng::seeded(seed ^ 0x9e37);
        let requests: Vec<Tensor> =
            (0..5).map(|_| init::uniform(&[1, 3, 8, 8], -1.0, 1.0, &mut r)).collect();
        assert_serves_like_reference(
            &net,
            &weights,
            (8, 8),
            analog,
            (
                TenantConfig {
                    max_batch: 3,
                    batch_window: Duration::from_millis(10),
                    ..TenantConfig::default()
                },
                workers,
            ),
            requests,
        );
    }
}

/// Warming the cache with the network's specs makes plan compilation
/// miss-free, and the engine surfaces the cache counters in its stats.
#[test]
fn warmed_cache_compiles_with_zero_misses() {
    let (net, spec) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 31).unwrap();
    let cache = PlanCache::new();
    let plans = cache.warm_network(&net).unwrap();
    assert_eq!(plans.len(), 2, "two epitome layers");
    assert_eq!(cache.stats().entries, 1, "shared spec compiles once");
    let misses_after_warm = cache.stats().misses;
    assert_eq!(misses_after_warm, 1);

    let program = net.lower(16, 16).unwrap().optimize();
    let plan = Arc::new(
        NetworkPlan::compile(&cache, program, &weights, true, AnalogModel::ideal()).unwrap(),
    );
    assert_eq!(
        cache.stats().misses,
        misses_after_warm,
        "warm compilation must not miss"
    );
    assert_eq!(plan.program().epitome_specs(), vec![&spec]);

    // The engine reports the shared cache's counters.
    let mut builder = MultiEngine::builder(&cache);
    let id = builder
        .register_plan("net", plan, TenantConfig::default())
        .unwrap();
    let engine = builder.build().unwrap();
    let stats = engine.tenant_stats(id).unwrap();
    assert_eq!(stats.plan_cache.misses, misses_after_warm);
    assert_eq!(stats.plan_cache.entries, 1);
    assert!(stats.plan_cache.hits >= 2);
}

/// A group that fails delivers the same typed error to every request in
/// it: plan errors depend only on the input shape, and groups are
/// shape-uniform.
#[test]
fn failed_group_delivers_its_error_to_every_request() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 91).unwrap();
    let (engine, id) = serve_alone(
        &net,
        &weights,
        (16, 16),
        AnalogModel::ideal(),
        TenantConfig {
            max_batch: 4,
            batch_window: Duration::from_millis(20),
            ..TenantConfig::default()
        },
        1,
    )
    .unwrap();
    let wrong_channels = || Tensor::zeros(&[1, 5, 16, 16]);
    let results = engine
        .infer_many(id, vec![wrong_channels(), wrong_channels()])
        .unwrap();
    let errors: Vec<RuntimeError> = results.into_iter().map(|r| r.unwrap_err()).collect();
    assert!(matches!(errors[0], RuntimeError::Pim(_)), "{:?}", errors[0]);
    assert_eq!(errors[0], errors[1], "both requests get the group's error");
    let stats = engine.tenant_stats(id).unwrap();
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.batches, 0);
}

/// A burst mixing good and bad requests serves every good request
/// bit-identically to the reference and counts exactly the successes.
#[test]
fn mixed_burst_serves_good_requests_and_counts_successes() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 92).unwrap();
    let (engine, id) = serve_alone(
        &net,
        &weights,
        (16, 16),
        AnalogModel::ideal(),
        TenantConfig {
            max_batch: 4,
            batch_window: Duration::from_millis(20),
            ..TenantConfig::default()
        },
        1,
    )
    .unwrap();
    let mut r = rng::seeded(93);
    let good: Vec<Tensor> = (0..2)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    let want = reference(&net, &weights, &good);
    let burst = vec![
        good[0].clone(),
        Tensor::zeros(&[1, 3, 8, 8]),
        good[1].clone(),
    ];
    let results = engine.infer_many(id, burst).unwrap();
    assert_eq!(results[0].as_ref().unwrap().output, want[0]);
    assert!(
        matches!(results[1], Err(RuntimeError::Pim(_))),
        "{:?}",
        results[1]
    );
    assert_eq!(results[2].as_ref().unwrap().output, want[1]);
    let stats = engine.tenant_stats(id).unwrap();
    assert_eq!(stats.requests, 2, "requests counts exactly the successes");
    assert_eq!(stats.batches, 1, "the two good requests shared one group");
}

/// `Shed` rejects when the bounded queue is full; nothing hangs.
#[test]
fn shed_policy_rejects_under_load() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 41).unwrap();
    let (engine, id) = serve_alone(
        &net,
        &weights,
        (16, 16),
        AnalogModel::ideal(),
        TenantConfig {
            max_batch: 4,
            // A long window parks the queued requests in the queue while
            // the scheduler waits for the batch to fill.
            batch_window: Duration::from_millis(400),
            queue_capacity: 2,
            flow: FlowControl::Shed {
                timeout: Duration::from_millis(10),
            },
            weight: 1,
        },
        1,
    )
    .unwrap();
    let x = || init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut rng::seeded(43));

    std::thread::scope(|scope| {
        // Two requests fill the queue and sit in the coalescing window.
        let h1 = scope.spawn({
            let engine = &engine;
            let x = x();
            move || engine.infer(id, x)
        });
        let h2 = scope.spawn({
            let engine = &engine;
            let x = x();
            move || engine.infer(id, x)
        });
        std::thread::sleep(Duration::from_millis(100));
        // The queue is full: try_infer sheds immediately...
        let shed = engine.try_infer(id, x());
        assert!(
            matches!(shed, Err(RuntimeError::Overloaded { capacity: 2, .. })),
            "{shed:?}"
        );
        // ...and a blocking infer under the Shed policy gives up after its
        // timeout instead of waiting forever.
        let shed = engine.infer(id, x());
        assert!(
            matches!(shed, Err(RuntimeError::Overloaded { .. })),
            "{shed:?}"
        );
        // The queued requests still complete once the window expires.
        assert!(h1.join().unwrap().is_ok());
        assert!(h2.join().unwrap().is_ok());
    });
    let stats = engine.tenant_stats(id).unwrap();
    assert!(
        stats.shed >= 2,
        "shed counter must record rejections, got {}",
        stats.shed
    );
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.queue_depth, 0);
}

/// `Block` applies backpressure but never drops: every submission beyond
/// the queue capacity completes.
#[test]
fn block_policy_never_drops() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 51).unwrap();
    let (engine, id) = serve_alone(
        &net,
        &weights,
        (16, 16),
        AnalogModel::ideal(),
        TenantConfig {
            max_batch: 2,
            batch_window: Duration::ZERO,
            queue_capacity: 2,
            flow: FlowControl::Block,
            weight: 1,
        },
        1,
    )
    .unwrap();
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 4;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let engine = &engine;
            scope.spawn(move || {
                let mut r = rng::seeded(60 + c as u64);
                for _ in 0..PER_CLIENT {
                    let x = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r);
                    engine.infer(id, x).expect("Block policy never sheds");
                }
            });
        }
    });
    let stats = engine.tenant_stats(id).unwrap();
    assert_eq!(stats.requests, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.queue_depth, 0);
}

/// Invalid configurations and oversized bursts fail with typed errors
/// instead of hanging or panicking a scheduler thread.
#[test]
fn invalid_configs_rejected_with_typed_errors() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 61).unwrap();
    let make = |config: TenantConfig, workers: usize| {
        serve_alone(
            &net,
            &weights,
            (16, 16),
            AnalogModel::ideal(),
            config,
            workers,
        )
    };
    for (bad, workers) in [
        (
            TenantConfig {
                max_batch: 0,
                ..TenantConfig::default()
            },
            1,
        ),
        (
            TenantConfig {
                queue_capacity: 0,
                ..TenantConfig::default()
            },
            1,
        ),
        (TenantConfig::default(), 0),
    ] {
        assert!(
            matches!(make(bad, workers), Err(RuntimeError::InvalidConfig { .. })),
            "{bad:?} with {workers} workers"
        );
    }

    // A burst larger than the queue can ever hold fails whole.
    let (engine, id) = make(
        TenantConfig {
            queue_capacity: 2,
            ..TenantConfig::default()
        },
        1,
    )
    .unwrap();
    let mut r = rng::seeded(62);
    let burst: Vec<Tensor> = (0..3)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    assert!(matches!(
        engine.infer_many(id, burst),
        Err(RuntimeError::InvalidConfig { .. })
    ));

    // Bad requests fail alone without poisoning the engine.
    let wrong_channels = Tensor::zeros(&[1, 5, 16, 16]);
    assert!(matches!(
        engine.infer(id, wrong_channels),
        Err(RuntimeError::Pim(_))
    ));
    let good = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r);
    assert!(engine.infer(id, good).is_ok());
}

/// The graph-fusion pass is invisible to callers: a tenant serving the
/// optimized program and one serving the unoptimized program return
/// outputs bitwise equal to the reference with equal stats, while the
/// fused plan runs fewer stages and both liveness-planned arenas stay
/// strictly below one buffer per unoptimized stage activation.
#[test]
fn fused_engine_matches_unfused_and_shrinks_the_arena() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 81).unwrap();
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let mut r = rng::seeded(82);
    let requests: Vec<Tensor> = (0..8)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    let raw_program = net.lower(16, 16).unwrap();
    let want: Vec<Tensor> = requests
        .iter()
        .map(|x| {
            raw_program
                .forward_reference(&weights, true, analog, x)
                .unwrap()
                .0
        })
        .collect();
    let config = TenantConfig {
        max_batch: 4,
        batch_window: Duration::from_millis(10),
        ..TenantConfig::default()
    };
    let cache = PlanCache::new();
    let mut builder = MultiEngine::builder(&cache);
    let fused = builder
        .register("fused", &net, &weights, (16, 16), true, analog, config)
        .unwrap();
    let raw_plan =
        NetworkPlan::compile(&cache, raw_program.clone(), &weights, true, analog).unwrap();
    let raw = builder
        .register_plan("raw", Arc::new(raw_plan), config)
        .unwrap();
    let engine = builder.build().unwrap();
    let serve = |id| {
        let outs: Vec<Tensor> = engine
            .infer_many(id, requests.clone())
            .unwrap()
            .into_iter()
            .map(|res| res.unwrap().output)
            .collect();
        let stages = engine.plan(id).unwrap().program().stages().len();
        (outs, engine.tenant_stats(id).unwrap(), stages)
    };
    let (fused_outs, fused_stats, fused_stages) = serve(fused);
    let (raw_outs, raw_stats, raw_stages) = serve(raw);
    assert_eq!(fused_outs, want, "fusion must be bitwise invisible");
    assert_eq!(raw_outs, want);
    assert_eq!(fused_stats.datapath, raw_stats.datapath);
    assert!(fused_stages < raw_stages, "relu stages must fold away");
    // The arena metric: strictly below keeping every unoptimized stage's
    // activation (plus the stacked source) resident, for both programs.
    let units = raw_program.input_shape().iter().product::<usize>()
        + raw_program
            .stages()
            .iter()
            .map(|s| s.out_shape.iter().product::<usize>())
            .sum::<usize>();
    let resident = (units * config.max_batch * std::mem::size_of::<f32>()) as u64;
    assert!(fused_stats.arena_bytes > 0);
    assert!(fused_stats.arena_bytes < resident);
    assert!(raw_stats.arena_bytes < resident);
    assert!(
        fused_stats.arena_bytes <= raw_stats.arena_bytes,
        "fusion must never grow the arena"
    );
}

/// `try_infer`'s `Pending` handle delivers the same result as `infer`.
#[test]
fn try_infer_pending_delivers() {
    let (net, _) = tiny_resnet_network();
    let weights = NetworkWeights::random(&net, 71).unwrap();
    let (engine, id) = serve_alone(
        &net,
        &weights,
        (16, 16),
        AnalogModel::ideal(),
        TenantConfig {
            batch_window: Duration::ZERO,
            ..TenantConfig::default()
        },
        1,
    )
    .unwrap();
    let mut r = rng::seeded(72);
    let x = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r);
    let want = reference(&net, &weights, std::slice::from_ref(&x));
    let pending = engine.try_infer(id, x).unwrap();
    assert_eq!(pending.wait().unwrap().output, want[0]);
}
