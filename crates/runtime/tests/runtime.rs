//! Integration tests for serving one epitome layer: the layer is a
//! one-layer network registered as a `MultiEngine` tenant, and batching
//! must be invisible to callers (bit-identical outputs, additive stats)
//! under concurrency, shape divergence, bursts and shutdown.

use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
use epim_models::zoo;
use epim_pim::datapath::{AnalogModel, DataPath, DataPathStats};
use epim_runtime::{MultiEngine, PlanCache, RuntimeError, TenantConfig, TenantId};
use epim_tensor::ops::Conv2dCfg;
use epim_tensor::{init, rng, Tensor};
use std::time::Duration;

fn test_epitome(seed: u64) -> Epitome {
    let spec = EpitomeSpec::new(ConvShape::new(8, 4, 3, 3), EpitomeShape::new(4, 4, 2, 2)).unwrap();
    let mut r = rng::seeded(seed);
    let data = init::uniform(&[4, 4, 2, 2], -1.0, 1.0, &mut r);
    Epitome::from_tensor(spec, data).unwrap()
}

const SAME: Conv2dCfg = Conv2dCfg {
    stride: 1,
    padding: 1,
};

fn a9adc8() -> AnalogModel {
    AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    }
}

/// One epitome layer served for `hw × hw` inputs as a one-tenant fleet,
/// plus a standalone data path over the same epitome: the sequential
/// oracle.
fn layer_fleet(seed: u64, hw: usize, config: TenantConfig) -> (MultiEngine, TenantId, DataPath) {
    let epi = test_epitome(seed);
    let dp = DataPath::with_analog(&epi, SAME, true, a9adc8()).unwrap();
    let (net, weights) = zoo::epitome_layer_network(&epi, (hw, hw));
    let cache = PlanCache::new();
    let mut builder = MultiEngine::builder(&cache);
    let id = builder
        .register("layer", &net, &weights, (hw, hw), true, a9adc8(), config)
        .unwrap();
    (builder.build().unwrap(), id, dp)
}

/// The tentpole invariant: N concurrent submissions through the
/// micro-batcher produce exactly the outputs and (rolled-up) stats of N
/// sequential `DataPath::execute` calls, regardless of how the batcher
/// happened to group them.
#[test]
fn concurrent_submissions_match_sequential_execute() {
    let (engine, id, dp) = layer_fleet(
        1,
        8,
        TenantConfig {
            max_batch: 8,
            batch_window: Duration::from_millis(5),
            ..TenantConfig::default()
        },
    );
    let mut r = rng::seeded(2);
    const N: usize = 24;
    let inputs: Vec<Tensor> = (0..N)
        .map(|_| init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r))
        .collect();

    // Sequential ground truth.
    let mut want_stats = DataPathStats::default();
    let want: Vec<Tensor> = inputs
        .iter()
        .map(|x| {
            let (out, s) = dp.execute(x).unwrap();
            want_stats.accumulate(&s);
            out
        })
        .collect();

    // Concurrent serving.
    let got: Vec<Tensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|x| {
                let engine = &engine;
                scope.spawn(move || engine.infer(id, x.clone()).unwrap().output)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "batched serving changed an output");
    }
    let stats = engine.tenant_stats(id).unwrap();
    assert_eq!(stats.requests, N as u64);
    assert_eq!(
        stats.datapath, want_stats,
        "stats rollup diverged from sequential execution"
    );
    assert!(stats.batches <= N as u64);
    let histogram_total: u64 = stats
        .batch_histogram
        .iter()
        .enumerate()
        .map(|(i, &count)| (i as u64 + 1) * count)
        .sum();
    assert_eq!(histogram_total, N as u64);
}

/// A single-threaded burst through `infer_many` coalesces deterministically
/// into `max_batch`-sized groups and matches sequential execution.
#[test]
fn burst_coalesces_into_full_batches() {
    let (engine, id, dp) = layer_fleet(
        3,
        6,
        TenantConfig {
            max_batch: 8,
            batch_window: Duration::from_millis(50),
            ..TenantConfig::default()
        },
    );
    let mut r = rng::seeded(4);
    let inputs: Vec<Tensor> = (0..16)
        .map(|_| init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r))
        .collect();
    let results = engine.infer_many(id, inputs.clone()).unwrap();
    for (x, res) in inputs.iter().zip(&results) {
        let inference = res.as_ref().unwrap();
        let (want, _) = dp.execute(x).unwrap();
        assert_eq!(inference.output, want);
        assert_eq!(inference.batch_size, 8, "burst should fill max_batch");
    }
    let stats = engine.tenant_stats(id).unwrap();
    assert_eq!(stats.requests, 16);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.batch_histogram.get(7), Some(&2));
    assert!((stats.mean_batch_size() - 8.0).abs() < 1e-12);
    assert!(stats.p99_latency_us >= stats.p50_latency_us);
}

/// Mixed request shapes in one burst: a plan fixes the spatial size, so
/// requests differ in their leading batch dimension. The batcher groups
/// by shape and every result is still bit-identical to per-request
/// execution.
#[test]
fn diverging_shapes_group_separately() {
    let (engine, id, dp) = layer_fleet(
        5,
        6,
        TenantConfig {
            max_batch: 8,
            batch_window: Duration::from_millis(20),
            ..TenantConfig::default()
        },
    );
    let mut r = rng::seeded(6);
    let inputs: Vec<Tensor> = (0..12)
        .map(|i| {
            let n = 1 + (i % 3); // three distinct shapes interleaved
            init::uniform(&[n, 4, 6, 6], -1.0, 1.0, &mut r)
        })
        .collect();
    let results = engine.infer_many(id, inputs.clone()).unwrap();
    for (x, res) in inputs.iter().zip(&results) {
        let inference = res.as_ref().unwrap();
        let (want, _) = dp.execute(x).unwrap();
        assert_eq!(inference.output, want);
        // A shape group can only coalesce its own four requests.
        assert!(inference.batch_size <= 4);
    }
    assert_eq!(engine.tenant_stats(id).unwrap().requests, 12);
}

/// Invalid requests get their own error without poisoning batchmates.
#[test]
fn bad_request_fails_alone() {
    let (engine, id, dp) = layer_fleet(
        7,
        6,
        TenantConfig {
            max_batch: 4,
            batch_window: Duration::from_millis(20),
            ..TenantConfig::default()
        },
    );
    let mut r = rng::seeded(8);
    let good = init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r);
    let bad = Tensor::zeros(&[1, 3, 6, 6]); // wrong channel count
    let results = engine.infer_many(id, vec![good.clone(), bad]).unwrap();
    let (want, _) = dp.execute(&good).unwrap();
    assert_eq!(results[0].as_ref().unwrap().output, want);
    assert!(matches!(results[1], Err(RuntimeError::Pim(_))));
}

/// The plan cache is shared across tenants: the second one-layer tenant
/// for the same spec reuses the compiled plan.
#[test]
fn engines_share_cached_plans() {
    let cache = PlanCache::new();
    let epi = test_epitome(9);
    let (net, weights) = zoo::epitome_layer_network(&epi, (8, 8));
    let mut builder = MultiEngine::builder(&cache);
    for name in ["a", "b"] {
        builder
            .register(
                name,
                &net,
                &weights,
                (8, 8),
                true,
                AnalogModel::ideal(),
                TenantConfig::default(),
            )
            .unwrap();
    }
    let engine = builder.build().unwrap();
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(engine.fleet_stats().plan_cache, stats);

    // Warming a network whose choices repeat a spec hits the cache: three
    // epitome layers, one conv layer, one distinct plan allocation.
    use epim_models::network::{Network, OperatorChoice};
    use epim_models::resnet::{Backbone, LayerInfo};
    let spec = epi.spec().clone();
    let layer = |name: &str| LayerInfo {
        name: name.to_string(),
        conv: spec.conv(),
        out_h: 8,
        out_w: 8,
    };
    let backbone = Backbone {
        name: "tiny".to_string(),
        layers: vec![layer("l0"), layer("l1"), layer("l2"), layer("l3")],
    };
    let mut net = Network::baseline(backbone);
    for i in 0..3 {
        net.set_choice(i, OperatorChoice::Epitome(spec.clone()))
            .unwrap();
    }
    let plans = cache.warm_network(&net).unwrap();
    assert_eq!(plans.len(), 3);
    assert_eq!(
        plans.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    // All warmed layers share the single cached allocation — and it is the
    // same plan the tenants above already compiled for this spec.
    for (_, plan) in &plans {
        assert!(std::sync::Arc::ptr_eq(plan, &plans[0].1));
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.misses, 1, "warming a cached spec never misses");
    assert_eq!(stats.hits, 4);
}

/// Dropping the engine drains in-flight work and joins its threads
/// (checks that drop does not hang or panic).
#[test]
fn drop_joins_batcher() {
    let (engine, id, _) = layer_fleet(
        10,
        5,
        TenantConfig {
            max_batch: 4,
            batch_window: Duration::from_millis(1),
            ..TenantConfig::default()
        },
    );
    let mut r = rng::seeded(11);
    for _ in 0..3 {
        let x = init::uniform(&[1, 4, 5, 5], -1.0, 1.0, &mut r);
        engine.infer(id, x).unwrap();
    }
    drop(engine); // must not deadlock
}
