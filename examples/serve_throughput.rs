//! Serving-throughput demo: the `epim-runtime` engine coalescing
//! concurrent inference requests into batched data-path executions.
//!
//! Serves one epitome layer as a one-layer network tenant, spawns a small
//! client fleet hammering it, then compares
//! the engine's batched throughput against naive per-request execution and
//! prints the serving statistics (batch histogram, p50/p99 latency, plan
//! cache behavior).
//!
//! Run with: `cargo run --release -p epim --example serve_throughput`
//! Knobs: `EPIM_THREADS` pins the worker pool width.

use epim::core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
use epim::models::zoo;
use epim::pim::datapath::AnalogModel;
use epim::runtime::{MultiEngine, PlanCache, TenantConfig};
use epim::tensor::ops::Conv2dCfg;
use epim::tensor::{init, rng, Tensor};
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 16;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-network layer compressed 4x: 32x16x3x3 conv served from a
    // 16x8x2x2 epitome, with the paper's W-noise-free A9/ADC8 readout.
    let spec = EpitomeSpec::new(ConvShape::new(32, 16, 3, 3), EpitomeShape::new(16, 8, 2, 2))?;
    let mut r = rng::seeded(7);
    let epi = Epitome::from_tensor(spec, init::kaiming_normal(&[16, 8, 2, 2], &mut r))?;
    let cfg = Conv2dCfg {
        stride: 1,
        padding: 1,
    };
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };

    // The layer as a one-layer network (3x3, stride 1, same padding over
    // 16x16 inputs): it lowers to exactly one epitome stage.
    let (net, weights) = zoo::epitome_layer_network(&epi, (16, 16));
    let cache = PlanCache::new();
    let mut builder = MultiEngine::builder(&cache);
    let layer = builder.register(
        "layer",
        &net,
        &weights,
        (16, 16),
        true,
        analog,
        TenantConfig {
            max_batch: 16,
            batch_window: Duration::from_micros(500),
            ..TenantConfig::default()
        },
    )?;
    let engine = builder.build()?;
    let dp = cache.datapath(&epi, cfg, true, analog)?;
    println!(
        "engine up: {} worker threads, plan cache {:?}",
        epim::tensor::ops::gemm::num_threads_in_use(),
        cache.stats()
    );

    // Client traffic: CLIENTS threads, each sending a stream of CIFAR-ish
    // feature maps. All requests share one shape, so they coalesce.
    let inputs: Vec<Tensor> = (0..CLIENTS * REQUESTS_PER_CLIENT)
        .map(|_| init::uniform(&[1, 16, 16, 16], -1.0, 1.0, &mut r))
        .collect();

    // Baseline: per-request execution on the same data path, no batching.
    let t0 = Instant::now();
    for x in &inputs {
        dp.execute(x)?;
    }
    let per_request = t0.elapsed();

    // Served: concurrent clients through the micro-batcher.
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let engine = &engine;
            let chunk = &inputs[client * REQUESTS_PER_CLIENT..(client + 1) * REQUESTS_PER_CLIENT];
            scope.spawn(move || {
                for x in chunk {
                    engine.infer(layer, x.clone()).expect("inference succeeds");
                }
            });
        }
    });
    let served = t0.elapsed();

    let stats = engine.tenant_stats(layer)?;
    let n = inputs.len() as f64;
    println!("\nrequests:               {}", stats.requests);
    println!(
        "batches executed:       {} (mean size {:.2})",
        stats.batches,
        stats.mean_batch_size()
    );
    println!("batch-size histogram:   {:?}", stats.batch_histogram);
    println!(
        "request latency:        p50 {} us, p99 {} us",
        stats.p50_latency_us, stats.p99_latency_us
    );
    println!(
        "datapath counters:      {} rounds, {} word-line activations",
        stats.datapath.rounds, stats.datapath.word_line_activations
    );
    println!(
        "\nthroughput:             per-request {:.0} req/s, served {:.0} req/s ({:.2}x)",
        n / per_request.as_secs_f64(),
        n / served.as_secs_f64(),
        per_request.as_secs_f64() / served.as_secs_f64()
    );

    // The plan cache makes serving the same spec again cheap — e.g.
    // re-programming weights after a training step.
    let epi2 = Epitome::from_tensor(
        epi.spec().clone(),
        init::kaiming_normal(&[16, 8, 2, 2], &mut r),
    )?;
    let (net2, weights2) = zoo::epitome_layer_network(&epi2, (16, 16));
    let mut builder = MultiEngine::builder(&cache);
    builder.register(
        "reprogrammed",
        &net2,
        &weights2,
        (16, 16),
        true,
        analog,
        TenantConfig::default(),
    )?;
    let _hot = builder.build()?;
    println!("plan cache after reuse: {:?}", cache.stats());
    Ok(())
}
