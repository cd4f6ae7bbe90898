//! Whole-network serving demo: lower → plan → serve.
//!
//! Builds a small ResNet-style network with two of its convolutions
//! replaced by a shared epitome, lowers it to an executable program,
//! compiles a serving plan against a pre-warmed plan cache (zero misses),
//! and serves a concurrent client fleet through a one-tenant
//! `MultiEngine` — verifying along the way that the served outputs are
//! bit-identical to sequential per-stage reference execution, and showing
//! the `Shed` flow-control policy rejecting traffic when the bounded
//! queue is full.
//!
//! Run with: `cargo run --release -p epim --example serve_network`
//! Knobs: `EPIM_THREADS` pins the worker pool width.

use epim::models::lower::NetworkWeights;
use epim::models::zoo;
use epim::pim::datapath::AnalogModel;
use epim::runtime::{FlowControl, MultiEngine, PlanCache, RuntimeError, TenantConfig};
use epim::tensor::{init, rng, Tensor};
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The zoo's tiny ResNet (stem 8, inner width 8, 10 classes) has both
    // 3x3 convolutions replaced by one shared epitome spec — the repeat
    // is what makes the plan cache pay off across layers.
    let (net, _spec) = zoo::tiny_epitome_network(8, 8, 10)?;
    let weights = NetworkWeights::random(&net, 7)?;
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };

    // Lower: Network -> executable program.
    let program = net.lower(16, 16)?;
    println!(
        "lowered {}: {} stages ({} epitome), input {:?} -> output {:?}",
        net.backbone().name,
        program.stages().len(),
        program.epitome_specs().len(),
        program.input_shape(),
        program.output_shape(),
    );

    // Plan: warm the cache, then compile (zero additional misses).
    let cache = PlanCache::new();
    cache.warm_network(&net)?;
    println!("plan cache after warm_network: {:?}", cache.stats());
    let mut builder = MultiEngine::builder(&cache);
    let tenant = builder.register(
        "resnet",
        &net,
        &weights,
        (16, 16),
        true,
        analog,
        TenantConfig {
            // One slot per client: a full batch flushes without waiting
            // out the window.
            max_batch: CLIENTS,
            batch_window: Duration::from_micros(500),
            ..TenantConfig::default()
        },
    )?;
    let engine = builder.build()?;
    println!(
        "plan cache after compile:      {:?} (warm path: no new misses)",
        cache.stats()
    );

    // Serve: concurrent clients through the pipelined engine.
    let mut r = rng::seeded(9);
    let inputs: Vec<Tensor> = (0..CLIENTS * REQUESTS_PER_CLIENT)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();

    // Baseline: sequential per-stage reference execution.
    let t0 = Instant::now();
    let reference: Vec<Tensor> = inputs
        .iter()
        .map(|x| {
            program
                .forward_reference(&weights, true, analog, x)
                .map(|(y, _)| y)
        })
        .collect::<Result<_, _>>()?;
    let sequential = t0.elapsed();

    let t0 = Instant::now();
    let served: Vec<Tensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(REQUESTS_PER_CLIENT)
            .map(|chunk| {
                let engine = &engine;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|x| {
                            engine
                                .infer(tenant, x.clone())
                                .expect("inference succeeds")
                                .output
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let pipelined = t0.elapsed();

    let exact = served.iter().zip(&reference).all(|(a, b)| a == b);
    println!("\nserved == sequential reference, bitwise: {exact}");
    assert!(exact, "pipelined serving must be bit-identical");

    let stats = engine.tenant_stats(tenant)?;
    let n = inputs.len() as f64;
    println!("requests:             {}", stats.requests);
    println!(
        "batches executed:     {} (mean size {:.2})",
        stats.batches,
        stats.mean_batch_size()
    );
    println!("batch-size histogram: {:?}", stats.batch_histogram);
    println!(
        "request latency:      p50 {} us, p99 {} us",
        stats.p50_latency_us, stats.p99_latency_us
    );
    println!(
        "datapath counters:    {} rounds, {} word-line activations",
        stats.datapath.rounds, stats.datapath.word_line_activations
    );
    println!(
        "queue depth now:      {}, shed so far: {}",
        stats.queue_depth, stats.shed
    );
    println!(
        "throughput:           sequential {:.0} req/s, served {:.0} req/s ({:.2}x)",
        n / sequential.as_secs_f64(),
        n / pipelined.as_secs_f64(),
        sequential.as_secs_f64() / pipelined.as_secs_f64()
    );

    // Flow control: a tiny bounded queue with a Shed policy rejects
    // instead of hanging when clients outrun the network.
    let mut builder = MultiEngine::builder(&cache);
    let shed_tenant = builder.register(
        "resnet",
        &net,
        &weights,
        (16, 16),
        true,
        analog,
        TenantConfig {
            max_batch: 4,
            batch_window: Duration::from_millis(100),
            queue_capacity: 2,
            flow: FlowControl::Shed {
                timeout: Duration::ZERO,
            },
            weight: 1,
        },
    )?;
    let shed_engine = builder.build()?;
    let mut accepted = 0usize;
    let mut shed = 0usize;
    let mut pending = Vec::new();
    for x in inputs.iter().take(8) {
        match shed_engine.try_infer(shed_tenant, x.clone()) {
            Ok(p) => {
                accepted += 1;
                pending.push(p);
            }
            Err(RuntimeError::Overloaded { .. }) => shed += 1,
            Err(e) => return Err(e.into()),
        }
    }
    for p in pending {
        let _ = p.wait();
    }
    println!(
        "\nshed demo (queue_capacity 2): accepted {accepted}, shed {shed} \
         (engine counter: {})",
        shed_engine.tenant_stats(shed_tenant)?.shed
    );
    Ok(())
}
