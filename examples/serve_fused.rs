//! Fused serving smoke: lower → optimize → plan → serve.
//!
//! Lowers the zoo's tiny ResNet, runs the graph-fusion pass
//! (`NetworkProgram::optimize`: ReLUs folded into conv/epitome/linear/add
//! epilogues, identity stages aliased away), plans its liveness-based
//! activation arena, and serves the same burst through a tenant serving
//! the fused program and one serving the unfused program — asserting the
//! two are **bitwise identical** in both outputs and data-path counter
//! rollups, which is the house invariant the pass is built on.
//!
//! Run with: `cargo run --release -p epim --example serve_fused`
//! Knobs: `EPIM_THREADS` pins the worker pool width.

use epim::models::lower::NetworkWeights;
use epim::models::zoo;
use epim::pim::datapath::AnalogModel;
use epim::runtime::{MultiEngine, NetworkPlan, PlanCache, TenantConfig, TenantId};
use epim::tensor::{init, rng, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BURST: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (net, _spec) = zoo::tiny_epitome_network(8, 8, 10)?;
    let weights = NetworkWeights::random(&net, 7)?;
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };

    // Lower, then optimize: the pass fuses epilogues and folds stages.
    let program = net.lower(16, 16)?;
    let fused = program.optimize();
    println!(
        "lowered {}: {} stages; after optimize: {} stages",
        net.backbone().name,
        program.stages().len(),
        fused.stages().len(),
    );
    for stage in fused.stages() {
        if stage.op.fused_relu() {
            println!("  fused epilogue: {}", stage.name);
        }
    }

    // Serve one burst through each tenant: `register` compiles the
    // optimized program, `register_plan` takes the unfused plan as is.
    let mut r = rng::seeded(9);
    let inputs: Vec<Tensor> = (0..BURST)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect();
    let cache = PlanCache::new();
    cache.warm_network(&net)?;
    let config = TenantConfig {
        max_batch: BURST,
        batch_window: Duration::ZERO,
        ..TenantConfig::default()
    };
    let mut builder = MultiEngine::builder(&cache);
    let fused_id = builder.register("fused", &net, &weights, (16, 16), true, analog, config)?;
    let raw_plan = NetworkPlan::compile(&cache, program.clone(), &weights, true, analog)?;
    let raw_id = builder.register_plan("unfused", Arc::new(raw_plan), config)?;
    let engine = builder.build()?;
    let serve = |id: TenantId| -> Result<(Vec<Tensor>, Duration), Box<dyn std::error::Error>> {
        let t0 = Instant::now();
        let outputs: Vec<Tensor> = engine
            .infer_many(id, inputs.clone())?
            .into_iter()
            .map(|res| res.map(|inf| inf.output))
            .collect::<Result<_, _>>()?;
        Ok((outputs, t0.elapsed()))
    };
    let (fused_out, fused_took) = serve(fused_id)?;
    let (raw_out, raw_took) = serve(raw_id)?;
    let fused_stats = engine.tenant_stats(fused_id)?;
    let raw_stats = engine.tenant_stats(raw_id)?;

    let exact = fused_out == raw_out && fused_stats.datapath == raw_stats.datapath;
    println!("\nfused == unfused (outputs and stats), bitwise: {exact}");
    assert!(exact, "the graph-fusion pass must be bitwise invisible");

    // The "before" of the arena: one exact-size buffer per unfused stage
    // activation plus the stacked source, all resident.
    let resident_units = program.input_shape().iter().product::<usize>()
        + program
            .stages()
            .iter()
            .map(|s| s.out_shape.iter().product::<usize>())
            .sum::<usize>();
    let resident_bytes = (resident_units * BURST * std::mem::size_of::<f32>()) as u64;
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    println!(
        "activation arena:     {:.3} MB (liveness-planned) vs {:.3} MB \
         (one buffer per unfused stage) — {:.2}x smaller",
        mb(fused_stats.arena_bytes),
        mb(resident_bytes),
        resident_bytes as f64 / fused_stats.arena_bytes as f64,
    );
    assert!(
        fused_stats.arena_bytes < resident_bytes,
        "the arena must stay below one buffer per stage"
    );
    println!(
        "burst of {BURST}:           fused {:.2} ms, unfused {:.2} ms",
        fused_took.as_secs_f64() * 1e3,
        raw_took.as_secs_f64() * 1e3,
    );
    Ok(())
}
