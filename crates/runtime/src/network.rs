//! Whole-network execution: a [`NetworkPlan`] compiled from a lowered
//! `epim_models` [`NetworkProgram`], the one thing the serving scheduler
//! executes.
//!
//! The plan is the runtime half of the compile pipeline: `Network::lower`
//! produces the weight-free [`NetworkProgram`],
//! [`NetworkProgram::optimize`] fuses ReLU epilogues and folds identity
//! stages, and [`NetworkPlan::compile`] binds weights to the result,
//! resolves **every epitome stage through the [`PlanCache`]** (one
//! compiled plan per distinct spec, shared across layers, networks and
//! tenants — warming the cache first via [`PlanCache::warm_network`]
//! makes compilation miss-free), and computes the **liveness-planned
//! activation arena** ([`ArenaPlan`]): one static layout assigning every
//! activation (and the im2col scratch of every dense convolution) an
//! offset in a single allocation, with lifetimes-disjoint activations
//! sharing memory. Steady-state serving leases one whole arena per
//! in-flight group — no per-stage allocation — and reports its peak
//! footprint in [`crate::RuntimeStats::arena_bytes`].
//!
//! Execution stacks a whole request group into the arena's source slot
//! and streams it through the stages: epitome stages run on the batched
//! data path (packed round panels amortized over every image of every
//! request), dense convolutions run the multi-image batched GEMM with
//! their fused ReLU epilogue, and elementwise stages run the vectorized
//! slice kernels. The result is **bit-identical** to executing each
//! request alone through `NetworkProgram::forward_reference` on the
//! *unoptimized* program — every fused epilogue clamps the exact value
//! the unfused kernel writes, and every stage's per-image arithmetic is
//! independent of the batch around it (the classifier GEMM, whose row
//! dimension *is* the batch, is deliberately executed per-request to
//! keep that true) — with the [`DataPathStats`] rollup equal to the
//! per-request sum.

use crate::stats::StageMeta;
use crate::{PlanCache, RuntimeError};
use epim_models::lower::{NetworkProgram, NetworkWeights, StageInput, StageOp};
use epim_models::optimize::{ArenaPlan, ArenaSlot};
use epim_obs::trace;
use epim_pim::datapath::{AnalogModel, DataPath, DataPathStats};
use epim_tensor::ops::{
    add_relu_slice, add_slice, conv2d_into, gemm, global_avg_pool_into, max_pool2d_into,
    relu_slice, Conv2dCfg, PoolCfg,
};
use epim_tensor::Tensor;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

/// One executable stage: the program op with its weights bound.
enum PlannedOp {
    Conv {
        weight: Tensor,
        bias: Option<Tensor>,
        cfg: Conv2dCfg,
        relu: bool,
    },
    Epitome {
        dp: DataPath,
        relu: bool,
    },
    Relu,
    MaxPool(PoolCfg),
    GlobalAvgPool,
    Linear {
        weight: Tensor,
        bias: Option<Tensor>,
        relu: bool,
    },
    Add {
        with: usize,
        relu: bool,
    },
}

impl PlannedOp {
    /// The op kind packed into stage trace spans.
    fn trace_kind(&self) -> trace::StageOpKind {
        match self {
            PlannedOp::Conv { .. } => trace::StageOpKind::Conv,
            PlannedOp::Epitome { .. } => trace::StageOpKind::Epitome,
            PlannedOp::Relu => trace::StageOpKind::Relu,
            PlannedOp::MaxPool(_) => trace::StageOpKind::MaxPool,
            PlannedOp::GlobalAvgPool => trace::StageOpKind::GlobalAvgPool,
            PlannedOp::Linear { .. } => trace::StageOpKind::Linear,
            PlannedOp::Add { .. } => trace::StageOpKind::Add,
        }
    }

    /// The op name reported in per-stage metric rollups.
    fn op_name(&self) -> &'static str {
        self.trace_kind().as_str()
    }
}

/// Whole arenas retained across groups; beyond this, returns are dropped.
/// One arena serves one in-flight group, so this only needs to cover the
/// scheduler's pipeline depth.
const ARENA_RETAIN: usize = 8;

/// A whole network compiled for serving: program + bound weights +
/// per-stage data paths + the static activation arena, shareable (behind
/// an [`std::sync::Arc`]) across tenants.
pub struct NetworkPlan {
    program: NetworkProgram,
    ops: Vec<PlannedOp>,
    arena: ArenaPlan,
    /// Whole activation arenas leased per group execution.
    arenas: Mutex<Vec<Vec<f32>>>,
}

impl NetworkPlan {
    /// Binds `weights` to `program` (typically `Network::lower(..)` then
    /// [`NetworkProgram::optimize`]; the unoptimized program serves the
    /// same bits), resolves every epitome stage through `cache` (layers
    /// sharing a spec share one compiled plan; a pre-warmed cache
    /// compiles nothing) and plans the activation arena.
    ///
    /// # Errors
    ///
    /// Propagates weight-binding mismatches and plan compilation failures.
    pub fn compile(
        cache: &PlanCache,
        program: NetworkProgram,
        weights: &NetworkWeights,
        wrapping_enabled: bool,
        analog: AnalogModel,
    ) -> Result<Self, RuntimeError> {
        let mut ops = Vec::with_capacity(program.stages().len());
        let mut scratch = Vec::with_capacity(program.stages().len());
        for stage in program.stages() {
            let mut stage_scratch = 0usize;
            let op = match &stage.op {
                StageOp::Conv { layer, cfg, relu } => {
                    let (w, b) = weights.dense(*layer, &stage.name)?;
                    // Per-image im2col columns: (OH * OW) x (C_in * KH * KW).
                    let ckk = w.len() / w.shape()[0].max(1);
                    stage_scratch = stage.out_shape[1] * stage.out_shape[2] * ckk;
                    PlannedOp::Conv {
                        weight: w.clone(),
                        bias: b.cloned(),
                        cfg: *cfg,
                        relu: *relu,
                    }
                }
                StageOp::Epitome {
                    layer,
                    spec,
                    cfg,
                    relu,
                } => {
                    let epi = weights.epitome(*layer, spec, &stage.name)?;
                    let dp = cache.datapath(epi, *cfg, wrapping_enabled, analog)?;
                    PlannedOp::Epitome { dp, relu: *relu }
                }
                StageOp::Relu => PlannedOp::Relu,
                StageOp::MaxPool(cfg) => PlannedOp::MaxPool(*cfg),
                StageOp::GlobalAvgPool => PlannedOp::GlobalAvgPool,
                StageOp::Linear { layer, relu } => {
                    let (w, b) = weights.dense(*layer, &stage.name)?;
                    let wmat = w
                        .reshape(&[w.shape()[0], w.len() / w.shape()[0]])
                        .map_err(|e| RuntimeError::config(format!("fc weight: {e}")))?;
                    PlannedOp::Linear {
                        weight: wmat,
                        bias: b.cloned(),
                        relu: *relu,
                    }
                }
                StageOp::Add { with, relu } => PlannedOp::Add {
                    with: *with,
                    relu: *relu,
                },
            };
            ops.push(op);
            scratch.push(stage_scratch);
        }
        let arena = program.plan_arena(&scratch);

        Ok(NetworkPlan {
            program,
            ops,
            arena,
            arenas: Mutex::new(Vec::new()),
        })
    }

    /// The program this plan executes.
    pub fn program(&self) -> &NetworkProgram {
        &self.program
    }

    /// The static activation-arena layout this plan executes into.
    pub fn arena_plan(&self) -> &ArenaPlan {
        &self.arena
    }

    /// Peak activation-arena bytes for a group of `images` stacked images.
    pub fn arena_bytes(&self, images: usize) -> u64 {
        (self.arena.total * images * std::mem::size_of::<f32>()) as u64
    }

    /// Pre-allocates one arena for groups of up to `images` stacked
    /// images, so the first served groups do not pay the allocation.
    /// The scheduler calls it with each tenant's `max_batch`.
    pub(crate) fn warm(&self, images: usize) {
        let arena = self.lease_arena(self.arena.total * images);
        self.return_arena(arena);
    }

    fn lease_arena(&self, len: usize) -> Vec<f32> {
        let mut v = self
            .arenas
            .lock()
            .expect("arena pool poisoned")
            .pop()
            .unwrap_or_default();
        // Contents may be stale: every op overwrites its whole output
        // slot, and the im2col fill zeroes its scratch first.
        v.resize(len, 0.0);
        v
    }

    fn return_arena(&self, v: Vec<f32>) {
        let mut pool = self.arenas.lock().expect("arena pool poisoned");
        if pool.len() < ARENA_RETAIN {
            pool.push(v);
        }
    }

    /// Executes a shape-uniform request group through the whole program,
    /// returning one output per request plus the summed
    /// [`DataPathStats`] of every epitome stage.
    ///
    /// Semantics are exactly `inputs.iter().map(forward_reference)` on
    /// the unoptimized program: the outputs and stats are bit-identical
    /// to sequential per-request reference execution.
    ///
    /// # Errors
    ///
    /// Returns a geometry error if the inputs' shapes differ from one
    /// another or from the program input shape.
    pub fn execute_batch(
        &self,
        inputs: &[&Tensor],
    ) -> Result<(Vec<Tensor>, DataPathStats), RuntimeError> {
        let (outs, stats, _) = self.run(inputs, trace::TENANT_NONE)?;
        Ok((outs, stats))
    }

    /// Static stage descriptions (name + op kind), index-aligned with the
    /// per-stage wall times [`NetworkPlan::run`] reports.
    pub(crate) fn stage_meta(&self) -> Vec<StageMeta> {
        self.program
            .stages()
            .iter()
            .zip(&self.ops)
            .map(|(stage, op)| StageMeta {
                name: stage.name.clone(),
                op: op.op_name(),
            })
            .collect()
    }

    /// [`NetworkPlan::execute_batch`] plus observability: also returns
    /// each stage's wall time (nanoseconds, index-aligned with
    /// [`NetworkPlan::stage_meta`]) and tags the per-stage trace spans
    /// with `tenant` ([`trace::TENANT_NONE`] for direct calls).
    pub(crate) fn run(
        &self,
        inputs: &[&Tensor],
        tenant: u32,
    ) -> Result<(Vec<Tensor>, DataPathStats, Vec<u64>), RuntimeError> {
        let Some(first) = inputs.first() else {
            return Ok((Vec::new(), DataPathStats::default(), Vec::new()));
        };
        let in_shape = self.program.input_shape();
        if first.rank() != 4 || first.shape()[1..] != in_shape[..] {
            return Err(RuntimeError::Pim(epim_pim::PimError::geometry(format!(
                "network input must be (N, {}, {}, {}), got {:?}",
                in_shape[0],
                in_shape[1],
                in_shape[2],
                first.shape()
            ))));
        }
        if let Some(bad) = inputs.iter().find(|t| t.shape() != first.shape()) {
            return Err(RuntimeError::Pim(epim_pim::PimError::geometry(format!(
                "network batch requires identical input shapes, got {:?} and {:?}",
                first.shape(),
                bad.shape()
            ))));
        }
        let n_per = first.shape()[0];
        let images = inputs.len() * n_per;

        let mut arena_buf = self.lease_arena(self.arena.total * images);
        let arena = &mut arena_buf[..];
        let src = slot_range(self.arena.source, images);

        // Stack the group into the source slot. Per-image results are
        // independent of the stacking, so this is purely a
        // dispatch-amortization move.
        let plane = first.len();
        let dst = &mut arena[src.clone()];
        for (g, input) in inputs.iter().enumerate() {
            dst[g * plane..(g + 1) * plane].copy_from_slice(input.data());
        }

        let mut stats = DataPathStats::default();
        let mut stage_ns = vec![0u64; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            // Fault-injection point: slow this stage down (chaos testing
            // of deadline shedding and batch-window behavior). Disabled
            // (the default) this is one relaxed atomic load.
            if let Some(delay) = epim_faults::fire_delay(epim_faults::FaultPoint::StageDelay) {
                std::thread::sleep(delay);
            }
            let stage = &self.program.stages()[i];
            let (in_range, in_shape) = match stage.input {
                StageInput::Source => (src.clone(), self.program.input_shape()),
                StageInput::Stage(j) => (
                    slot_range(self.arena.values[j], images),
                    self.program.stages()[j].out_shape.as_slice(),
                ),
            };
            let out_range = slot_range(self.arena.values[i], images);
            let out_bytes = ((out_range.end - out_range.start) * std::mem::size_of::<f32>()) as u64;
            let scratch_range = self.arena.scratch[i].map(|s| slot_range(s, images));
            let started = Instant::now();
            let t_stage = trace::start();
            match op {
                PlannedOp::Conv {
                    weight,
                    bias,
                    cfg,
                    relu,
                } => {
                    let (out, scratch, reads) =
                        stage_views(arena, out_range, scratch_range, &[in_range]);
                    conv2d_into(
                        reads[0],
                        (images, in_shape[0], in_shape[1], in_shape[2]),
                        weight,
                        bias.as_ref(),
                        *cfg,
                        *relu,
                        scratch.expect("conv stages plan im2col scratch"),
                        out,
                    )
                    .map_err(epim_pim::PimError::Tensor)?;
                }
                PlannedOp::Epitome { dp, relu } => {
                    let (out, _, reads) = stage_views(arena, out_range, None, &[in_range]);
                    let s = dp.execute_stacked_into(
                        reads[0],
                        images,
                        in_shape[1],
                        in_shape[2],
                        *relu,
                        out,
                    )?;
                    stats.accumulate(&s);
                }
                PlannedOp::Relu => {
                    let (out, _, reads) = stage_views(arena, out_range, None, &[in_range]);
                    relu_slice(reads[0], out);
                }
                PlannedOp::MaxPool(cfg) => {
                    let (out, _, reads) = stage_views(arena, out_range, None, &[in_range]);
                    max_pool2d_into(
                        reads[0],
                        (images, in_shape[0], in_shape[1], in_shape[2]),
                        *cfg,
                        out,
                    )
                    .map_err(epim_pim::PimError::Tensor)?;
                }
                PlannedOp::GlobalAvgPool => {
                    let (out, _, reads) = stage_views(arena, out_range, None, &[in_range]);
                    global_avg_pool_into(
                        reads[0],
                        (images, in_shape[0], in_shape[1], in_shape[2]),
                        out,
                    )
                    .map_err(epim_pim::PimError::Tensor)?;
                }
                PlannedOp::Linear { weight, bias, relu } => {
                    // Per-request GEMMs: the row dimension of this product
                    // is the batch itself, so folding requests together
                    // would change each row's kernel path. Request-sized
                    // row blocks run the exact calls `ops::linear` makes —
                    // bit-identical to per-request reference execution —
                    // reading and writing the arena in place.
                    let feats: usize = in_shape.iter().product();
                    let out_f = weight.shape()[0];
                    if feats != weight.shape()[1] {
                        return Err(RuntimeError::config(format!(
                            "classifier expects {} features, got {feats}",
                            weight.shape()[1]
                        )));
                    }
                    let (out, _, reads) = stage_views(arena, out_range, None, &[in_range]);
                    for g in 0..inputs.len() {
                        let rows = &reads[0][g * n_per * feats..(g + 1) * n_per * feats];
                        let dst = &mut out[g * n_per * out_f..(g + 1) * n_per * out_f];
                        match (bias, relu) {
                            (Some(b), false) => gemm::gemm_nt_bias_col(
                                n_per,
                                out_f,
                                feats,
                                rows,
                                weight.data(),
                                b.data(),
                                dst,
                            ),
                            (Some(b), true) => gemm::gemm_nt_bias_col_relu(
                                n_per,
                                out_f,
                                feats,
                                rows,
                                weight.data(),
                                b.data(),
                                dst,
                            ),
                            (None, false) => {
                                gemm::gemm_nt(n_per, out_f, feats, rows, weight.data(), dst)
                            }
                            (None, true) => {
                                gemm::gemm_nt_relu(n_per, out_f, feats, rows, weight.data(), dst)
                            }
                        }
                    }
                }
                PlannedOp::Add { with, relu } => {
                    let other = slot_range(self.arena.values[*with], images);
                    let (out, _, reads) = stage_views(arena, out_range, None, &[in_range, other]);
                    if *relu {
                        add_relu_slice(reads[0], reads[1], out);
                    } else {
                        add_slice(reads[0], reads[1], out);
                    }
                }
            }
            stage_ns[i] = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            trace::span(
                trace::SpanKind::Stage,
                tenant,
                i as u32,
                t_stage,
                trace::pack_stage_payload(op.trace_kind(), images as u64),
                out_bytes,
            );
        }

        // Split the final stage's slot back into per-request tensors.
        let last = self.program.stages().len() - 1;
        let out_slot = &arena[slot_range(self.arena.values[last], images)];
        let mut req_shape = vec![n_per];
        req_shape.extend_from_slice(&self.program.stages()[last].out_shape);
        let req_len = out_slot.len() / inputs.len();
        let outs = (0..inputs.len())
            .map(|g| {
                Tensor::from_vec(
                    out_slot[g * req_len..(g + 1) * req_len].to_vec(),
                    &req_shape,
                )
                .expect("request shape matches slice")
            })
            .collect();

        self.return_arena(arena_buf);
        Ok((outs, stats, stage_ns))
    }
}

/// The arena range of `slot` scaled to a group of `images` images
/// (uniform scaling preserves the plan's disjointness).
fn slot_range(slot: ArenaSlot, images: usize) -> Range<usize> {
    slot.offset * images..(slot.offset + slot.len) * images
}

/// True when two ranges share no index.
fn ranges_disjoint(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.end <= b.start || b.end <= a.start
}

/// Views into disjoint ranges of one arena: the stage's mutable output,
/// its optional mutable scratch, and its shared read slices.
///
/// Reads may overlap each other (a residual add reading one producer
/// twice) but never a mutable range; the [`ArenaPlan`] guarantees this by
/// construction — live slots never share memory, and a stage's inputs
/// are live while it writes its output. The assertions turn a planner
/// bug into a loud panic instead of silent data corruption.
fn stage_views<'a>(
    arena: &'a mut [f32],
    out: Range<usize>,
    scratch: Option<Range<usize>>,
    reads: &[Range<usize>],
) -> (&'a mut [f32], Option<&'a mut [f32]>, Vec<&'a [f32]>) {
    let len = arena.len();
    let in_bounds = |r: &Range<usize>| r.start <= r.end && r.end <= len;
    assert!(in_bounds(&out), "output slot in bounds");
    if let Some(s) = &scratch {
        assert!(in_bounds(s), "scratch slot in bounds");
        assert!(ranges_disjoint(s, &out), "scratch and output disjoint");
    }
    for r in reads {
        assert!(in_bounds(r), "read slot in bounds");
        assert!(ranges_disjoint(r, &out), "reads and output disjoint");
        if let Some(s) = &scratch {
            assert!(ranges_disjoint(r, s), "reads and scratch disjoint");
        }
    }
    let ptr = arena.as_mut_ptr();
    // SAFETY: all ranges are in bounds of `arena`, and both mutable
    // ranges are disjoint from each other and from every read range
    // (asserted above), so no `&mut` aliases any other returned
    // reference; read views alias only each other, as shared `&` may.
    unsafe {
        let o = std::slice::from_raw_parts_mut(ptr.add(out.start), out.end - out.start);
        let s = scratch.map(|s| std::slice::from_raw_parts_mut(ptr.add(s.start), s.end - s.start));
        let rs = reads
            .iter()
            .map(|r| std::slice::from_raw_parts(ptr.add(r.start).cast_const(), r.end - r.start))
            .collect();
        (o, s, rs)
    }
}
