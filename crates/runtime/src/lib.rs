//! # epim-runtime
//!
//! A batched, multi-tenant inference **serving engine** for
//! epitome-compressed networks running on the functional PIM data path.
//! There is one engine, [`MultiEngine`], and one thing it executes, a
//! compiled [`NetworkPlan`]. A whole network is a one-tenant fleet, and a
//! single epitome layer is a one-layer network
//! (`epim_models::zoo::epitome_layer_network`) that lowers to exactly one
//! epitome stage.
//!
//! Layered bottom-up:
//!
//! 1. **Persistent worker pool** (lives in `epim-parallel`): every
//!    fork-join region in the workspace dispatches onto
//!    `num_threads() - 1` parked workers. `EPIM_THREADS` pins the width.
//! 2. **Compiled-plan cache** ([`PlanCache`]): the IFAT/IFRT/OFAT tables
//!    and per-round word-line lists depend only on the `EpitomeSpec`, so
//!    they are compiled once and shared across layers, networks, tenants
//!    and re-programmed weights ([`PlanCache::warm_network`] precompiles
//!    every epitome choice of an `epim_models::Network`).
//! 3. **Network plans** ([`NetworkPlan`]): `Network::lower()` compiles a
//!    network into an executable program, `NetworkProgram::optimize`
//!    fuses epilogues and folds identity stages, and
//!    [`NetworkPlan::compile`] binds weights, resolves every epitome stage
//!    through the plan cache and plans a static activation arena. A
//!    stacked request group runs through the whole program
//!    **bit-identically** to sequential per-request reference execution
//!    of the unoptimized program, so batching is purely a throughput
//!    decision.
//! 4. **Scheduler and tenancy** ([`MultiEngine`]): compiled plans
//!    register as tenants behind one scheduler — per-tenant bounded
//!    queues with [`FlowControl`] ([`FlowControl::Block`] backpressure or
//!    [`FlowControl::Shed`] with a timeout, plus non-blocking
//!    `try_infer`), shape-grouped coalescing bounded by
//!    [`TenantConfig::max_batch`] / [`TenantConfig::batch_window`],
//!    weighted-fair starvation-free draining ([`TenantConfig::weight`]),
//!    request deadlines, and a supervisor that respawns crashed workers.
//!    [`TenantConfig`] is the one per-tenant config; the worker count and
//!    restart budget are fleet-wide builder settings.
//! 5. **Submission surface**: [`MultiEngine`] takes a [`TenantId`] and a
//!    bare tensor or a typed [`InferRequest`] on three paths — blocking
//!    `infer`, non-blocking `try_infer` and the burst `infer_many`. The
//!    non-blocking path returns a [`Pending`] whose result is claimed by
//!    waiting ([`Pending::wait`], bounded [`Pending::wait_timeout`]) or
//!    pushed to a callback on completion ([`Pending::on_complete`]); the
//!    `epim-serve` TCP front-end submits through `try_infer` and has
//!    every completion pushed into its connection writer's channel.
//!
//! Serving health is observable through [`RuntimeStats`]: per-tenant
//! queue-wait / service / end-to-end latency histograms (log-linear, exact
//! merge — see `epim-obs`), per-stage time rollups ([`StageRollup`]), the
//! batch-size histogram, queue depth with its high-water mark, shed
//! counters, the plan cache's hit/miss counters, the activation-arena
//! footprint, and a rollup of the data path's hardware counters —
//! renderable as Prometheus text exposition
//! ([`RuntimeStats::render_prometheus`],
//! [`MultiEngine::render_prometheus`]). The scheduler and every plan
//! stage are additionally span-traced into `epim-obs`'s process-wide
//! ring when tracing is enabled (`EPIM_TRACE=1` or
//! `epim_obs::set_enabled(true)`), exportable as chrome://tracing JSON.
//!
//! ## Example
//!
//! Serving one epitome layer as a one-tenant fleet:
//!
//! ```
//! use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
//! use epim_models::zoo;
//! use epim_pim::datapath::AnalogModel;
//! use epim_runtime::{MultiEngine, PlanCache, TenantConfig};
//! use epim_tensor::{init, rng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = EpitomeSpec::new(ConvShape::new(8, 4, 3, 3), EpitomeShape::new(4, 4, 2, 2))?;
//! let mut r = rng::seeded(1);
//! let epi = Epitome::from_tensor(spec, init::uniform(&[4, 4, 2, 2], -1.0, 1.0, &mut r))?;
//!
//! // A 3x3 layer at stride 1 with same padding over 8x8 inputs.
//! let (net, weights) = zoo::epitome_layer_network(&epi, (8, 8));
//! let cache = PlanCache::new();
//! let mut builder = MultiEngine::builder(&cache);
//! let layer = builder.register(
//!     "layer", &net, &weights, (8, 8), true, AnalogModel::ideal(), TenantConfig::default(),
//! )?;
//! let engine = builder.build()?;
//!
//! let x = init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r);
//! let inference = engine.infer(layer, x)?;
//! assert_eq!(inference.output.shape(), &[1, 8, 8, 8]);
//! assert_eq!(engine.tenant_stats(layer)?.requests, 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod cache;
mod error;
mod network;
mod scheduler;
mod service;
mod stats;
mod sync;
mod tenancy;

pub use cache::{PlanCache, PlanCacheStats};
pub use error::RuntimeError;
pub use network::NetworkPlan;
pub use scheduler::{FlowControl, Inference, Pending, TenantConfig, DEFAULT_RESTART_BUDGET};
pub use service::{InferRequest, CLIENT_NONE};
pub use stats::{RuntimeStats, StageRollup};
pub use tenancy::{MultiEngine, MultiEngineBuilder, TenantId};
