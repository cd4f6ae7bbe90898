//! Per-layer metrics: their names and units, the window arithmetic over
//! the runtime's stats snapshots and trace ring, and the direct timings of
//! the wire codec and the data path.

use crate::spans::{Spans, NO_PARENT, NO_REQUEST};
use crate::stats::{hist_window, median};
use epim_obs::{SpanKind, StageOpKind, TraceEvent, TENANT_NONE};
use epim_pim::datapath::{DataPath, DataPathStats};
use epim_runtime::{MultiEngine, RuntimeStats};
use epim_serve::wire::{Message, WireRequest, WireResponse};
use epim_tensor::{init, rng, Tensor};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric: name, unit, which direction is better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("serve.wire.request_bytes", "bytes", "lower"),
    ("serve.wire.response_bytes", "bytes", "lower"),
    ("serve.wire.encode_us", "us", "lower"),
    ("serve.wire.decode_us", "us", "lower"),
    ("serve.client.submit_us", "us", "lower"),
    ("serve.residual_p50_ms", "ms", "lower"),
    ("load.late_p99_ms", "ms", "lower"),
    ("load.late_max_ms", "ms", "lower"),
    ("load.invalid_window_share", "share", "lower"),
    ("runtime.queue_wait_p50_us", "us", "lower"),
    ("runtime.queue_wait_p99_us", "us", "lower"),
    ("runtime.coalesce_ms", "ms", "lower"),
    ("runtime.mean_batch", "count", "higher"),
    ("runtime.queue_depth_high_water", "count", "lower"),
    ("runtime.service_p50_us", "us", "lower"),
    ("runtime.e2e_p50_us", "us", "lower"),
    ("runtime.e2e_p99_us", "us", "lower"),
    ("runtime.shed", "count", "lower"),
    ("runtime.deadline_exceeded", "count", "lower"),
    ("runtime.worker_restarts", "count", "lower"),
    ("stage.conv2d.ns_per_image", "ns", "lower"),
    ("stage.epitome.ns_per_image", "ns", "lower"),
    ("stage.max_pool.ns_per_image", "ns", "lower"),
    ("stage.add.ns_per_image", "ns", "lower"),
    ("stage.global_avg_pool.ns_per_image", "ns", "lower"),
    ("stage.linear.ns_per_image", "ns", "lower"),
    ("stage.conv2d.gflops", "GFLOP/s", "higher"),
    ("stage.epitome.gflops", "GFLOP/s", "higher"),
    ("runtime.plan_cache.hits", "count", "higher"),
    ("runtime.plan_cache.misses", "count", "lower"),
    ("runtime.arena_bytes", "bytes", "lower"),
    ("pim.datapath.b1_us", "us", "lower"),
    ("pim.datapath.b8_us", "us", "lower"),
    ("pim.datapath.rounds_per_image", "count", "lower"),
    ("pim.datapath.word_lines_per_image", "count", "lower"),
    ("pim.datapath.bit_lines_per_image", "count", "lower"),
    ("pim.datapath.table_lookups_per_image", "count", "lower"),
    ("pim.datapath.sweep_share", "share", "lower"),
    ("trace.dropped_events", "count", "lower"),
    ("trace.overhead.qps", "req/s", "lower"),
    ("trace.overhead.images_per_s", "images/s", "lower"),
    ("trace.overhead.p50_ms", "ms", "lower"),
    ("trace.overhead.p90_ms", "ms", "lower"),
    ("trace.overhead.slo_share", "share", "lower"),
    ("reconcile.residual_gap_ms", "ms", "lower"),
    ("reconcile.stage_gap_share", "share", "lower"),
];

/// The metrics that must repeat exactly across runs with one seed.
pub const EXACT_COUNTS: &[&str] = &[
    "serve.wire.request_bytes",
    "serve.wire.response_bytes",
    "runtime.plan_cache.hits",
    "runtime.plan_cache.misses",
    "runtime.arena_bytes",
    "pim.datapath.rounds_per_image",
    "pim.datapath.word_lines_per_image",
    "pim.datapath.bit_lines_per_image",
    "pim.datapath.table_lookups_per_image",
];

/// The op kinds of the zoo's optimized programs, in report order.
pub const STAGE_OPS: [&str; 6] = [
    "conv2d",
    "epitome",
    "max_pool",
    "add",
    "global_avg_pool",
    "linear",
];

/// The report key of an op name (`"other"` for kinds the zoo lacks).
fn op_key(op: &str) -> &'static str {
    STAGE_OPS
        .iter()
        .find(|&&o| o == op)
        .copied()
        .unwrap_or("other")
}

/// Per-layer values; a layer the workload bypasses reads 0.
#[derive(Debug, Clone)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let key = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
            .0;
        self.0.insert(key, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// A fleet's stats at one instant, fleet-wide and per tenant.
pub struct Snap {
    pub fleet: RuntimeStats,
    pub tenants: Vec<RuntimeStats>,
}

impl Snap {
    pub fn take(engine: &MultiEngine) -> Self {
        let tenants = engine
            .tenant_names()
            .iter()
            .map(|n| {
                let id = engine.tenant_id(n).expect("own tenant name");
                engine.tenant_stats(id).expect("own tenant id")
            })
            .collect();
        Snap {
            fleet: engine.fleet_stats(),
            tenants,
        }
    }
}

/// The `DataPathStats` counters reported per image, in `DP_METRICS` order.
pub fn dp_counts(s: &DataPathStats) -> [u64; 4] {
    [
        s.rounds,
        s.word_line_activations,
        s.bit_line_activations,
        s.table_lookups,
    ]
}

const DP_METRICS: [&str; 4] = [
    "pim.datapath.rounds_per_image",
    "pim.datapath.word_lines_per_image",
    "pim.datapath.bit_lines_per_image",
    "pim.datapath.table_lookups_per_image",
];

/// Data-path counts per image, averaged with equal weight over the
/// tenants (one round-robin cycle), so the figure does not depend on how
/// many requests of each tenant a timed window happened to hold.
pub fn datapath_per_image(per_tenant: &[([u64; 4], u64)]) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (counts, images) in per_tenant {
        for (o, &c) in out.iter_mut().zip(counts) {
            *o += c as f64 / (*images).max(1) as f64;
        }
    }
    out.map(|v| v / per_tenant.len().max(1) as f64)
}

pub fn set_datapath(layers: &mut Layers, per_image: [f64; 4]) {
    for (name, v) in DP_METRICS.iter().zip(per_image) {
        layers.set(name, v);
    }
}

/// Per-tenant data-path counts and images between two snapshots.
pub fn serve_datapath(after: &Snap, before: &Snap) -> Vec<([u64; 4], u64)> {
    after
        .tenants
        .iter()
        .zip(&before.tenants)
        .map(|(a, b)| {
            let (a_counts, b_counts) = (dp_counts(&a.datapath), dp_counts(&b.datapath));
            let diff = std::array::from_fn(|i| a_counts[i] - b_counts[i]);
            (diff, a.requests - b.requests)
        })
        .collect()
}

/// Per-tenant, per-op stage time and the images it covered.
#[derive(Debug, Default)]
pub struct StageTimes {
    /// `(tenant, op) -> ns`
    pub ns: BTreeMap<(usize, &'static str), f64>,
    /// Images per tenant.
    pub images: Vec<u64>,
}

impl StageTimes {
    /// Fills the `stage.*` metrics; `flops[t]` lists tenant `t`'s
    /// per-image FLOPs by op kind.
    pub fn apply(&self, layers: &mut Layers, flops: &[Vec<(&'static str, f64)>]) {
        let images: u64 = self.images.iter().sum();
        for op in STAGE_OPS {
            let ns: f64 = self
                .ns
                .iter()
                .filter(|((_, o), _)| *o == op)
                .map(|(_, v)| v)
                .sum();
            layers.set(
                &format!("stage.{op}.ns_per_image"),
                ns / images.max(1) as f64,
            );
            if op == "conv2d" || op == "epitome" {
                let work: f64 = flops
                    .iter()
                    .enumerate()
                    .map(|(t, f)| {
                        let per_image: f64 = f.iter().filter(|(o, _)| *o == op).map(|x| x.1).sum();
                        per_image * self.images.get(t).copied().unwrap_or(0) as f64
                    })
                    .sum();
                let gflops = if ns > 0.0 { work / ns } else { 0.0 };
                layers.set(&format!("stage.{op}.gflops"), gflops);
            }
        }
    }

    /// Total stage time.
    pub fn total_ns(&self) -> f64 {
        self.ns.values().sum()
    }
}

/// Stage times between two snapshots, from the runtime's rollups.
pub fn serve_stage_times(after: &Snap, before: &Snap) -> StageTimes {
    let mut st = StageTimes::default();
    for (t, (a, b)) in after.tenants.iter().zip(&before.tenants).enumerate() {
        st.images.push(a.requests - b.requests);
        for (sa, sb) in a.stages.iter().zip(&b.stages) {
            *st.ns.entry((t, op_key(&sa.op))).or_default() += (sa.total_ns - sb.total_ns) as f64;
        }
    }
    st
}

/// Scheduler metrics of the window between two snapshots.
pub fn scheduler(layers: &mut Layers, after: &Snap, before: &Snap) {
    let (a, b) = (&after.fleet, &before.fleet);
    let wait = hist_window(&a.queue_wait, &b.queue_wait);
    let service = hist_window(&a.service, &b.service);
    let e2e = hist_window(&a.e2e, &b.e2e);
    layers.set("runtime.queue_wait_p50_us", wait.quantile(0.5) as f64 / 1e3);
    layers.set(
        "runtime.queue_wait_p99_us",
        wait.quantile(0.99) as f64 / 1e3,
    );
    layers.set("runtime.service_p50_us", service.quantile(0.5) as f64 / 1e3);
    layers.set("runtime.e2e_p50_us", e2e.quantile(0.5) as f64 / 1e3);
    layers.set("runtime.e2e_p99_us", e2e.quantile(0.99) as f64 / 1e3);
    let batches = a.batches - b.batches;
    layers.set(
        "runtime.mean_batch",
        (a.requests - b.requests) as f64 / batches.max(1) as f64,
    );
    layers.set(
        "runtime.queue_depth_high_water",
        a.queue_depth_high_water as f64,
    );
    layers.set("runtime.shed", (a.shed - b.shed) as f64);
    layers.set(
        "runtime.deadline_exceeded",
        (a.deadline_exceeded - b.deadline_exceeded) as f64,
    );
    layers.set(
        "runtime.worker_restarts",
        (a.worker_restarts - b.worker_restarts) as f64,
    );
}

/// Plan-cache counters and arena size of a freshly set-up fleet.
pub fn fleet_counts(layers: &mut Layers, stats: &RuntimeStats) {
    layers.set("runtime.plan_cache.hits", stats.plan_cache.hits as f64);
    layers.set("runtime.plan_cache.misses", stats.plan_cache.misses as f64);
    layers.set("runtime.arena_bytes", stats.arena_bytes as f64);
}

/// The program's trace ring over the window in which every lane still
/// holds all of its events.
pub struct Ring {
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
    pub window_start_ns: u64,
}

impl Ring {
    pub fn collect() -> Self {
        let ring = epim_obs::global();
        let mut events = Vec::new();
        let mut dropped = 0;
        let mut window_start_ns = 0;
        for lane in 0..ring.lanes() {
            let lane_events = ring.events(lane);
            let lane_dropped = ring.dropped(lane);
            if lane_dropped > 0 {
                if let Some(first) = lane_events.first() {
                    window_start_ns = window_start_ns.max(first.start_ns);
                }
            }
            dropped += lane_dropped;
            events.extend(lane_events);
        }
        events.retain(|e| e.start_ns >= window_start_ns);
        events.sort_by_key(|e| e.start_ns);
        Ring {
            events,
            dropped,
            window_start_ns,
        }
    }

    fn sum_ns(&self, pred: impl Fn(&TraceEvent) -> bool) -> (u64, usize) {
        self.events
            .iter()
            .filter(|e| pred(e))
            .fold((0, 0), |(s, n), e| (s + e.dur_ns, n + 1))
    }

    fn is_epitome_stage(e: &TraceEvent) -> bool {
        e.kind == SpanKind::Stage && epim_obs::unpack_stage_payload(e.a).0 == StageOpKind::Epitome
    }

    /// DAC sweep time as a share of epitome stage time.
    pub fn sweep_share(&self) -> f64 {
        let (sweep, _) = self.sum_ns(|e| e.kind == SpanKind::DacSweep);
        let (stage, _) = self.sum_ns(Self::is_epitome_stage);
        if stage == 0 {
            0.0
        } else {
            sweep as f64 / stage as f64
        }
    }

    /// Mean coalesce span, ms.
    pub fn coalesce_ms(&self) -> f64 {
        let (ns, n) = self.sum_ns(|e| e.kind == SpanKind::Coalesce);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e6
        }
    }

    /// Stage time over group time, both from the ring: the
    /// reconciliation of per-stage spans against the executed groups.
    pub fn stage_and_group_ns(&self) -> (u64, u64) {
        let (stage, _) = self.sum_ns(|e| e.kind == SpanKind::Stage && e.tenant != TENANT_NONE);
        let (group, _) = self.sum_ns(|e| e.kind == SpanKind::Group);
        (stage, group)
    }

    /// Stage spans of direct plan calls attributed to the call (and so
    /// the tenant) that ran them; only calls inside the window count.
    pub fn offline_stage_times(
        &self,
        calls: &[crate::offline::Call],
        tenants: usize,
    ) -> (StageTimes, u64) {
        let mut st = StageTimes {
            ns: BTreeMap::new(),
            images: vec![0; tenants],
        };
        let calls: Vec<_> = calls
            .iter()
            .filter(|c| c.start_ns >= self.window_start_ns)
            .collect();
        let mut call_ns = 0;
        for c in &calls {
            st.images[c.tenant] += crate::offline::GROUP as u64;
            call_ns += c.end_ns - c.start_ns;
        }
        for e in self
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::Stage && e.tenant == TENANT_NONE)
        {
            let i = calls.partition_point(|c| c.start_ns <= e.start_ns);
            let Some(c) = i.checked_sub(1).map(|i| calls[i]) else {
                continue;
            };
            if e.end_ns() > c.end_ns {
                continue;
            }
            let op = op_key(epim_obs::unpack_stage_payload(e.a).0.as_str());
            *st.ns.entry((c.tenant, op)).or_default() += e.dur_ns as f64;
        }
        (st, call_ns)
    }
}

/// Median per-call microseconds of `f` over `reps` batches of `per`
/// calls each, recording one span per batch.
fn time_us(
    spans: &mut Spans,
    name: &'static str,
    reps: usize,
    per: usize,
    mut f: impl FnMut(),
) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let span_start = spans.start();
        let t0 = Instant::now();
        for _ in 0..per {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / per as f64);
        let id = spans.free_id();
        spans.end(name, id, NO_PARENT, NO_REQUEST, span_start);
    }
    median(&samples)
}

/// The wire codec on the workload's own frames: one request frame (the
/// tenant's input) and one response frame (its expected output) per
/// tenant. Sizes include the 4-byte length prefix; times are per
/// request/response pair, averaged over the tenants.
pub fn wire(layers: &mut Layers, frames: &[(Message, Message)], spans: &mut Spans) {
    let n = frames.len() as f64;
    let (mut req_bytes, mut resp_bytes, mut enc, mut dec) = (0.0, 0.0, 0.0, 0.0);
    for (req, resp) in frames {
        let req_body = req.encode().expect("request frame encodes");
        let resp_body = resp.encode().expect("response frame encodes");
        req_bytes += (req_body.len() + 4) as f64;
        resp_bytes += (resp_body.len() + 4) as f64;
        let round_trip = (Message::decode(&req_body), Message::decode(&resp_body));
        assert!(
            matches!(round_trip, (Ok(a), Ok(b)) if a == *req && b == *resp),
            "wire round trip changed a frame"
        );
        enc += time_us(spans, "wire.encode", 15, 200, || {
            std::hint::black_box(std::hint::black_box(req).encode().expect("encodes"));
            std::hint::black_box(std::hint::black_box(resp).encode().expect("encodes"));
        });
        dec += time_us(spans, "wire.decode", 15, 200, || {
            std::hint::black_box(
                Message::decode(std::hint::black_box(&req_body)).expect("decodes"),
            );
            std::hint::black_box(
                Message::decode(std::hint::black_box(&resp_body)).expect("decodes"),
            );
        });
    }
    layers.set("serve.wire.request_bytes", req_bytes / n);
    layers.set("serve.wire.response_bytes", resp_bytes / n);
    layers.set("serve.wire.encode_us", enc / n);
    layers.set("serve.wire.decode_us", dec / n);
}

/// A request frame and the response frame answering it.
pub fn frame_pair(tenant: &str, input: &Tensor, output: &Tensor) -> (Message, Message) {
    (
        Message::Request(WireRequest {
            id: 1,
            tenant: tenant.to_string(),
            deadline_ms: 0,
            input: input.clone(),
        }),
        Message::Response(WireResponse {
            id: 1,
            batch_size: 1,
            latency_ns: 1,
            output: output.clone(),
        }),
    )
}

/// `DataPath::execute_batch` timed directly at batch 1 and batch 8 for
/// each distinct epitome stage, summed over the stages (µs per call).
/// Returns one human line per stage.
pub fn datapath(
    layers: &mut Layers,
    paths: &[(String, DataPath, Vec<usize>)],
    seed: u64,
    spans: &mut Spans,
) -> Vec<String> {
    let mut r = rng::seeded(seed ^ 0xD474);
    let (mut b1, mut b8) = (0.0, 0.0);
    let mut lines = Vec::new();
    for (label, dp, shape) in paths {
        let dims = [1, shape[0], shape[1], shape[2]];
        let inputs: Vec<Tensor> = (0..8)
            .map(|_| init::uniform(&dims, -1.0, 1.0, &mut r))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let one = time_us(spans, "pim.datapath.execute_batch", 31, 4, || {
            std::hint::black_box(dp.execute_batch(&refs[..1]).expect("datapath runs"));
        });
        let eight = time_us(spans, "pim.datapath.execute_batch", 31, 1, || {
            std::hint::black_box(dp.execute_batch(&refs).expect("datapath runs"));
        });
        lines.push(format!(
            "{label} input {dims:?}: batch 1 {one:.2} us/call, batch 8 {eight:.2} us/call"
        ));
        b1 += one;
        b8 += eight;
    }
    layers.set("pim.datapath.b1_us", b1);
    layers.set("pim.datapath.b8_us", b8);
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_exact_counts_are_listed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(EXACT_COUNTS.iter().all(|c| names.contains(c)));
        assert!(STAGE_OPS
            .iter()
            .all(|op| names.contains(&format!("stage.{op}.ns_per_image").as_str())));
    }

    #[test]
    fn datapath_counts_weigh_tenants_equally() {
        // Tenant 0: 10 per image over 3 images; tenant 1: 20 per image
        // over 1 image. Equal weights give 15, whatever the image mix.
        let v = datapath_per_image(&[([30, 0, 0, 0], 3), ([20, 0, 0, 0], 1)]);
        assert_eq!(v[0], 15.0);
    }

    #[test]
    fn stage_times_divide_by_images_and_weigh_flops_by_tenant() {
        let mut st = StageTimes {
            ns: BTreeMap::new(),
            images: vec![2, 2],
        };
        st.ns.insert((0, "conv2d"), 100.0);
        st.ns.insert((1, "conv2d"), 300.0);
        let mut layers = Layers::new();
        st.apply(
            &mut layers,
            &[vec![("conv2d", 10.0)], vec![("conv2d", 30.0)]],
        );
        assert_eq!(layers.get("stage.conv2d.ns_per_image"), 100.0);
        // (10 * 2 + 30 * 2) FLOPs over 400 ns.
        assert_eq!(layers.get("stage.conv2d.gflops"), 0.2);
        assert_eq!(layers.get("stage.epitome.gflops"), 0.0);
    }
}
