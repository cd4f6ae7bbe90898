//! `plan_offline`: `NetworkPlan::execute_batch` on 8-image groups,
//! round-robin over the tenants' plans — no wire and no scheduler.

use crate::outcome::Outcome;
use crate::spans::{Spans, NO_PARENT};
use crate::zoo::{bit_identical, Pool};
use epim_pim::datapath::DataPathStats;
use epim_runtime::NetworkPlan;
use epim_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Images per `execute_batch` call.
pub const GROUP: usize = 8;

/// One timed `execute_batch` call, for attributing trace-ring stage spans
/// to the tenant that ran them.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub tenant: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What a phase produced besides its outcome.
#[derive(Debug, Default)]
pub struct Counts {
    /// Data-path counters and images, per tenant.
    pub datapath: Vec<(DataPathStats, u64)>,
    /// Traced calls (empty when spans are off).
    pub calls: Vec<Call>,
}

impl Counts {
    pub fn new(tenants: usize) -> Self {
        Counts {
            datapath: vec![(DataPathStats::default(), 0); tenants],
            calls: Vec::new(),
        }
    }
}

/// Pool indices of group `g`: tenant `g % tenants`, whose pool entries
/// (every `tenants`-th) are taken `GROUP` at a time, cycling.
pub fn group_indices(g: usize, tenants: usize, per_tenant: usize) -> Vec<usize> {
    let t = g % tenants;
    let round = g / tenants;
    (0..GROUP)
        .map(|i| ((round * GROUP + i) % per_tenant) * tenants + t)
        .collect()
}

/// The tenants' plans with the inputs and expected outputs they run on.
pub struct Groups<'a> {
    pub plans: &'a [Arc<NetworkPlan>],
    pub pool: &'a Pool,
    pub expected: &'a [Tensor],
}

impl Groups<'_> {
    /// Runs groups from number `*g` on until `run_for` has passed, adding
    /// to `counts`.
    pub fn run(
        &self,
        g: &mut usize,
        run_for: Duration,
        spans: &mut Spans,
        counts: &mut Counts,
    ) -> Outcome {
        let tenants = self.plans.len();
        let mut out = Outcome {
            plan_ms: vec![Vec::new(); tenants],
            ..Outcome::default()
        };
        let start = Instant::now();
        while start.elapsed() < run_for {
            let g = {
                *g += 1;
                *g - 1
            };
            let t = g % tenants;
            let indices = group_indices(g, tenants, self.pool.len() / tenants);
            let inputs: Vec<&Tensor> = indices.iter().map(|&i| &self.pool.get(i).1).collect();
            let span_start = spans.start();
            let t0 = Instant::now();
            let result = self.plans[t].execute_batch(&inputs);
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            if spans.enabled() {
                let id = spans.free_id();
                spans.end("plan.execute_batch", id, NO_PARENT, g as u64, span_start);
                let s = spans.spans.last().expect("span just recorded");
                counts.calls.push(Call {
                    tenant: t,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                });
            }
            out.attempted += 1;
            match result {
                Ok((outputs, stats)) => {
                    let all_match = outputs.len() == indices.len()
                        && outputs
                            .iter()
                            .zip(&indices)
                            .all(|(o, &i)| bit_identical(o, &self.expected[i]));
                    if all_match {
                        out.record_success(latency_ms, GROUP as u64);
                        out.plan_ms[t].push(latency_ms);
                        counts.datapath[t].0.accumulate(&stats);
                        counts.datapath[t].1 += GROUP as u64;
                    } else {
                        out.mismatched += 1;
                        eprintln!(
                            "perfbench: group {g} (tenant {t}): output differs from \
                             forward_reference on the unoptimized program"
                        );
                    }
                }
                Err(e) => {
                    out.record_typed(epim_serve::wire::error_code(&e));
                }
            }
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_single_tenant_and_cycle_the_pool() {
        let pool = Pool::seeded(1, 3, 16);
        for g in 0..12 {
            let idx = group_indices(g, 3, 16);
            assert_eq!(idx.len(), GROUP);
            assert!(idx
                .iter()
                .all(|&i| pool.get(i).0 == g % 3 && i < pool.len()));
        }
        // Two rounds of a tenant cover its 16 entries once each.
        let mut seen: Vec<usize> = [0, 3]
            .iter()
            .flat_map(|&g| group_indices(g, 3, 16))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 16);
    }
}
