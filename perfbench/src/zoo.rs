//! The served zoo as the benchmark sees it: the default fleet, seeded
//! inputs, the expected output of every input, and the static facts the
//! per-layer metrics need (stage FLOPs, distinct epitome stages).

use epim_models::lower::{NetworkProgram, NetworkWeights, StageInput, StageOp};
use epim_models::zoo;
use epim_pim::datapath::DataPath;
use epim_runtime::{MultiEngine, PlanCache};
use epim_serve::fleet::{self, FleetConfig, INPUT_SHAPE, INPUT_SIDE};
use epim_tensor::{init, rng, Tensor};

/// One tenant's weights and its unoptimized lowered program (the oracle
/// `forward_reference` runs on).
pub struct TenantModel {
    pub name: String,
    pub reference: NetworkProgram,
    pub weights: NetworkWeights,
}

pub struct Zoo {
    pub cfg: FleetConfig,
    pub tenants: Vec<TenantModel>,
}

impl Zoo {
    pub fn default_zoo() -> Result<Self, String> {
        let cfg = FleetConfig::default_zoo();
        let tenants = cfg
            .tenants
            .iter()
            .map(|spec| {
                let (net, _) = zoo::tiny_epitome_network(spec.stem, spec.mid, spec.classes)
                    .map_err(|e| format!("tenant {}: {e}", spec.name))?;
                let weights = NetworkWeights::random(&net, spec.seed)
                    .map_err(|e| format!("tenant {}: {e}", spec.name))?;
                let reference = net
                    .lower(INPUT_SIDE, INPUT_SIDE)
                    .map_err(|e| format!("tenant {}: {e}", spec.name))?;
                Ok(TenantModel {
                    name: spec.name.clone(),
                    reference,
                    weights,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Zoo { cfg, tenants })
    }

    pub fn names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name.clone()).collect()
    }

    /// Builds the fleet the workloads serve.
    pub fn build_fleet(&self) -> Result<MultiEngine, String> {
        self.cfg.build().map_err(|e| format!("building fleet: {e}"))
    }

    /// The oracle: tenant `t`'s unoptimized program run stage by stage.
    pub fn reference_output(&self, t: usize, input: &Tensor) -> Result<Tensor, String> {
        let m = &self.tenants[t];
        m.reference
            .forward_reference(&m.weights, true, fleet::analog(), input)
            .map(|(out, _)| out)
            .map_err(|e| format!("forward_reference on {}: {e}", m.name))
    }

    /// Dense-equivalent FLOPs per image of every stage of `program` (an
    /// optimized plan's program of tenant `t`), by op kind, computed from
    /// the stage shapes: `2 * C_out * OH * OW * C_in * KH * KW` for
    /// convolutions and for epitome stages (their full convolution shape).
    pub fn stage_flops(&self, t: usize, program: &NetworkProgram) -> Vec<(&'static str, f64)> {
        let weights = &self.tenants[t].weights;
        program
            .stages()
            .iter()
            .filter_map(|stage| {
                let pixels = stage.out_shape.iter().skip(1).product::<usize>() as f64;
                match &stage.op {
                    StageOp::Conv { layer, .. } => {
                        let (w, _) = weights.dense(*layer, &stage.name).ok()?;
                        Some(("conv2d", 2.0 * pixels * w.len() as f64))
                    }
                    StageOp::Epitome { spec, .. } => {
                        let c = spec.conv();
                        let macs = (c.cout * c.cin * c.kh * c.kw) as f64 * pixels;
                        Some(("epitome", 2.0 * macs))
                    }
                    _ => None,
                }
            })
            .collect()
    }

    /// One data path per distinct epitome spec of the fleet's optimized
    /// programs, each with the per-image input shape its stage reads.
    pub fn distinct_datapaths(
        &self,
        programs: &[&NetworkProgram],
    ) -> Result<Vec<(String, DataPath, Vec<usize>)>, String> {
        let cache = PlanCache::new();
        let mut out: Vec<(String, DataPath, Vec<usize>)> = Vec::new();
        for (t, program) in programs.iter().enumerate() {
            for stage in program.stages() {
                let StageOp::Epitome {
                    layer, spec, cfg, ..
                } = &stage.op
                else {
                    continue;
                };
                if out.iter().any(|(_, dp, _)| dp.spec() == spec) {
                    continue;
                }
                let epi = self.tenants[t]
                    .weights
                    .epitome(*layer, spec, &stage.name)
                    .map_err(|e| e.to_string())?;
                let dp = cache
                    .datapath(epi, *cfg, true, fleet::analog())
                    .map_err(|e| e.to_string())?;
                let in_shape = match stage.input {
                    StageInput::Source => program.input_shape().to_vec(),
                    StageInput::Stage(j) => program.stages()[j].out_shape.clone(),
                };
                let c = spec.conv();
                let label = format!(
                    "{}:{}x{}x{}x{}",
                    self.tenants[t].name, c.cout, c.cin, c.kh, c.kw
                );
                out.push((label, dp, in_shape));
            }
        }
        Ok(out)
    }
}

/// Seeded inputs: entry `j` targets tenant `j % tenants`, so walking the
/// pool in order is round-robin over the tenants.
pub struct Pool {
    pub entries: Vec<(usize, Tensor)>,
}

impl Pool {
    pub fn seeded(seed: u64, tenants: usize, per_tenant: usize) -> Self {
        let mut r = rng::seeded(seed);
        let entries = (0..tenants * per_tenant)
            .map(|j| (j % tenants, init::uniform(&INPUT_SHAPE, -1.0, 1.0, &mut r)))
            .collect();
        Pool { entries }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn get(&self, k: usize) -> &(usize, Tensor) {
        &self.entries[k % self.entries.len()]
    }
}

/// Bit-for-bit equality of shape and every f32's bits.
pub fn bit_identical(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_seeded_and_round_robin() {
        let a = Pool::seeded(7, 3, 4);
        let b = Pool::seeded(7, 3, 4);
        let c = Pool::seeded(8, 3, 4);
        assert_eq!(a.len(), 12);
        assert!((0..12).all(|k| a.get(k).0 == k % 3));
        assert!((0..12).all(|k| bit_identical(&a.get(k).1, &b.get(k).1)));
        assert!(!bit_identical(&a.get(0).1, &c.get(0).1));
        assert_eq!(a.get(12).0, a.get(0).0);
    }

    #[test]
    fn bit_identity_sees_sign_of_zero_and_shape() {
        let p = Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap();
        let n = Tensor::from_vec(vec![-0.0, 1.0], &[2]).unwrap();
        let r = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        assert!(bit_identical(&p, &p.clone()));
        assert!(!bit_identical(&p, &n));
        assert!(!bit_identical(&p, &r));
    }
}
