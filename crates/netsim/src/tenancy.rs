//! Multi-tenant serving: several zoo architectures sharing one cluster,
//! each with its own lifecycle policy, compression parameters, Algorithm 2
//! statistics, and request stream — plus the weighted-fair admission
//! scheduler that arbitrates the shared admission window between them.
//!
//! A [`TenantSpec`] is everything model-specific, detached from the
//! cluster: the fleet driver holds one cluster (nodes, channel, Central)
//! and N tenants. Write one as a struct literal over the paper-testbed
//! defaults — `TenantSpec { requests: 500, ..TenantSpec::new(model) }` —
//! and [`FleetSim::new`](crate::FleetSim::new) validates it. Fairness is stride scheduling over configured weights: each
//! admission charges the picked tenant `1/weight`, and the next admission
//! goes to the backlogged tenant with the lowest cumulative charge —
//! deterministic, O(tenants) per admission, and work-conserving (an idle
//! tenant never blocks a backlogged one).

use crate::arrivals::ArrivalSpec;
use adcnn_core::config::ConfigError;
use adcnn_core::fdsp::TileGrid;
use adcnn_core::fleetobs::SloSpec;
use adcnn_core::lifecycle::LifecyclePolicy;
use adcnn_nn::zoo::ModelSpec;

/// One model being served on the shared cluster: the architecture, its
/// FDSP partition, its lifecycle policy, its request stream, and its
/// fair-share weight. [`TenantSpec::validate`] turns a bad grid, weight
/// or arrival process into a typed [`ConfigError`] instead of a wedged
/// run.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (defaults to the model's name).
    pub name: String,
    /// The CNN being served.
    pub model: ModelSpec,
    /// FDSP grid.
    pub grid: TileGrid,
    /// Separable layer blocks executed on Conv nodes.
    pub prefix: usize,
    /// Per-model tile-lifecycle policy.
    pub policy: LifecyclePolicy,
    /// Algorithm 2 decay γ for this tenant's statistics.
    pub gamma: f64,
    /// Intermediate-result sparsity; `None` sends raw 32-bit floats.
    pub compression: Option<f64>,
    /// Quantizer bit width (one of {2, 4, 8}).
    pub quant_bits: u8,
    /// Algorithms 2+3 (true) or a static equal split (false).
    pub adaptive: bool,
    /// Fair-share weight: a tenant with twice the weight gets twice the
    /// admissions when both are backlogged.
    pub weight: f64,
    /// The request-arrival process.
    pub arrivals: ArrivalSpec,
    /// Total virtual requests this tenant submits over the run.
    pub requests: usize,
    /// Service-level objectives (p99 latency target + zero-fill
    /// budget); `None` runs untracked and the summary carries no
    /// [`adcnn_core::fleetobs::SloReport`].
    pub slo: Option<SloSpec>,
}

impl TenantSpec {
    /// Paper-testbed defaults for `model`: its preferred grid and prefix,
    /// calibrated compression, the default lifecycle policy, γ = 0.9,
    /// weight 1, closed-loop arrivals, 100 requests.
    pub fn new(model: ModelSpec) -> Self {
        let grid = TileGrid::new(model.default_grid.0, model.default_grid.1);
        let prefix = model.separable_prefix;
        let sparsity = crate::profiles::model_sparsity(&model.name);
        TenantSpec {
            name: model.name.clone(),
            model,
            grid,
            prefix,
            policy: LifecyclePolicy::default(),
            gamma: 0.9,
            compression: Some(sparsity),
            quant_bits: 4,
            adaptive: true,
            weight: 1.0,
            arrivals: ArrivalSpec::ClosedLoop,
            requests: 100,
            slo: None,
        }
    }

    /// Check the invariants the fleet driver relies on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.policy.validate()?;
        if !(self.gamma > 0.0 && self.gamma <= 1.0) {
            return Err(ConfigError::GammaOutOfRange(self.gamma));
        }
        if !matches!(self.quant_bits, 2 | 4 | 8) {
            return Err(ConfigError::UnsupportedQuantBits(self.quant_bits as u32));
        }
        if self.requests == 0 {
            return Err(ConfigError::ZeroImages);
        }
        let blocks = self.model.blocks.len();
        if self.prefix == 0 || self.prefix > blocks {
            return Err(ConfigError::PrefixOutOfRange { prefix: self.prefix, blocks });
        }
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(ConfigError::NonPositiveTenantWeight(self.weight));
        }
        if let Some(slo) = &self.slo {
            slo.validate()?;
        }
        self.arrivals.validate()
    }
}

/// Deterministic weighted-fair (stride) scheduler over tenant indices.
#[derive(Clone, Debug)]
pub struct FairScheduler {
    /// Cumulative normalized service per tenant.
    pass: Vec<f64>,
    /// Charge per admission: `1 / weight`.
    stride: Vec<f64>,
}

impl FairScheduler {
    /// A scheduler for the given positive weights.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "no tenants");
        assert!(weights.iter().all(|w| w.is_finite() && *w > 0.0), "weights must be positive");
        FairScheduler {
            pass: vec![0.0; weights.len()],
            stride: weights.iter().map(|w| 1.0 / w).collect(),
        }
    }

    /// Pick the eligible tenant with the lowest cumulative charge (ties
    /// break to the lowest index — fully deterministic) and charge it one
    /// admission. `None` if no tenant is eligible.
    pub fn pick(&mut self, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for t in 0..self.pass.len() {
            if !eligible(t) {
                continue;
            }
            match best {
                None => best = Some(t),
                Some(b) if self.pass[t] < self.pass[b] => best = Some(t),
                _ => {}
            }
        }
        let t = best?;
        self.pass[t] += self.stride[t];
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_nn::zoo;

    #[test]
    fn spec_defaults_validate() {
        TenantSpec::new(zoo::vgg16()).validate().unwrap();
        TenantSpec::new(zoo::resnet18()).validate().unwrap();
    }

    #[test]
    fn validate_rejects_each_bad_field_with_its_typed_error() {
        use ConfigError as E;
        let base = || TenantSpec::new(zoo::vgg16());
        let poisson = |rate_per_s| ArrivalSpec::Poisson { rate_per_s };
        let blocks = base().model.blocks.len();
        let cases = [
            (TenantSpec { weight: -1.0, ..base() }, E::NonPositiveTenantWeight(-1.0)),
            (TenantSpec { weight: 0.0, ..base() }, E::NonPositiveTenantWeight(0.0)),
            (TenantSpec { quant_bits: 3, ..base() }, E::UnsupportedQuantBits(3)),
            (TenantSpec { requests: 0, ..base() }, E::ZeroImages),
            (TenantSpec { gamma: 0.0, ..base() }, E::GammaOutOfRange(0.0)),
            (TenantSpec { prefix: 0, ..base() }, E::PrefixOutOfRange { prefix: 0, blocks }),
            (TenantSpec { arrivals: poisson(0.0), ..base() }, E::NonPositiveArrivalRate(0.0)),
            (TenantSpec { arrivals: poisson(-1.0), ..base() }, E::NonPositiveArrivalRate(-1.0)),
            (
                TenantSpec { slo: Some(SloSpec::new(-0.1, 0.05)), ..base() },
                E::NonPositiveSloTarget(-0.1),
            ),
            (
                TenantSpec { slo: Some(SloSpec::new(0.5, 2.0)), ..base() },
                E::SloBudgetOutOfRange(2.0),
            ),
        ];
        for (spec, want) in cases {
            assert_eq!(spec.validate(), Err(want));
        }
        // Every field set at once, to values unlike the defaults: valid.
        let spec = TenantSpec {
            name: "web-tier".into(),
            grid: TileGrid::new(2, 2),
            gamma: 0.8,
            quant_bits: 8,
            adaptive: false,
            weight: 3.0,
            arrivals: poisson(2.0),
            requests: 42,
            slo: Some(SloSpec::new(0.5, 0.05)),
            ..base()
        };
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn stride_scheduler_honors_weights() {
        // weights 2:1 — tenant 0 gets 2 of every 3 admissions
        let mut s = FairScheduler::new(&[2.0, 1.0]);
        let mut counts = [0usize; 2];
        for _ in 0..300 {
            counts[s.pick(|_| true).unwrap()] += 1;
        }
        assert_eq!(counts, [200, 100], "stride must match weights exactly");
    }

    #[test]
    fn stride_scheduler_is_work_conserving() {
        let mut s = FairScheduler::new(&[10.0, 1.0]);
        // tenant 0 idle: tenant 1 takes every slot regardless of weight
        for _ in 0..10 {
            assert_eq!(s.pick(|t| t == 1), Some(1));
        }
        // tenant 0 returns with low accumulated charge and catches up,
        // but the scheduler never starves tenant 1 indefinitely
        let mut got1 = false;
        for _ in 0..200 {
            if s.pick(|_| true).unwrap() == 1 {
                got1 = true;
            }
        }
        assert!(got1, "backlogged tenant starved after idle peer returned");
        assert_eq!(s.pick(|_| false), None);
    }
}
