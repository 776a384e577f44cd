//! Deployment planner: the "joint optimization of CNN architecture and
//! computing system" the paper's introduction promises, §7.2's closing
//! remark ("network operator can decide the partition size based on their
//! accuracy requirement") turned into an API.
//!
//! Given a model, a cluster, and an accuracy oracle (retraining results à
//! la Figure 10 — measured, tabulated, or predicted), the planner sweeps
//! partition grids × separable-prefix depths, simulates each candidate, and
//! returns the fastest configuration whose accuracy clears the operator's
//! floor.

use crate::cluster::{AdcnnSim, AdcnnSimConfig};
use crate::fleet::FleetConfig;
use crate::placement::{PlacementDecision, PlacementInput, PlacementPolicy};
use adcnn_core::fdsp::TileGrid;

/// One evaluated deployment candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Partition grid.
    pub grid: TileGrid,
    /// Separable-prefix depth (blocks on Conv nodes).
    pub prefix: usize,
    /// Simulated steady-state latency, seconds.
    pub latency_s: f64,
    /// Accuracy the oracle reports for this configuration.
    pub accuracy: f64,
    /// Whether the accuracy floor was met.
    pub feasible: bool,
}

/// Outcome of a planning sweep.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The chosen configuration (fastest feasible), if any was feasible.
    pub chosen: Option<Candidate>,
    /// Every evaluated candidate, for reporting.
    pub candidates: Vec<Candidate>,
}

/// Consult `policy` for `cfg`'s tenants at t = 0 with a full healthy
/// roster — exactly the initial placement [`crate::FleetSim::run`] takes —
/// and return the shared decision record. Lets an operator inspect (or
/// pin, via [`crate::PinnedPlacement::from_decision`]) the tenant-to-node
/// assignment before committing a fleet to it.
pub fn plan_placement(cfg: &FleetConfig, policy: &dyn PlacementPolicy) -> PlacementDecision {
    policy.place(&PlacementInput::from_fleet(cfg, 0.0, &[]))
}

/// Sweep `grids × prefixes` under `base` (its own grid/prefix are
/// overridden), scoring accuracy with `oracle(grid, prefix)` and latency
/// with a short simulation. Returns the fastest candidate meeting
/// `min_accuracy`.
pub fn plan_deployment(
    base: &AdcnnSimConfig,
    grids: &[TileGrid],
    prefixes: &[usize],
    min_accuracy: f64,
    oracle: &dyn Fn(TileGrid, usize) -> f64,
) -> Plan {
    let mut candidates = Vec::new();
    for &grid in grids {
        let (_, h, w) = base.model.input;
        if h < grid.rows || w < grid.cols {
            continue;
        }
        for &prefix in prefixes {
            if prefix == 0 || prefix > base.model.blocks.len() {
                continue;
            }
            let mut cfg = base.clone();
            cfg.grid = grid;
            cfg.prefix = prefix;
            cfg.images = cfg.images.clamp(5, 15);
            cfg.pipeline_depth = 1;
            let latency_s = AdcnnSim::new(cfg).run().steady_latency_s();
            let accuracy = oracle(grid, prefix);
            candidates.push(Candidate {
                grid,
                prefix,
                latency_s,
                accuracy,
                feasible: accuracy >= min_accuracy,
            });
        }
    }
    let chosen = candidates
        .iter()
        .filter(|c| c.feasible)
        .min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
        .cloned();
    Plan { chosen, candidates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_nn::zoo;

    /// A Figure-10-shaped synthetic oracle: accuracy degrades with tile
    /// count and with split depth past the separable region.
    fn oracle(model_separable: usize) -> impl Fn(TileGrid, usize) -> f64 {
        move |grid, prefix| {
            let tile_penalty = 0.0008 * grid.tiles() as f64;
            let depth_penalty = 0.02 * (prefix.saturating_sub(model_separable)) as f64;
            0.95 - tile_penalty - depth_penalty
        }
    }

    fn base() -> AdcnnSimConfig {
        let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 8);
        cfg.images = 8;
        cfg
    }

    #[test]
    fn planner_picks_fastest_feasible() {
        let cfg = base();
        let sep = cfg.model.separable_prefix;
        let grids = [TileGrid::new(4, 4), TileGrid::new(8, 8)];
        let prefixes = [4usize, 7, 13];
        let plan = plan_deployment(&cfg, &grids, &prefixes, 0.90, &oracle(sep));
        let chosen = plan.chosen.expect("a feasible candidate exists");
        // the chosen plan must be feasible and at least as fast as every
        // other feasible candidate
        assert!(chosen.feasible);
        for c in plan.candidates.iter().filter(|c| c.feasible) {
            assert!(chosen.latency_s <= c.latency_s + 1e-12);
        }
        // with this oracle, deep splits at 8x8 lose too much accuracy at a
        // 0.90 floor only when penalties say so — sanity: chosen accuracy
        // respects the floor
        assert!(chosen.accuracy >= 0.90);
    }

    #[test]
    fn tight_floor_forces_shallow_split() {
        let cfg = base();
        let sep = cfg.model.separable_prefix;
        let grids = [TileGrid::new(8, 8)];
        let prefixes = [7usize, 13];
        // floor only the shallow split can meet (depth penalty 0.12 at 13)
        let plan = plan_deployment(&cfg, &grids, &prefixes, 0.89, &oracle(sep));
        let chosen = plan.chosen.expect("shallow candidate feasible");
        assert_eq!(chosen.prefix, 7, "{chosen:?}");
        // and the infeasible deep candidate is still reported
        assert!(plan.candidates.iter().any(|c| c.prefix == 13 && !c.feasible));
    }

    #[test]
    fn impossible_floor_returns_none() {
        let cfg = base();
        let sep = cfg.model.separable_prefix;
        let plan = plan_deployment(&cfg, &[TileGrid::new(2, 2)], &[7], 0.999, &oracle(sep));
        assert!(plan.chosen.is_none());
        assert!(!plan.candidates.is_empty());
    }

    #[test]
    fn plan_placement_matches_the_fleet_drivers_initial_decision() {
        use crate::cluster::SimNode;
        use crate::fleet::{FleetConfig, FleetSim};
        use crate::placement::GreedyPlacement;
        use crate::tenancy::TenantSpec;
        use std::sync::Arc;

        let nodes: Vec<SimNode> = (0..6).map(|_| SimNode::pi()).collect();
        let mk = || {
            let tenant = |model| TenantSpec {
                grid: TileGrid::new(2, 2),
                requests: 8,
                arrivals: crate::arrivals::ArrivalSpec::Poisson { rate_per_s: 2.0 },
                ..TenantSpec::new(model)
            };
            FleetConfig {
                placement: Arc::new(GreedyPlacement::default()),
                ..FleetConfig::new(
                    nodes.clone(),
                    vec![tenant(zoo::vgg16()), tenant(zoo::resnet18())],
                )
            }
        };
        let planned = plan_placement(&mk(), &GreedyPlacement::default());
        let ran = FleetSim::new(mk()).run().placement;
        assert_eq!(planned, ran, "planner and driver disagree on the initial placement");
        assert_eq!(planned.policy, "greedy");
        assert_eq!(planned.assignments.len(), 2);
        for a in &planned.assignments {
            assert!(!a.nodes.is_empty(), "tenant {} placed nowhere", a.tenant);
        }
    }

    #[test]
    fn relaxing_the_floor_never_slows_the_plan() {
        let cfg = base();
        let sep = cfg.model.separable_prefix;
        let grids = [TileGrid::new(4, 4), TileGrid::new(8, 8)];
        let prefixes = [4usize, 7, 13];
        let strict = plan_deployment(&cfg, &grids, &prefixes, 0.93, &oracle(sep));
        let relaxed = plan_deployment(&cfg, &grids, &prefixes, 0.85, &oracle(sep));
        if let (Some(s), Some(r)) = (strict.chosen, relaxed.chosen) {
            assert!(r.latency_s <= s.latency_s + 1e-12);
        }
    }
}
