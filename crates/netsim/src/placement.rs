//! Tenant placement: which Conv nodes serve which tenant.
//!
//! ADCNN as published assumes every node serves every image, but the
//! size sweep in `BENCH_netsim` shows the shared half-duplex channel
//! saturates a 64-node fleet — the regime where throughput-maximizing
//! partitioning/placement (Parthasarathy & Krishnamachari; DistrEdge)
//! says *which nodes serve which tenant* is the remaining lever. This
//! module is the policy half of that control plane:
//!
//! - a [`PlacementPolicy`] maps every [`TenantSpec`](crate::TenantSpec)
//!   to a node subset, producing a [`PlacementDecision`] — the same
//!   struct the deployment planner reports and the fleet driver
//!   consumes;
//! - a [`CostOracle`] predicts per-tenant throughput from the per-node
//!   [`SpeedSchedule`](crate::ThrottleSchedule) capacity and the shared
//!   channel's saturation model (the `Σ rate·occupancy ≤ 1` budget the
//!   bench observed empirically as the ~16.5 req/s knee);
//! - the *mechanism* — masking admission, `TileAllocator`
//!   (`adcnn_core::sched::TileAllocator`) inputs, and re-dispatch
//!   candidates to the placed set, and re-placing on join/leave churn —
//!   lives in the fleet driver (`fleet.rs`), which re-runs the policy
//!   whenever the live roster changes.
//!
//! The [`AllNodesPlacement`] baseline is the identity mask (pinned by the
//! differential goldens), and the driver skips re-placement entirely for
//! policies that declare [`PlacementPolicy::places_all`].

use crate::fleet::FleetConfig;
use adcnn_core::compress::wire_bits_estimate;
use adcnn_core::config::ConfigError;
use adcnn_core::obs::json;
use adcnn_core::wire::HEADER_BITS;
use adcnn_nn::cost::{prefix_weight_load_s, tile_prefix_time_s};

/// One tenant's node assignment inside a [`PlacementDecision`].
#[derive(Clone, Debug, PartialEq)]
pub struct TenantAssignment {
    /// Tenant display name (config order is preserved in the decision).
    pub tenant: String,
    /// Sorted indices of the nodes this tenant may use.
    pub nodes: Vec<usize>,
    /// The cost oracle's predicted steady-state throughput, req/s,
    /// after the shared-channel budget is applied.
    pub predicted_rps: f64,
}

/// The shared output type of every placement source: the fleet driver
/// applies it, the deployment planner prints it, benches record it.
#[derive(Clone, Debug, PartialEq)]
pub struct PlacementDecision {
    /// Name of the policy that produced the decision.
    pub policy: String,
    /// Per-tenant assignments, in tenant config order.
    pub assignments: Vec<TenantAssignment>,
}

impl PlacementDecision {
    /// Hand-rendered JSON via the shared [`json`] helpers (the sinks'
    /// no-serializer contract).
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("policy", &self.policy)
            .raw(
                "assignments",
                json::array(self.assignments.iter().map(|a| {
                    json::Obj::new()
                        .str("tenant", &a.tenant)
                        .raw("nodes", json::array(a.nodes.iter().map(|n| n.to_string())))
                        .f64("predicted_rps", a.predicted_rps)
                        .finish()
                })),
            )
            .finish()
    }
}

/// Everything a policy may consult, precomputed from a [`FleetConfig`]
/// and the driver's current dead-set. Per-node capacities are the
/// composed [`SpeedSchedule`](crate::ThrottleSchedule)s (churn plans
/// included) read at the decision time, per-tenant costs come from the
/// same calibrated cost model the driver itself runs on.
#[derive(Clone, Debug)]
pub struct PlacementInput {
    /// Virtual time the decision is being made at.
    pub now: f64,
    /// Per-node views, index-aligned with the fleet roster.
    pub nodes: Vec<NodeView>,
    /// Per-tenant views, in tenant config order.
    pub tenants: Vec<TenantView>,
}

/// One node as a placement policy sees it.
#[derive(Clone, Debug)]
pub struct NodeView {
    /// Live right now (not in the driver's dead-set).
    pub live: bool,
    /// Speed multiplier in effect at `now` (0 while dead).
    pub multiplier_now: f64,
}

/// One tenant's demand and cost surface as a placement policy sees it.
#[derive(Clone, Debug)]
pub struct TenantView {
    /// Display name.
    pub name: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Tiles per request (`d` of Equation 1).
    pub tiles: usize,
    /// Offered load for open-loop arrival processes (Poisson rate, the
    /// MMPP long-run mean, a trace's mean rate); `None` for closed-loop
    /// tenants, which absorb whatever capacity they are given.
    pub offered_rps: Option<f64>,
    /// Wire bits of one input tile, header included.
    pub tile_in_bits: u64,
    /// Elements of one tile's boundary map.
    pub tile_out_elems: u64,
    /// Wire bits of one tile's (compressed) result, header included.
    pub tile_out_bits: u64,
    /// Shared-channel seconds one request occupies (all input tiles out
    /// plus all compressed results back) — the saturation model's unit.
    pub channel_s_per_request: f64,
    /// Full-speed seconds per tile on each node.
    pub tile_work_s: Vec<f64>,
    /// Full-speed seconds to stream the prefix weights onto each node.
    pub weight_load_s: Vec<f64>,
}

impl PlacementInput {
    /// Build the input the driver hands to its policy: `dead` is the
    /// current dead-set (sorted node indices), `now` the decision time.
    /// The per-tenant surface derived here is also the one the fleet
    /// driver runs on.
    pub fn from_fleet(cfg: &FleetConfig, now: f64, dead: &[usize]) -> Self {
        let tenants = cfg
            .tenants
            .iter()
            .map(|spec| {
                let d = spec.grid.tiles();
                let tile_in_bits = spec.model.input_wire_bits() / d as u64 + HEADER_BITS;
                let (oc, oh, ow) = spec.model.block_inputs()[spec.prefix];
                let tile_out_elems = ((oc * oh * ow) / d).max(1) as u64;
                let tile_out_bits = match spec.compression {
                    Some(sparsity) => {
                        wire_bits_estimate(tile_out_elems, sparsity, spec.quant_bits) + HEADER_BITS
                    }
                    None => tile_out_elems * 32 + HEADER_BITS,
                };
                let channel_s_per_request = d as f64
                    * (cfg.link.occupancy_s(tile_in_bits) + cfg.link.occupancy_s(tile_out_bits));
                TenantView {
                    name: spec.name.clone(),
                    weight: spec.weight,
                    tiles: d,
                    offered_rps: spec.arrivals.mean_rate_per_s(),
                    tile_in_bits,
                    tile_out_elems,
                    tile_out_bits,
                    channel_s_per_request,
                    tile_work_s: cfg
                        .nodes
                        .iter()
                        .map(|n| {
                            tile_prefix_time_s(
                                &spec.model,
                                spec.prefix,
                                (spec.grid.rows, spec.grid.cols),
                                &n.profile,
                            )
                        })
                        .collect(),
                    weight_load_s: cfg
                        .nodes
                        .iter()
                        .map(|n| prefix_weight_load_s(&spec.model, spec.prefix, &n.profile))
                        .collect(),
                }
            })
            .collect();
        let mut input = PlacementInput { now, nodes: Vec::new(), tenants };
        input.refresh(cfg, now, dead);
        input
    }

    /// Re-read what churn changes — the decision time and every node's
    /// liveness and multiplier — keeping the per-tenant surface.
    pub(crate) fn refresh(&mut self, cfg: &FleetConfig, now: f64, dead: &[usize]) {
        self.now = now;
        self.nodes = cfg
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeView {
                live: dead.binary_search(&i).is_err(),
                multiplier_now: n.throttle.multiplier_at(now),
            })
            .collect();
    }
}

/// The placement cost oracle: per-tenant compute throughput on a node
/// subset (a continuous relaxation of Algorithm 3's min-makespan
/// allocation) combined with the shared channel's saturation budget.
pub struct CostOracle<'a> {
    input: &'a PlacementInput,
    /// Per-node capacity multiplier the oracle prices with.
    capacity: Vec<f64>,
}

impl<'a> CostOracle<'a> {
    /// Oracle pricing nodes at their *instantaneous* multiplier (dead
    /// nodes are worthless) — myopic, which is why the driver re-runs
    /// placement on every join/leave event.
    pub fn instantaneous(input: &'a PlacementInput) -> Self {
        let capacity =
            input.nodes.iter().map(|n| if n.live { n.multiplier_now } else { 0.0 }).collect();
        CostOracle { input, capacity }
    }

    /// Compute-bound steady-state throughput of `tenant` on `nodes`,
    /// req/s: the continuous relaxation of Algorithm 3 — tiles split so
    /// per-node busy time (weight streaming + tile compute, discounted
    /// by capacity) equalizes, nodes that cannot beat the waterline
    /// carry nothing. At most `d` nodes participate (an integer
    /// allocation cannot put less than one tile on a node).
    pub fn compute_rate(&self, tenant: usize, nodes: &[usize]) -> f64 {
        let tv = &self.input.tenants[tenant];
        let d = tv.tiles as f64;
        // Cheapest weight-load first: a node joins the participation set
        // only if streaming the weights alone beats the current
        // per-image waterline.
        let mut cand: Vec<usize> =
            nodes.iter().copied().filter(|&n| self.capacity[n] > 0.0).collect();
        cand.sort_by(|&a, &b| {
            (tv.weight_load_s[a] / self.capacity[a])
                .total_cmp(&(tv.weight_load_s[b] / self.capacity[b]))
                .then(a.cmp(&b))
        });
        cand.truncate(tv.tiles.max(1));
        // Waterfill: B = (d + Σ l_n/w_n) / (Σ c_n/w_n), growing the set
        // while each next node's pure-load time stays under B.
        let mut best_rate = 0.0f64;
        let mut sum_l_over_w = 0.0;
        let mut sum_c_over_w = 0.0;
        for &n in &cand {
            sum_l_over_w += tv.weight_load_s[n] / tv.tile_work_s[n];
            sum_c_over_w += self.capacity[n] / tv.tile_work_s[n];
            let b = (d + sum_l_over_w) / sum_c_over_w;
            if tv.weight_load_s[n] / self.capacity[n] <= b {
                best_rate = best_rate.max(1.0 / b);
            }
        }
        best_rate
    }

    /// Apply the shared-channel saturation budget to per-tenant
    /// compute-bound rates: if `Σ rate·occupancy` exceeds the channel,
    /// every tenant is scaled back proportionally (the FIFO channel
    /// serves interleaved transfers, so saturation is collective). The
    /// returned rates are the decision's `predicted_rps`.
    pub fn saturate(&self, compute_rates: &[f64]) -> Vec<f64> {
        let mut rates: Vec<f64> = compute_rates
            .iter()
            .zip(&self.input.tenants)
            .map(|(&r, tv)| match tv.offered_rps {
                Some(offered) => r.min(offered),
                None => r,
            })
            .collect();
        let demand: f64 =
            rates.iter().zip(&self.input.tenants).map(|(r, tv)| r * tv.channel_s_per_request).sum();
        if demand > 1.0 {
            for r in rates.iter_mut() {
                *r /= demand;
            }
        }
        rates
    }

    /// Price `nodes_per_tenant` (tenant config order) and wrap it as
    /// `policy`'s decision: each tenant's compute-bound rate on its set,
    /// then the shared-channel budget.
    pub fn decide(&self, policy: &str, nodes_per_tenant: Vec<Vec<usize>>) -> PlacementDecision {
        let compute: Vec<f64> = nodes_per_tenant
            .iter()
            .enumerate()
            .map(|(t, nodes)| self.compute_rate(t, nodes))
            .collect();
        let predicted = self.saturate(&compute);
        PlacementDecision {
            policy: policy.to_string(),
            assignments: self
                .input
                .tenants
                .iter()
                .zip(nodes_per_tenant)
                .zip(predicted)
                .map(|((tv, nodes), rps)| TenantAssignment {
                    tenant: tv.name.clone(),
                    nodes,
                    predicted_rps: rps,
                })
                .collect(),
        }
    }

    /// A tenant's target rate: its offered load when known, otherwise
    /// its weighted fair share of the channel-bound fleet capacity
    /// (closed-loop tenants absorb whatever they are given, so the
    /// channel knee is the honest ceiling).
    pub fn target_rate(&self, tenant: usize) -> f64 {
        let tv = &self.input.tenants[tenant];
        match tv.offered_rps {
            Some(offered) => offered,
            None => {
                let total_w: f64 = self.input.tenants.iter().map(|t| t.weight).sum();
                (tv.weight / total_w) / tv.channel_s_per_request.max(1e-12)
            }
        }
    }

    /// Score of one node for one tenant: effective tile throughput
    /// (capacity over per-tile work), the greedy ranking key.
    pub fn node_score(&self, tenant: usize, node: usize) -> f64 {
        self.capacity[node] / self.input.tenants[tenant].tile_work_s[node].max(1e-12)
    }
}

/// A placement policy: pure, deterministic, and consulted by the fleet
/// driver at startup and again after every join/leave churn event.
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    /// Short display name (recorded in decisions and bench output).
    fn name(&self) -> &'static str;

    /// Map every tenant to a node subset. Implementations must return
    /// one assignment per tenant, each with a non-empty sorted node
    /// list (fall back to the full roster rather than returning empty).
    fn place(&self, input: &PlacementInput) -> PlacementDecision;

    /// `true` when the policy always assigns every node to every tenant
    /// — lets the driver skip re-placement work entirely.
    fn places_all(&self) -> bool {
        false
    }
}

/// The baseline: every tenant may use every node. Its mask is the
/// identity and the fleet driver never re-places it; the
/// `fleet_allnodes_leave_wave` golden pins exactly that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllNodesPlacement;

impl PlacementPolicy for AllNodesPlacement {
    fn name(&self) -> &'static str {
        "all_nodes"
    }

    fn place(&self, input: &PlacementInput) -> PlacementDecision {
        let all: Vec<usize> = (0..input.nodes.len()).collect();
        CostOracle::instantaneous(input).decide(self.name(), vec![all; input.tenants.len()])
    }

    fn places_all(&self) -> bool {
        true
    }
}

/// A candidate node only counts toward the one-node-per-tile latency
/// floor when its rank is within this fraction of the best candidate's:
/// a doomed or near-dead node buys no latency, so the packer would
/// rather run `⌈d/m⌉` tiles per healthy node than spread onto it.
const FLOOR_QUALITY_CUTOFF: f64 = 0.25;

/// Greedy throughput-maximizing bin-packer: prices nodes at their
/// *current* multiplier and takes tenants in descending channel demand,
/// each picking nodes best-score-first (preferring nodes no earlier
/// tenant took, so one node's churn hits one tenant) until the cost
/// oracle says the target rate — offered load, or the tenant's fair
/// share of the channel knee, inflated by `headroom` — is met AND the
/// set is no smaller than the tenant's tile count (when enough
/// comparable-quality nodes exist): an integer allocation puts `⌈d/m⌉`
/// tiles on some node, so a set smaller than `d` serializes tile
/// compute even at a met throughput target. Myopic by design — the
/// driver re-runs it on every join/leave event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GreedyPlacement {
    /// Extra fractional capacity packed beyond the target rate.
    pub headroom: f64,
}

impl Default for GreedyPlacement {
    fn default() -> Self {
        GreedyPlacement { headroom: 0.10 }
    }
}

impl GreedyPlacement {
    /// Validated constructor: `headroom` must be finite and nonnegative.
    pub fn with_headroom(headroom: f64) -> Result<Self, ConfigError> {
        if !headroom.is_finite() || headroom < 0.0 {
            return Err(ConfigError::NegativePlacementHeadroom(headroom));
        }
        Ok(GreedyPlacement { headroom })
    }
}

impl PlacementPolicy for GreedyPlacement {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn place(&self, input: &PlacementInput) -> PlacementDecision {
        let oracle = CostOracle::instantaneous(input);
        let k = input.nodes.len();
        let nt = input.tenants.len();
        // Heaviest channel demand first: the saturating resource is shared,
        // so the tenant that loads it most chooses first.
        let mut order: Vec<usize> = (0..nt).collect();
        order.sort_by(|&a, &b| {
            let da = oracle.target_rate(a) * input.tenants[a].channel_s_per_request;
            let db = oracle.target_rate(b) * input.tenants[b].channel_s_per_request;
            db.total_cmp(&da).then(a.cmp(&b))
        });
        let mut used = vec![0u32; k];
        let mut nodes_per_tenant: Vec<Vec<usize>> = vec![Vec::new(); nt];
        for &t in &order {
            let target = oracle.target_rate(t) * (1.0 + self.headroom.max(0.0));
            // Rank candidates: unused before shared, then the oracle's node
            // score, then index — fully deterministic.
            let mut cand: Vec<usize> = (0..k).collect();
            cand.sort_by(|&a, &b| {
                (used[a] > 0)
                    .cmp(&(used[b] > 0))
                    .then(oracle.node_score(t, b).total_cmp(&oracle.node_score(t, a)))
                    .then(a.cmp(&b))
            });
            // One-node-per-tile latency floor, counting only candidates of
            // comparable quality.
            let best_rank = cand.iter().map(|&n| oracle.node_score(t, n)).fold(0.0_f64, f64::max);
            let floor = cand
                .iter()
                .filter(|&&n| oracle.node_score(t, n) > best_rank * FLOOR_QUALITY_CUTOFF)
                .count()
                .min(input.tenants[t].tiles);
            let mut picked: Vec<usize> = Vec::new();
            let mut rate = 0.0;
            for &n in &cand {
                if oracle.node_score(t, n) <= 0.0 {
                    continue;
                }
                if picked.len() < floor {
                    picked.push(n);
                    rate = oracle.compute_rate(t, &picked);
                    continue;
                }
                if rate >= target {
                    break;
                }
                picked.push(n);
                let new_rate = oracle.compute_rate(t, &picked);
                if new_rate <= rate && rate > 0.0 {
                    // The waterfill rejected this node (its weight-load
                    // alone exceeds the per-image waterline) — candidates
                    // are rank-sorted, so nothing later helps either.
                    picked.pop();
                    break;
                }
                rate = new_rate;
            }
            if picked.is_empty() {
                // Nothing usable (e.g. every node dead right now): fall back
                // to the full roster rather than wedging the tenant.
                picked = (0..k).collect();
            }
            picked.sort_unstable();
            for &n in &picked {
                used[n] += 1;
            }
            nodes_per_tenant[t] = picked;
        }
        oracle.decide(self.name(), nodes_per_tenant)
    }
}

/// A fixed, operator-supplied placement — replay a recorded
/// [`PlacementDecision`] or pin exact node sets in tests. Out-of-range
/// indices are dropped; a tenant with no (valid) entry gets the full
/// roster.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PinnedPlacement {
    /// Node subsets in tenant config order.
    pub nodes_per_tenant: Vec<Vec<usize>>,
}

impl PinnedPlacement {
    /// Pin the given node subsets (tenant config order).
    pub fn new(nodes_per_tenant: Vec<Vec<usize>>) -> Self {
        PinnedPlacement { nodes_per_tenant }
    }

    /// Replay a previously recorded decision.
    pub fn from_decision(decision: &PlacementDecision) -> Self {
        PinnedPlacement {
            nodes_per_tenant: decision.assignments.iter().map(|a| a.nodes.clone()).collect(),
        }
    }
}

impl PlacementPolicy for PinnedPlacement {
    fn name(&self) -> &'static str {
        "pinned"
    }

    fn place(&self, input: &PlacementInput) -> PlacementDecision {
        let k = input.nodes.len();
        let nodes_per_tenant: Vec<Vec<usize>> = (0..input.tenants.len())
            .map(|t| {
                let mut nodes: Vec<usize> = self
                    .nodes_per_tenant
                    .get(t)
                    .map(|ns| ns.iter().copied().filter(|&n| n < k).collect())
                    .unwrap_or_default();
                if nodes.is_empty() {
                    nodes = (0..k).collect();
                }
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            })
            .collect();
        CostOracle::instantaneous(input).decide(self.name(), nodes_per_tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalSpec;
    use crate::cluster::SimNode;
    use crate::tenancy::TenantSpec;
    use adcnn_nn::zoo;

    fn two_tenant_input(k: usize) -> (FleetConfig, PlacementInput) {
        use adcnn_core::fdsp::TileGrid;
        let nodes: Vec<SimNode> = (0..k).map(|_| SimNode::pi()).collect();
        let a = TenantSpec {
            grid: TileGrid::new(2, 2),
            weight: 2.0,
            arrivals: ArrivalSpec::Poisson { rate_per_s: 0.5 },
            ..TenantSpec::new(zoo::vgg16())
        };
        let b = TenantSpec {
            grid: TileGrid::new(2, 2),
            arrivals: ArrivalSpec::Poisson { rate_per_s: 0.3 },
            ..TenantSpec::new(zoo::resnet18())
        };
        let cfg = FleetConfig::new(nodes, vec![a, b]);
        let input = PlacementInput::from_fleet(&cfg, 0.0, &[]);
        (cfg, input)
    }

    #[test]
    fn all_nodes_is_the_identity_mask() {
        let (_, input) = two_tenant_input(8);
        let d = AllNodesPlacement.place(&input);
        assert_eq!(d.policy, "all_nodes");
        for a in &d.assignments {
            assert_eq!(a.nodes, (0..8).collect::<Vec<_>>());
            assert!(a.predicted_rps > 0.0);
        }
        assert!(AllNodesPlacement.places_all());
    }

    #[test]
    fn greedy_prefers_disjoint_sets_and_meets_targets() {
        let (_, input) = two_tenant_input(16);
        let d = GreedyPlacement::default().place(&input);
        assert_eq!(d.assignments.len(), 2);
        for a in &d.assignments {
            assert!(!a.nodes.is_empty(), "empty assignment for {}", a.tenant);
            assert!(a.nodes.windows(2).all(|w| w[0] < w[1]), "unsorted/dup nodes");
        }
        // Each 2x2 tenant needs at least its 4 tiles' worth of nodes (the
        // latency floor) but nowhere near the whole 16-node roster — and
        // with room to spare, the packer keeps the two fully disjoint.
        let overlap: Vec<usize> = d.assignments[0]
            .nodes
            .iter()
            .copied()
            .filter(|n| d.assignments[1].nodes.contains(n))
            .collect();
        assert!(overlap.is_empty(), "tenants share nodes despite a half-empty roster: {overlap:?}");
        for a in &d.assignments {
            assert!(
                a.nodes.len() >= 4,
                "{} placed below the one-node-per-tile floor: {:?}",
                a.tenant,
                a.nodes
            );
            assert!(a.nodes.len() < 16, "{} degenerated to all nodes", a.tenant);
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let (_, input) = two_tenant_input(12);
        let a = GreedyPlacement::default().place(&input);
        let b = GreedyPlacement::default().place(&input);
        assert_eq!(a, b);
    }

    #[test]
    fn pinned_replays_a_decision() {
        let (_, input) = two_tenant_input(6);
        let d = GreedyPlacement::default().place(&input);
        let replay = PinnedPlacement::from_decision(&d).place(&input);
        for (orig, rep) in d.assignments.iter().zip(&replay.assignments) {
            assert_eq!(orig.nodes, rep.nodes);
        }
        // Out-of-range and missing entries degrade to the full roster.
        let sloppy = PinnedPlacement::new(vec![vec![0, 99]]).place(&input);
        assert_eq!(sloppy.assignments[0].nodes, vec![0]);
        assert_eq!(sloppy.assignments[1].nodes, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn oracle_rates_shrink_with_the_subset_and_respect_the_channel() {
        let (_, input) = two_tenant_input(16);
        let oracle = CostOracle::instantaneous(&input);
        let all: Vec<usize> = (0..16).collect();
        let half: Vec<usize> = (0..8).collect();
        let r_all = oracle.compute_rate(0, &all);
        let r_half = oracle.compute_rate(0, &half);
        assert!(r_all > 0.0 && r_half > 0.0);
        assert!(r_half <= r_all + 1e-12, "more nodes cannot hurt the relaxation");
        // Saturation: inflated compute rates get scaled to the channel.
        let sat = oracle.saturate(&[1e9, 1e9]);
        let occupancy: f64 =
            sat.iter().zip(&input.tenants).map(|(r, tv)| r * tv.channel_s_per_request).sum();
        assert!(occupancy <= 1.0 + 1e-9, "channel budget violated: {occupancy}");
    }

    #[test]
    fn headroom_constructors_validate() {
        assert_eq!(GreedyPlacement::with_headroom(0.2).unwrap().headroom, 0.2);
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                GreedyPlacement::with_headroom(bad),
                Err(ConfigError::NegativePlacementHeadroom(_))
            ));
        }
    }
}
