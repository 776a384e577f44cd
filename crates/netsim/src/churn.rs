//! Node churn: join/leave schedules and diurnal speed curves, layered on
//! the existing [`ThrottleSchedule`](crate::ThrottleSchedule)
//! (`SpeedSchedule`) mechanism.
//!
//! A [`ChurnPlan`] is a *generator* of per-node speed schedules: a diurnal
//! capacity curve (edge nodes share CPUs with foreground workloads that
//! follow the day), an exponential up/down join/leave process (nodes
//! disappear and return), or both composed. The plan is seeded — node `n`
//! of a plan always gets the same schedule — and purely additive: it
//! *composes* with whatever throttle a node already has (multipliers
//! multiply), so operator-injected faults like
//! `ThrottleSchedule::throttle_at(t, 0.0)` stack with churn instead of
//! being overwritten.
//!
//! Death and revival are what the fleet driver consumes: each schedule's
//! `dead_transitions` become churn events that maintain an indexed
//! dead-set instead of re-walking every node's schedule at every timer,
//! and a revived node re-enters Algorithm 2 through the same fresh-join
//! prior the real runtime applies on reconnect.

use crate::cluster::SimNode;
use crate::engine::SpeedSchedule;
use adcnn_core::config::ConfigError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded generator of per-node churn schedules: a plain value. Start
/// from [`ChurnPlan::new`] (no layers), set the layers in a struct
/// literal — `ChurnPlan { join_leave: Some((60.0, 15.0)),
/// ..ChurnPlan::new(400.0, 9) }` — then [`ChurnPlan::apply`] it to a
/// roster (or ask for a single node's schedule with
/// [`ChurnPlan::schedule_for`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnPlan {
    /// The plan covers `[0, horizon_s)` of virtual time.
    pub horizon_s: f64,
    /// With the node index, fully determines every schedule.
    pub seed: u64,
    /// `(period_s, trough)`: capacity swings between full speed at the
    /// peak and `trough` (in `(0, 1]`) at the valley over `period_s`, as
    /// a raised cosine sampled at `DIURNAL_STEPS` points per period. Each
    /// node gets a seeded random phase so the fleet's valleys do not all
    /// align (no thundering-herd artifact).
    pub diurnal: Option<(f64, f64)>,
    /// `(mean_up_s, mean_down_s)`: each node alternates between
    /// exponentially distributed up and down periods; down means
    /// multiplier 0, i.e. dead until it rejoins. Nodes start up.
    pub join_leave: Option<(f64, f64)>,
}

/// Samples per diurnal period: the piecewise-constant approximation of
/// the raised-cosine day curve ("hourly" at 24).
const DIURNAL_STEPS: usize = 24;

impl ChurnPlan {
    /// A plan with no layers over `[0, horizon_s)`.
    pub fn new(horizon_s: f64, seed: u64) -> Self {
        ChurnPlan { horizon_s, seed, diurnal: None, join_leave: None }
    }

    /// Check the plan: a finite positive horizon, period and dwell times,
    /// and a trough in `(0, 1]`. The generators below loop until the
    /// horizon, so [`ChurnPlan::schedule_for`] refuses a plan that fails.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.horizon_s.is_finite() && self.horizon_s > 0.0) {
            return Err(ConfigError::NonPositiveChurnHorizon(self.horizon_s));
        }
        if let Some((period, trough)) = self.diurnal {
            if !(period.is_finite() && period > 0.0) {
                return Err(ConfigError::NonPositiveDiurnalPeriod(period));
            }
            if !(trough > 0.0 && trough <= 1.0) {
                return Err(ConfigError::DiurnalTroughOutOfRange(trough));
            }
        }
        if let Some((up, down)) = self.join_leave {
            for d in [up, down] {
                if !(d.is_finite() && d > 0.0) {
                    return Err(ConfigError::NonPositiveDwell(d));
                }
            }
        }
        Ok(())
    }

    /// The churn schedule this plan assigns to node `node` — deterministic
    /// in `(seed, node)`, independent of how many nodes exist. Panics if
    /// [`ChurnPlan::validate`] rejects the plan.
    pub fn schedule_for(&self, node: usize) -> SpeedSchedule {
        if let Err(e) = self.validate() {
            panic!("invalid ChurnPlan: {e}");
        }
        // Distinct, well-separated streams per node: splitmix-style odd
        // multiplier keeps node streams uncorrelated under the stub and
        // the real StdRng alike.
        let node_seed = self.seed ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(node_seed);
        let mut sched = SpeedSchedule::constant();
        if let Some((period, trough)) = self.diurnal {
            sched = sched.compose(&self.diurnal_schedule(period, trough, &mut rng));
        }
        if let Some((up, down)) = self.join_leave {
            sched = sched.compose(&self.join_leave_schedule(up, down, &mut rng));
        }
        sched
    }

    /// Compose every node's churn schedule into the roster's existing
    /// throttles (operator faults stack with churn).
    pub fn apply(&self, nodes: &mut [SimNode]) {
        for (n, node) in nodes.iter_mut().enumerate() {
            node.throttle = node.throttle.compose(&self.schedule_for(n));
        }
    }

    /// The plan's merged topology-event schedule over a roster of
    /// `nodes`: `(time, node, up)` transitions in time order (ties break
    /// by node index). These are exactly the `NodeUp`/`NodeDown` events a
    /// fleet running this plan emits — the observability tests reconcile
    /// the two.
    pub fn topology_events(&self, nodes: usize) -> Vec<(f64, usize, bool)> {
        let mut out: Vec<(f64, usize, bool)> = (0..nodes)
            .flat_map(|n| {
                self.schedule_for(n)
                    .dead_transitions()
                    .into_iter()
                    .filter(|&(t, _)| t.is_finite())
                    .map(move |(t, dead)| (t, n, !dead))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    fn diurnal_schedule(&self, period: f64, trough: f64, rng: &mut StdRng) -> SpeedSchedule {
        let phase: f64 = rng.gen_range(0.0..period);
        let step = period / DIURNAL_STEPS as f64;
        let steps_total = (self.horizon_s / step).ceil() as usize + 1;
        let mut points = Vec::with_capacity(steps_total);
        for i in 0..steps_total {
            let t = i as f64 * step;
            // Raised cosine: 1.0 at phase 0, `trough` half a period later.
            let x = (t + phase) / period * std::f64::consts::TAU;
            let mult = trough + (1.0 - trough) * (0.5 + 0.5 * x.cos());
            points.push((t, mult));
        }
        SpeedSchedule::from_points(points)
    }

    fn join_leave_schedule(&self, up: f64, down: f64, rng: &mut StdRng) -> SpeedSchedule {
        let mut points = Vec::new();
        let mut t = 0.0;
        let exp = |rng: &mut StdRng, mean: f64| {
            let u: f64 = rng.gen();
            -mean * (1.0 - u).ln()
        };
        loop {
            t += exp(rng, up);
            if t >= self.horizon_s {
                break;
            }
            let dead_until = t + exp(rng, down);
            points.push((t, 0.0));
            if dead_until >= self.horizon_s {
                break;
            }
            points.push((dead_until, 1.0));
            t = dead_until;
        }
        SpeedSchedule::from_points(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_nonsense_with_typed_errors() {
        let base = ChurnPlan::new(10.0, 1);
        let cases = [
            (
                ChurnPlan { horizon_s: 0.0, ..base.clone() },
                ConfigError::NonPositiveChurnHorizon(0.0),
            ),
            (
                ChurnPlan { diurnal: Some((-5.0, 0.5)), ..base.clone() },
                ConfigError::NonPositiveDiurnalPeriod(-5.0),
            ),
            (
                ChurnPlan { diurnal: Some((5.0, 1.5)), ..base.clone() },
                ConfigError::DiurnalTroughOutOfRange(1.5),
            ),
            (
                ChurnPlan { join_leave: Some((5.0, 0.0)), ..base.clone() },
                ConfigError::NonPositiveDwell(0.0),
            ),
        ];
        for (plan, want) in cases {
            assert_eq!(plan.validate(), Err(want), "{plan:?}");
        }
        let full = ChurnPlan { diurnal: Some((5.0, 0.5)), join_leave: Some((5.0, 1.0)), ..base };
        assert_eq!(full.validate(), Ok(()));
    }

    /// A NaN horizon never compares `>=` anything, so the join/leave
    /// generator would never reach it: the literal must fail `validate()`
    /// with a typed error, and the generators must refuse to run on it.
    #[test]
    fn churn_plan_literal_with_nan_horizon_is_a_typed_error_not_a_panic() {
        let plan = ChurnPlan { horizon_s: f64::NAN, seed: 1, diurnal: None, join_leave: None };
        assert!(
            matches!(plan.validate(), Err(ConfigError::NonPositiveChurnHorizon(h)) if h.is_nan())
        );
        let churny = ChurnPlan { join_leave: Some((5.0, 1.0)), ..plan };
        assert!(std::panic::catch_unwind(|| churny.schedule_for(0)).is_err());
    }

    #[test]
    fn plan_is_deterministic_per_node() {
        let p = ChurnPlan {
            diurnal: Some((100.0, 0.3)),
            join_leave: Some((200.0, 20.0)),
            ..ChurnPlan::new(1000.0, 42)
        };
        let a = p.schedule_for(3);
        let b = p.schedule_for(3);
        for &t in &[0.0, 17.0, 99.5, 512.0, 999.0] {
            assert_eq!(a.multiplier_at(t), b.multiplier_at(t));
        }
        // distinct nodes get distinct streams
        let c = p.schedule_for(4);
        let differs =
            (0..100).any(|i| a.multiplier_at(i as f64 * 10.0) != c.multiplier_at(i as f64 * 10.0));
        assert!(differs, "nodes 3 and 4 got identical churn");
    }

    #[test]
    fn diurnal_stays_within_trough_and_peak() {
        let p = ChurnPlan { diurnal: Some((100.0, 0.25)), ..ChurnPlan::new(500.0, 7) };
        let s = p.schedule_for(0);
        for i in 0..500 {
            let m = s.multiplier_at(i as f64);
            assert!(
                (0.25..=1.0 + 1e-12).contains(&m),
                "multiplier {m} outside [trough, 1] at t={i}"
            );
        }
        // the curve actually moves
        let lo = (0..500).map(|i| s.multiplier_at(i as f64)).fold(f64::INFINITY, f64::min);
        let hi = (0..500).map(|i| s.multiplier_at(i as f64)).fold(0.0, f64::max);
        assert!(hi - lo > 0.5, "diurnal curve is flat: {lo}..{hi}");
        // a pure diurnal plan never kills a node
        assert!(s.dead_transitions().is_empty());
    }

    #[test]
    fn join_leave_produces_death_and_revival() {
        let p = ChurnPlan { join_leave: Some((100.0, 30.0)), ..ChurnPlan::new(10_000.0, 11) };
        // across a fleet, someone must die and someone must revive
        let mut deaths = 0;
        let mut revivals = 0;
        for n in 0..16 {
            for (_, dead) in p.schedule_for(n).dead_transitions() {
                if dead {
                    deaths += 1;
                } else {
                    revivals += 1;
                }
            }
        }
        assert!(deaths > 0, "no node ever left");
        assert!(revivals > 0, "no node ever rejoined");
        assert!(revivals <= deaths, "revival without a preceding death");
    }

    #[test]
    fn topology_events_merge_per_node_transitions_in_time_order() {
        let p = ChurnPlan { join_leave: Some((100.0, 30.0)), ..ChurnPlan::new(10_000.0, 11) };
        let evs = p.topology_events(8);
        assert!(!evs.is_empty(), "churny plan produced no topology events");
        for w in evs.windows(2) {
            assert!(w[0].0 <= w[1].0, "events out of time order: {w:?}");
        }
        // each node's subsequence is exactly its schedule's transitions
        for n in 0..8 {
            let mine: Vec<(f64, bool)> =
                evs.iter().filter(|e| e.1 == n).map(|e| (e.0, !e.2)).collect();
            let expect: Vec<(f64, bool)> = p
                .schedule_for(n)
                .dead_transitions()
                .into_iter()
                .filter(|&(t, _)| t.is_finite())
                .collect();
            assert_eq!(mine, expect, "node {n} transitions diverge");
        }
    }

    #[test]
    fn apply_composes_with_existing_faults() {
        let p = ChurnPlan { diurnal: Some((50.0, 0.5)), ..ChurnPlan::new(100.0, 5) };
        let mut nodes = vec![SimNode::pi(), SimNode::pi()];
        // operator kills node 1 at t=10 — churn must not resurrect it
        nodes[1].throttle = SpeedSchedule::throttle_at(10.0, 0.0);
        p.apply(&mut nodes);
        assert!(nodes[1].throttle.is_dead_at(10.0));
        assert!(nodes[1].throttle.is_dead_at(99.0));
        assert!(!nodes[0].throttle.is_dead_at(99.0));
        // node 0 carries the diurnal curve
        let flat = (0..100).all(|i| nodes[0].throttle.multiplier_at(i as f64) == 1.0);
        assert!(!flat, "churn was not applied");
    }
}
