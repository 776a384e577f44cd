//! Fleet-scope observability: tenant/node-labeled metrics shards and
//! SLO burn-rate tracking.
//!
//! The per-image obs layer ([`crate::obs`]) is deliberately tenant- and
//! node-blind: one [`MetricsSink`] aggregates a whole run. A fleet
//! serves many tenants over a churning roster, so this module adds the
//! missing dimensions without touching the per-image event schema:
//!
//! - [`LabeledMetricsRegistry`] — lock-free [`MetricsSink`] shards per
//!   tenant and per node, fed by routing one event stream on the
//!   [`ObsEvent::tenant`]/[`ObsEvent::worker`] tags, rendered as
//!   labeled Prometheus series (`adcnn_images_finished_total{tenant="vgg16"}`);
//!   a [`Reporter`](crate::report::Reporter) per tenant shard narrates
//!   a run tenant by tenant.
//! - [`SloSpec`]/[`SloTracker`]/[`SloReport`] — per-tenant objectives
//!   (p99 latency target, zero-fill budget) with whole-run burn rates
//!   in the SRE sense: burn 1.0 consumes exactly the error budget,
//!   burn > 1.0 breaches it.
//!
//! Everything here is driver-fed: `TileLifecycle` emits nothing new,
//! and golden decision traces skip [`ObsEvent::is_fleet_scope`] events.

use crate::config::ConfigError;
use crate::obs::{json, EventSink, MetricsSink, ObsEvent};
use serde::Serialize;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Labeled metrics registry
// ---------------------------------------------------------------------------

/// Per-tenant and per-node [`MetricsSink`] shards behind one
/// [`EventSink`]. Routing is tag-driven and lock-free (the shards are
/// themselves atomic):
///
/// - tenant-tagged events ([`ObsEvent::TenantAdmit`]/
///   [`ObsEvent::TenantFinish`]) fold into their tenant's shard *only*;
/// - node-scoped events (anything with [`ObsEvent::worker`]) fold into
///   that node's shard *and* the global shard;
/// - everything else folds into the global shard.
///
/// A fleet's one stream carries each image twice — `ImageFinish` from
/// the lifecycle and its tenant-tagged twin from the driver — and this
/// routing counts it once per scope: in the global shard and in its
/// tenant's.
pub struct LabeledMetricsRegistry {
    global: Arc<MetricsSink>,
    tenants: Vec<(String, Arc<MetricsSink>)>,
    nodes: Vec<Arc<MetricsSink>>,
}

impl LabeledMetricsRegistry {
    /// A registry with one shard per tenant name and per node, plus the
    /// global shard.
    pub fn new(tenants: &[impl AsRef<str>], nodes: usize) -> Self {
        LabeledMetricsRegistry {
            global: Arc::new(MetricsSink::new()),
            tenants: tenants
                .iter()
                .map(|t| (t.as_ref().to_string(), Arc::new(MetricsSink::new())))
                .collect(),
            nodes: (0..nodes).map(|_| Arc::new(MetricsSink::new())).collect(),
        }
    }

    /// The unlabeled shard.
    pub fn global(&self) -> &Arc<MetricsSink> {
        &self.global
    }

    /// Tenant shard by index (registration order).
    pub fn tenant(&self, idx: usize) -> Option<&Arc<MetricsSink>> {
        self.tenants.get(idx).map(|(_, s)| s)
    }

    /// The tenant shards with their names, in registration order.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, &Arc<MetricsSink>)> {
        self.tenants.iter().map(|(name, shard)| (name.as_str(), shard))
    }

    /// Node shard by index.
    pub fn node(&self, idx: usize) -> Option<&Arc<MetricsSink>> {
        self.nodes.get(idx)
    }

    /// Render the whole registry in Prometheus text exposition format:
    /// the global shard first with `# HELP`/`# TYPE` headers, then the
    /// tenant shards as `{tenant="..."}` series and the node shards as
    /// `{node="..."}` series (headers appear once per metric name, as
    /// the format requires; label values are escaped).
    pub fn to_prometheus(&self) -> String {
        let mut out = self.global.snapshot().render_prometheus(&[], true);
        for (name, sink) in &self.tenants {
            out.push_str(&sink.snapshot().render_prometheus(&[("tenant", name)], false));
        }
        for (w, sink) in self.nodes.iter().enumerate() {
            out.push_str(&sink.snapshot().render_prometheus(&[("node", &w.to_string())], false));
        }
        out
    }
}

impl std::fmt::Debug for LabeledMetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LabeledMetricsRegistry({} tenants, {} nodes)",
            self.tenants.len(),
            self.nodes.len()
        )
    }
}

impl EventSink for LabeledMetricsRegistry {
    fn emit(&self, ev: &ObsEvent) {
        if let Some(t) = ev.tenant() {
            if let Some((_, shard)) = self.tenants.get(t as usize) {
                shard.fold_tenant(ev);
            }
            return;
        }
        if let Some(w) = ev.worker() {
            if let Some(shard) = self.nodes.get(w as usize) {
                shard.emit(ev);
            }
        }
        self.global.emit(ev);
    }
}

// ---------------------------------------------------------------------------
// SLO tracking
// ---------------------------------------------------------------------------

/// Fraction of requests allowed to exceed the latency target — fixed at
/// 1% by the objective's p99 semantics.
pub const LATENCY_ERROR_BUDGET: f64 = 0.01;

/// A tenant's service-level objectives: a p99 latency target and a
/// zero-fill (lost-tile) budget.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct SloSpec {
    /// 99th-percentile end-to-end latency target, seconds.
    pub p99_latency_s: f64,
    /// Allowed zero-filled fraction of delivered tiles, in (0, 1].
    pub zero_fill_budget: f64,
}

impl SloSpec {
    /// An objective with the given targets.
    pub fn new(p99_latency_s: f64, zero_fill_budget: f64) -> Self {
        SloSpec { p99_latency_s, zero_fill_budget }
    }

    /// Check the invariants the tracker relies on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.p99_latency_s.is_finite() && self.p99_latency_s > 0.0) {
            return Err(ConfigError::NonPositiveSloTarget(self.p99_latency_s));
        }
        if !(self.zero_fill_budget > 0.0 && self.zero_fill_budget <= 1.0) {
            return Err(ConfigError::SloBudgetOutOfRange(self.zero_fill_budget));
        }
        Ok(())
    }
}

/// Folds a tenant's completions into whole-run burn rates against an
/// [`SloSpec`]: four counters, so memory stays constant however many
/// requests the fleet serves. Single-writer by design (the fleet driver
/// owns it mutably).
#[derive(Clone, Debug)]
pub struct SloTracker {
    spec: SloSpec,
    requests: u64,
    breaching: u64,
    tiles: u64,
    zero_filled: u64,
}

impl SloTracker {
    /// A tracker burning against `spec`.
    pub fn new(spec: SloSpec) -> Self {
        SloTracker { spec, requests: 0, breaching: 0, tiles: 0, zero_filled: 0 }
    }

    /// The objective being tracked.
    pub fn spec(&self) -> SloSpec {
        self.spec
    }

    /// Fold in one completed request.
    pub fn record(&mut self, latency_s: f64, zero_filled: u32, tiles: u32) {
        self.requests += 1;
        self.breaching += u64::from(latency_s > self.spec.p99_latency_s);
        self.tiles += u64::from(tiles);
        self.zero_filled += u64::from(zero_filled);
    }

    /// Render the report for `tenant`. Latency burn is (fraction of
    /// requests breaching the target) / (the 1% p99 error budget): 1.0
    /// consumes the budget exactly, and a run with no completions burns
    /// nothing.
    pub fn report(&self, tenant: &str) -> SloReport {
        let ratio = |num: u64, den: u64| if den > 0 { num as f64 / den as f64 } else { 0.0 };
        let latency_burn_total = ratio(self.breaching, self.requests) / LATENCY_ERROR_BUDGET;
        let zero_fill_rate = ratio(self.zero_filled, self.tiles);
        let zero_fill_burn = zero_fill_rate / self.spec.zero_fill_budget;
        SloReport {
            tenant: tenant.to_string(),
            p99_target_s: self.spec.p99_latency_s,
            requests: self.requests,
            breaching_requests: self.breaching,
            latency_burn_total,
            zero_fill_budget: self.spec.zero_fill_budget,
            zero_fill_rate,
            zero_fill_burn,
            met: latency_burn_total <= 1.0 && zero_fill_burn <= 1.0,
        }
    }
}

/// A tenant's SLO standing: the whole-run burn rate of the latency
/// objective plus the zero-fill budget's consumption.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SloReport {
    /// Tenant name.
    pub tenant: String,
    /// The p99 latency target, seconds.
    pub p99_target_s: f64,
    /// Completions observed.
    pub requests: u64,
    /// Completions exceeding the latency target.
    pub breaching_requests: u64,
    /// Whole-run latency burn (1.0 = error budget exactly consumed).
    pub latency_burn_total: f64,
    /// The configured zero-fill budget.
    pub zero_fill_budget: f64,
    /// Observed zero-filled fraction of tiles.
    pub zero_fill_rate: f64,
    /// `zero_fill_rate / zero_fill_budget`.
    pub zero_fill_burn: f64,
    /// True when both whole-run burns are within budget.
    pub met: bool,
}

impl SloReport {
    /// Hand-rendered JSON via the shared [`json`] helpers.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("tenant", &self.tenant)
            .f64("p99_target_s", self.p99_target_s)
            .u64("requests", self.requests)
            .u64("breaching_requests", self.breaching_requests)
            .f64("latency_burn_total", self.latency_burn_total)
            .f64("zero_fill_budget", self.zero_fill_budget)
            .f64("zero_fill_rate", self.zero_fill_rate)
            .f64("zero_fill_burn", self.zero_fill_burn)
            .bool("met", self.met)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::SinkHandle;
    use crate::report::Reporter;

    #[test]
    fn registry_routes_tenant_node_and_global_scopes() {
        let reg = Arc::new(LabeledMetricsRegistry::new(&["a", "b"], 3));
        let h = SinkHandle::new(reg.clone());
        h.emit_with(|| ObsEvent::ImageFinish {
            at: 1.0,
            image: 0,
            latency: 0.010,
            zero_filled: 0,
            redispatched: 0,
        });
        h.emit_with(|| ObsEvent::TenantFinish {
            at: 1.0,
            image: 0,
            tenant: 1,
            latency: 0.010,
            zero_filled: 1,
            tiles: 4,
        });
        h.emit_with(|| ObsEvent::TileArrival { at: 0.9, image: 0, tile: 0, worker: 2 });
        h.emit_with(|| ObsEvent::NodeDown { at: 2.0, node: 2 });

        let g = reg.global().snapshot();
        // tenant-tagged events bypass the global shard: no double count
        assert_eq!(g.images_finished, 1);
        assert_eq!(g.tiles_arrived, 1);
        assert_eq!(g.nodes_down, 1);
        let a = reg.tenant(0).unwrap().snapshot();
        assert_eq!(a.images_finished, 0);
        let b = reg.tenant(1).unwrap().snapshot();
        assert_eq!(b.images_finished, 1);
        assert_eq!(b.tiles_zero_filled, 1);
        assert_eq!(b.tiles_arrived, 3);
        let n2 = reg.node(2).unwrap().snapshot();
        assert_eq!(n2.tiles_arrived, 1);
        assert_eq!(n2.nodes_down, 1);
        assert_eq!(reg.node(0).unwrap().snapshot().tiles_arrived, 0);
    }

    #[test]
    fn registry_prometheus_renders_labeled_series_with_single_headers() {
        let reg = LabeledMetricsRegistry::new(&["vgg16"], 1);
        reg.emit(&ObsEvent::TenantFinish {
            at: 1.0,
            image: 0,
            tenant: 0,
            latency: 0.010,
            zero_filled: 0,
            tiles: 4,
        });
        let text = reg.to_prometheus();
        assert!(text.contains("adcnn_images_finished_total{tenant=\"vgg16\"} 1\n"), "{text}");
        assert!(text.contains("adcnn_images_finished_total{node=\"0\"} 0\n"));
        // exactly one header per metric name despite three shards
        assert_eq!(text.matches("# TYPE adcnn_images_finished_total counter\n").count(), 1);
    }

    #[test]
    fn reporter_lines_are_per_tenant() {
        let reg = LabeledMetricsRegistry::new(&["a", "b"], 1);
        let mut reps: Vec<Reporter> = reg.tenants().map(|_| Reporter::new()).collect();
        reg.emit(&ObsEvent::TenantFinish {
            at: 1.0,
            image: 0,
            tenant: 0,
            latency: 0.010,
            zero_filled: 0,
            tiles: 4,
        });
        let lines: Vec<String> = reps
            .iter_mut()
            .zip(reg.tenants())
            .map(|(rep, (name, shard))| {
                format!("tenant={name} | {}", rep.sample(&shard.snapshot(), 2.0).line())
            })
            .collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("tenant=a | "));
        assert!(lines[0].contains("0.5 img/s"), "{}", lines[0]);
        assert!(lines[1].starts_with("tenant=b | "));
        assert!(lines[1].contains("0.0 img/s"), "{}", lines[1]);
    }

    #[test]
    fn slo_tracker_burns_whole_run_latency_and_zero_fill_budgets() {
        let spec = SloSpec::new(0.100, 0.05);
        spec.validate().unwrap();
        let mut t = SloTracker::new(spec);
        assert_eq!(t.report("a").latency_burn_total, 0.0, "no completions burn nothing");
        // 200 requests, 4 slow (2% > 1% budget → whole-run burn 2.0)
        for i in 0..200u32 {
            let slow = i >= 196;
            t.record(if slow { 0.200 } else { 0.050 }, u32::from(i % 50 == 0), 16);
        }
        let r = t.report("a");
        assert_eq!(r.requests, 200);
        assert_eq!(r.breaching_requests, 4);
        assert!((r.latency_burn_total - 2.0).abs() < 1e-9, "{}", r.latency_burn_total);
        // 4 zero-filled of 3200 tiles = 0.125% of a 5% budget
        assert!((r.zero_fill_rate - 4.0 / 3200.0).abs() < 1e-12);
        assert!((r.zero_fill_burn - 0.025).abs() < 1e-12, "{}", r.zero_fill_burn);
        assert!(!r.met, "latency burn 2.0 breaches even with zero-fill in budget");
        assert!(json::is_well_formed(&r.to_json()));

        // the same traffic against a budget the zero-fills exceed
        let mut tight = SloTracker::new(SloSpec::new(1.0, 0.001));
        for i in 0..200u32 {
            tight.record(0.050, u32::from(i % 50 == 0), 16);
        }
        let r = tight.report("a");
        assert_eq!(r.latency_burn_total, 0.0);
        assert!((r.zero_fill_burn - 1.25).abs() < 1e-12, "{}", r.zero_fill_burn);
        assert!(!r.met, "zero-fill burn 1.25 breaches on its own");

        assert!(SloSpec::new(0.0, 0.05).validate().is_err());
        assert!(SloSpec::new(0.1, 0.0).validate().is_err());
        assert!(SloSpec::new(0.1, 1.5).validate().is_err());
    }
}
