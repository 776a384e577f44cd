//! Fleet observability plane: tenant/node-labeled metrics, SLO burn-rate
//! reports, the topology stream, and the placement decisions on it.
//! Differential style throughout — every derived surface is reconciled
//! against an independent fold of the raw event streams or the churn
//! plan itself.

use adcnn_core::fdsp::TileGrid;
use adcnn_core::fleetobs::{LabeledMetricsRegistry, SloSpec};
use adcnn_core::obs::{
    json, MetricsSink, ObsEvent, RecordingSink, SinkHandle, PLACEMENT_INITIAL, PLACEMENT_JOIN,
    PLACEMENT_LEAVE,
};
use adcnn_core::report::Reporter;
use adcnn_netsim::planner::plan_placement;
use adcnn_netsim::{
    ArrivalSpec, ChurnPlan, FleetConfig, FleetSim, FleetSummary, GreedyPlacement, SimNode,
    TenantSpec,
};
use adcnn_nn::zoo;
use std::sync::Arc;

fn two_tenant_config(nodes: Vec<SimNode>, requests: usize) -> FleetConfig {
    let a = TenantSpec {
        name: "vgg16-cam".into(),
        grid: TileGrid::new(2, 2),
        requests,
        slo: Some(SloSpec::new(2.0, 0.05)),
        ..TenantSpec::new(zoo::vgg16())
    };
    let b = TenantSpec {
        name: "resnet18-iot".into(),
        grid: TileGrid::new(2, 2),
        requests,
        arrivals: ArrivalSpec::Poisson { rate_per_s: 2.0 },
        slo: Some(SloSpec::new(1.5, 0.05)),
        ..TenantSpec::new(zoo::resnet18())
    };
    FleetConfig::new(nodes, vec![a, b])
}

/// The churn every test here runs under: join/leave only, 400 s, seed 9.
fn join_leave_plan() -> ChurnPlan {
    ChurnPlan { join_leave: Some((60.0, 15.0)), ..ChurnPlan::new(400.0, 9) }
}

/// Per-tenant streamed p50/p99 must land within one log2 bucket (a factor
/// of 2) of the exact per-tenant sorted quantiles — the multi-tenant
/// mirror of the global pin in `fleet_engine.rs`.
#[test]
fn per_tenant_streamed_quantiles_match_exact_within_one_bucket() {
    let nodes: Vec<SimNode> = (0..6).map(|_| SimNode::pi()).collect();
    let mut cfg = two_tenant_config(nodes, 400);
    cfg.retain_images = 800;
    let fs = FleetSim::new(cfg).run();
    assert_eq!(fs.retained.len(), 800, "need every image for the exact side");

    for (t, ts) in fs.tenants.iter().enumerate() {
        let mut exact: Vec<f64> = fs
            .retained
            .iter()
            .filter(|(tenant, _)| *tenant == t)
            .map(|(_, s)| s.latency_s)
            .collect();
        assert_eq!(exact.len() as u64, ts.completed);
        exact.sort_by(|a, b| a.total_cmp(b));
        let exact_q = |q: f64| exact[((exact.len() - 1) as f64 * q).round() as usize];
        for (q, streamed) in [(0.5, ts.p50_latency_s()), (0.99, ts.p99_latency_s())] {
            let streamed = streamed.expect("every tenant completed requests");
            let exact = exact_q(q);
            assert!(
                streamed >= exact / 2.0 && streamed <= exact * 2.0,
                "tenant {t} p{:.0} streamed {streamed} vs exact {exact}: off by >1 bucket",
                q * 100.0
            );
        }
    }
}

/// `NodeUp`/`NodeDown` on the event stream must be exactly the state
/// transitions of the composed churn plan (`ChurnPlan::topology_events`).
#[test]
fn topology_stream_reconciles_with_the_churn_plan() {
    let plan = join_leave_plan();
    let mut nodes: Vec<SimNode> = (0..8).map(|_| SimNode::pi()).collect();
    plan.apply(&mut nodes);

    let rec = Arc::new(RecordingSink::new());
    let tenant =
        TenantSpec { grid: TileGrid::new(2, 2), requests: 150, ..TenantSpec::new(zoo::vgg16()) };
    let cfg =
        FleetConfig { sink: SinkHandle::new(rec.clone()), ..FleetConfig::new(nodes, vec![tenant]) };
    let fs = FleetSim::new(cfg).run();

    // Expected stream: the plan's merged transitions, filtered to actual
    // state changes (nodes start live).
    let mut state = [true; 8];
    let mut expect: Vec<(f64, usize, bool)> = Vec::new();
    for (t, n, up) in plan.topology_events(8) {
        if state[n] != up {
            state[n] = up;
            expect.push((t, n, up));
        }
    }
    assert!(!expect.is_empty(), "plan produced no transitions — vacuous test");

    let got: Vec<(f64, usize, bool)> = rec
        .events()
        .iter()
        .filter(|ev| ev.is_fleet_scope())
        .filter_map(|ev| match *ev {
            ObsEvent::NodeUp { at, node } => Some((at, node as usize, true)),
            ObsEvent::NodeDown { at, node } => Some((at, node as usize, false)),
            _ => None,
        })
        .collect();
    assert_eq!(got, expect, "fleet topology stream diverges from the churn plan");

    assert_eq!(fs.completed, 150);
}

/// The placement decisions on the event stream: decision 0 is the
/// `plan_placement` decision on the same config, one decision per
/// re-placement follows, each caused by the `NodeDown`/`NodeUp` just before
/// it and seeing the live roster that topology stream implies.
#[test]
fn placement_decisions_on_the_stream_carry_cause_and_inputs() {
    let mut nodes: Vec<SimNode> = (0..8).map(|_| SimNode::pi()).collect();
    join_leave_plan().apply(&mut nodes);
    let policy = GreedyPlacement::with_headroom(1.3).unwrap();
    let mut cfg = two_tenant_config(nodes, 80);
    cfg.placement = Arc::new(policy);
    let rec = Arc::new(RecordingSink::new());
    cfg.sink = SinkHandle::new(rec.clone());
    let fs = FleetSim::new(cfg.clone()).run();
    assert_eq!(fs.placement, plan_placement(&cfg, &GreedyPlacement::with_headroom(1.3).unwrap()));
    assert!(fs.replacements > 0, "churny run never re-placed — vacuous test");

    // Replay the topology stream alongside the decisions it causes.
    let mut dead = std::collections::BTreeSet::new();
    let mut last_topo: Option<(u32, bool)> = None;
    let mut decisions = 0u64;
    for ev in rec.events().iter().filter(|ev| ev.is_fleet_scope()) {
        match *ev {
            ObsEvent::NodeDown { node, .. } => {
                dead.insert(node);
                last_topo = Some((node, false));
            }
            ObsEvent::NodeUp { node, .. } => {
                dead.remove(&node);
                last_topo = Some((node, true));
            }
            ObsEvent::PlacementDecided { seq, at, cause, node, live_nodes, .. } => {
                assert_eq!(seq, decisions, "decisions out of order");
                if seq == 0 {
                    assert_eq!((cause, at, live_nodes), (PLACEMENT_INITIAL, 0.0, 8));
                } else {
                    assert!(at > 0.0);
                    let up = match cause {
                        PLACEMENT_JOIN => true,
                        PLACEMENT_LEAVE => false,
                        other => panic!("re-placement {seq} has cause {other}"),
                    };
                    assert_eq!(last_topo, Some((node, up)), "decision {seq} names the wrong node");
                }
                assert_eq!(live_nodes as usize, 8 - dead.len());
                decisions += 1;
            }
            _ => {}
        }
    }
    assert_eq!(decisions, fs.replacements + 1);
}

/// End-to-end labeled surface: a fleet run with per-tenant SLOs produces
/// tenant-labeled Prometheus series whose counts reconcile with the
/// summary, per-tenant Reporter lines, and an `SloReport` per tenant.
#[test]
fn fleet_run_produces_labeled_metrics_reporter_lines_and_slo_reports() {
    let nodes: Vec<SimNode> = (0..6).map(|_| SimNode::pi()).collect();
    let cfg = two_tenant_config(nodes, 120);
    let registry = Arc::new(LabeledMetricsRegistry::new(
        &cfg.tenants.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
        cfg.nodes.len(),
    ));
    let mut cfg = cfg;
    cfg.sink = SinkHandle::new(registry.clone());
    let fs: FleetSummary = FleetSim::new(cfg).run();

    // Tenant shards fold the TenantAdmit/TenantFinish twins into the
    // standard image counters; they must reconcile with the summary.
    let mut finished_sum = 0;
    for (t, ts) in fs.tenants.iter().enumerate() {
        let shard = registry.tenant(t).unwrap().snapshot();
        assert_eq!(shard.images_admitted, ts.completed, "tenant {t} admissions diverge");
        assert_eq!(shard.images_finished, ts.completed, "tenant {t} finishes diverge");
        assert_eq!(shard.tiles_zero_filled, ts.dropped_tiles, "tenant {t} zero-fills diverge");
        finished_sum += shard.images_finished;
    }
    assert_eq!(finished_sum, fs.completed, "tenant shards must sum to the fleet total");

    // Labeled Prometheus exposition: one HELP/TYPE header block, then
    // per-tenant and per-node labeled series.
    let prom = registry.to_prometheus();
    assert_eq!(prom.matches("# HELP adcnn_images_finished_total").count(), 1);
    assert!(prom.contains(r#"adcnn_images_finished_total{tenant="vgg16-cam"}"#), "{prom}");
    assert!(prom.contains(r#"adcnn_images_finished_total{tenant="resnet18-iot"}"#));
    assert!(prom.contains(r#"node="0""#), "per-node shards must render too");

    // Per-tenant Reporter lines.
    let lines: Vec<String> = registry
        .tenants()
        .map(|(name, shard)| {
            let sample = Reporter::new().sample(&shard.snapshot(), fs.sim_end_s);
            format!("tenant={name} | {}", sample.line())
        })
        .collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("tenant=vgg16-cam | "), "{}", lines[0]);
    assert!(lines[1].starts_with("tenant=resnet18-iot | "), "{}", lines[1]);

    // SLO burn-rate reports, one per tenant that declared objectives.
    for (t, ts) in fs.tenants.iter().enumerate() {
        let slo = ts.slo.as_ref().unwrap_or_else(|| panic!("tenant {t} declared an SLO"));
        assert_eq!(slo.tenant, ts.name);
        assert_eq!(slo.requests, ts.completed);
        assert!(slo.latency_burn_total.is_finite() && slo.latency_burn_total >= 0.0);
        assert!(slo.zero_fill_burn >= 0.0);
        assert_eq!(
            slo.met,
            slo.latency_burn_total <= 1.0 && slo.zero_fill_burn <= 1.0,
            "met must be the conjunction of the whole-run burns"
        );
        assert!(json::is_well_formed(&slo.to_json()));
    }
}

/// Observation must not change the run: a fleet with a null sink and the
/// same fleet with a recorder summarize identically, re-placement and
/// churn included.
#[test]
fn attaching_sinks_leaves_the_summary_unchanged() {
    let build = || {
        let mut nodes: Vec<SimNode> = (0..8).map(|_| SimNode::pi()).collect();
        join_leave_plan().apply(&mut nodes);
        let mut cfg = two_tenant_config(nodes, 60);
        cfg.placement = Arc::new(GreedyPlacement::default());
        cfg
    };
    let quiet = FleetSim::new(build()).run();

    let rec = Arc::new(RecordingSink::new());
    let mut cfg = build();
    cfg.sink = SinkHandle::new(rec.clone());
    let observed = FleetSim::new(cfg).run();

    let evs = rec.events();
    assert!(
        evs.iter().any(|e| e.is_fleet_scope()) && evs.iter().any(|e| !e.is_fleet_scope()),
        "the recorder must see both scopes"
    );
    assert_eq!(format!("{quiet:?}"), format!("{observed:?}"));
}

/// One stream, counted once: topology, placement, the tenant-tagged
/// twins and the per-image lifecycle all arrive on `sink`, and neither a
/// plain `MetricsSink` nor the labeled registry counts an image twice.
#[test]
fn one_stream_counts_every_image_once() {
    let plan = join_leave_plan();
    let build = || {
        let mut nodes: Vec<SimNode> = (0..8).map(|_| SimNode::pi()).collect();
        plan.apply(&mut nodes);
        let mut cfg = two_tenant_config(nodes, 60);
        cfg.placement = Arc::new(GreedyPlacement::default());
        cfg
    };
    let requests = 120;
    let mut alive = [true; 8];
    let mut departures = 0;
    for (_, n, up) in plan.topology_events(8) {
        departures += u64::from(alive[n] && !up);
        alive[n] = up;
    }
    assert!(departures > 0, "plan produced no departures — vacuous test");

    let metrics = Arc::new(MetricsSink::new());
    let mut cfg = build();
    cfg.sink = SinkHandle::new(metrics.clone());
    assert_eq!(FleetSim::new(cfg).run().completed, requests);
    let snap = metrics.snapshot();
    assert_eq!(snap.images_admitted, requests);
    assert_eq!(snap.images_finished, requests);
    assert_eq!(snap.nodes_down, departures);

    let mut cfg = build();
    let registry = Arc::new(LabeledMetricsRegistry::new(
        &cfg.tenants.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
        cfg.nodes.len(),
    ));
    cfg.sink = SinkHandle::new(registry.clone());
    FleetSim::new(cfg).run();
    let per_tenant: u64 =
        (0..2).map(|t| registry.tenant(t).unwrap().snapshot().images_finished).sum();
    assert_eq!(per_tenant, registry.global().snapshot().images_finished);
    assert_eq!(per_tenant, requests);
}

/// The fleet-scope view alone — what the second handle used to carry — is
/// a filter in front of the sink: the registry then sees topology,
/// placement and the tenant twins but none of the tile stream, at the cost
/// of one branch per event (DESIGN §18 has the wall-clock reading).
#[test]
fn a_scope_filter_feeds_a_sink_the_fleet_view_alone() {
    struct FleetScopeOnly(Arc<LabeledMetricsRegistry>);
    impl adcnn_core::obs::EventSink for FleetScopeOnly {
        fn emit(&self, ev: &ObsEvent) {
            if ev.is_fleet_scope() {
                self.0.emit(ev);
            }
        }
    }

    let plan = join_leave_plan();
    let mut nodes: Vec<SimNode> = (0..8).map(|_| SimNode::pi()).collect();
    plan.apply(&mut nodes);
    let mut cfg = two_tenant_config(nodes, 60);
    let registry = Arc::new(LabeledMetricsRegistry::new(
        &cfg.tenants.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
        cfg.nodes.len(),
    ));
    cfg.sink = SinkHandle::of(FleetScopeOnly(registry.clone()));
    let fs = FleetSim::new(cfg).run();

    let global = registry.global().snapshot();
    assert!(global.nodes_down > 0 && global.placements_decided > 0);
    assert_eq!((global.images_finished, global.tiles_dispatched), (0, 0));
    let per_tenant: u64 =
        (0..2).map(|t| registry.tenant(t).unwrap().snapshot().images_finished).sum();
    assert_eq!(per_tenant, fs.completed);
}
