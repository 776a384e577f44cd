//! Fleet-engine integration tests: streaming-aggregate accuracy, tenancy
//! fairness, churn survival, open-loop determinism, and the bounded-memory
//! retention contract.

use adcnn_core::fdsp::TileGrid;
use adcnn_netsim::cluster::{AdcnnSim, AdcnnSimConfig};
use adcnn_netsim::{
    ArrivalSpec, ChurnPlan, ConfigError, FleetConfig, FleetSim, PinnedPlacement, SimNode,
    TenantSpec, ThrottleSchedule,
};
use adcnn_nn::zoo;
use std::sync::Arc;

/// Streaming log2-histogram quantiles must land within one bucket (a
/// factor of 2) of the exact sorted-latency quantiles on a 10k-request
/// run — the contract that lets the fleet driver drop per-image retention
/// without losing the latency surface.
#[test]
fn streaming_quantiles_match_exact_within_one_bucket() {
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 4);
    cfg.grid = TileGrid::new(2, 2);
    cfg.images = 10_000;
    cfg.pipeline_depth = 4;
    let s = AdcnnSim::new(cfg).run();
    assert_eq!(s.images.len(), 10_000);

    let mut exact: Vec<f64> = s.images.iter().map(|i| i.latency_s).collect();
    exact.sort_by(|a, b| a.total_cmp(b));
    let exact_q = |q: f64| exact[((exact.len() - 1) as f64 * q).round() as usize];

    for (q, streamed) in [(0.5, s.p50_latency_s()), (0.99, s.p99_latency_s())] {
        let streamed = streamed.expect("10k samples recorded");
        let exact = exact_q(q);
        assert!(
            streamed >= exact / 2.0 && streamed <= exact * 2.0,
            "p{:.0} streamed {streamed} vs exact {exact}: off by more than one bucket",
            q * 100.0
        );
    }
    // the histogram saw every completion, not a sample
    assert_eq!(s.latency_hist_us.count, 10_000);
}

/// Two identical tenants at different weights, both fully backlogged from
/// t=0: the weight-2 tenant gets twice the admissions, so it drains its
/// budget first and waits less in the admission queue.
#[test]
fn weighted_fair_sharing_favors_the_heavier_tenant() {
    let backlogged = |weight| TenantSpec {
        weight,
        requests: 60,
        arrivals: ArrivalSpec::Trace { times: vec![0.0; 60] },
        ..TenantSpec::new(zoo::vgg16())
    };
    let nodes: Vec<SimNode> = (0..8).map(|_| SimNode::pi()).collect();
    let cfg = FleetConfig::new(nodes, vec![backlogged(2.0), backlogged(1.0)]);
    let fs = FleetSim::new(cfg).run();

    let (h, l) = (&fs.tenants[0], &fs.tenants[1]);
    assert_eq!(h.completed, 60);
    assert_eq!(l.completed, 60);
    assert!(
        h.last_done_s < l.last_done_s,
        "weight-2 tenant should drain first: {} vs {}",
        h.last_done_s,
        l.last_done_s
    );
    assert!(
        h.mean_queue_wait_s() < l.mean_queue_wait_s(),
        "weight-2 tenant should wait less: {} vs {}",
        h.mean_queue_wait_s(),
        l.mean_queue_wait_s()
    );
    assert_eq!(fs.completed, 120);
}

/// A churning fleet — join/leave deaths plus a diurnal capacity curve —
/// still completes every request; the recovery machinery visibly fires.
#[test]
fn churning_fleet_completes_every_request() {
    let mut nodes: Vec<SimNode> = (0..16).map(|_| SimNode::pi()).collect();
    ChurnPlan {
        join_leave: Some((60.0, 15.0)),
        diurnal: Some((120.0, 0.4)),
        ..ChurnPlan::new(400.0, 9)
    }
    .apply(&mut nodes);
    assert!(
        nodes.iter().any(|n| !n.throttle.dead_transitions().is_empty()),
        "churn plan produced no deaths at all — test would be vacuous"
    );

    let tenant = TenantSpec { requests: 200, ..TenantSpec::new(zoo::vgg16()) };
    let fs = FleetSim::new(FleetConfig::new(nodes, vec![tenant])).run();

    assert_eq!(fs.completed, 200);
    let t = &fs.tenants[0];
    assert!(
        t.redispatched_tiles > 0 || t.dropped_tiles > 0,
        "deaths mid-run must surface as re-dispatch or zero-fill"
    );
    assert!(fs.p50_latency_s().is_some());
    assert!(fs.zero_fill_rate() < 0.5, "churn should degrade, not destroy, the fleet");
}

/// Open-loop (Poisson + bursty MMPP) fleet runs are bit-deterministic:
/// same config, same seed, same everything.
#[test]
fn open_loop_runs_are_deterministic() {
    let build = || {
        let a = TenantSpec {
            requests: 80,
            arrivals: ArrivalSpec::Poisson { rate_per_s: 4.0 },
            ..TenantSpec::new(zoo::vgg16())
        };
        let b = TenantSpec {
            requests: 80,
            arrivals: ArrivalSpec::Mmpp {
                rate_lo: 0.5,
                rate_hi: 20.0,
                mean_dwell_lo_s: 5.0,
                mean_dwell_hi_s: 2.0,
            },
            ..TenantSpec::new(zoo::resnet18())
        };
        FleetConfig::new((0..8).map(|_| SimNode::pi()).collect(), vec![a, b])
    };
    let x = FleetSim::new(build()).run();
    let y = FleetSim::new(build()).run();

    assert_eq!(x.completed, y.completed);
    assert_eq!(x.events_processed, y.events_processed);
    assert_eq!(x.latency_us, y.latency_us);
    assert_eq!(x.node_busy_s, y.node_busy_s);
    assert_eq!(x.sim_end_s, y.sim_end_s);
    for (tx, ty) in x.tenants.iter().zip(&y.tenants) {
        assert_eq!(tx.latency_sum_s, ty.latency_sum_s);
        assert_eq!(tx.queue_wait_sum_s, ty.queue_wait_sum_s);
        assert_eq!(tx.latency_us, ty.latency_us);
        assert_eq!(tx.last_done_s, ty.last_done_s);
    }
    // open-loop requests actually queued (nonzero waits somewhere)
    assert!(x.tenants.iter().any(|t| t.queue_wait_sum_s > 0.0));
}

/// Scheduler-skip regression: a tenant whose placed node-set is entirely
/// dead is *skipped* by the stride scheduler until a placed node revives
/// — instead of burning its pass quantum admitting images that can only
/// zero-fill through the hard timeout. Tenant B is pinned to nodes
/// {2, 3}, both dead from t=0.5 s to t=40 s; its requests arrive at
/// t≈2–3 s and must simply wait out the outage, completing cleanly (no
/// dropped tiles, real compute) after the revival.
#[test]
fn scheduler_skips_fully_churned_out_tenant_until_revival() {
    let mut nodes: Vec<SimNode> = (0..4).map(|_| SimNode::pi()).collect();
    for n in [2, 3] {
        nodes[n].throttle = ThrottleSchedule::from_points(vec![(0.5, 0.0), (40.0, 1.0)]);
    }
    // Tenant A closed-loop on {0, 1}, tenant B trace-driven on {2, 3}.
    let pinned = |nodes, a_requests, b_arrivals: Vec<f64>| {
        let a = TenantSpec {
            grid: TileGrid::new(2, 2),
            requests: a_requests,
            ..TenantSpec::new(zoo::vgg16())
        };
        let b = TenantSpec {
            grid: TileGrid::new(2, 2),
            requests: b_arrivals.len(),
            arrivals: ArrivalSpec::Trace { times: b_arrivals },
            ..TenantSpec::new(zoo::resnet18())
        };
        FleetConfig {
            placement: Arc::new(PinnedPlacement::new(vec![vec![0, 1], vec![2, 3]])),
            ..FleetConfig::new(nodes, vec![a, b])
        }
    };
    let fs = FleetSim::new(pinned(nodes, 10, vec![2.0, 2.5, 3.0])).run();

    let (ta, tb) = (&fs.tenants[0], &fs.tenants[1]);
    assert_eq!(ta.completed, 10, "pinned-alive tenant runs normally");
    assert_eq!(tb.completed, 3, "skipped tenant must still drain after revival");
    assert_eq!(tb.dropped_tiles, 0, "waiting out the outage means no zero-filled tiles at all");
    assert!(
        tb.computation_sum_s > 0.0,
        "tenant B's images must run real compute after the revival"
    );
    // Admission was deferred past the t=40 revival, not granted into the
    // outage: every one of B's requests waited out most of the dead span.
    assert!(
        tb.queue_wait_sum_s > 3.0 * 30.0,
        "expected ≈37 s queue wait per request, got sum {}",
        tb.queue_wait_sum_s
    );
    assert!(fs.replacements > 0, "churn must re-consult the placement policy");

    // Degenerate variant: the placed set dies and never comes back. The
    // guard must let the tenant through (degraded zero-fill admission is
    // the only way to drain its budget) instead of deadlocking the run.
    let mut nodes: Vec<SimNode> = (0..4).map(|_| SimNode::pi()).collect();
    for n in [2, 3] {
        nodes[n].throttle = ThrottleSchedule::from_points(vec![(0.5, 0.0)]);
    }
    let fs = FleetSim::new(pinned(nodes, 6, vec![2.0, 2.5])).run();
    assert_eq!(fs.completed, 8, "permanently-dead placement must degrade, not deadlock");
}

/// `retain_images` caps per-image retention while the streaming
/// aggregates still see every completion, and the event queue's
/// high-water mark stays bounded by the in-flight window rather than the
/// request count — the O(1)-memory story for million-request runs.
#[test]
fn retention_is_capped_and_queue_stays_bounded() {
    let mk = |retain: usize| {
        let tenant = TenantSpec {
            grid: TileGrid::new(2, 2),
            requests: 2_000,
            ..TenantSpec::new(zoo::vgg16())
        };
        let nodes: Vec<SimNode> = (0..4).map(|_| SimNode::pi()).collect();
        FleetConfig { retain_images: retain, ..FleetConfig::new(nodes, vec![tenant]) }
    };

    let none = FleetSim::new(mk(0)).run();
    assert_eq!(none.completed, 2_000);
    assert!(none.retained.is_empty(), "retain_images = 0 must keep nothing");
    assert_eq!(none.latency_us.count, 2_000, "aggregates must still see every image");

    let some = FleetSim::new(mk(10)).run();
    assert_eq!(some.retained.len(), 10, "retention must stop at the cap");
    // retained entries are the first completions, in completion order
    assert!(some.retained.windows(2).all(|w| w[0].1.done_at <= w[1].1.done_at));

    assert!(
        none.peak_events_pending < 200,
        "queue high-water mark {} scales with in-flight work, not with 2000 requests",
        none.peak_events_pending
    );
    assert!(none.peak_inflight as usize <= 2, "default window is 2");
}

/// `FleetConfig::validate` is the one check a struct literal goes through:
/// each fleet-level invariant, and any tenant's, comes back typed.
#[test]
fn fleet_validate_rejects_each_bad_field_with_its_typed_error() {
    let pis = |k: usize| (0..k).map(|_| SimNode::pi()).collect::<Vec<_>>();
    let vgg = || TenantSpec::new(zoo::vgg16());
    let cases = [
        (FleetConfig::new(pis(0), vec![vgg()]), ConfigError::NoWorkers),
        (FleetConfig::new(pis(2), vec![]), ConfigError::NoTenants),
        (
            FleetConfig { pipeline_depth: 0, ..FleetConfig::new(pis(2), vec![vgg()]) },
            ConfigError::ZeroPipelineDepth,
        ),
        (
            FleetConfig::new(pis(2), vec![vgg(), TenantSpec { weight: 0.0, ..vgg() }]),
            ConfigError::NonPositiveTenantWeight(0.0),
        ),
    ];
    for (cfg, want) in cases {
        assert_eq!(cfg.validate(), Err(want));
    }
    assert_eq!(FleetConfig::new(pis(2), vec![vgg()]).validate(), Ok(()));
}

/// Nothing stands between a struct literal and the driver but
/// `FleetSim::new`, so that is where a bad tenant must stop.
#[test]
#[should_panic(expected = "invalid FleetConfig")]
fn fleet_new_rejects_an_invalid_tenant_in_a_struct_literal() {
    let tenant = TenantSpec { quant_bits: 3, ..TenantSpec::new(zoo::vgg16()) };
    FleetSim::new(FleetConfig::new(vec![SimNode::pi()], vec![tenant]));
}
