//! Fleet-scale netsim benchmark: throughput, latency quantiles and
//! zero-fill across cluster sizes (16 → 256 Conv nodes) and offered load,
//! plus a churn-on multi-tenant scenario and a bounded-memory
//! million-request run. Emits `results/BENCH_netsim.json`.
//!
//! The top-level `fleet` key is load-bearing: ci.sh greps for it.
//!
//! `FLEET_SMOKE=1` shrinks every scenario to a seconds-of-wall-time smoke
//! (the ci.sh entry): the 64-node / 2-model / churn-on scenario still runs
//! ~50k virtual requests.

use adcnn_bench::{emit_json, print_table};
use adcnn_core::fdsp::TileGrid;
use adcnn_core::obs::json::{array, Obj};
use adcnn_netsim::{
    AllNodesPlacement, ArrivalSpec, ChurnPlan, FleetConfig, FleetSim, GreedyPlacement,
    LabeledMetricsRegistry, PlacementPolicy, SimNode, SinkHandle, SloReport, SloSpec, TenantSpec,
};
use adcnn_nn::cost::DeviceProfile;
use adcnn_nn::zoo;
use std::sync::Arc;
use std::time::Instant;

/// One cluster size in the closed-loop VGG16 sweep.
struct SizePoint {
    nodes: usize,
    requests: usize,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    zero_fill_rate: f64,
    channel_utilization: f64,
    wall_ms: f64,
}

impl SizePoint {
    fn to_json(&self) -> String {
        Obj::new()
            .u64("nodes", self.nodes as u64)
            .u64("requests", self.requests as u64)
            .f64("throughput_rps", self.throughput_rps)
            .f64("p50_ms", self.p50_ms)
            .f64("p99_ms", self.p99_ms)
            .f64("zero_fill_rate", self.zero_fill_rate)
            .f64("channel_utilization", self.channel_utilization)
            .f64("wall_ms", self.wall_ms)
            .finish()
    }
}

/// One offered-load level in the Poisson sweep at fixed cluster size.
struct LoadPoint {
    load_factor: f64,
    offered_rps: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_queue_wait_ms: f64,
    zero_fill_rate: f64,
}

impl LoadPoint {
    fn to_json(&self) -> String {
        Obj::new()
            .f64("load_factor", self.load_factor)
            .f64("offered_rps", self.offered_rps)
            .f64("throughput_rps", self.throughput_rps)
            .f64("p50_ms", self.p50_ms)
            .f64("p99_ms", self.p99_ms)
            .f64("mean_queue_wait_ms", self.mean_queue_wait_ms)
            .f64("zero_fill_rate", self.zero_fill_rate)
            .finish()
    }
}

/// Two models sharing a churning 64-node cluster under open-loop load.
struct TenantScenario {
    nodes: usize,
    requests_total: u64,
    churn: bool,
    events_processed: u64,
    peak_events_pending: u64,
    throughput_rps: f64,
    p99_ms: f64,
    tenants: Vec<TenantPoint>,
    /// Labeled Prometheus series counts from the fleet-stream registry
    /// (tenant shards, node shards, total non-comment series rendered).
    labeled_tenant_series: u64,
    labeled_node_series: u64,
    labeled_series_total: u64,
    wall_ms: f64,
}

struct TenantPoint {
    name: String,
    weight: f64,
    requests: u64,
    p50_ms: f64,
    p99_ms: f64,
    mean_queue_wait_ms: f64,
    zero_fill_rate: f64,
    slo: Option<SloReport>,
}

impl TenantScenario {
    fn to_json(&self) -> String {
        Obj::new()
            .u64("nodes", self.nodes as u64)
            .u64("requests_total", self.requests_total)
            .bool("churn", self.churn)
            .u64("events_processed", self.events_processed)
            .u64("peak_events_pending", self.peak_events_pending)
            .f64("throughput_rps", self.throughput_rps)
            .f64("p99_ms", self.p99_ms)
            .raw(
                "tenants",
                array(self.tenants.iter().map(|t| {
                    let o = Obj::new()
                        .str("name", &t.name)
                        .f64("weight", t.weight)
                        .u64("requests", t.requests)
                        .f64("p50_ms", t.p50_ms)
                        .f64("p99_ms", t.p99_ms)
                        .f64("mean_queue_wait_ms", t.mean_queue_wait_ms)
                        .f64("zero_fill_rate", t.zero_fill_rate);
                    match &t.slo {
                        Some(s) => o.raw("slo", s.to_json()),
                        None => o.raw("slo", "null"),
                    }
                    .finish()
                })),
            )
            .raw(
                "labeled_metrics",
                Obj::new()
                    .u64("tenant_series", self.labeled_tenant_series)
                    .u64("node_series", self.labeled_node_series)
                    .u64("series_total", self.labeled_series_total)
                    .finish(),
            )
            .f64("wall_ms", self.wall_ms)
            .finish()
    }
}

/// One placement policy's showing on the headline multi-tenant churn
/// scenario: same fleet, same tenants, same churn, same seed — only the
/// tenant-to-node placement differs.
struct PlacementPoint {
    policy: &'static str,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    zero_fill_rate: f64,
    redispatched_tiles: u64,
    replacements: u64,
    /// Initial decision: (tenant, placed-node count).
    tenant_nodes: Vec<(String, usize)>,
    wall_ms: f64,
}

impl PlacementPoint {
    fn to_json(&self, base: &PlacementPoint) -> String {
        Obj::new()
            .str("policy", self.policy)
            .f64("throughput_rps", self.throughput_rps)
            .f64("p50_ms", self.p50_ms)
            .f64("p99_ms", self.p99_ms)
            .f64("zero_fill_rate", self.zero_fill_rate)
            .u64("redispatched_tiles", self.redispatched_tiles)
            .u64("replacements", self.replacements)
            .raw(
                "tenant_nodes",
                array(
                    self.tenant_nodes
                        .iter()
                        .map(|(t, k)| Obj::new().str("tenant", t).u64("nodes", *k as u64).finish()),
                ),
            )
            .f64("throughput_gain_pct", gain_pct(self.throughput_rps, base.throughput_rps))
            .f64("p99_reduction_pct", gain_pct(base.p99_ms, self.p99_ms))
            .f64("wall_ms", self.wall_ms)
            .finish()
    }
}

/// Relative improvement of `new` over `base`, percent (positive = better
/// when larger-is-better; call with swapped args for smaller-is-better).
fn gain_pct(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

fn placement_point(
    policy: &'static str,
    requests_each: usize,
    capacity: f64,
    pol: Arc<dyn PlacementPolicy>,
) -> PlacementPoint {
    let cfg = multi_tenant_cfg(requests_each, capacity, pol);
    let wall = Instant::now();
    let fs = FleetSim::new(cfg).run();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fs.completed as usize, 2 * requests_each);
    PlacementPoint {
        policy,
        throughput_rps: fs.throughput_rps(),
        p50_ms: ms(fs.p50_latency_s()),
        p99_ms: ms(fs.p99_latency_s()),
        zero_fill_rate: fs.zero_fill_rate(),
        redispatched_tiles: fs.tenants.iter().map(|t| t.redispatched_tiles).sum(),
        replacements: fs.replacements,
        tenant_nodes: fs
            .placement
            .assignments
            .iter()
            .map(|a| (a.tenant.clone(), a.nodes.len()))
            .collect(),
        wall_ms,
    }
}

/// Million-request run with per-image retention off: peak RSS stays flat,
/// the streaming aggregates carry the whole latency surface.
struct MemoryRun {
    requests: usize,
    events_processed: u64,
    peak_events_pending: u64,
    retained_images: usize,
    peak_rss_mib: Option<f64>,
    wall_ms: f64,
}

impl MemoryRun {
    fn to_json(&self) -> String {
        Obj::new()
            .u64("requests", self.requests as u64)
            .u64("events_processed", self.events_processed)
            .u64("peak_events_pending", self.peak_events_pending)
            .u64("retained_images", self.retained_images as u64)
            .raw("peak_rss_mib", self.peak_rss_mib.map_or("null".into(), |m| format!("{m:.1}")))
            .f64("wall_ms", self.wall_ms)
            .finish()
    }
}

fn pis(k: usize) -> Vec<SimNode> {
    (0..k).map(|_| SimNode::pi()).collect()
}

fn ms(s: Option<f64>) -> f64 {
    s.unwrap_or(0.0) * 1e3
}

/// Peak resident set (VmHWM) of this process, MiB, where /proc exists.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn size_point(nodes: usize, requests: usize) -> SizePoint {
    // 16×16 tiles so even the 256-node fleet has one tile per node; a
    // V100-class central keeps the suffix stage off the critical path so
    // the sweep measures the Conv fleet, not the aggregator.
    let tenant =
        TenantSpec { requests, grid: TileGrid::new(16, 16), ..TenantSpec::new(zoo::vgg16()) };
    let cfg = FleetConfig {
        central: DeviceProfile::cloud_v100(),
        pipeline_depth: 4,
        ..FleetConfig::new(pis(nodes), vec![tenant])
    };
    let wall = Instant::now();
    let fs = FleetSim::new(cfg).run();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fs.completed as usize, requests);
    SizePoint {
        nodes,
        requests,
        throughput_rps: fs.throughput_rps(),
        p50_ms: ms(fs.p50_latency_s()),
        p99_ms: ms(fs.p99_latency_s()),
        zero_fill_rate: fs.zero_fill_rate(),
        channel_utilization: fs.channel_utilization,
        wall_ms,
    }
}

fn load_point(nodes: usize, requests: usize, capacity_rps: f64, load: f64) -> LoadPoint {
    let offered = capacity_rps * load;
    let tenant = TenantSpec {
        requests,
        grid: TileGrid::new(16, 16),
        arrivals: ArrivalSpec::Poisson { rate_per_s: offered },
        ..TenantSpec::new(zoo::vgg16())
    };
    let cfg = FleetConfig {
        central: DeviceProfile::cloud_v100(),
        pipeline_depth: 4,
        ..FleetConfig::new(pis(nodes), vec![tenant])
    };
    let fs = FleetSim::new(cfg).run();
    assert_eq!(fs.completed as usize, requests);
    let t = &fs.tenants[0];
    LoadPoint {
        load_factor: load,
        offered_rps: offered,
        throughput_rps: fs.throughput_rps(),
        p50_ms: ms(fs.p50_latency_s()),
        p99_ms: ms(fs.p99_latency_s()),
        mean_queue_wait_ms: t.mean_queue_wait_s() * 1e3,
        zero_fill_rate: fs.zero_fill_rate(),
    }
}

/// Churn-free closed-loop capacity of a `nodes_n`-node fleet — the anchor
/// the open-loop scenarios calibrate their offered load against.
fn fleet_capacity(nodes_n: usize) -> f64 {
    let cal =
        TenantSpec { grid: TileGrid::new(4, 4), requests: 2_000, ..TenantSpec::new(zoo::vgg16()) };
    let cfg = FleetConfig { pipeline_depth: 4, ..FleetConfig::new(pis(nodes_n), vec![cal]) };
    FleetSim::new(cfg).run().throughput_rps()
}

/// The headline scenario's config: 64 nodes, two models at 2:1 weights
/// under Poisson load, join/leave churn plus a diurnal capacity curve on
/// every node — parameterized by the placement policy so the placement
/// sweep runs the *same* fleet under each policy.
fn multi_tenant_cfg(
    requests_each: usize,
    capacity: f64,
    placement: Arc<dyn PlacementPolicy>,
) -> FleetConfig {
    let nodes_n = 64;
    let tenant = |model, weight, load: f64| TenantSpec {
        grid: TileGrid::new(4, 4),
        weight,
        requests: requests_each,
        arrivals: ArrivalSpec::Poisson { rate_per_s: capacity * load },
        ..TenantSpec::new(model)
    };

    let horizon = requests_each as f64 / (capacity * 0.3) * 1.5;
    let mut nodes = pis(nodes_n);
    ChurnPlan {
        join_leave: Some((horizon / 8.0, horizon / 40.0)),
        diurnal: Some((horizon / 4.0, 0.5)),
        ..ChurnPlan::new(horizon, 2024)
    }
    .apply(&mut nodes);

    FleetConfig {
        pipeline_depth: 4,
        seed: 7,
        placement,
        ..FleetConfig::new(
            nodes,
            vec![tenant(zoo::vgg16(), 2.0, 0.6), tenant(zoo::resnet34(), 1.0, 0.3)],
        )
    }
}

/// The headline scenario (and ci.sh's smoke) under the default all-nodes
/// placement.
fn multi_tenant(requests_each: usize, capacity: f64) -> TenantScenario {
    let mut cfg = multi_tenant_cfg(requests_each, capacity, Arc::new(AllNodesPlacement));
    // The headline scenario also drives the observability plane: per-
    // tenant SLOs plus a labeled metrics registry on the event stream.
    cfg.tenants[0].slo = Some(SloSpec::new(2.5, 0.02));
    cfg.tenants[1].slo = Some(SloSpec::new(3.5, 0.02));
    let registry = Arc::new(LabeledMetricsRegistry::new(
        &cfg.tenants.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
        cfg.nodes.len(),
    ));
    let nodes_n = cfg.nodes.len() as u64;
    cfg.sink = SinkHandle::new(registry.clone());
    let wall = Instant::now();
    let fs = FleetSim::new(cfg).run();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fs.completed as usize, 2 * requests_each);

    // The labeled shards must reconcile: per-tenant image counts sum to
    // the fleet's global completed counter.
    let per_tenant: Vec<u64> = (0..fs.tenants.len())
        .map(|t| {
            registry.tenant(t).expect("registry covers every tenant").snapshot().images_finished
        })
        .collect();
    assert_eq!(
        per_tenant.iter().sum::<u64>(),
        fs.completed,
        "labeled tenant shards must sum to the global completed counter"
    );
    let prom = registry.to_prometheus();
    let series_total = prom.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count() as u64;
    assert!(
        prom.contains(r#"adcnn_images_finished_total{tenant="#),
        "registry must render tenant-labeled series"
    );

    TenantScenario {
        nodes: 64,
        requests_total: fs.completed,
        churn: true,
        events_processed: fs.events_processed,
        peak_events_pending: fs.peak_events_pending,
        throughput_rps: fs.throughput_rps(),
        p99_ms: ms(fs.p99_latency_s()),
        tenants: fs
            .tenants
            .iter()
            .map(|t| TenantPoint {
                name: t.name.clone(),
                weight: t.weight,
                requests: t.requests,
                p50_ms: ms(t.p50_latency_s()),
                p99_ms: ms(t.p99_latency_s()),
                mean_queue_wait_ms: t.mean_queue_wait_s() * 1e3,
                zero_fill_rate: t.zero_fill_rate(),
                slo: t.slo.clone(),
            })
            .collect(),
        labeled_tenant_series: fs.tenants.len() as u64,
        labeled_node_series: nodes_n,
        labeled_series_total: series_total,
        wall_ms,
    }
}

fn bounded_memory(requests: usize) -> MemoryRun {
    let tenant =
        TenantSpec { grid: TileGrid::new(2, 2), requests, ..TenantSpec::new(zoo::vgg16()) };
    // retain_images defaults to 0: no per-image records at all.
    let cfg = FleetConfig { pipeline_depth: 4, ..FleetConfig::new(pis(4), vec![tenant]) };
    let wall = Instant::now();
    let fs = FleetSim::new(cfg).run();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fs.completed as usize, requests);
    assert!(fs.retained.is_empty(), "retention off must keep no per-image records");
    assert_eq!(fs.latency_us.count as usize, requests, "aggregates must see every request");
    let rss = peak_rss_mib();
    if let Some(mib) = rss {
        assert!(
            mib < 512.0,
            "peak RSS {mib:.0} MiB — per-request state is leaking into the {requests}-request run"
        );
    }
    MemoryRun {
        requests,
        events_processed: fs.events_processed,
        peak_events_pending: fs.peak_events_pending,
        retained_images: fs.retained.len(),
        peak_rss_mib: rss,
        wall_ms,
    }
}

fn main() {
    let smoke = std::env::var("FLEET_SMOKE").is_ok();
    let (size_req, load_req, mt_each, mem_req) =
        if smoke { (300, 400, 25_000, 100_000) } else { (1_200, 1_500, 60_000, 1_000_000) };

    let sizes = [16usize, 64, 128, 256];
    let size_sweep: Vec<SizePoint> = sizes.iter().map(|&k| size_point(k, size_req)).collect();
    print_table(
        "Fleet size sweep — closed-loop VGG16, depth 4",
        &["nodes", "req/s", "p50 (ms)", "p99 (ms)", "zero-fill", "chan util", "wall (ms)"],
        &size_sweep
            .iter()
            .map(|p| {
                vec![
                    p.nodes.to_string(),
                    format!("{:.2}", p.throughput_rps),
                    format!("{:.1}", p.p50_ms),
                    format!("{:.1}", p.p99_ms),
                    format!("{:.4}", p.zero_fill_rate),
                    format!("{:.3}", p.channel_utilization),
                    format!("{:.0}", p.wall_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for p in &size_sweep {
        assert!(p.throughput_rps > 0.0);
        assert!(p.p99_ms >= p.p50_ms, "p99 {} < p50 {} at k={}", p.p99_ms, p.p50_ms, p.nodes);
        assert!(
            p.zero_fill_rate < 0.01,
            "healthy closed-loop cluster dropped tiles: {} at k={}",
            p.zero_fill_rate,
            p.nodes
        );
    }
    // Scaling up a link-shared fleet must never cost throughput.
    assert!(
        size_sweep.last().unwrap().throughput_rps >= size_sweep[0].throughput_rps * 0.95,
        "throughput regressed as the fleet grew"
    );

    // Offered-load sweep at 64 nodes, rates anchored to measured capacity.
    let capacity = size_sweep[1].throughput_rps;
    let load_sweep: Vec<LoadPoint> =
        [0.5, 0.8, 1.0, 1.2].iter().map(|&l| load_point(64, load_req, capacity, l)).collect();
    print_table(
        "Offered-load sweep — 64 nodes, Poisson arrivals",
        &["load", "offered r/s", "served r/s", "p50 (ms)", "p99 (ms)", "queue wait (ms)"],
        &load_sweep
            .iter()
            .map(|p| {
                vec![
                    format!("{:.1}x", p.load_factor),
                    format!("{:.2}", p.offered_rps),
                    format!("{:.2}", p.throughput_rps),
                    format!("{:.1}", p.p50_ms),
                    format!("{:.1}", p.p99_ms),
                    format!("{:.1}", p.mean_queue_wait_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let (under, over) = (&load_sweep[0], &load_sweep[3]);
    assert!(
        over.mean_queue_wait_ms > under.mean_queue_wait_ms,
        "overload must queue more than underload: {} vs {}",
        over.mean_queue_wait_ms,
        under.mean_queue_wait_ms
    );

    // The headline scenario calibrates its offered load against the
    // churn-free closed-loop capacity so the open-loop runs are busy but
    // stable — measured once, shared with the placement sweep below.
    let mt_capacity = fleet_capacity(64);
    let mt = multi_tenant(mt_each, mt_capacity);
    print_table(
        "Multi-tenant churn scenario — 64 nodes, join/leave + diurnal",
        &["tenant", "weight", "requests", "p50 (ms)", "p99 (ms)", "queue wait (ms)", "zero-fill"],
        &mt.tenants
            .iter()
            .map(|t| {
                vec![
                    t.name.clone(),
                    format!("{:.0}", t.weight),
                    t.requests.to_string(),
                    format!("{:.1}", t.p50_ms),
                    format!("{:.1}", t.p99_ms),
                    format!("{:.1}", t.mean_queue_wait_ms),
                    format!("{:.4}", t.zero_fill_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "multi-tenant: {} requests over {} nodes (churn {}), {} events ({} peak pending), \
         {:.2} req/s, p99 {:.1} ms, wall {:.1} s",
        mt.requests_total,
        mt.nodes,
        if mt.churn { "on" } else { "off" },
        mt.events_processed,
        mt.peak_events_pending,
        mt.throughput_rps,
        mt.p99_ms,
        mt.wall_ms / 1e3,
    );

    // Placement sweep: the same 64-node two-model churn scenario under
    // each placement policy — all_nodes is the PR-8 baseline (identity
    // placement), greedy packs for throughput against the shared-channel
    // saturation model.
    let psweep: Vec<PlacementPoint> = vec![
        placement_point("all_nodes", mt_each, mt_capacity, Arc::new(AllNodesPlacement)),
        placement_point("greedy", mt_each, mt_capacity, Arc::new(GreedyPlacement::default())),
    ];
    let base = &psweep[0];
    print_table(
        "Placement sweep — 64 nodes, 2 models, churn on",
        &["policy", "req/s", "p50 (ms)", "p99 (ms)", "zero-fill", "redisp", "re-place", "wall"],
        &psweep
            .iter()
            .map(|p| {
                vec![
                    p.policy.to_string(),
                    format!("{:.2}", p.throughput_rps),
                    format!("{:.1}", p.p50_ms),
                    format!("{:.1}", p.p99_ms),
                    format!("{:.4}", p.zero_fill_rate),
                    p.redispatched_tiles.to_string(),
                    p.replacements.to_string(),
                    format!("{:.0}", p.wall_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let placement_gain = |p: &PlacementPoint| {
        gain_pct(p.throughput_rps, base.throughput_rps).max(gain_pct(base.p99_ms, p.p99_ms))
    };
    let best =
        psweep[1..].iter().max_by(|a, b| placement_gain(a).total_cmp(&placement_gain(b))).unwrap();
    println!(
        "placement: {} vs all_nodes — throughput {:+.2}%, p99 {:+.2}%, \
         zero-fill {:.4} vs {:.4}",
        best.policy,
        gain_pct(best.throughput_rps, base.throughput_rps),
        gain_pct(base.p99_ms, best.p99_ms),
        best.zero_fill_rate,
        base.zero_fill_rate,
    );
    assert!(
        placement_gain(best) > 0.0,
        "no placement policy beat all_nodes on throughput or p99 \
         (best {} at {:+.3}%)",
        best.policy,
        placement_gain(best)
    );

    let mem = bounded_memory(mem_req);
    println!(
        "bounded memory: {} requests, {} events ({} peak pending), {} retained, \
         peak RSS {} MiB, {:.1} s wall",
        mem.requests,
        mem.events_processed,
        mem.peak_events_pending,
        mem.retained_images,
        mem.peak_rss_mib.map_or("n/a".into(), |m| format!("{m:.0}")),
        mem.wall_ms / 1e3,
    );

    let doc = Obj::new()
        .raw(
            "fleet",
            Obj::new()
                .bool("smoke", smoke)
                .raw("size_sweep", array(size_sweep.iter().map(|p| p.to_json())))
                .raw("load_sweep", array(load_sweep.iter().map(|p| p.to_json())))
                .raw("multi_tenant", mt.to_json())
                .raw(
                    "placement",
                    Obj::new()
                        .u64("nodes", 64)
                        .u64("requests_each", mt_each as u64)
                        .str("baseline", "all_nodes")
                        .raw("policies", array(psweep.iter().map(|p| p.to_json(base))))
                        .str("best_policy", best.policy)
                        .f64(
                            "best_throughput_gain_pct",
                            gain_pct(best.throughput_rps, base.throughput_rps),
                        )
                        .f64("best_p99_reduction_pct", gain_pct(base.p99_ms, best.p99_ms))
                        .finish(),
                )
                .raw("bounded_memory", mem.to_json())
                .finish(),
        )
        .finish();
    emit_json("BENCH_netsim", &doc);
}
