//! Differential traces pinning the fleet-engine refactor to the
//! pre-refactor `AdcnnSim` behavior.
//!
//! Each test runs a single-model, no-churn, fixed-arrival configuration —
//! the regime where the fleet driver and the historical monolithic
//! `AdcnnSim::run` overlap — with a [`RecordingSink`] attached, formats
//! the full structured-event stream (every lifecycle decision plus the
//! driver's modeled compute/transfer spans) and the per-image summary,
//! and asserts the result is byte-identical to a golden file captured
//! from the pre-refactor monolith.
//!
//! The goldens were recorded at the commit *before* `AdcnnSim` became a
//! wrapper over `fleet::FleetSim`, so these tests are the refactor's
//! behavior-preservation proof: same decisions, same timestamps, same
//! statistics, on healthy and fault-injected seeds.
//!
//! Regenerate (only when a change is *intended* to alter behavior) with:
//! `UPDATE_FLEET_GOLDEN=1 cargo test -p adcnn-netsim --test fleet_differential`

use adcnn_core::fdsp::TileGrid;
use adcnn_core::obs::{RecordingSink, SinkHandle};
use adcnn_netsim::{
    AdcnnSim, AdcnnSimConfig, AllNodesPlacement, ArrivalSpec, FleetConfig, FleetSim,
    GreedyPlacement, SimNode, TenantSpec, ThrottleSchedule, TimerPolicy,
};
use adcnn_nn::zoo;
use std::path::PathBuf;
use std::sync::Arc;

/// Run `cfg` with a recording sink and format the decision trace: every
/// ObsEvent in emission order, then the whole-run summary and per-image
/// stats. Debug-formats `f64`s (shortest round-trip), so two runs agree
/// iff every modeled timestamp and statistic agrees to the last bit.
fn decision_trace(mut cfg: AdcnnSimConfig) -> String {
    let rec = Arc::new(RecordingSink::new());
    cfg.sink = SinkHandle::new(rec.clone());
    let s = AdcnnSim::new(cfg).run();
    let mut out = String::new();
    for e in rec.events().iter().filter(|e| !e.is_fleet_scope()) {
        out.push_str(&format!("{e:?}\n"));
    }
    out.push_str(&format!(
        "SUMMARY images={} mean_latency_s={:?} mean_transmission_s={:?} \
         mean_computation_s={:?} total_time_s={:?} sim_end_s={:?} \
         channel_utilization={:?} node_busy_s={:?}\n",
        s.images.len(),
        s.mean_latency_s,
        s.mean_transmission_s,
        s.mean_computation_s,
        s.total_time_s,
        s.sim_end_s,
        s.channel_utilization,
        s.node_busy_s,
    ));
    for img in &s.images {
        out.push_str(&format!(
            "IMG done_at={:?} latency_s={:?} send_busy_s={:?} result_busy_s={:?} \
             conv_compute_s={:?} suffix_s={:?} dropped={} late={} redispatched={} \
             duplicate={} alloc={:?}\n",
            img.done_at,
            img.latency_s,
            img.send_busy_s,
            img.result_busy_s,
            img.conv_compute_s,
            img.suffix_s,
            img.dropped,
            img.late,
            img.redispatched,
            img.duplicate,
            img.alloc,
        ));
    }
    out
}

/// Fleet-level analogue of [`decision_trace`]: run a full multi-tenant
/// [`FleetConfig`] with a recording sink and format the structured-event
/// stream plus the whole-fleet and per-tenant streaming aggregates and
/// every retained image. Debug-formats `f64`s, so two runs agree iff
/// every modeled timestamp and statistic agrees to the last bit.
fn fleet_decision_trace(mut cfg: FleetConfig) -> String {
    let rec = Arc::new(RecordingSink::new());
    cfg.sink = SinkHandle::new(rec.clone());
    let s = FleetSim::new(cfg).run();
    let mut out = String::new();
    for e in rec.events().iter().filter(|e| !e.is_fleet_scope()) {
        out.push_str(&format!("{e:?}\n"));
    }
    out.push_str(&format!(
        "FLEET completed={} total_time_s={:?} sim_end_s={:?} channel_utilization={:?} \
         node_busy_s={:?} peak_inflight={} events_processed={}\n",
        s.completed,
        s.total_time_s,
        s.sim_end_s,
        s.channel_utilization,
        s.node_busy_s,
        s.peak_inflight,
        s.events_processed,
    ));
    for t in &s.tenants {
        out.push_str(&format!(
            "TENANT name={} completed={} latency_sum_s={:?} queue_wait_sum_s={:?} \
             transmission_sum_s={:?} computation_sum_s={:?} tiles_allocated={} dropped={} \
             late={} redispatched={} duplicate={} last_done_s={:?}\n",
            t.name,
            t.completed,
            t.latency_sum_s,
            t.queue_wait_sum_s,
            t.transmission_sum_s,
            t.computation_sum_s,
            t.tiles_allocated,
            t.dropped_tiles,
            t.late_tiles,
            t.redispatched_tiles,
            t.duplicate_tiles,
            t.last_done_s,
        ));
    }
    for (tenant, img) in &s.retained {
        out.push_str(&format!(
            "IMG tenant={} done_at={:?} latency_s={:?} send_busy_s={:?} result_busy_s={:?} \
             conv_compute_s={:?} suffix_s={:?} dropped={} late={} redispatched={} \
             duplicate={} alloc={:?}\n",
            tenant,
            img.done_at,
            img.latency_s,
            img.send_busy_s,
            img.result_busy_s,
            img.conv_compute_s,
            img.suffix_s,
            img.dropped,
            img.late,
            img.redispatched,
            img.duplicate,
            img.alloc,
        ));
    }
    // Placement section only for non-identity policies: the all-nodes
    // golden was recorded from the pre-placement engine, whose trace
    // format had no placement lines — and must stay byte-identical.
    if s.placement.policy != "all_nodes" {
        out.push_str(&format!(
            "PLACEMENT policy={} replacements={}\n",
            s.placement.policy, s.replacements
        ));
        for a in &s.placement.assignments {
            out.push_str(&format!(
                "ASSIGN tenant={} nodes={:?} predicted_rps={:?}\n",
                a.tenant, a.nodes, a.predicted_rps
            ));
        }
    }
    out
}

/// The shared two-tenant leave-wave scenario: six Pi nodes, half the
/// roster drops at t=8 s and returns at t=16 s while both tenants'
/// open-loop Poisson streams keep arriving — admission, allocation, and
/// recovery all cross the wave.
fn leave_wave_config() -> FleetConfig {
    let mut nodes: Vec<SimNode> = (0..6).map(|_| SimNode::pi()).collect();
    for n in [2, 3, 4] {
        nodes[n].throttle = ThrottleSchedule::from_points(vec![(8.0, 0.0), (16.0, 1.0)]);
    }
    let tenant = |model, weight| TenantSpec {
        grid: TileGrid::new(2, 2),
        weight,
        requests: 24,
        arrivals: ArrivalSpec::Poisson { rate_per_s: 2.0 },
        ..TenantSpec::new(model)
    };
    FleetConfig {
        pipeline_depth: 3,
        seed: 2024,
        retain_images: 48,
        ..FleetConfig::new(nodes, vec![tenant(zoo::vgg16(), 2.0), tenant(zoo::resnet18(), 1.0)])
    }
}

fn check_fleet_golden(name: &str, cfg: FleetConfig) {
    let got = fleet_decision_trace(cfg);
    let path = golden_path(name);
    if std::env::var("UPDATE_FLEET_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); run with UPDATE_FLEET_GOLDEN=1")
    });
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "golden {name} diverges at line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "golden {name}: traces agree on common prefix but differ in length"
        );
        unreachable!("golden {name}: traces differ but no diverging line found");
    }
}

/// The default placement (every tenant on every node) pinned to the
/// multi-tenant fleet behavior that shipped before the placement control
/// plane existed: this golden was recorded from the PR-8 driver, so any
/// divergence means the all-nodes path is no longer the identity.
#[test]
fn golden_fleet_allnodes_leave_wave() {
    check_fleet_golden("fleet_allnodes_leave_wave", leave_wave_config());
}

/// Same as [`golden_fleet_allnodes_leave_wave`], but explicitly passing
/// the [`AllNodesPlacement`] policy — and asserting the driver never
/// re-consults it: the baseline must be the identity by construction,
/// not by luck of equal decisions.
#[test]
fn allnodes_policy_is_pr8_identity() {
    let mut cfg = leave_wave_config();
    cfg.placement = Arc::new(AllNodesPlacement);
    let explicit = fleet_decision_trace(cfg);
    let default = fleet_decision_trace(leave_wave_config());
    assert_eq!(explicit, default, "explicit all-nodes diverged from the default");
    let s = FleetSim::new(leave_wave_config()).run();
    assert_eq!(s.replacements, 0, "all-nodes policy must skip re-placement");
}

/// The greedy bin-packer over the same leave-wave scenario: a placed
/// 2-tenant run whose decision trace — admissions, allocations (masked
/// to each tenant's placed set), recovery across the wave, and the
/// placement decisions themselves — replays byte-identically.
#[test]
fn golden_fleet_greedy_leave_wave() {
    let mut cfg = leave_wave_config();
    cfg.placement = Arc::new(GreedyPlacement::default());
    check_fleet_golden("fleet_greedy_leave_wave", cfg);
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

fn check_golden(name: &str, cfg: AdcnnSimConfig) {
    let got = decision_trace(cfg);
    let path = golden_path(name);
    if std::env::var("UPDATE_FLEET_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); run with UPDATE_FLEET_GOLDEN=1")
    });
    if got != want {
        // Point at the first diverging line rather than dumping two
        // multi-thousand-line traces.
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "golden {name} diverges at line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "golden {name}: traces agree on common prefix but differ in length"
        );
        unreachable!("golden {name}: traces differ but no diverging line found");
    }
}

/// §7.2 testbed, all nodes healthy, classic one-image-ahead pipeline.
#[test]
fn golden_healthy_vgg16() {
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 8);
    cfg.images = 12;
    cfg.pipeline_depth = 2;
    cfg.seed = 42;
    check_golden("fleet_healthy_vgg16", cfg);
}

/// Second architecture + deeper admission window + a different seed, so
/// the golden covers the allocator's RNG tie-breaking on another model's
/// grid and cost surface.
#[test]
fn golden_healthy_resnet18_depth3() {
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::resnet18(), 4);
    cfg.images = 8;
    cfg.pipeline_depth = 3;
    cfg.seed = 1234;
    check_golden("fleet_healthy_resnet18_depth3", cfg);
}

/// Fault injection: one node dead from t=0; lifecycle recovery on, so the
/// golden pins the re-dispatch rounds, the WorkerDied feed at timers, and
/// the Algorithm 2 starvation path.
#[test]
fn golden_dead_node_redispatch() {
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 4);
    cfg.images = 16;
    cfg.pipeline_depth = 2;
    cfg.seed = 7;
    cfg.nodes[3].throttle = ThrottleSchedule::throttle_at(0.0, 0.0);
    check_golden("fleet_dead_node_redispatch", cfg);
}

/// Same dead node with re-dispatch disabled: the paper's pure zero-fill
/// behavior (§6.3). Pins the ZeroFill decisions and drop accounting.
#[test]
fn golden_dead_node_zerofill() {
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 4);
    cfg.images = 10;
    cfg.pipeline_depth = 2;
    cfg.seed = 5;
    cfg.policy.max_redispatch_rounds = 0;
    cfg.nodes[3].throttle = ThrottleSchedule::throttle_at(0.0, 0.0);
    check_golden("fleet_dead_node_zerofill", cfg);
}

/// Mid-run throttling of half the cluster (the Figure 15 shape): pins the
/// EWMA adaptation trajectory and the deadline/late accounting under a
/// changing speed surface.
#[test]
fn golden_throttled_midrun() {
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 8);
    cfg.images = 20;
    cfg.pipeline_depth = 3;
    cfg.seed = 123;
    cfg.nodes[4].throttle = ThrottleSchedule::throttle_at(0.15, 0.45);
    cfg.nodes[5].throttle = ThrottleSchedule::throttle_at(0.15, 0.45);
    cfg.nodes[6].throttle = ThrottleSchedule::throttle_at(0.30, 0.24);
    check_golden("fleet_throttled_midrun", cfg);
}

/// The literal reading of the paper's T_L timer (AfterSend): aggressive
/// zero-fill, unpipelined. Pins the stale-timer and late-result paths.
#[test]
fn golden_after_send_policy() {
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 4);
    cfg.images = 6;
    cfg.pipeline_depth = 1;
    cfg.seed = 9;
    cfg.policy.timer = TimerPolicy::AfterSend;
    check_golden("fleet_after_send_policy", cfg);
}

/// Storage-capped node (Equation 1's H_k bound): pins the allocator's
/// capacity-fallback placement inside the full event loop.
#[test]
fn golden_storage_capped() {
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 4);
    cfg.images = 8;
    cfg.pipeline_depth = 1;
    cfg.seed = 11;
    let tile_bits =
        cfg.model.input_wire_bits() / cfg.grid.tiles() as u64 + adcnn_core::wire::HEADER_BITS;
    cfg.nodes[0].storage_bits = tile_bits * 3 + tile_bits / 2;
    check_golden("fleet_storage_capped", cfg);
}
