//! The ADCNN cluster simulation: one Central node, K Conv nodes, a shared
//! half-duplex wireless channel (§6, Figures 8–9).
//!
//! The simulation reuses the real Central-node machine
//! ([`adcnn_core::pipeline::Pipeline`]: Algorithms 2 and 3, worker liveness)
//! and the calibrated cost model (`adcnn-nn::cost`), and reproduces the
//! §6.1 workflow:
//!
//! 1. the Central node partitions each input into `grid` tiles and
//!    allocates them with Algorithm 3 using the current Algorithm 2 stats;
//! 2. tiles stream over the shared channel (FIFO) to the Conv nodes, which
//!    process them through the separable prefix and send back compressed
//!    intermediate results;
//! 3. the Central node reassembles, zero-filling results that miss the
//!    timeout, runs the suffix layers, and emits the output;
//! 4. the tiles of image `i+1` are already in flight while image `i`
//!    computes (Figure 9's overlap) — up to `pipeline_depth` images at
//!    once, mirroring the runtime's admission queue (depth 1 disables
//!    the overlap).
//!
//! All *decisions* — allocation, deadlines, re-dispatch, zero-fill, the
//! Algorithm 2 statistics and their measurement cutoff — come from that
//! shared sans-IO machine and the [`adcnn_core::lifecycle::TileLifecycle`]
//! it begins per image, the exact code the real runtime (`adcnn-runtime`)
//! drives. The simulated-time *driver* lives in [`crate::fleet`]: it feeds
//! the machine its own event timestamps directly (the machine's abstract
//! seconds ARE simulated seconds), turns actions into modeled channel
//! transfers and event pushes, and never cancels timers (the machine
//! ignores stale ones). [`AdcnnSim`] is the single-model front door: it runs a
//! one-tenant, closed-loop, full-retention fleet and reshapes the result
//! into a [`SimSummary`] with per-image records. Because both
//! drivers share one machine, a deployment plan validated in this
//! simulator executes under the same decision logic on the real system.
//! See DESIGN.md §11 for the policy/mechanism split and §16 for the
//! fleet engine.
//!
//! **Timeout-policy substitution.** The paper arms a `T_L = 30 ms` timer
//! when an image's tiles finish sending; taken literally that deadline
//! expires long before any honest Conv-node computation (~15 ms/tile × 8
//! tiles) can return, zero-filling everything. The default
//! [`LifecyclePolicy`] uses an *expected-makespan deadline* instead: when
//! the first result lands, the Central node extrapolates how long the
//! slowest node's whole batch should take (observed first-result time ×
//! its largest allocation × `policy.slack`, plus `T_L` grace) and
//! re-dispatches, then zero-fills, whatever misses that deadline. Healthy
//! clusters are lossless at any per-tile cost; nodes materially slower
//! than the cluster's pace miss the deadline and starve out of the
//! Algorithm 2 statistics exactly as §6.3 describes. The literal reading
//! remains available as [`TimerPolicy::AfterSend`] for comparison.

use crate::engine::SpeedSchedule;
use crate::fleet::{FleetConfig, FleetSim};
use crate::profiles::LinkParams;
use crate::tenancy::TenantSpec;
use adcnn_core::config::ConfigError;
use adcnn_core::fdsp::TileGrid;
use adcnn_core::obs::{HistogramSnapshot, SinkHandle};
use adcnn_nn::cost::DeviceProfile;
use adcnn_nn::zoo::ModelSpec;

/// Re-export: the shared lifecycle knobs and timer interpretations, the
/// same types `adcnn-runtime` consumes.
pub use adcnn_core::lifecycle::{LifecyclePolicy, TimerPolicy};

/// Re-export: a per-node CPU speed schedule (CPUlimit-style throttling).
pub type ThrottleSchedule = SpeedSchedule;

/// One simulated Conv node.
#[derive(Clone, Debug)]
pub struct SimNode {
    /// Hardware profile (usually a Raspberry Pi 3B+).
    pub profile: DeviceProfile,
    /// CPU speed multiplier over time.
    pub throttle: ThrottleSchedule,
    /// Storage capacity in bits (`H_k` of Equation 1).
    pub storage_bits: u64,
}

impl SimNode {
    /// A full-speed Raspberry Pi with effectively unlimited storage.
    pub fn pi() -> Self {
        SimNode {
            profile: DeviceProfile::raspberry_pi3(),
            throttle: ThrottleSchedule::constant(),
            storage_bits: u64::MAX,
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct AdcnnSimConfig {
    /// The CNN being served.
    pub model: ModelSpec,
    /// FDSP grid.
    pub grid: TileGrid,
    /// Number of separable layer blocks executed on Conv nodes.
    pub prefix: usize,
    /// The Conv nodes.
    pub nodes: Vec<SimNode>,
    /// The Central node's hardware.
    pub central: DeviceProfile,
    /// The shared wireless channel.
    pub link: LinkParams,
    /// The shared tile-lifecycle policy (`T_L`, deadline slack,
    /// re-dispatch rounds, hard timeout, timer interpretation) — the same
    /// struct the real runtime embeds in its `RuntimeConfig`. Set
    /// `policy.max_redispatch_rounds = 0` for the paper's pure zero-fill
    /// behaviour (§6.3).
    pub policy: LifecyclePolicy,
    /// Algorithm 2 decay γ; the paper uses 0.9.
    pub gamma: f64,
    /// Intermediate-result sparsity from the §4 pipeline; `None` sends raw
    /// 32-bit floats (the Figure 12 "without pruning" arm).
    pub compression: Option<f64>,
    /// Quantizer bit width (4 in the paper).
    pub quant_bits: u8,
    /// Input images to stream through.
    pub images: usize,
    /// Maximum images in flight at once — the simulated mirror of the
    /// runtime's `pipeline_depth`. Depth 1 disables the Figure 9 overlap
    /// (the pipelining ablation); 2 is the classic one-image-ahead
    /// window; higher depths model the runtime's deeper admission queue.
    pub pipeline_depth: usize,
    /// RNG seed (tile-allocation tie-breaking).
    pub seed: u64,
    /// Use Algorithms 2+3 (true) or a static equal split (false — the
    /// no-adaptation control for the Figure 15 experiment).
    pub adaptive: bool,
    /// Structured-event sink the simulated driver mirrors lifecycle
    /// decisions and modeled compute/transfer spans into — the same
    /// schema the real runtime emits — plus the one-tenant fleet's
    /// [`is_fleet_scope`](adcnn_core::obs::ObsEvent::is_fleet_scope)
    /// events. The default ([`SinkHandle::null()`]) never even
    /// constructs events.
    pub sink: SinkHandle,
}

impl AdcnnSimConfig {
    /// The paper's §7.2 testbed: `k` Pi Conv nodes + a Pi Central node on
    /// 87.72 Mbps WiFi, the default [`LifecyclePolicy`] (`T_L = 30 ms`,
    /// `γ = 0.9`), model-calibrated compression, the model's default grid
    /// and separable prefix.
    pub fn paper_testbed(model: ModelSpec, k: usize) -> Self {
        let grid = TileGrid::new(model.default_grid.0, model.default_grid.1);
        let prefix = model.separable_prefix;
        let sparsity = crate::profiles::model_sparsity(&model.name);
        AdcnnSimConfig {
            model,
            grid,
            prefix,
            nodes: (0..k).map(|_| SimNode::pi()).collect(),
            central: DeviceProfile::raspberry_pi3(),
            link: LinkParams::wifi_fast(),
            policy: LifecyclePolicy::default(),
            gamma: 0.9,
            compression: Some(sparsity),
            quant_bits: 4,
            images: 100,
            pipeline_depth: 2,
            seed: 42,
            adaptive: true,
            sink: SinkHandle::null(),
        }
    }

    /// Check the config's invariants: those of the fleet it runs as.
    /// [`AdcnnSim::new`] runs the same check and panics on an `Err`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.fleet().validate()
    }

    /// The run as a fleet: one tenant, closed-loop, no churn, every image
    /// retained.
    fn fleet(&self) -> FleetConfig {
        let tenant = TenantSpec {
            grid: self.grid,
            prefix: self.prefix,
            policy: self.policy,
            gamma: self.gamma,
            compression: self.compression,
            quant_bits: self.quant_bits,
            adaptive: self.adaptive,
            requests: self.images,
            ..TenantSpec::new(self.model.clone())
        };
        FleetConfig {
            central: self.central.clone(),
            link: self.link,
            pipeline_depth: self.pipeline_depth,
            seed: self.seed,
            retain_images: self.images,
            sink: self.sink.clone(),
            ..FleetConfig::new(self.nodes.clone(), vec![tenant])
        }
    }
}

/// Per-image measurements.
#[derive(Clone, Debug)]
pub struct ImageStats {
    /// End-to-end latency (partition start → final output), seconds.
    pub latency_s: f64,
    /// Channel time spent sending this image's input tiles.
    pub send_busy_s: f64,
    /// Channel time spent sending this image's intermediate results.
    pub result_busy_s: f64,
    /// Conv-node computation window (first tile start → last finish).
    pub conv_compute_s: f64,
    /// Central-node suffix computation time.
    pub suffix_s: f64,
    /// Tiles allocated per node.
    pub alloc: Vec<u32>,
    /// Results zero-filled because they missed the timeout.
    pub dropped: u32,
    /// Results that arrived after the suffix had started.
    pub late: u32,
    /// Tile re-sends issued by the deadline-fired recovery rounds.
    pub redispatched: u32,
    /// Results discarded because another copy of the tile arrived first
    /// (re-dispatch races are resolved first-arrival-wins).
    pub duplicate: u32,
    /// Completion time (absolute simulation seconds).
    pub done_at: f64,
}

/// Whole-run summary.
#[derive(Clone, Debug)]
pub struct SimSummary {
    /// Per-image records, in completion order.
    pub images: Vec<ImageStats>,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_s: f64,
    /// Mean channel transmission time per image (input + output).
    pub mean_transmission_s: f64,
    /// Mean computation time per image (Conv window + suffix).
    pub mean_computation_s: f64,
    /// Per-Conv-node CPU busy seconds over the whole run.
    pub node_busy_s: Vec<f64>,
    /// Total simulated time (completion of the last image).
    pub total_time_s: f64,
    /// Time the event queue drained — includes post-completion straggler
    /// and re-dispatch-duplicate traffic still finishing on the nodes.
    pub sim_end_s: f64,
    /// Fraction of `sim_end_s` the shared channel was busy.
    pub channel_utilization: f64,
    /// Streaming log2 histogram of end-to-end latencies, microseconds —
    /// the fleet engine's O(1)-memory aggregate, maintained even when
    /// per-image retention is disabled. Quantiles read from it are
    /// accurate to within one histogram bucket (a factor of 2).
    pub latency_hist_us: HistogramSnapshot,
}

impl SimSummary {
    /// Mean latency over the last half of the run (steady state, past the
    /// statistics warm-up).
    pub fn steady_latency_s(&self) -> f64 {
        let half = self.images.len() / 2;
        let tail = &self.images[half..];
        tail.iter().map(|i| i.latency_s).sum::<f64>() / tail.len().max(1) as f64
    }

    /// Streaming median latency, seconds (within one histogram bucket of
    /// the exact sorted-latency median).
    pub fn p50_latency_s(&self) -> Option<f64> {
        self.latency_hist_us.p50().map(|us| us / 1e6)
    }

    /// Streaming p99 latency, seconds (within one histogram bucket of the
    /// exact sorted-latency p99).
    pub fn p99_latency_s(&self) -> Option<f64> {
        self.latency_hist_us.p99().map(|us| us / 1e6)
    }
}

/// The simulator. Construct with a config, call [`AdcnnSim::run`].
pub struct AdcnnSim {
    cfg: AdcnnSimConfig,
}

impl AdcnnSim {
    /// Wrap a configuration; panics if [`AdcnnSimConfig::validate`]
    /// rejects it.
    pub fn new(cfg: AdcnnSimConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid AdcnnSimConfig: {e}");
        }
        AdcnnSim { cfg }
    }

    /// Execute the full run and return the summary: a one-tenant,
    /// closed-loop, no-churn [`FleetSim`] with full per-image retention,
    /// whose decision trace, timestamps and statistics
    /// `tests/fleet_differential.rs` pins byte-for-byte.
    pub fn run(&self) -> SimSummary {
        let fs = FleetSim::new(self.cfg.fleet()).run();
        // Retained in completion order, i.e. nondecreasing `done_at`.
        let images: Vec<ImageStats> = fs.retained.into_iter().map(|(_, s)| s).collect();
        let t = &fs.tenants[0];
        // The streaming sums were folded in completion order, so these
        // divisions equal a post-run fold over `images` bit-for-bit.
        let n = images.len() as f64;
        let total_time_s = images.last().map(|i| i.done_at).unwrap_or(0.0);
        SimSummary {
            mean_latency_s: t.latency_sum_s / n,
            mean_transmission_s: t.transmission_sum_s / n,
            mean_computation_s: t.computation_sum_s / n,
            node_busy_s: fs.node_busy_s,
            total_time_s,
            sim_end_s: fs.sim_end_s,
            channel_utilization: fs.channel_utilization,
            latency_hist_us: fs.latency_us,
            images,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_core::obs::{ObsEvent, RecordingSink};
    use adcnn_nn::cost::model_time_s;
    use adcnn_nn::zoo;

    fn quick_cfg(k: usize, images: usize) -> AdcnnSimConfig {
        let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), k);
        cfg.images = images;
        // Latency-measuring tests run unpipelined so per-image latency is
        // not inflated by queueing behind the central-node bottleneck
        // (pipelining is exercised explicitly where throughput matters).
        cfg.pipeline_depth = 1;
        cfg
    }

    #[test]
    fn runs_to_completion_and_is_deterministic() {
        let cfg = quick_cfg(8, 10);
        let a = AdcnnSim::new(cfg.clone()).run();
        let b = AdcnnSim::new(cfg).run();
        assert_eq!(a.images.len(), 10);
        assert_eq!(a.mean_latency_s, b.mean_latency_s);
        assert_eq!(a.node_busy_s, b.node_busy_s);
    }

    #[test]
    fn equal_nodes_get_equal_tiles() {
        // §7.2: identical Conv nodes each receive the same tile count.
        let s = AdcnnSim::new(quick_cfg(8, 5)).run();
        for img in &s.images {
            assert!(img.alloc.iter().all(|&x| x == 8), "{:?}", img.alloc);
        }
    }

    #[test]
    fn no_drops_with_healthy_nodes() {
        let s = AdcnnSim::new(quick_cfg(8, 10)).run();
        for img in &s.images {
            assert_eq!(img.dropped, 0);
            assert_eq!(img.late, 0);
        }
    }

    #[test]
    fn adcnn_beats_single_device() {
        // Figure 11's headline: distributed execution is much faster than
        // one Pi.
        let s = AdcnnSim::new(quick_cfg(8, 20)).run();
        let single = model_time_s(&zoo::vgg16(), &DeviceProfile::raspberry_pi3());
        let speedup = single / s.steady_latency_s();
        // With the paper's stated 7-block split the central-node suffix
        // bounds the speedup well below the paper's 6.68x headline (see
        // EXPERIMENTS.md for the decomposition); the win itself must hold.
        assert!(speedup > 1.3, "speedup {speedup} (latency {})", s.steady_latency_s());
    }

    #[test]
    fn more_nodes_reduce_latency_with_diminishing_returns() {
        // Figure 13 left panel.
        let l2 = AdcnnSim::new(quick_cfg(2, 12)).run().steady_latency_s();
        let l4 = AdcnnSim::new(quick_cfg(4, 12)).run().steady_latency_s();
        let l8 = AdcnnSim::new(quick_cfg(8, 12)).run().steady_latency_s();
        assert!(l4 < l2, "{l4} !< {l2}");
        assert!(l8 < l4, "{l8} !< {l4}");
        let gain_24 = l2 / l4;
        let gain_48 = l4 / l8;
        assert!(gain_48 < gain_24, "no diminishing returns: {gain_24} then {gain_48}");
    }

    #[test]
    fn compression_helps_more_at_low_bandwidth() {
        // Figure 12.
        let base = quick_cfg(8, 10);
        let mut raw_fast = base.clone();
        raw_fast.compression = None;
        let mut comp_slow = base.clone();
        comp_slow.link = LinkParams::wifi_slow();
        let mut raw_slow = base.clone();
        raw_slow.compression = None;
        raw_slow.link = LinkParams::wifi_slow();

        let l_comp_fast = AdcnnSim::new(base).run().steady_latency_s();
        let l_raw_fast = AdcnnSim::new(raw_fast).run().steady_latency_s();
        let l_comp_slow = AdcnnSim::new(comp_slow).run().steady_latency_s();
        let l_raw_slow = AdcnnSim::new(raw_slow).run().steady_latency_s();

        assert!(l_comp_fast < l_raw_fast);
        assert!(l_comp_slow < l_raw_slow);
        let gain_fast = (l_raw_fast - l_comp_fast) / l_raw_fast;
        let gain_slow = (l_raw_slow - l_comp_slow) / l_raw_slow;
        assert!(gain_slow > gain_fast, "slow-link gain {gain_slow} <= fast {gain_fast}");
    }

    #[test]
    fn throttled_nodes_lose_tiles_and_latency_partially_recovers() {
        // Figure 15: throttle half the cluster mid-run; the allocator must
        // shift tiles to the fast nodes and claw back some latency.
        let mut cfg = quick_cfg(8, 60);
        // find steady latency first to time the throttle mid-run
        let warm = AdcnnSim::new(cfg.clone()).run();
        let t_half = warm.images[30].done_at;
        for i in 4..6 {
            cfg.nodes[i].throttle = ThrottleSchedule::throttle_at(t_half, 0.45);
        }
        for i in 6..8 {
            cfg.nodes[i].throttle = ThrottleSchedule::throttle_at(t_half, 0.24);
        }
        let s = AdcnnSim::new(cfg).run();
        let early = &s.images[..25];
        let late = &s.images[45..];
        let mean =
            |xs: &[ImageStats]| xs.iter().map(|i| i.latency_s).sum::<f64>() / xs.len() as f64;
        let l_early = mean(early);
        let l_late = mean(late);
        assert!(l_late > l_early * 1.05, "no degradation visible: {l_early} -> {l_late}");
        // steady-state allocation favors the fast nodes
        let final_alloc = &s.images.last().unwrap().alloc;
        let fast: u32 = final_alloc[..4].iter().sum();
        let slow: u32 = final_alloc[4..].iter().sum();
        assert!(fast > slow, "allocation did not shift: {final_alloc:?}");
    }

    #[test]
    fn dead_node_is_starved_and_images_still_complete() {
        // Pure zero-fill policy (§6.3, re-dispatch disabled): a dead
        // node's tiles are dropped until the statistics starve it.
        let mut cfg = quick_cfg(4, 30);
        cfg.policy.max_redispatch_rounds = 0;
        cfg.nodes[3].throttle = ThrottleSchedule::throttle_at(0.0, 0.0);
        let s = AdcnnSim::new(cfg).run();
        assert_eq!(s.images.len(), 30);
        // by the end the dead node receives nothing
        let final_alloc = &s.images.last().unwrap().alloc;
        assert_eq!(final_alloc[3], 0, "{final_alloc:?}");
        // node 3's results never arrived -> early images record drops
        assert!(s.images.iter().any(|i| i.dropped > 0));
        assert!(s.images.iter().all(|i| i.redispatched == 0));
    }

    #[test]
    fn dead_node_recovers_via_redispatch() {
        // Same dead node, lifecycle recovery on: the missing tiles are
        // re-sent to the live nodes, so no image loses a single tile, and
        // the statistics still starve the dead node out.
        let mut cfg = quick_cfg(4, 30);
        cfg.nodes[3].throttle = ThrottleSchedule::throttle_at(0.0, 0.0);
        let s = AdcnnSim::new(cfg).run();
        assert_eq!(s.images.len(), 30);
        assert!(
            s.images.iter().any(|i| i.redispatched > 0),
            "dead node's tiles were never re-dispatched"
        );
        assert!(
            s.images.iter().all(|i| i.dropped == 0),
            "re-dispatch must recover every tile: {:?}",
            s.images.iter().map(|i| i.dropped).collect::<Vec<_>>()
        );
        let last = s.images.last().unwrap();
        assert_eq!(last.alloc[3], 0, "{:?}", last.alloc);
        assert_eq!(last.redispatched, 0, "steady state should not re-dispatch");
    }

    #[test]
    fn pipelining_improves_throughput() {
        let mut piped_cfg = quick_cfg(8, 12);
        piped_cfg.pipeline_depth = 2;
        let mut deep_cfg = quick_cfg(8, 12);
        deep_cfg.pipeline_depth = 4;
        let serial = quick_cfg(8, 12);
        let piped = AdcnnSim::new(piped_cfg).run();
        let deep = AdcnnSim::new(deep_cfg).run();
        let unpiped = AdcnnSim::new(serial).run();
        assert!(
            piped.total_time_s < unpiped.total_time_s,
            "pipelining did not help: {} vs {}",
            piped.total_time_s,
            unpiped.total_time_s
        );
        // A deeper window can only admit earlier, never later.
        assert!(
            deep.total_time_s <= piped.total_time_s + 1e-9,
            "deeper pipeline regressed throughput: {} vs {}",
            deep.total_time_s,
            piped.total_time_s
        );
    }

    #[test]
    fn admission_events_mirror_runtime_schema() {
        // The simulator emits the same ImageAdmitted/ImageRetired pipeline
        // events as the runtime's collector: one pair per image, inflight
        // bounded by the window, queue_wait identically 0 (closed-loop
        // source).
        let rec = std::sync::Arc::new(RecordingSink::new());
        let mut cfg = quick_cfg(4, 6);
        cfg.pipeline_depth = 3;
        cfg.sink = SinkHandle::new(rec.clone());
        AdcnnSim::new(cfg).run();
        let evs: Vec<ObsEvent> = rec.events().into_iter().filter(|e| !e.is_fleet_scope()).collect();
        let admitted: Vec<u32> = evs
            .iter()
            .filter_map(|e| match e {
                ObsEvent::ImageAdmitted { inflight, queue_wait, .. } => {
                    assert_eq!(*queue_wait, 0.0, "closed-loop source never queues");
                    Some(*inflight)
                }
                _ => None,
            })
            .collect();
        let retired = evs.iter().filter(|e| matches!(e, ObsEvent::ImageRetired { .. })).count();
        assert_eq!(admitted.len(), 6);
        assert_eq!(retired, 6);
        assert!(
            admitted.iter().all(|&i| (1..=3).contains(&i)),
            "inflight gauge out of window: {admitted:?}"
        );
        assert!(
            admitted.iter().any(|&i| i > 1),
            "depth 3 should actually overlap images: {admitted:?}"
        );
    }

    #[test]
    fn breakdown_components_are_consistent() {
        let s = AdcnnSim::new(quick_cfg(8, 10)).run();
        assert!(s.mean_transmission_s > 0.0);
        assert!(s.mean_computation_s > 0.0);
        // computation dominates transmission on the fast link (Table 3).
        assert!(s.mean_computation_s > s.mean_transmission_s);
        assert!(s.channel_utilization > 0.0 && s.channel_utilization <= 1.0);
    }

    #[test]
    fn after_send_policy_zero_fills_aggressively() {
        // The literal reading of the paper's timer drops nearly everything
        // (see module docs) — verify it at least completes and that the
        // idle-gap default is strictly better on accuracy-relevant drops.
        let mut cfg = quick_cfg(4, 5);
        cfg.policy.timer = TimerPolicy::AfterSend;
        let literal = AdcnnSim::new(cfg).run();
        let drops: u32 = literal.images.iter().map(|i| i.dropped).sum();
        assert!(drops > 0, "expected the literal timer to drop results");
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;
    use adcnn_nn::zoo;
    use proptest::prelude::*;

    /// A cluster mixing a Jetson-class accelerator with Pis: the fast node
    /// must absorb a larger tile share once the statistics warm up, and the
    /// mixed cluster must beat the all-Pi cluster.
    #[test]
    fn mixed_device_cluster_shifts_load_to_the_accelerator() {
        let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 4);
        cfg.images = 25;
        cfg.pipeline_depth = 1;
        let all_pi = AdcnnSim::new(cfg.clone()).run();

        cfg.nodes[0].profile = DeviceProfile::jetson_nano();
        let mixed = AdcnnSim::new(cfg).run();

        let alloc = &mixed.images.last().unwrap().alloc;
        assert!(
            alloc[0] > alloc[1] && alloc[0] > alloc[2] && alloc[0] > alloc[3],
            "accelerator not favored: {alloc:?}"
        );
        assert!(
            mixed.steady_latency_s() < all_pi.steady_latency_s(),
            "mixed {} !< all-pi {}",
            mixed.steady_latency_s(),
            all_pi.steady_latency_s()
        );
    }

    #[test]
    fn storage_constrained_node_respects_cap() {
        // Equation 1's M·x_k <= H_k inside the full simulation.
        let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 4);
        cfg.images = 10;
        cfg.pipeline_depth = 1;
        // tile_in_bits for VGG16 8x8 is ~75 kbit + header; cap node 0 at 3 tiles.
        let tile_bits =
            cfg.model.input_wire_bits() / cfg.grid.tiles() as u64 + adcnn_core::wire::HEADER_BITS;
        cfg.nodes[0].storage_bits = tile_bits * 3 + tile_bits / 2;
        let run = AdcnnSim::new(cfg).run();
        for img in &run.images {
            assert!(img.alloc[0] <= 3, "storage cap violated: {:?}", img.alloc);
            assert_eq!(img.alloc.iter().sum::<u32>(), 64);
        }
    }

    /// Simulation invariants on one small cluster: every image completes,
    /// latency covers its own suffix, tile counts are conserved, and
    /// channel utilization is a valid fraction.
    fn check_sim_invariants(k: usize, images: usize, seed: u64, pipeline_depth: usize) {
        let cfg = AdcnnSimConfig {
            images,
            seed,
            pipeline_depth,
            ..AdcnnSimConfig::paper_testbed(zoo::vgg16(), k)
        };
        let run = AdcnnSim::new(cfg).run();
        assert_eq!(run.images.len(), images);
        for img in &run.images {
            assert!(img.latency_s > 0.0);
            assert!(img.latency_s >= img.suffix_s);
            assert_eq!(img.alloc.iter().sum::<u32>() as usize, 64);
            // every dropped tile was allocated; every late arrival is
            // either a dropped tile's original or a re-dispatch copy,
            // and duplicates only exist where a re-send happened
            assert!(img.dropped <= img.alloc.iter().sum::<u32>());
            assert!(img.late <= img.dropped + img.redispatched);
            assert!(img.duplicate <= img.redispatched);
        }
        assert!(run.channel_utilization >= 0.0 && run.channel_utilization <= 1.0);
        assert!(run.sim_end_s >= run.total_time_s);
        assert!(run.node_busy_s.iter().all(|&b| b >= 0.0 && b <= run.sim_end_s + 1e-9));
    }

    /// The case `proptest` once shrank a failure of `prop_sim_invariants`
    /// to (`k = 1, images = 2, seed = 14`), replayed by hand: a saved
    /// regression hash is something only the registry `proptest` decodes.
    #[test]
    fn sim_invariants_hold_on_the_saved_regression() {
        for pipeline_depth in [1, 2] {
            check_sim_invariants(1, 2, 14, pipeline_depth);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_sim_invariants(k in 1usize..6, images in 1usize..6, seed in 0u64..100) {
            check_sim_invariants(k, images, seed, if seed % 2 == 0 { 2 } else { 1 });
        }
    }
}
