//! Figure 15: impact of node-performance variation. Mid-run, four of the
//! eight Conv nodes are throttled (−55% on nodes 5–6, −76% on nodes 7–8,
//! matching §7.3); the latency jumps, Algorithm 2's statistics notice, and
//! Algorithm 3 shifts tiles to the fast nodes, clawing back part of the
//! loss (paper: 241 → 392 → 351 ms; allocation 8/8/…/8 → 12/12/12/12 and
//! 5/5/3/3).

use adcnn_bench::{emit_json, print_table};
use adcnn_core::fdsp::TileGrid;
use adcnn_core::obs::json::{array, num, Obj};
use adcnn_core::obs::MetricsSink;
use adcnn_core::report::{AttributionSink, FlightRecorderSink, Reporter};
use adcnn_netsim::{AdcnnSim, AdcnnSimConfig, LinkParams, SinkHandle, ThrottleSchedule};
use adcnn_nn::cost::DeviceProfile;
use adcnn_nn::zoo;
use std::sync::Arc;

/// One depth of the pipeline sweep: a clean (fault-free) run of the
/// serving cluster at a fixed admission window.
struct DepthPoint {
    depth: usize,
    images: u64,
    images_per_s: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
    zero_fill_rate: f64,
}

impl DepthPoint {
    fn to_json(&self) -> String {
        Obj::new()
            .u64("depth", self.depth as u64)
            .u64("images", self.images)
            .f64("images_per_s", self.images_per_s)
            .f64("p50_latency_us", self.p50_latency_us)
            .f64("p99_latency_us", self.p99_latency_us)
            .f64("zero_fill_rate", self.zero_fill_rate)
            .finish()
    }
}

/// One clean serving-cluster run at admission window `depth`.
///
/// The paper's 8-Pi testbed is compute-dominated (Table 3: ~850 ms of
/// computation vs ~58 ms of transmission), so overlapping images barely
/// helps there. The regime the pipeline targets — the ROADMAP's
/// multi-user serving — is a cluster whose send / conv-compute / suffix
/// stages are comparable: 16 Pi Conv nodes on a Wi-Fi 6 AP with a
/// GPU-class Central, VGG16 split at a 4×4 grid after block 6. Each stage
/// lands near ~50 ms per image, so throughput scales until the window
/// covers all three. `T_L` is relaxed: this is a throughput benchmark
/// with no fault injection, and a tight grace would count send-queue
/// delays of deep windows as drops.
fn depth_point(depth: usize) -> DepthPoint {
    let metrics = Arc::new(MetricsSink::new());
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 16);
    cfg.grid = TileGrid::new(4, 4);
    cfg.prefix = 6;
    cfg.central = DeviceProfile::cloud_v100();
    cfg.link = LinkParams::wifi6();
    cfg.images = 100;
    cfg.pipeline_depth = depth;
    cfg.policy.t_l = 0.5;
    cfg.sink = SinkHandle::new(metrics.clone());
    let run = AdcnnSim::new(cfg).run();
    let live = Reporter::new().sample(&metrics.snapshot(), run.sim_end_s);
    DepthPoint {
        depth,
        images: live.images,
        images_per_s: live.images_per_s,
        p50_latency_us: live.p50_latency_us.unwrap_or(0.0),
        p99_latency_us: live.p99_latency_us.unwrap_or(0.0),
        zero_fill_rate: live.zero_fill_rate,
    }
}

fn main() {
    let m = zoo::vgg16();
    let images = 100usize;
    let throttle_img = 50usize;

    // First pass at full speed to find the wall-clock time of image 50.
    let warm =
        AdcnnSimConfig { images, pipeline_depth: 1, ..AdcnnSimConfig::paper_testbed(m.clone(), 8) };
    let warm_run = AdcnnSim::new(warm.clone()).run();
    let t_half = warm_run.images[throttle_img].done_at;

    // The adaptive run carries the full forensic-observability stack —
    // metrics + per-image attribution + flight recorder, tee'd onto one
    // handle — so the emitted record includes the run's counters and
    // histograms, the Table 3 phase aggregate, and the anomaly dumps the
    // throttling provokes, alongside the figure's latency numbers.
    let metrics = Arc::new(MetricsSink::new());
    let attribution = Arc::new(AttributionSink::with_retention(images));
    let recorder = Arc::new(FlightRecorderSink::new(4096));
    let mut cfg = warm;
    cfg.sink = SinkHandle::new(metrics.clone()).tee(attribution.clone()).tee(recorder.clone());
    for i in 4..6 {
        cfg.nodes[i].throttle = ThrottleSchedule::throttle_at(t_half, 0.45);
    }
    for i in 6..8 {
        cfg.nodes[i].throttle = ThrottleSchedule::throttle_at(t_half, 0.24);
    }
    let run = AdcnnSim::new(cfg.clone()).run();
    // No-adaptation control: identical throttling, static equal allocation.
    // Drop the sink so the control run does not pollute the adaptive
    // run's counters.
    let mut static_cfg = cfg;
    static_cfg.adaptive = false;
    static_cfg.sink = SinkHandle::null();
    let static_run = AdcnnSim::new(static_cfg).run();

    let mean = |range: std::ops::Range<usize>| {
        let xs = &run.images[range];
        xs.iter().map(|i| i.latency_s).sum::<f64>() / xs.len() as f64 * 1e3
    };
    let before = mean(20..throttle_img);
    let spike = mean(throttle_img..throttle_img + 6);
    let recovered = mean(images - 20..images);
    let alloc_before = run.images[throttle_img - 2].alloc.clone();
    let alloc_after = run.images[images - 1].alloc.clone();
    let drops: u32 = run.images[throttle_img..throttle_img + 15].iter().map(|i| i.dropped).sum();
    let redispatched: u32 =
        run.images[throttle_img..throttle_img + 15].iter().map(|i| i.redispatched).sum();
    let steady = |r: &[adcnn_netsim::ImageStats]| {
        let tail = &r[images - 20..];
        tail.iter().map(|i| i.dropped as f64).sum::<f64>() / tail.len() as f64
    };
    let steady_re = |r: &[adcnn_netsim::ImageStats]| {
        let tail = &r[images - 20..];
        tail.iter().map(|i| i.redispatched as f64).sum::<f64>() / tail.len() as f64
    };
    let steady_adaptive = steady(&run.images);
    let steady_static = steady(&static_run.images);
    let steady_re_adaptive = steady_re(&run.images);
    let steady_re_static = steady_re(&static_run.images);
    let static_lat =
        static_run.images[images - 20..].iter().map(|i| i.latency_s).sum::<f64>() / 20.0 * 1e3;

    let timeline: Vec<(usize, f64)> =
        run.images.iter().enumerate().step_by(5).map(|(i, s)| (i, s.latency_s * 1e3)).collect();

    print_table(
        "Figure 15 — latency timeline (every 5th image)",
        &["image", "latency (ms)"],
        &timeline.iter().map(|(i, l)| vec![i.to_string(), format!("{l:.1}")]).collect::<Vec<_>>(),
    );
    print_table(
        "Figure 15(c) — tile allocation per node",
        &["when", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"],
        &[
            std::iter::once("before".to_string())
                .chain(alloc_before.iter().map(|x| x.to_string()))
                .collect::<Vec<_>>(),
            std::iter::once("after".to_string())
                .chain(alloc_after.iter().map(|x| x.to_string()))
                .collect::<Vec<_>>(),
        ],
    );
    println!(
        "latency: {before:.1} ms -> spike {spike:.1} ms -> recovered {recovered:.1} ms \
         (paper: 241 -> 392 -> 351); transition: {drops} drops, {redispatched} tile \
         re-dispatches"
    );
    println!(
        "adaptation benefit: steady drops/image {steady_adaptive:.1} + re-dispatches \
         {steady_re_adaptive:.1} (adaptive) vs {steady_static:.1} + {steady_re_static:.1} \
         (static allocation at {static_lat:.1} ms) — with the lifecycle manager a \
         straggler costs recovery latency instead of accuracy; Algorithms 2+3 \
         eliminate even that steady-state recovery traffic"
    );
    let snap = metrics.snapshot();
    println!(
        "observability (adaptive run): {} tiles dispatched + {} re-dispatched, {} arrived \
         ({} late, {} zero-filled); {} deadlines fired; {} rate updates; mean compute \
         {:.1} us, mean transfer {:.1} us over {} spans",
        snap.tiles_dispatched,
        snap.tiles_redispatched,
        snap.tiles_arrived,
        snap.tiles_late,
        snap.tiles_zero_filled,
        snap.deadlines_fired,
        snap.rate_updates,
        snap.compute_us.mean().unwrap_or(0.0),
        snap.transfer_us.mean().unwrap_or(0.0),
        snap.compute_us.count,
    );
    // Live-reporting view of the same snapshot (rates over simulated time),
    // plus the attribution/forensics the throttled phase produced.
    let live = Reporter::new().sample(&snap, run.sim_end_s);
    println!("{}", live.line());
    let agg = attribution.aggregate();
    let dumps = recorder.reports();
    println!(
        "attribution: {} images folded, mean latency {:.1} ms, critical-path queue/compute/\
         transfer {:.1}/{:.1}/{:.1} ms total; {} forensic dumps filed",
        agg.images,
        agg.mean_latency_s().unwrap_or(0.0) * 1e3,
        agg.queue_wait_s * 1e3,
        agg.compute_s * 1e3,
        agg.transfer_s * 1e3,
        dumps.len(),
    );
    // Pipeline depth sweep on the serving cluster: images/s must scale
    // with the admission window while the per-image tail stays flat.
    let sweep: Vec<DepthPoint> = [1usize, 2, 4, 8].iter().map(|&d| depth_point(d)).collect();
    print_table(
        "Pipeline depth sweep — serving cluster (16 Pi + GPU Central, Wi-Fi 6)",
        &["depth", "images/s", "p50 (ms)", "p99 (ms)", "zero-fill"],
        &sweep
            .iter()
            .map(|p| {
                vec![
                    p.depth.to_string(),
                    format!("{:.2}", p.images_per_s),
                    format!("{:.1}", p.p50_latency_us / 1e3),
                    format!("{:.1}", p.p99_latency_us / 1e3),
                    format!("{:.4}", p.zero_fill_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let d1 = &sweep[0];
    let d4 = sweep.iter().find(|p| p.depth == 4).expect("sweep includes depth 4");
    let speedup = d4.images_per_s / d1.images_per_s;
    let p99_ratio = d4.p99_latency_us / d1.p99_latency_us;
    println!(
        "depth 4 vs depth 1: {speedup:.2}x images/s, p99 {p99_ratio:.2}x, zero-fill \
         {:.4} -> {:.4}",
        d1.zero_fill_rate, d4.zero_fill_rate
    );
    assert!(
        speedup >= 2.5,
        "pipeline depth 4 must deliver >= 2.5x the depth-1 throughput, got {speedup:.2}x"
    );
    assert!(
        p99_ratio <= 1.5,
        "pipeline depth 4 must keep p99 within 1.5x of depth 1, got {p99_ratio:.2}x"
    );
    assert!(
        (d4.zero_fill_rate - d1.zero_fill_rate).abs() < 1e-12,
        "deepening the window must not change the zero-fill rate: {} vs {}",
        d1.zero_fill_rate,
        d4.zero_fill_rate
    );

    // The stable flat schema `results/BENCH_runtime.json` accumulates across
    // PRs — the runtime perf trajectory, read straight off the adaptive
    // run's `MetricsSnapshot`. Field names are load-bearing: downstream
    // tooling diffs them release over release. The flat fields stay the
    // depth-1 adaptive run (comparable back to the pre-pipeline baselines);
    // `depth_sweep` records the admission-window scaling on the serving
    // cluster.
    emit_json(
        "BENCH_runtime",
        &Obj::new()
            .u64("images", live.images)
            .f64("images_per_s", live.images_per_s)
            .f64("p50_latency_us", live.p50_latency_us.unwrap_or(0.0))
            .f64("p99_latency_us", live.p99_latency_us.unwrap_or(0.0))
            .f64("zero_fill_rate", live.zero_fill_rate)
            .f64("redispatch_rate", live.redispatch_rate)
            .f64("compressed_bytes_per_tile", snap.compressed_tile_bytes.mean().unwrap_or(0.0))
            .raw("depth_sweep", array(sweep.iter().map(DepthPoint::to_json)))
            .finish(),
    );
    let allocs = |a: &[u32]| array(a.iter().map(u32::to_string));
    emit_json(
        "fig15_dynamic_adaptation",
        &Obj::new()
            .u64("throttle_at_image", throttle_img as u64)
            .f64("latency_before_ms", before)
            .f64("latency_spike_ms", spike)
            .f64("latency_recovered_ms", recovered)
            .raw("alloc_before", allocs(&alloc_before))
            .raw("alloc_after", allocs(&alloc_after))
            .u64("drops_during_transition", drops.into())
            .u64("redispatched_during_transition", redispatched.into())
            .f64("steady_drops_per_image_adaptive", steady_adaptive)
            .f64("steady_drops_per_image_static", steady_static)
            .f64("steady_redispatched_per_image_adaptive", steady_re_adaptive)
            .f64("steady_redispatched_per_image_static", steady_re_static)
            .f64("static_latency_ms", static_lat)
            .raw("timeline", array(timeline.iter().map(|&(i, l)| array([i.to_string(), num(l)]))))
            .raw("metrics", snap.to_json())
            .raw("attribution", agg.to_json())
            .u64("forensic_dumps", dumps.len() as u64)
            .finish(),
    );
}
