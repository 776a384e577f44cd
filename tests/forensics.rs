//! End-to-end forensic-observability contract, on both drivers:
//!
//! (a) every zero-filled tile in a fault-injected run yields a
//!     [`ForensicReport`](adcnn::core::report::ForensicReport) naming the
//!     tile, its owning worker, the re-dispatch rounds consumed and the
//!     deadline/timer values in force, and
//! (b) the per-image attribution phase sums are within tolerance of the
//!     measured wall-clock image latency (the lifecycle span excludes the
//!     Central suffix forward, which the drivers account separately).

use adcnn::core::fdsp::TileGrid;
use adcnn::core::obs::{json, SinkHandle};
use adcnn::core::report::{Anomaly, AttributionSink, FlightRecorderSink, ImageReport};
use adcnn::core::ClippedRelu;
use adcnn::netsim::{AdcnnSim, AdcnnSimConfig, ThrottleSchedule};
use adcnn::nn::layer::QuantizeSte;
use adcnn::nn::small::shapes_cnn;
use adcnn::nn::zoo;
use adcnn::retrain::PartitionedModel;
use adcnn::runtime::{AdcnnRuntime, LifecyclePolicy, RuntimeConfig, WorkerOptions};
use adcnn::tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

fn build_model(seed: u64, grid: TileGrid) -> PartitionedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let cr = ClippedRelu::new(0.0, 2.0);
    PartitionedModel::fdsp(shapes_cnn(6, &mut rng), grid)
        .with_crelu(cr)
        .with_quant(QuantizeSte::new(4, cr.range()))
}

fn rand_image(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn([1, 3, 32, 32], 0.5, &mut rng)
}

/// Shared per-report checks: every zero-filled tile must map to a
/// well-formed forensic dump naming tile / owner / rounds / deadline.
fn check_forensics(report: &ImageReport, recorder: &FlightRecorderSink, owner: u32) {
    for t in report.tiles.iter().filter(|t| t.zero_filled) {
        let f = recorder
            .report_for_tile(report.image, t.tile)
            .unwrap_or_else(|| panic!("zero-filled tile {} has no forensic dump", t.tile));
        assert_eq!(f.trigger, Anomaly::ZeroFill);
        assert_eq!(f.image, report.image);
        assert_eq!(f.tile, Some(t.tile));
        assert_eq!(f.worker, Some(owner), "dump must name the owning worker");
        assert_eq!(f.rounds, t.rounds, "dump must name the re-dispatch rounds consumed");
        assert!(f.deadline_at.is_some(), "dump must carry the deadline in force");
        assert!(f.deadline_span.is_some(), "dump must carry the timer span in force");
        assert!(!f.events.is_empty(), "dump must snapshot the surrounding events");
        let js = f.to_json();
        assert!(json::is_well_formed(&js), "malformed forensic JSON: {js}");
    }
}

/// The critical tile's phase decomposition plus merge must reproduce the
/// image latency exactly when the critical tile went out in round 0 (no
/// re-dispatch in these zero-fill runs).
fn check_decomposition(report: &ImageReport) {
    let crit = report.critical().expect("finished image must name a critical tile");
    assert_eq!(crit.rounds, 0, "zero-fill runs never re-dispatch");
    let attributed = crit.total_s() + report.merge_s;
    assert!(
        (attributed - report.latency_s).abs() < 1e-6,
        "phase sums ({attributed}) must reproduce the image latency ({})",
        report.latency_s
    );
}

#[test]
fn runtime_zero_fills_yield_forensics_and_consistent_attribution() {
    // The paper's pure zero-fill policy with a silent worker: every one of
    // worker 1's tiles is dropped at the deadline.
    let grid = TileGrid::new(4, 4);
    let model = build_model(9, grid);
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(0), ..Default::default() },
    ];
    let recorder = Arc::new(FlightRecorderSink::new(1024));
    let attr = Arc::new(AttributionSink::new());
    let cfg = RuntimeConfig {
        policy: LifecyclePolicy { t_l: 0.050, max_redispatch_rounds: 0, ..Default::default() },
        sink: SinkHandle::new(recorder.clone()),
        attribution: Some(attr.clone()),
        ..Default::default()
    };
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg);
    let out = rt.infer(&rand_image(1));
    rt.shutdown();

    assert!(out.zero_filled > 0, "fault injection must actually drop tiles");
    let report = out.report.expect("attribution was enabled");
    assert_eq!(report.zero_filled, out.zero_filled);
    let zf = report.tiles.iter().filter(|t| t.zero_filled).count() as u32;
    assert_eq!(zf, out.zero_filled, "report must name every zero-filled tile");

    check_forensics(&report, &recorder, 1);
    check_decomposition(&report);

    // The lifecycle latency is the wall-clock latency minus the Central
    // suffix forward (plus scheduling noise): never larger, close below.
    let wall = out.latency.as_secs_f64();
    assert!(report.latency_s <= wall + 1e-6, "{} > {wall}", report.latency_s);
    assert!(wall - report.latency_s < 0.5, "attribution lost {}s", wall - report.latency_s);

    // The same image is retrievable from the shared sink handle, and the
    // run aggregate folded it.
    assert_eq!(attr.report_for(report.image), Some(report));
    assert_eq!(attr.aggregate().zero_filled, out.zero_filled as u64);
}

#[test]
fn runtime_deep_pipeline_attribution_reconciles_per_image() {
    // Four images in flight at once over a silently failing worker: each
    // image's phase sums must reconcile with *its own* wall-clock latency,
    // and every zero-filled tile's forensic dump must name the image that
    // actually lost it — overlap must not bleed attribution across images.
    let grid = TileGrid::new(4, 4);
    let model = build_model(9, grid);
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(0), ..Default::default() },
    ];
    let recorder = Arc::new(FlightRecorderSink::new(4096));
    let attr = Arc::new(AttributionSink::new());
    let cfg = RuntimeConfig {
        policy: LifecyclePolicy { t_l: 0.050, max_redispatch_rounds: 0, ..Default::default() },
        pipeline_depth: 4,
        intake_cap: 8,
        sink: SinkHandle::new(recorder.clone()),
        attribution: Some(attr.clone()),
        ..Default::default()
    };
    let rt = AdcnnRuntime::launch(model, &opts, cfg);
    let handles: Vec<_> = (0..6).map(|i| rt.submit(&rand_image(i + 1))).collect();
    // Wait in reverse submission order: completion resolution must not
    // depend on the order handles are consumed.
    let mut outs: Vec<_> = handles.into_iter().rev().map(|h| h.wait()).collect();
    outs.sort_by_key(|o| o.image);
    rt.shutdown();

    // The first image predates any EWMA learning, so it must allocate to
    // (and lose tiles on) the silently dead worker. Later images may
    // legitimately starve it to zero tiles — that is Algorithm 2 working,
    // not the fault injection failing.
    assert!(outs[0].zero_filled > 0, "image 0: fault injection must drop tiles");
    let mut total_zf = 0u64;
    for out in &outs {
        total_zf += out.zero_filled as u64;
        let report = out.report.as_ref().expect("attribution was enabled");
        assert_eq!(report.image, out.image, "report attributed to the wrong image");
        let zf = report.tiles.iter().filter(|t| t.zero_filled).count() as u32;
        assert_eq!(zf, out.zero_filled, "image {}: report must name every drop", out.image);
        check_forensics(report, &recorder, 1);
        check_decomposition(report);
        // Reconcile against this image's own wall clock (measured from
        // admission, so queue wait never inflates a neighbour's phases).
        let wall = out.latency.as_secs_f64();
        assert!(report.latency_s <= wall + 1e-6, "{} > {wall}", report.latency_s);
        assert!(wall - report.latency_s < 0.5, "attribution lost {}s", wall - report.latency_s);
        assert_eq!(attr.report_for(out.image).as_ref(), Some(report));
    }
    // The aggregate folded exactly the six images — nothing double-counted
    // across the overlapping lifecycles.
    assert_eq!(attr.reports().len(), 6);
    assert_eq!(attr.aggregate().zero_filled, total_zf);
}

#[test]
fn netsim_deep_pipeline_attribution_reconciles_per_image() {
    // The simulator's mirror of the deep-pipeline contract: window of 4
    // images over a dead node, every report reconciling against its own
    // simulated wall clock. Reports and image stats are both in
    // completion order, so they zip.
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 4);
    cfg.images = 8;
    cfg.pipeline_depth = 4;
    cfg.policy.max_redispatch_rounds = 0;
    cfg.nodes[3].throttle = ThrottleSchedule::throttle_at(0.0, 0.0);
    let recorder = Arc::new(FlightRecorderSink::new(8192));
    let attr = Arc::new(AttributionSink::new());
    cfg.sink = SinkHandle::new(recorder.clone()).tee(attr.clone());
    let s = AdcnnSim::new(cfg).run();

    assert!(s.images.iter().any(|i| i.dropped > 0), "dead node must cause drops");
    let reports = attr.reports();
    assert_eq!(reports.len(), 8, "one report per simulated image");
    let mut seen = std::collections::HashSet::new();
    for (report, img) in reports.iter().zip(&s.images) {
        assert!(seen.insert(report.image), "image {} attributed twice", report.image);
        let zf = report.tiles.iter().filter(|t| t.zero_filled).count() as u32;
        assert_eq!(zf, img.dropped, "image {}: report must name its own drops", report.image);
        check_forensics(report, &recorder, 3);
        if zf > 0 {
            check_decomposition(report);
        }
        assert!(report.latency_s <= img.latency_s + 1e-9);
        // The unattributed tail is the Central suffix plus central-CPU
        // queueing: with a window of 4 this image's suffix can wait behind
        // up to three neighbours' suffixes (partition work shares the same
        // FIFO but is a comparatively tiny memcpy).
        assert!(
            img.latency_s - report.latency_s <= 4.0 * img.suffix_s + 0.01,
            "image {}: unattributed gap {} exceeds the windowed suffix bound {}",
            report.image,
            img.latency_s - report.latency_s,
            4.0 * img.suffix_s
        );
    }
}

#[test]
fn netsim_zero_fills_yield_forensics_and_consistent_attribution() {
    // Same contract over the simulator: node 3 dies at t=0 under the pure
    // zero-fill policy, in virtual time.
    let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 4);
    cfg.images = 6;
    cfg.pipeline_depth = 1;
    cfg.policy.max_redispatch_rounds = 0;
    cfg.nodes[3].throttle = ThrottleSchedule::throttle_at(0.0, 0.0);
    let recorder = Arc::new(FlightRecorderSink::new(4096));
    let attr = Arc::new(AttributionSink::new());
    cfg.sink = SinkHandle::new(recorder.clone()).tee(attr.clone());
    let s = AdcnnSim::new(cfg).run();

    assert!(s.images.iter().any(|i| i.dropped > 0), "dead node must cause drops");
    let reports = attr.reports();
    assert_eq!(reports.len(), 6, "one report per simulated image");
    for (report, img) in reports.iter().zip(&s.images) {
        let zf = report.tiles.iter().filter(|t| t.zero_filled).count() as u32;
        assert_eq!(zf, img.dropped, "image {}: report must name every drop", report.image);
        check_forensics(report, &recorder, 3);
        if zf > 0 {
            check_decomposition(report);
        }
        // Simulated wall clock = lifecycle span + Central suffix.
        assert!(report.latency_s <= img.latency_s + 1e-9);
        assert!(
            img.latency_s - report.latency_s <= img.suffix_s + 1e-6,
            "image {}: unattributed gap {} exceeds the suffix {}",
            report.image,
            img.latency_s - report.latency_s,
            img.suffix_s
        );
    }
}

/// The merge phase is the suffix interval: the lifecycle finishes an
/// image when its last tile lands, the driver runs the suffix network
/// after that and retires the image before the caller reads the report.
#[test]
fn runtime_merge_phase_covers_the_suffix() {
    let attr = Arc::new(AttributionSink::new());
    let cfg = RuntimeConfig { attribution: Some(attr.clone()), ..Default::default() };
    let mut rt = AdcnnRuntime::launch(
        build_model(9, TileGrid::new(2, 2)),
        &[WorkerOptions::default(); 2],
        cfg,
    );
    let out = rt.infer(&rand_image(1));
    rt.shutdown();

    let report = out.report.expect("attribution was enabled");
    assert!(report.merge_s > 0.0, "the suffix forward takes time: merge_s = {}", report.merge_s);
    let wall = out.latency.as_secs_f64();
    assert!(report.merge_s <= wall, "merge {} exceeds the image's latency {wall}", report.merge_s);
    let agg = attr.aggregate();
    assert!((agg.merge_s - report.merge_s).abs() < 1e-12, "the aggregate follows the amendment");
    assert!((agg.latency_s - report.latency_s).abs() < 1e-12);
}

#[test]
fn netsim_merge_phase_is_the_suffix_interval() {
    for depth in [1, 3] {
        let mut cfg = AdcnnSimConfig::paper_testbed(zoo::vgg16(), 4);
        cfg.images = 6;
        cfg.pipeline_depth = depth;
        let attr = Arc::new(AttributionSink::new());
        cfg.sink = SinkHandle::new(attr.clone());
        let s = AdcnnSim::new(cfg).run();

        let reports = attr.reports();
        assert_eq!(reports.len(), 6);
        for (report, img) in reports.iter().zip(&s.images) {
            assert!(img.suffix_s > 0.0);
            if depth == 1 {
                // Nothing else is on the Central CPU: the suffix starts
                // the instant the last tile lands.
                assert!(
                    (report.merge_s - img.suffix_s).abs() < 1e-9,
                    "image {}: merge {} vs suffix {}",
                    report.image,
                    report.merge_s,
                    img.suffix_s
                );
            } else {
                // The suffix can queue behind another image's partition
                // work on the Central CPU.
                assert!(report.merge_s >= img.suffix_s - 1e-9, "image {}", report.image);
                assert!(report.merge_s <= img.latency_s + 1e-9, "image {}", report.image);
            }
        }
    }
}
