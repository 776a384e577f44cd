//! Heterogeneous edge cluster (the paper's §7.3 scenario, live): four Conv
//! nodes of different speeds, one of which crashes mid-run. Watch Algorithm
//! 2's statistics converge and Algorithm 3 shift tiles to the fast nodes,
//! then route around the dead one — with the full forensic-observability
//! stack attached: Chrome trace + metrics + per-image attribution + flight
//! recorder, all tee'd onto one sink handle.
//!
//! ```sh
//! cargo run --release --example heterogeneous_cluster
//! ```

use adcnn::core::fdsp::TileGrid;
use adcnn::core::obs::{json, MetricsSink, RecordingSink};
use adcnn::core::report::{AttributionSink, FlightRecorderSink, Reporter};
use adcnn::core::ClippedRelu;
use adcnn::nn::layer::QuantizeSte;
use adcnn::nn::small::shapes_cnn;
use adcnn::retrain::data::{shapes, SHAPE_CLASSES};
use adcnn::retrain::PartitionedModel;
use adcnn::runtime::{AdcnnRuntime, LifecyclePolicy, RuntimeConfig, SinkHandle, WorkerOptions};
use adcnn::tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // An (untrained) model is fine here — this example demonstrates the
    // *system* behaviour: scheduling, adaptation, fault tolerance.
    let mut rng = StdRng::seed_from_u64(3);
    let cr = ClippedRelu::new(0.0, 2.0);
    let model = PartitionedModel::fdsp(shapes_cnn(SHAPE_CLASSES, &mut rng), TileGrid::new(4, 4))
        .with_crelu(cr)
        .with_quant(QuantizeSte::new(4, cr.range()));

    // Node 0-1: fast. Node 2: 3x slower than T_L allows, so its stragglers
    // miss the window. Node 3: dies after 12 tiles and drops its channel,
    // so supervision detects the death (and the flight recorder dumps it).
    let workers = [
        WorkerOptions::default(),
        WorkerOptions::default(),
        WorkerOptions { artificial_delay: Duration::from_millis(90), ..Default::default() },
        WorkerOptions {
            fail_after_tiles: Some(12),
            disconnect_on_fail: true,
            ..Default::default()
        },
    ];
    // The full observability stack on one handle: a Chrome/Perfetto trace
    // of the whole run, live metrics counters/histograms, and the flight
    // recorder that files forensic dumps when the crash bites. Per-image
    // critical-path attribution rides the same stream via the config.
    let trace = Arc::new(RecordingSink::new());
    let metrics = Arc::new(MetricsSink::new());
    let recorder = Arc::new(FlightRecorderSink::new(2048));
    let attribution = Arc::new(AttributionSink::new());
    let cfg = RuntimeConfig {
        policy: LifecyclePolicy { t_l: 0.040, ..Default::default() },
        sink: SinkHandle::new(trace.clone()).tee(metrics.clone()).tee(recorder.clone()),
        attribution: Some(attribution.clone()),
        ..Default::default()
    };
    let mut rt = AdcnnRuntime::launch(model, &workers, cfg);

    let data = shapes(1, 24, 32, 9);
    let dims = data.test_x.dims().to_vec();
    let stride: usize = dims[1..].iter().product();

    let mut reporter = Reporter::new();
    let mut window_start = Instant::now();
    println!("img | alloc (n0 n1 n2 n3) | received      | zeroed | critical   | speeds s_k");
    println!("----+---------------------+---------------+--------+------------+-----------");
    for i in 0..24.min(data.test_len()) {
        let img = Tensor::from_vec(
            [1, dims[1], dims[2], dims[3]],
            data.test_x.as_slice()[i * stride..(i + 1) * stride].to_vec(),
        );
        let out = rt.infer(&img);
        let speeds: Vec<String> = rt.speeds().iter().map(|s| format!("{s:.1}")).collect();
        let critical = out.report.as_ref().map(|r| r.dominant_phase.as_str()).unwrap_or("-");
        println!(
            "{i:>3} | {:>4} {:>4} {:>4} {:>4} | {:>3} {:>3} {:>3} {:>3} | {:>6} | {critical:>10} | {}",
            out.alloc[0],
            out.alloc[1],
            out.alloc[2],
            out.alloc[3],
            out.received[0],
            out.received[1],
            out.received[2],
            out.received[3],
            out.zero_filled,
            speeds.join(" ")
        );
        // Live reporting: throughput / quantiles / loss rates over the
        // last window, diffed from successive metrics snapshots.
        if (i + 1) % 8 == 0 {
            let sample = reporter.sample(&metrics.snapshot(), window_start.elapsed().as_secs_f64());
            println!("    > {}", sample.line());
            window_start = Instant::now();
        }
    }

    let final_alloc = {
        let img = Tensor::zeros([1, dims[1], dims[2], dims[3]]);
        rt.infer(&img).alloc
    };
    println!("\nfinal allocation: {final_alloc:?}");
    assert_eq!(final_alloc[3], 0, "the dead node should be starved by now");
    println!(
        "node 3 (crashed) receives no tiles; node 2 (slow) holds fewer than the fast nodes — \
         exactly the §7.3 behaviour."
    );
    rt.shutdown();

    std::fs::create_dir_all("results").expect("create results dir");

    let trace_path = "results/heterogeneous_cluster_trace.json";
    match trace.write_chrome_json(trace_path) {
        Ok(()) => println!(
            "wrote {} trace events to {trace_path} (open in chrome://tracing or ui.perfetto.dev)",
            trace.events().len()
        ),
        Err(e) => eprintln!("could not write {trace_path}: {e}"),
    }

    // Prometheus exposition of the final counters.
    let prom = metrics.snapshot().to_prometheus();
    let prom_path = "results/heterogeneous_cluster_metrics.prom";
    std::fs::write(prom_path, &prom).expect("write metrics");
    println!("wrote {} metric lines to {prom_path}", prom.lines().count());

    // Per-image attribution: the run aggregate (the paper's Table 3
    // decomposition, measured online) plus every retained ImageReport.
    let agg = attribution.aggregate();
    let attr_json = json::Obj::new()
        .raw("aggregate", agg.to_json())
        .raw("images", json::array(attribution.reports().iter().map(|r| r.to_json())))
        .finish();
    assert!(json::is_well_formed(&attr_json), "malformed attribution JSON");
    let attr_path = "results/heterogeneous_cluster_attribution.json";
    std::fs::write(attr_path, &attr_json).expect("write attribution");
    println!(
        "wrote {} image reports to {attr_path} (critical-path queue/compute/compress/transfer \
         {:.1}/{:.1}/{:.1}/{:.1} ms over the run)",
        agg.images,
        agg.queue_wait_s * 1e3,
        agg.compute_s * 1e3,
        agg.compress_s * 1e3,
        agg.transfer_s * 1e3,
    );

    // Forensic dumps the crash and the slow node provoked: every anomaly
    // names its image/tile/worker and the deadline in force, with the
    // surrounding flight-recorder window attached.
    let dumps = recorder.reports();
    assert!(!dumps.is_empty(), "the detected worker death must file a forensic dump");
    let forensic_json = json::array(dumps.iter().map(|f| f.to_json()));
    assert!(json::is_well_formed(&forensic_json), "malformed forensic JSON");
    let forensic_path = "results/heterogeneous_cluster_forensics.json";
    std::fs::write(forensic_path, &forensic_json).expect("write forensics");
    println!(
        "wrote {} forensic dumps to {forensic_path} ({} events in the flight recorder)",
        dumps.len(),
        recorder.events().len()
    );
}
