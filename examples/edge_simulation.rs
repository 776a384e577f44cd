//! Raspberry-Pi-cluster simulation walkthrough: evaluate the full ADCNN
//! system at the paper's testbed scale (which a laptop cannot host
//! physically) and compare against every baseline scheme on one model.
//!
//! ```sh
//! cargo run --release --example edge_simulation [vgg16|resnet34|yolo|fcn|charcnn]
//! ```

use adcnn::core::obs::{MetricsSink, SinkHandle};
use adcnn::core::report::Reporter;
use adcnn::netsim::schemes::{aofl, neurosurgeon, remote_cloud, single_device};
use adcnn::netsim::{AdcnnSim, AdcnnSimConfig, LinkParams};
use adcnn::nn::cost::DeviceProfile;
use adcnn::nn::zoo;
use std::sync::Arc;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "vgg16".to_string());
    let model = zoo::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown model {name:?}; try vgg16 / resnet34 / yolo / fcn / charcnn");
        std::process::exit(1);
    });
    println!(
        "model: {} — {:.1} GFLOPs, input {:?}, separable prefix {} of {} blocks, grid {:?}",
        model.name,
        model.total_flops() as f64 / 1e9,
        model.input,
        model.separable_prefix,
        model.blocks.len(),
        model.default_grid,
    );

    let pi = DeviceProfile::raspberry_pi3();
    let v100 = DeviceProfile::cloud_v100();

    // ADCNN on 8 simulated Pi Conv nodes, with the metrics sink attached —
    // the simulator emits the same observability schema as the real
    // runtime, so the same Reporter/Prometheus plumbing reads it.
    let metrics = Arc::new(MetricsSink::new());
    let cfg = AdcnnSimConfig {
        images: 30,
        pipeline_depth: 1,
        sink: SinkHandle::new(metrics.clone()),
        ..AdcnnSimConfig::paper_testbed(model.clone(), 8)
    };
    let run = AdcnnSim::new(cfg).run();
    println!("\nADCNN (8 Conv nodes, 87.72 Mbps WiFi):");
    println!("  latency        {:>8.1} ms", run.steady_latency_s() * 1e3);
    println!("  transmission   {:>8.1} ms", run.mean_transmission_s * 1e3);
    println!("  computation    {:>8.1} ms", run.mean_computation_s * 1e3);
    println!("  channel load   {:>8.1} %", run.channel_utilization * 100.0);
    let live = Reporter::new().sample(&metrics.snapshot(), run.sim_end_s);
    println!("  live view      {}", live.line());

    println!("\nbaselines:");
    for r in [
        single_device(&model, &pi),
        remote_cloud(&model, &v100, LinkParams::cloud_uplink()),
        neurosurgeon(&model, &pi, &v100, LinkParams::cloud_uplink()),
        aofl(&model, 8, &pi, LinkParams::wifi_fast()),
    ] {
        println!(
            "  {:<14} {:>8.1} ms  ({} compute, {} transfer)  [{}]",
            r.scheme,
            r.latency_s * 1e3,
            format_ms(r.computation_s),
            format_ms(r.transmission_s),
            r.detail
        );
    }

    let single = single_device(&model, &pi).latency_s;
    println!(
        "\nADCNN speedup over single device: {:.2}x (paper's Figure 11 average: 6.68x; \
         see EXPERIMENTS.md for the factor discussion)",
        single / run.steady_latency_s()
    );
}

fn format_ms(s: f64) -> String {
    format!("{:.1} ms", s * 1e3)
}
