//! Figure 13: scalability of ADCNN on VGG16 — speedup over single device,
//! plus per-Conv-node energy and memory, as the cluster grows from 2 to 8
//! nodes. The paper reports 1.8×→6.2× speedup with diminishing returns,
//! and falling per-node energy/memory.

use adcnn_bench::{emit_json, ms, print_table, times};
use adcnn_core::obs::json::{array, Obj};
use adcnn_netsim::power::{
    conv_node_memory_bytes, node_energy, single_device_energy_per_image, single_device_memory_bytes,
};
use adcnn_netsim::{AdcnnSim, AdcnnSimConfig};
use adcnn_nn::cost::{model_time_s, DeviceProfile};
use adcnn_nn::zoo;

fn main() {
    let m = zoo::vgg16();
    let pi = DeviceProfile::raspberry_pi3();
    let single_latency = model_time_s(&m, &pi);
    let single_energy = single_device_energy_per_image(&pi, single_latency);
    let single_mem = single_device_memory_bytes(&m) as f64 / 1e6;

    let (mut rows, mut table) = (Vec::new(), Vec::new());
    for k in [2usize, 4, 6, 8] {
        let mut cfg = AdcnnSimConfig::paper_testbed(m.clone(), k);
        cfg.images = 30;
        cfg.pipeline_depth = 1;
        let sim = AdcnnSim::new(cfg.clone()).run();
        let latency = sim.steady_latency_s();
        let mut deep = cfg;
        deep.prefix = m.blocks.len();
        let deep_latency = AdcnnSim::new(deep).run().steady_latency_s();
        // energy of one (representative) Conv node over the run
        let busy = sim.node_busy_s[0];
        let e = node_energy(&pi, busy, sim.total_time_s, sim.images.len());
        // memory: tiles held per node in steady state
        let tiles_held = sim.images.last().unwrap().alloc[0];
        let mem = conv_node_memory_bytes(&m, m.separable_prefix, 64, tiles_held) as f64 / 1e6;
        rows.push(
            Obj::new()
                .u64("nodes", k as u64)
                .f64("latency_ms", latency * 1e3)
                .f64("deep_latency_ms", deep_latency * 1e3)
                .f64("speedup", single_latency / latency)
                .f64("deep_speedup", single_latency / deep_latency)
                .f64("energy_per_image_j", e.per_image_j)
                .f64("node_memory_mb", mem)
                .finish(),
        );
        table.push(vec![
            k.to_string(),
            ms(latency),
            times(single_latency / latency),
            ms(deep_latency),
            times(single_latency / deep_latency),
            format!("{:.2}", e.per_image_j),
            format!("{mem:.1}"),
        ]);
    }

    print_table(
        &format!(
            "Figure 13 — VGG16 scalability (single device: {:.0} ms, {:.1} J/img, {:.0} MB)",
            single_latency * 1e3,
            single_energy,
            single_mem
        ),
        &[
            "Conv nodes",
            "latency (ms)",
            "speedup",
            "deep latency (ms)",
            "deep speedup",
            "energy/img (J)",
            "node mem (MB)",
        ],
        &table,
    );
    println!(
        "paper: speedup 1.8x -> 6.2x from 2 -> 8 nodes with diminishing growth; \
         per-node energy and memory decrease with cluster size"
    );
    emit_json("fig13_scalability", &array(rows));
}
