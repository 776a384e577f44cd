//! Table 3: latency breakdown (input/output transmission vs computation)
//! of ADCNN, single-device and remote-cloud on VGG16.

use adcnn_bench::{emit_json, ms, print_table};
use adcnn_core::obs::json::{array, Obj};
use adcnn_netsim::schemes::{remote_cloud, single_device};
use adcnn_netsim::{AdcnnSim, AdcnnSimConfig, LinkParams};
use adcnn_nn::cost::DeviceProfile;
use adcnn_nn::zoo;

fn main() {
    let m = zoo::vgg16();
    let mut cfg = AdcnnSimConfig::paper_testbed(m.clone(), 8);
    cfg.images = 40;
    cfg.pipeline_depth = 1;
    let sim = AdcnnSim::new(cfg).run();
    let single = single_device(&m, &DeviceProfile::raspberry_pi3());
    let cloud = remote_cloud(&m, &DeviceProfile::cloud_v100(), LinkParams::cloud_uplink());

    // scheme, measured transmission / computation (s), the paper's (ms)
    let rows = [
        ("ADCNN", sim.mean_transmission_s, sim.mean_computation_s, 37.14, 202.88),
        ("Single-device", single.transmission_s, single.computation_s, 0.0, 1586.53),
        ("Remote-cloud", cloud.transmission_s, cloud.computation_s, 502.21, 98.94),
    ];

    print_table(
        "Table 3 — VGG16 latency breakdown (measured | paper)",
        &["scheme", "transmission (ms)", "computation (ms)", "paper trans", "paper comp"],
        &rows
            .iter()
            .map(|&(scheme, t, c, paper_t, paper_c)| {
                vec![scheme.to_string(), ms(t), ms(c), ms(paper_t / 1e3), ms(paper_c / 1e3)]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "shape checks: ADCNN transmission < cloud transmission: {} | single compute is largest: {}",
        sim.mean_transmission_s < cloud.transmission_s,
        single.computation_s > sim.mean_computation_s && single.computation_s > cloud.computation_s,
    );
    emit_json(
        "table3_breakdown",
        &array(rows.iter().map(|&(scheme, t, c, paper_t, paper_c)| {
            Obj::new()
                .str("scheme", scheme)
                .f64("transmission_ms", t * 1e3)
                .f64("computation_ms", c * 1e3)
                .f64("paper_transmission_ms", paper_t)
                .f64("paper_computation_ms", paper_c)
                .finish()
        })),
    );
}
