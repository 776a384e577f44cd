//! Figure 11: end-to-end inference latency of ADCNN (8 Conv nodes) versus
//! the single-device and remote-cloud schemes, for all five CNNs.
//!
//! Paper's claims: ADCNN wins everywhere; on average 6.68× over single
//! device and 4.42× over remote cloud. (Our calibrated reproduction keeps
//! the ordering; the factors are smaller because the paper's own numbers
//! are not reachable from its stated 7-block VGG16 split — see
//! EXPERIMENTS.md.)

use adcnn_bench::{emit_json, ms, print_table, times};
use adcnn_core::obs::json::{array, Obj};
use adcnn_netsim::schemes::{remote_cloud, single_device};
use adcnn_netsim::{AdcnnSim, AdcnnSimConfig, LinkParams};
use adcnn_nn::cost::DeviceProfile;
use adcnn_nn::zoo;

fn geo_mean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn main() {
    let pi = DeviceProfile::raspberry_pi3();
    let v100 = DeviceProfile::cloud_v100();
    let (mut rows, mut table) = (Vec::new(), Vec::new());
    let (mut vs_single, mut vs_cloud) = (Vec::new(), Vec::new());
    for m in zoo::all_models() {
        let mut cfg = AdcnnSimConfig::paper_testbed(m.clone(), 8);
        cfg.images = 40;
        cfg.pipeline_depth = 1; // per-image latency, not pipelined throughput
        let sim = AdcnnSim::new(cfg.clone()).run();
        let adcnn = sim.steady_latency_s();
        // System upper bound: distribute every conv block (only FC / the
        // detection head stays central). Shows how much of the gap to the
        // paper's headline factors is the stated shallow split.
        let mut deep_cfg = cfg;
        deep_cfg.prefix = m.blocks.len();
        let adcnn_deep = AdcnnSim::new(deep_cfg).run().steady_latency_s();
        let single = single_device(&m, &pi).latency_s;
        let cloud = remote_cloud(&m, &v100, LinkParams::cloud_uplink()).latency_s;
        rows.push(
            Obj::new()
                .str("model", &m.name)
                .f64("adcnn_ms", adcnn * 1e3)
                .f64("adcnn_deep_ms", adcnn_deep * 1e3)
                .f64("single_ms", single * 1e3)
                .f64("cloud_ms", cloud * 1e3)
                .f64("speedup_vs_single", single / adcnn)
                .f64("speedup_vs_cloud", cloud / adcnn)
                .finish(),
        );
        table.push(vec![
            m.name.clone(),
            ms(adcnn),
            ms(adcnn_deep),
            ms(single),
            ms(cloud),
            times(single / adcnn),
            times(cloud / adcnn),
        ]);
        vs_single.push(single / adcnn);
        vs_cloud.push(cloud / adcnn);
    }

    print_table(
        "Figure 11 — latency: ADCNN (8 Conv nodes) vs single device vs remote cloud",
        &[
            "model",
            "ADCNN (ms)",
            "ADCNN-deep (ms)",
            "single (ms)",
            "cloud (ms)",
            "vs single",
            "vs cloud",
        ],
        &table,
    );
    println!(
        "geo-mean speedups: {} vs single (paper 6.68x), {} vs cloud (paper 4.42x)",
        times(geo_mean(&vs_single)),
        times(geo_mean(&vs_cloud)),
    );
    emit_json("fig11_latency_baselines", &array(rows));
}
