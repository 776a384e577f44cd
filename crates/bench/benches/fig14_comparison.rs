//! Figure 14: ADCNN versus Neurosurgeon and AOFL on YOLO, VGG16 and
//! ResNet34. The paper reports ADCNN ahead by 2.8× (Neurosurgeon) and 1.6×
//! (AOFL) on average, with Neurosurgeon dominated by its edge→cloud
//! transfer (67% of its latency) and AOFL fusing most early layers.

use adcnn_bench::{emit_json, ms, print_table, times};
use adcnn_core::obs::json::{array, Obj};
use adcnn_netsim::schemes::{aofl, neurosurgeon};
use adcnn_netsim::{AdcnnSim, AdcnnSimConfig, LinkParams};
use adcnn_nn::cost::DeviceProfile;
use adcnn_nn::zoo;

fn main() {
    let pi = DeviceProfile::raspberry_pi3();
    let v100 = DeviceProfile::cloud_v100();
    let (mut rows, mut table, mut details) = (Vec::new(), Vec::new(), Vec::new());
    for m in [zoo::yolo(), zoo::vgg16(), zoo::resnet34()] {
        let mut cfg = AdcnnSimConfig::paper_testbed(m.clone(), 8);
        cfg.images = 30;
        cfg.pipeline_depth = 1;
        let adcnn = AdcnnSim::new(cfg.clone()).run().steady_latency_s();
        // Deep split: distribute every conv block. AOFL itself fuses 10+
        // layers when profitable, so the apples-to-apples ADCNN point is
        // the deepest accuracy-tolerable split (see EXPERIMENTS.md).
        let mut deep = cfg;
        deep.prefix = m.blocks.len();
        let adcnn_deep = AdcnnSim::new(deep).run().steady_latency_s();
        let ns = neurosurgeon(&m, &pi, &v100, LinkParams::cloud_uplink());
        let ao = aofl(&m, 8, &pi, LinkParams::wifi_fast());
        let transfer_frac = ns.transmission_s / ns.latency_s;
        rows.push(
            Obj::new()
                .str("model", &m.name)
                .f64("adcnn_ms", adcnn * 1e3)
                .f64("adcnn_deep_ms", adcnn_deep * 1e3)
                .f64("neurosurgeon_ms", ns.latency_s * 1e3)
                .str("neurosurgeon_detail", &ns.detail)
                .f64("neurosurgeon_transfer_frac", transfer_frac)
                .f64("aofl_ms", ao.latency_s * 1e3)
                .str("aofl_detail", &ao.detail)
                .f64("vs_neurosurgeon", ns.latency_s / adcnn_deep)
                .f64("vs_aofl", ao.latency_s / adcnn_deep)
                .finish(),
        );
        table.push(vec![
            m.name.clone(),
            ms(adcnn),
            ms(adcnn_deep),
            ms(ns.latency_s),
            ms(ao.latency_s),
            times(ns.latency_s / adcnn_deep),
            times(ao.latency_s / adcnn_deep),
        ]);
        details.push(format!(
            "{}: Neurosurgeon {} ({:.0}% of its latency is transfer; paper: 67%); AOFL {}",
            m.name,
            ns.detail,
            transfer_frac * 100.0,
            ao.detail
        ));
    }

    print_table(
        "Figure 14 — ADCNN vs Neurosurgeon vs AOFL (paper: 2.8x / 1.6x on average)",
        &[
            "model",
            "ADCNN (ms)",
            "ADCNN-deep (ms)",
            "Neurosurgeon (ms)",
            "AOFL (ms)",
            "deep vs NS",
            "deep vs AOFL",
        ],
        &table,
    );
    for line in details {
        println!("{line}");
    }
    emit_json("fig14_comparison", &array(rows));
}
