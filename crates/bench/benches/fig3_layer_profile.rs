//! Figure 3: per-layer-block execution time and ifmap size on a Raspberry
//! Pi, for VGG16, ResNet18, FCN and CharCNN.
//!
//! Paper's observations to reproduce: execution time and ifmap size surge
//! after the first layer block and decay afterwards; early blocks dominate
//! (first four VGG16 blocks ≈ 41% of total); FC is negligible.

use adcnn_bench::{emit_json, print_table};
use adcnn_core::obs::json::{array, num, string, Obj};
use adcnn_nn::cost::{layer_profile, model_time_s, DeviceProfile};
use adcnn_nn::zoo;

fn main() {
    let pi = DeviceProfile::raspberry_pi3();
    let mut panels = Vec::new();
    for m in [zoo::vgg16(), zoo::resnet18(), zoo::fcn(), zoo::charcnn()] {
        let rows = layer_profile(&m, &pi);
        let total_ms = model_time_s(&m, &pi) * 1e3;
        let first_four_fraction = rows.iter().take(4).map(|r| r.time_ms).sum::<f64>() / total_ms;
        print_table(
            &format!("Figure 3 — {} on {} (total {:.0} ms)", m.name, pi.name, total_ms),
            &["block", "time (ms)", "ifmap (KB)"],
            &rows
                .iter()
                .map(|r| {
                    vec![r.label.clone(), format!("{:.1}", r.time_ms), format!("{:.0}", r.ifmap_kb)]
                })
                .collect::<Vec<_>>(),
        );
        println!(
            "first four blocks: {:.1}% of total (paper: 41.4% for VGG16, 57% for FCN)",
            first_four_fraction * 100.0
        );
        panels.push(
            Obj::new()
                .str("model", &m.name)
                // [label, time_ms, ifmap_kb]
                .raw(
                    "rows",
                    array(
                        rows.iter()
                            .map(|r| array([string(&r.label), num(r.time_ms), num(r.ifmap_kb)])),
                    ),
                )
                .f64("total_ms", total_ms)
                .f64("first_four_fraction", first_four_fraction)
                .finish(),
        );
    }
    emit_json("fig3_layer_profile", &array(panels));
}
