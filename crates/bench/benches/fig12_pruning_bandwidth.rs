//! Figure 12: effect of pruning (clipped ReLU + quantization + RLE) on
//! latency under the two measured transmission rates (87.72 and 12.66
//! Mbps). The paper reports 10.73% / 31.2% average latency reductions.

use adcnn_bench::{emit_json, ms, print_table};
use adcnn_core::obs::json::{array, Obj};
use adcnn_netsim::{AdcnnSim, AdcnnSimConfig, LinkParams};
use adcnn_nn::zoo;

fn run(model: &adcnn_nn::zoo::ModelSpec, link: LinkParams, pruned: bool) -> f64 {
    let mut cfg = AdcnnSimConfig::paper_testbed(model.clone(), 8);
    cfg.images = 30;
    cfg.pipeline_depth = 1;
    cfg.link = link;
    if !pruned {
        cfg.compression = None;
    }
    AdcnnSim::new(cfg).run().steady_latency_s()
}

fn main() {
    let links = [LinkParams::wifi_fast(), LinkParams::wifi_slow()];
    let models = zoo::all_models();
    let (mut rows, mut table) = (Vec::new(), Vec::new());
    let mut reduction_sum = [0.0; 2];
    for m in &models {
        for (link, sum) in links.into_iter().zip(&mut reduction_sum) {
            let mbps = link.bandwidth_bps / 1e6;
            let pruned = run(m, link, true);
            let raw = run(m, link, false);
            let reduction_pct = (raw - pruned) / raw * 100.0;
            *sum += reduction_pct;
            rows.push(
                Obj::new()
                    .str("model", &m.name)
                    .f64("bandwidth_mbps", mbps)
                    .f64("pruned_ms", pruned * 1e3)
                    .f64("raw_ms", raw * 1e3)
                    .f64("reduction_pct", reduction_pct)
                    .finish(),
            );
            table.push(vec![
                m.name.clone(),
                format!("{mbps:.2}"),
                ms(pruned),
                ms(raw),
                format!("{reduction_pct:.1}%"),
            ]);
        }
    }

    print_table(
        "Figure 12 — latency with vs without pruning (paper: −10.73% @87.72, −31.2% @12.66)",
        &["model", "link (Mbps)", "pruned (ms)", "raw (ms)", "reduction"],
        &table,
    );
    for (link, sum) in links.iter().zip(reduction_sum) {
        println!(
            "mean reduction @ {:.2} Mbps: {:.1}%",
            link.bandwidth_bps / 1e6,
            sum / models.len() as f64
        );
    }
    emit_json("fig12_pruning_bandwidth", &array(rows));
}
