//! Table 2: Conv-node output size before and after pruning (clipped ReLU +
//! 4-bit quantization + RLE) for the 8×8 partition.
//!
//! Two parts:
//! 1. the calibrated analytic pipeline on the full-size zoo models (the
//!    ratios the simulator uses), checked against the paper's reported
//!    ratios;
//! 2. the *real* codec run end-to-end on synthetic activations at each
//!    model's calibrated sparsity, validating that the analytic model and
//!    the byte-exact implementation agree.

use adcnn_bench::{emit_json, print_table};
use adcnn_core::compress::{compress, wire_bits_estimate, Quantizer};
use adcnn_core::obs::json::{array, Obj};
use adcnn_core::ClippedRelu;
use adcnn_netsim::profiles::{model_sparsity, table2_ratio};
use adcnn_nn::zoo;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2020);
    let (mut rows, mut table) = (Vec::new(), Vec::new());
    let mut reduction_sum = 0.0;
    for m in zoo::all_models() {
        let (c, h, w) = m.block_inputs()[m.separable_prefix];
        let elems = (c * h * w) as u64;
        let sparsity = model_sparsity(&m.name);
        let analytic = wire_bits_estimate(elems, sparsity, 4) as f64 / (elems as f64 * 32.0);

        // real pipeline on synthetic activations at that sparsity
        let cr = ClippedRelu::new(0.0, 1.0);
        let n = (elems as usize).min(400_000);
        let acts: Vec<f32> = (0..n)
            .map(|_| if rng.gen_bool(sparsity) { 0.0 } else { rng.gen_range(0.05..1.0) })
            .collect();
        let compressed = compress(&acts, Quantizer::paper_default(cr));
        let real = compressed.ratio_vs_f32();

        let paper = table2_ratio(&m.name);
        reduction_sum += 1.0 / real;
        rows.push(
            Obj::new()
                .str("model", &m.name)
                .u64("boundary_elems", elems)
                .f64("sparsity", sparsity)
                .f64("paper_ratio", paper)
                .f64("analytic_ratio", analytic)
                .f64("real_codec_ratio", real)
                .finish(),
        );
        table.push(vec![
            m.name.clone(),
            elems.to_string(),
            format!("{sparsity:.3}"),
            format!("{paper:.3}x"),
            format!("{analytic:.3}x"),
            format!("{real:.3}x"),
        ]);
    }

    print_table(
        "Table 2 — Conv-node output size after pruning (fraction of raw f32)",
        &["model", "boundary elems", "sparsity", "paper", "analytic", "real codec"],
        &table,
    );
    println!("mean reduction: {:.1}x (paper: 33x on average)", reduction_sum / rows.len() as f64);
    emit_json("table2_compression", &array(rows));
}
