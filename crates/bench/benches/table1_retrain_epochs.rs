//! Table 1: number of epochs needed for each modification during
//! progressive retraining (the paper reports 5–13 total epochs per model at
//! 8×8, versus hundreds for training from scratch).
//!
//! Also runs the §5 ablation: the one-shot ("direct") retraining strategy
//! with the same total epoch budget, which the paper says plateaus below
//! the original accuracy.

use adcnn_bench::{emit_json, print_table};
use adcnn_core::fdsp::TileGrid;
use adcnn_core::obs::json::{array, Obj};
use adcnn_nn::small::{shapes_cnn, small_charcnn};
use adcnn_retrain::data::{char_seqs, shapes, CHAR_ALPHABET, CHAR_CLASSES, SHAPE_CLASSES};
use adcnn_retrain::progressive::{
    direct_retrain, progressive_retrain, ProgressiveReport, RetrainConfig,
};
use adcnn_retrain::trainer::{train, TrainConfig};
use adcnn_retrain::PartitionedModel;
use rand::{rngs::StdRng, SeedableRng};

/// One model's row: its JSON object and its table row.
fn row(model: &str, prog: &ProgressiveReport, direct: &ProgressiveReport) -> (String, Vec<String>) {
    let [fdsp, crelu, quant] = [0, 1, 2].map(|i| prog.stages[i].epochs);
    let json = Obj::new()
        .str("model", model)
        .u64("fdsp_epochs", fdsp as u64)
        .u64("crelu_epochs", crelu as u64)
        .u64("quant_epochs", quant as u64)
        .u64("total", prog.total_epochs() as u64)
        .f64("original_acc", prog.original_accuracy)
        .f64("progressive_acc", prog.final_accuracy)
        .f64("direct_acc", direct.final_accuracy)
        .finish();
    let cells = vec![
        model.to_string(),
        fdsp.to_string(),
        crelu.to_string(),
        quant.to_string(),
        prog.total_epochs().to_string(),
        format!("{:.3}", prog.original_accuracy),
        format!("{:.3}", prog.final_accuracy),
        format!("{:.3}", direct.final_accuracy),
    ];
    (json, cells)
}

fn main() {
    let mut rows = Vec::new();

    // --- image model at the paper's 8x8 partition ---------------------
    {
        let data = shapes(480, 240, 32, 2001);
        let mut rng = StdRng::seed_from_u64(31);
        let m = shapes_cnn(SHAPE_CLASSES, &mut rng);
        let mut part = PartitionedModel::unpartitioned(m);
        let tc = TrainConfig { epochs: 30, target_accuracy: 0.95, ..Default::default() };
        train(&mut part, &data, &tc);
        let original = adcnn_nn::small::SmallModel {
            net: part.net,
            name: "ShapesCNN",
            input: (3, 32, 32),
            classes: SHAPE_CLASSES,
            separable_prefix: 2,
            prefix_scale: (2, 2),
        };
        let cfg = RetrainConfig { max_epochs_per_stage: 8, ..Default::default() };
        let grid = TileGrid::new(8, 8);
        let copy = adcnn_nn::small::SmallModel { net: original.net.clone(), ..original };
        let (_, prog) = progressive_retrain(copy, &data, grid, &cfg);
        let (_, direct) = direct_retrain(original, &data, grid, &cfg);
        rows.push(row("ShapesCNN 8x8", &prog, &direct));
    }

    // --- char model at 1x8 (CharCNN row of Table 1) -------------------
    {
        let data = char_seqs(360, 180, 64, 2002);
        let mut rng = StdRng::seed_from_u64(37);
        let m = small_charcnn(CHAR_ALPHABET, CHAR_CLASSES, &mut rng);
        let mut part = PartitionedModel::unpartitioned(m);
        let tc = TrainConfig { epochs: 30, target_accuracy: 0.95, ..Default::default() };
        train(&mut part, &data, &tc);
        let original = adcnn_nn::small::SmallModel {
            net: part.net,
            name: "SmallCharCNN",
            input: (CHAR_ALPHABET, 1, 64),
            classes: CHAR_CLASSES,
            separable_prefix: 2,
            prefix_scale: (1, 1),
        };
        let cfg = RetrainConfig { max_epochs_per_stage: 8, ..Default::default() };
        let grid = TileGrid::new(1, 8);
        let copy = adcnn_nn::small::SmallModel { net: original.net.clone(), ..original };
        let (_, prog) = progressive_retrain(copy, &data, grid, &cfg);
        let (_, direct) = direct_retrain(original, &data, grid, &cfg);
        rows.push(row("SmallCharCNN 1x8", &prog, &direct));
    }

    let (json, table): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    print_table(
        "Table 1 — progressive retraining epochs per modification (paper: 5–13 total)",
        &["model", "FDSP", "ClippedReLU", "Quant", "total", "orig acc", "prog acc", "direct acc"],
        &table,
    );
    emit_json("table1_retrain_epochs", &array(json));
}
