//! Figure 10: accuracy of the original CNN versus the FDSP-retrained CNN
//! across spatial partition options.
//!
//! The paper trains VGG16/ResNet34/YOLO/FCN/CharCNN on ImageNet-class
//! datasets and reports <1–1.3% degradation for partitions from 2×2 up to
//! 8×8. We reproduce the experiment's *shape* on the laptop-trainable
//! stand-ins (see DESIGN.md): an image CNN on the procedural shapes task, a
//! residual CNN, and a 1-D char CNN, each retrained with Algorithm 1 for
//! every partition option.

use adcnn_bench::{emit_json, print_table};
use adcnn_core::fdsp::TileGrid;
use adcnn_core::obs::json::{array, Obj};
use adcnn_nn::small::{shapes_cnn, small_charcnn, small_fcn, small_resnet, SmallModel};
use adcnn_retrain::data::{
    char_seqs, shapes, shapes_seg, CHAR_ALPHABET, CHAR_CLASSES, SHAPE_CLASSES,
};
use adcnn_retrain::progressive::{progressive_retrain, RetrainConfig};
use adcnn_retrain::trainer::{evaluate_dense, train, train_dense, TrainConfig};
use adcnn_retrain::{Dataset, PartitionedModel};
use rand::{rngs::StdRng, SeedableRng};

/// One partition option of one model: its JSON object and its table row.
fn grid_result(
    grid: TileGrid,
    original: f64,
    retrained: f64,
    epochs: usize,
) -> (String, Vec<String>) {
    let drop = original - retrained;
    let json = Obj::new()
        .str("grid", &grid.to_string())
        .f64("original", original)
        .f64("retrained", retrained)
        .f64("drop", drop)
        .u64("epochs", epochs as u64)
        .finish();
    let row = vec![
        grid.to_string(),
        format!("{original:.3}"),
        format!("{retrained:.3}"),
        format!("{drop:+.3}"),
        epochs.to_string(),
    ];
    (json, row)
}

/// Print one model's panel and return its JSON object.
fn model_result(model: &str, grids: Vec<(String, Vec<String>)>) -> String {
    let (json, table): (Vec<_>, Vec<_>) = grids.into_iter().unzip();
    print_table(
        &format!("Figure 10 — {model} (paper: <1–1.3% drop at every partition)"),
        &["partition", "original", "retrained", "drop", "extra epochs"],
        &table,
    );
    Obj::new().str("model", model).raw("grids", array(json)).finish()
}

fn train_original(mut m: SmallModel, data: &Dataset, seed: u64) -> (SmallModel, f64) {
    let _ = seed;
    let mut part = PartitionedModel::unpartitioned(SmallModel {
        net: std::mem::replace(&mut m.net, adcnn_nn::Network::new(vec![])),
        ..m
    });
    let tc = TrainConfig { epochs: 30, target_accuracy: 0.95, ..Default::default() };
    let rep = train(&mut part, data, &tc);
    let acc = rep.final_accuracy();
    (SmallModel { net: part.net, ..m }, acc)
}

fn run_model(
    name: &str,
    build: impl Fn(&mut StdRng) -> SmallModel,
    data: &Dataset,
    grids: &[TileGrid],
    seed: u64,
) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let (original, base_acc) = train_original(build(&mut rng), data, seed);
    let mut grids_out = Vec::new();
    for &grid in grids {
        // fresh copy of the converged original for each partition option
        let copy = SmallModel { net: original.net.clone(), ..original };
        let cfg = RetrainConfig {
            tolerance: 0.01,
            max_epochs_per_stage: 8,
            target_sparsity: 0.9,
            ..Default::default()
        };
        let (_, report) = progressive_retrain(copy, data, grid, &cfg);
        grids_out.push(grid_result(grid, base_acc, report.final_accuracy, report.total_epochs()));
    }
    model_result(name, grids_out)
}

fn main() {
    let image_grids =
        [TileGrid::new(2, 2), TileGrid::new(4, 4), TileGrid::new(4, 8), TileGrid::new(8, 8)];
    let char_grids = [TileGrid::new(1, 2), TileGrid::new(1, 4), TileGrid::new(1, 8)];

    let shapes_data = shapes(480, 240, 32, 1001);
    let char_data = char_seqs(360, 180, 64, 1002);

    let mut results = Vec::new();
    results.push(run_model(
        "ShapesCNN (VGG16/FCN stand-in)",
        |rng| shapes_cnn(SHAPE_CLASSES, rng),
        &shapes_data,
        &image_grids,
        11,
    ));
    results.push(run_model(
        "SmallResNet (ResNet34 stand-in)",
        |rng| small_resnet(SHAPE_CLASSES, rng),
        &shapes_data,
        &image_grids,
        13,
    ));
    results.push(run_model(
        "SmallCharCNN (CharCNN stand-in)",
        |rng| small_charcnn(CHAR_ALPHABET, CHAR_CLASSES, rng),
        &char_data,
        &char_grids,
        17,
    ));

    // FCN stand-in: dense prediction with the paper's FCN metrics (mean
    // IoU + pixel accuracy). FDSP is applied and the model retrained per
    // grid (the dense path has its own trainer, so Algorithm 1's stage
    // machinery is exercised in its classification form above and the
    // FDSP-retraining essence here).
    {
        let seg = shapes_seg(360, 160, 32, 1003);
        let mut rng = StdRng::seed_from_u64(19);
        let mut original = PartitionedModel::unpartitioned(small_fcn(seg.classes, &mut rng));
        let tc = TrainConfig { epochs: 14, target_accuracy: 0.97, lr: 0.1, ..Default::default() };
        train_dense(&mut original, &seg, &tc);
        let (base_acc, base_iou) = evaluate_dense(&mut original, &seg);
        let mut grids_out = Vec::new();
        for grid in image_grids {
            let mut m = PartitionedModel {
                net: original.net.clone(),
                prefix: original.prefix,
                grid,
                boundary_crelu: None,
                boundary_quant: None,
                input: original.input,
                classes: original.classes,
            };
            let tc = TrainConfig {
                epochs: 6,
                target_accuracy: base_acc - 0.01,
                lr: 0.05,
                ..Default::default()
            };
            let rep = train_dense(&mut m, &seg, &tc);
            let (acc, iou) = evaluate_dense(&mut m, &seg);
            let _ = iou;
            grids_out.push(grid_result(grid, base_acc, acc, rep.epochs_used));
        }
        println!("\n(SmallFCN baseline: pixel acc {base_acc:.3}, mean IoU {base_iou:.3})");
        results.push(model_result("SmallFCN (dense, pixel acc)", grids_out));
    }

    emit_json("fig10_accuracy", &array(results));
}
