//! Quickstart: train a small CNN, progressively retrain it for FDSP (the
//! paper's Algorithm 1), and serve it on a distributed multi-threaded
//! ADCNN cluster.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use adcnn::core::fdsp::TileGrid;
use adcnn::nn::small::shapes_cnn;
use adcnn::retrain::data::{shapes, SHAPE_CLASSES};
use adcnn::retrain::progressive::{progressive_retrain, RetrainConfig};
use adcnn::retrain::trainer::{train, TrainConfig};
use adcnn::retrain::PartitionedModel;
use adcnn::runtime::{AdcnnRuntime, RuntimeConfig, WorkerOptions};
use adcnn::tensor::loss::accuracy;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // QUICKSTART_SMOKE=1 (the CI gate) shrinks data and epoch budgets so
    // the whole tour — train, retrain, serve — runs in seconds; the
    // pipeline exercised is identical.
    let smoke = std::env::var_os("QUICKSTART_SMOKE").is_some();

    // 1. A synthetic image-classification task (see DESIGN.md for why this
    //    substitutes for Caltech101/ImageNet) and a small CNN.
    println!("[1/4] generating data and training the original model…");
    let data = if smoke { shapes(96, 48, 32, 7) } else { shapes(480, 240, 32, 7) };
    let mut rng = StdRng::seed_from_u64(1);
    let model = shapes_cnn(SHAPE_CLASSES, &mut rng);
    let mut original = PartitionedModel::unpartitioned(model);
    let epochs = if smoke { 4 } else { 30 };
    let report = train(
        &mut original,
        &data,
        &TrainConfig { epochs, target_accuracy: 0.95, ..Default::default() },
    );
    println!(
        "      original accuracy: {:.1}% after {} epochs",
        report.final_accuracy() * 100.0,
        report.epochs_used
    );

    // 2. Algorithm 1: fold in FDSP, the clipped ReLU and the 4-bit
    //    quantizer, retraining a few epochs after each.
    println!("[2/4] progressive retraining for a 4x4 FDSP partition…");
    let original_model = adcnn::nn::small::SmallModel {
        net: original.net,
        name: "ShapesCNN",
        input: (3, 32, 32),
        classes: SHAPE_CLASSES,
        separable_prefix: 2,
        prefix_scale: (2, 2),
    };
    let grid = TileGrid::new(4, 4);
    let retrain_cfg = if smoke {
        RetrainConfig { max_epochs_per_stage: 1, ..Default::default() }
    } else {
        RetrainConfig::default()
    };
    let (retrained, prog) = progressive_retrain(original_model, &data, grid, &retrain_cfg);
    for s in &prog.stages {
        println!(
            "      {:<14} acc {:.1}% -> {:.1}% in {} epoch(s)",
            s.stage,
            s.acc_before * 100.0,
            s.acc_after * 100.0,
            s.epochs
        );
    }
    println!(
        "      final drop vs original: {:+.2}% ({} extra epochs total)",
        prog.accuracy_drop() * 100.0,
        prog.total_epochs()
    );

    // 3. Launch the distributed runtime: 4 Conv-node worker threads + the
    //    Central node in this thread, with two images in flight so the
    //    suffix of image i overlaps the tile fan-out of image i+1 (the
    //    paper's Figure 9 pipelining).
    println!("[3/4] launching the ADCNN runtime with 4 Conv nodes (pipeline depth 2)…");
    let cfg = RuntimeConfig { pipeline_depth: 2, ..Default::default() };
    let runtime = AdcnnRuntime::launch(retrained, &[WorkerOptions::default(); 4], cfg);

    // 4. Serve the test set across the cluster: submit every image up
    //    front (the bounded admission queue applies backpressure), then
    //    resolve each handle — outcomes carry their own image id, so
    //    completion order does not matter.
    let serve = data.test_len().min(if smoke { 8 } else { 32 });
    println!("[4/4] serving {serve} test images…");
    let mut correct = 0usize;
    let mut total = 0usize;
    let dims = data.test_x.dims().to_vec();
    let stride: usize = dims[1..].iter().product();
    let handles: Vec<_> = (0..serve)
        .map(|i| {
            let img = adcnn::tensor::Tensor::from_vec(
                [1, dims[1], dims[2], dims[3]],
                data.test_x.as_slice()[i * stride..(i + 1) * stride].to_vec(),
            );
            runtime.submit(&img)
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let out = h.wait();
        assert_eq!(out.image as usize, i, "handles resolve to their own image");
        assert_eq!(out.zero_filled, 0, "healthy cluster must not drop tiles");
        if accuracy(&out.output, &[data.test_y[i]]) > 0.5 {
            correct += 1;
        }
        total += 1;
    }
    println!(
        "      distributed accuracy: {:.1}% over {total} images (speeds {:?})",
        correct as f64 / total as f64 * 100.0,
        runtime.speeds()
    );
    runtime.shutdown();
    println!("done.");
}
