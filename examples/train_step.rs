//! The training path, timed: the two products `conv2d_backward` runs per
//! image — `dW = dY·colᵀ` (`gemm_bt`) and `dcol = Wᵀ·dY` (`gemm_at`) — on
//! four conv-backward shapes, then two epochs of `trainer::train` on
//! ShapesCNN and `small_resnet`. Writes `results/BENCH_train.json` with this
//! build's reading beside the same binary's reading at the parent commit
//! (the tables below).
//!
//! A plain `main`, best of `REPS` wall-clock calls per kernel and of
//! `TRAIN_RUNS` per training run, through public calls that all exist at the
//! parent (the `"simd"` label's `simd_tier` apart), which is how the parent
//! columns were taken: `cargo run --release --example train_step` there,
//! pinned to one CPU, the printed columns copied here.

use adcnn::nn::small::{shapes_cnn, small_resnet, SmallModel};
use adcnn::retrain::data::{shapes, SHAPE_CLASSES};
use adcnn::retrain::trainer::{train, TrainConfig};
use adcnn::retrain::PartitionedModel;
use adcnn::tensor::gemm::{current_threads, gemm_at, gemm_bt, simd_tier};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 60;
const TRAIN_RUNS: usize = 2;
const PARENT: &str = "cdb0f3d";
const EPOCHS: usize = 2;
const IMAGES: usize = 512;
const BATCH: usize = 32;

/// One conv layer's backward products for one image: `oc` filters over
/// `ohw` output pixels, `kk = ic·k²` taps each. The parent's GFLOP/s for
/// `dW` and `dcol` sit beside the shape.
struct Shape {
    oc: usize,
    ohw: usize,
    kk: usize,
    parent_gflops: [f64; 2],
}

const SHAPES: [Shape; 4] = [
    Shape { oc: 16, ohw: 256, kk: 27, parent_gflops: [3.73, 20.55] },
    Shape { oc: 32, ohw: 256, kk: 144, parent_gflops: [3.68, 20.30] },
    Shape { oc: 64, ohw: 1024, kk: 576, parent_gflops: [2.95, 16.33] },
    Shape { oc: 128, ohw: 256, kk: 1152, parent_gflops: [3.80, 15.79] },
];

type Build = fn(usize, &mut StdRng) -> SmallModel;

/// The two trained models with the parent's seconds for the run.
const MODELS: [(&str, Build, f64); 2] = [
    ("ShapesCNN", |c, r| shapes_cnn(c, r), 6.66),
    ("small_resnet", |c, r| small_resnet(c, r), 7.14),
];

fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    // Warm-up: grow the thread-local pack arena, fault in pages.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// GFLOP/s of `dW` and `dcol` on one shape.
fn time_shape(s: &Shape, rng: &mut StdRng) -> [f64; 2] {
    let Shape { oc, ohw, kk, .. } = *s;
    let mut rand_vec =
        |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    let (dy, col, weight) = (rand_vec(oc * ohw), rand_vec(kk * ohw), rand_vec(oc * kk));
    let (mut dw, mut dcol) = (vec![0.0f32; oc * kk], vec![0.0f32; kk * ohw]);
    let flop = 2.0 * (oc * ohw * kk) as f64;
    let dw_s = best_secs(REPS, || {
        gemm_bt(oc, ohw, kk, black_box(&dy), black_box(&col), &mut dw, 0.0);
        black_box(&dw);
    });
    let dcol_s = best_secs(REPS, || {
        gemm_at(kk, oc, ohw, black_box(&weight), black_box(&dy), &mut dcol, 0.0);
        black_box(&dcol);
    });
    [flop / dw_s / 1e9, flop / dcol_s / 1e9]
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = StdRng::seed_from_u64(0x7EA1);

    println!(
        "{:<18} {:<5} {:>14} {:>9} {:>7}",
        "(oc, ohw, kk)", "prod", "parent_gflops", "gflops", "x"
    );
    let mut shape_rows = Vec::new();
    for s in &SHAPES {
        let gflops = time_shape(s, &mut rng);
        let shape = format!("({}, {}, {})", s.oc, s.ohw, s.kk);
        for ((prod, parent), now) in ["dW", "dcol"].iter().zip(s.parent_gflops).zip(gflops) {
            println!("{shape:<18} {prod:<5} {parent:>14.2} {now:>9.2} {:>7.2}", now / parent);
        }
        shape_rows.push(format!(
            "    {{\"oc\": {}, \"ohw\": {}, \"kk\": {}, \
             \"dW\": {{\"parent_gflops\": {:.2}, \"gflops\": {:.2}}}, \
             \"dcol\": {{\"parent_gflops\": {:.2}, \"gflops\": {:.2}}}}}",
            s.oc, s.ohw, s.kk, s.parent_gflops[0], gflops[0], s.parent_gflops[1], gflops[1],
        ));
    }

    let data = shapes(IMAGES, 64, 32, 7);
    let cfg = TrainConfig { epochs: EPOCHS, batch_size: BATCH, ..Default::default() };
    println!("{:<18} {:>10} {:>9} {:>7}", "model", "parent_s", "s", "x");
    let mut train_rows = Vec::new();
    for (name, build, parent_s) in MODELS {
        let secs = best_secs(TRAIN_RUNS, || {
            let model = build(SHAPE_CLASSES, &mut StdRng::seed_from_u64(1));
            black_box(train(&mut PartitionedModel::unpartitioned(model), &data, &cfg));
        });
        println!("{name:<18} {parent_s:>10.2} {secs:>9.2} {:>7.2}", parent_s / secs);
        train_rows.push(format!(
            "    {{\"model\": \"{name}\", \"epochs\": {EPOCHS}, \"images\": {IMAGES}, \
             \"batch\": {BATCH}, \"parent_s\": {parent_s:.2}, \"s\": {secs:.2}}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"train_step\",\n  \"clock\": \"wall\",\n  \"simd\": \"{}\",\n  \
         \"nproc\": {nproc},\n  \"threads\": {},\n  \"stat\": \"best\",\n  \
         \"parent\": \"{PARENT}\",\n  \"shapes\": [\n{}\n  ],\n  \"train\": [\n{}\n  ]\n}}\n",
        simd_tier(),
        current_threads(),
        shape_rows.join(",\n"),
        train_rows.join(",\n"),
    );
    assert!(adcnn::core::obs::json::is_well_formed(&json), "BENCH_train.json is malformed");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_train.json", json).expect("write BENCH_train.json");
    println!("written results/BENCH_train.json");
}
