//! The packed GEMM, timed on the shapes it serves: `gemm_fused` on the nine
//! im2col products of the two ledger models, `conv2d_into` on the nine
//! convolutions behind them (the im2col gather, or the in-place read, on top
//! of the same nest), the register tile alone on L1-resident panels (so the
//! nest's share of the gap to the tile is a number), and the 256³
//! packed-vs-seed pair every PR since the first has extended. Writes
//! `results/BENCH_gemm.json` with this build's `gflops` beside
//! `parent_gflops` and its conv `us` beside `parent_us`, the readings at the
//! parent commits named in the tables below, and each conv's `scratch_kib`:
//! the bytes a fresh `Scratch` holds after it (the GEMM's pack arena plus
//! the padded image), i.e. what that layer asks of a serving thread.
//!
//! A plain `main`, best of `REPS` wall-clock calls each, through public calls
//! only. The parent has no `simd_tier`, `tile_rows` or `register_tile`, so
//! its column was taken by this file with those calls cut, in a scratch copy
//! of the parent, pinned to one CPU, alternating with this build five times
//! and keeping each shape's best; its tile is this file in a scratch copy
//! whose probe skips `avx512f` (the parent's kernel, unchanged, behind the
//! 6-row instantiation).

use adcnn::tensor::conv::{conv2d_into, Conv2dParams};
use adcnn::tensor::gemm::{
    current_threads, gemm, gemm_fused, gemm_unpacked, register_tile, simd_tier, tile_rows,
    FusedAct, KC, NR,
};
use adcnn::tensor::{ActBuf, Scratch, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 1000;
/// Tile calls per timed repetition (one call is under a microsecond).
const TILE_CALLS: usize = 1000;
const PARENT: &str = "2304f50";
/// The parent's 6×16 AVX2+FMA register tile alone, GFLOP/s.
const PARENT_TILE_GFLOPS: f64 = 98.95;

/// The im2col GEMMs `(M, K, N)` the served models run, each beside the
/// parent's `gemm_fused` GFLOP/s: VGG16 blocks 1-2 on a 32x32 FDSP tile plus
/// the Central suffix conv, then ShapesCNN's four convs on 16x16 (the perf
/// ledger's `detail.kernel_shapes`).
const SERVED_SHAPES: [((usize, usize, usize), f64); 9] = [
    ((64, 27, 1024), 71.53),
    ((64, 576, 1024), 72.98),
    ((128, 576, 256), 83.44),
    ((128, 1152, 256), 83.97),
    ((128, 1152, 64), 79.29),
    ((16, 27, 256), 47.29),
    ((16, 144, 256), 60.50),
    ((32, 144, 256), 68.23),
    ((32, 288, 256), 67.58),
];

/// The commit `PARENT_CONV_US` was read at.
const CONV_PARENT: &str = "c1ae51b";
/// `conv2d_into` µs at [`CONV_PARENT`], one per [`SERVED_SHAPES`] entry: the
/// 3×3 "same" stride-1 convolution whose im2col GEMM that shape is (`oc =
/// m`, `ic = k / 9`, a square `n`-pixel image), bias and fused ReLU, taken
/// by this file in a clone of that commit, pinned to one CPU, alternating
/// with this build four times and keeping each shape's best.
const PARENT_CONV_US: [f64; 9] = [39.88, 629.26, 322.90, 650.56, 223.04, 2.74, 11.47, 21.28, 44.61];

/// Best-of-`reps` wall-clock seconds for one invocation of `f`.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    // Warm-up: grow the pack arena, fault in pages.
    f();
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = StdRng::seed_from_u64(7);
    let mut rand_vec =
        |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };

    // The 256^3 trajectory: the seed's unpacked kernel against the packed one.
    let (m, k, n) = (256usize, 256, 256);
    let (a, b) = (rand_vec(m * k), rand_vec(k * n));
    let mut out = vec![0.0f32; m * n];
    let flops = (2 * m * k * n) as f64;
    let seed_s = best_secs(9, || {
        gemm_unpacked(m, k, n, black_box(&a), black_box(&b), &mut out, 0.0);
        black_box(&out);
    });
    let packed_s = best_secs(REPS, || {
        gemm(m, k, n, black_box(&a), black_box(&b), &mut out, 0.0);
        black_box(&out);
    });
    let speedup = seed_s / packed_s;
    println!(
        "gemm 256x256x256: seed {:.2} GFLOP/s, packed {:.2} GFLOP/s, {speedup:.2}x",
        flops / seed_s / 1e9,
        flops / packed_s / 1e9,
    );

    // The register tile alone: one full k-block, both panels and C in L1.
    let mr = tile_rows();
    let (ap, bp) = (rand_vec(KC * mr), rand_vec(KC * NR));
    let mut c = vec![0.0f32; mr * NR];
    let tile_s = best_secs(REPS, || {
        for _ in 0..TILE_CALLS {
            register_tile(black_box(&ap), black_box(&bp), &mut c);
        }
        black_box(&c);
    });
    let tile_gflops = (2 * mr * NR * KC * TILE_CALLS) as f64 / tile_s / 1e9;
    println!(
        "register tile {mr}x{NR}, kb = {KC}: parent {PARENT_TILE_GFLOPS:.2}, now {tile_gflops:.2} \
         GFLOP/s ({:.2}x)",
        tile_gflops / PARENT_TILE_GFLOPS
    );

    println!(
        "{:<18} {:>14} {:>9} {:>7} {:>9}",
        "(m, k, n)", "parent_gflops", "gflops", "x", "of tile"
    );
    let mut scratch = Scratch::new();
    let mut shape_rows = Vec::new();
    for ((m, k, n), parent) in SERVED_SHAPES {
        let (a, b) = (rand_vec(m * k), rand_vec(k * n));
        let bias = vec![0.1f32; m];
        let mut out = vec![0.0f32; m * n];
        let s = best_secs(REPS, || {
            let bias = Some(&bias[..]);
            gemm_fused(m, k, n, black_box(&a), &b, &mut out, bias, FusedAct::Relu, &mut scratch);
            black_box(&out);
        });
        let gflops = (2 * m * k * n) as f64 / s / 1e9;
        println!(
            "{:<18} {parent:>14.2} {gflops:>9.2} {:>7.2} {:>9.2}",
            format!("({m}, {k}, {n})"),
            gflops / parent,
            gflops / tile_gflops
        );
        shape_rows.push(format!(
            "    {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"parent_gflops\": {parent:.2}, \
             \"gflops\": {gflops:.2}}}"
        ));
    }

    println!(
        "{:<24} {:>10} {:>9} {:>7} {:>12}",
        "conv (oc, ic, hw)", "parent_us", "us", "x", "scratch_kib"
    );
    let mut out = ActBuf::new();
    let mut conv_rows = Vec::new();
    for (((m, k, n), _), parent) in SERVED_SHAPES.into_iter().zip(PARENT_CONV_US) {
        let (oc, ic, hw) = (m, k / 9, n.isqrt());
        let x = rand_vec(ic * hw * hw);
        let w = Tensor::from_vec([oc, ic, 3, 3], rand_vec(oc * k));
        let bias = vec![0.1f32; oc];
        // A fresh arena per conv: what it holds afterwards is what this
        // geometry asks of a serving thread (pack arena + padded image).
        let mut scratch = Scratch::new();
        let s = best_secs(REPS, || {
            let (dims, p) = ((1, ic, hw, hw), Conv2dParams::same(3));
            conv2d_into(black_box(&x), dims, &w, &bias, p, FusedAct::Relu, &mut scratch, &mut out);
            black_box(out.as_slice());
        });
        let (us, kib) = (s * 1e6, scratch.capacity_bytes() as f64 / 1024.0);
        println!(
            "{:<24} {parent:>10.2} {us:>9.2} {:>7.2} {kib:>12.1}",
            format!("({oc}, {ic}, {hw})"),
            parent / us
        );
        conv_rows.push(format!(
            "    {{\"oc\": {oc}, \"ic\": {ic}, \"hw\": {hw}, \"parent_us\": {parent:.2}, \
             \"us\": {us:.2}, \"scratch_kib\": {kib:.1}}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"gemm_256x256x256\",\n  \"clock\": \"wall\",\n  \"simd\": \"{}\",\n  \
         \"nproc\": {nproc},\n  \"threads\": {},\n  \"stat\": \"best\",\n  \
         \"parent\": \"{PARENT}\",\n  \"seed_kernel_s\": {seed_s:.6},\n  \
         \"packed_kernel_s\": {packed_s:.6},\n  \"seed_gflops\": {:.3},\n  \
         \"packed_gflops\": {:.3},\n  \"speedup\": {speedup:.3},\n  \"tile\": {{\"mr\": {mr}, \
         \"nr\": {NR}, \"kb\": {KC}, \"parent_tile_gflops\": {PARENT_TILE_GFLOPS:.2}, \
         \"tile_gflops\": {tile_gflops:.2}}},\n  \"shapes\": [\n{}\n  ],\n  \
         \"conv_parent\": \"{CONV_PARENT}\",\n  \"convs\": [\n{}\n  ]\n}}\n",
        simd_tier(),
        current_threads(),
        flops / seed_s / 1e9,
        flops / packed_s / 1e9,
        shape_rows.join(",\n"),
        conv_rows.join(",\n"),
    );
    assert!(adcnn::core::obs::json::is_well_formed(&json), "BENCH_gemm.json is malformed");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_gemm.json", json).expect("write BENCH_gemm.json");
    println!("written results/BENCH_gemm.json");
}
