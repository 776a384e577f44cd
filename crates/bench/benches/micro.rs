//! Criterion micro-benchmarks: the hot primitives underneath the system —
//! convolution/gemm throughput, the compression codec, FDSP tile
//! plumbing, and the scheduler inner loops.

use adcnn_core::compress::{
    clip_and_compress_into, compress, CompressScratch, Quantizer, RleCodec,
};
use adcnn_core::fdsp::TileGrid;
use adcnn_core::sched::{StatsCollector, TileAllocator};
use adcnn_nn::infer::InferScratch;
use adcnn_nn::{Block, Layer, Network};
use adcnn_tensor::activ::ClippedRelu;
use adcnn_tensor::conv::{conv2d, conv2d_into, Conv2dParams};
use adcnn_tensor::gemm::{gemm, gemm_unpacked, FusedAct};
use adcnn_tensor::{ActBuf, Scratch, Tensor};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let (m, k, n) = (128, 256, 196);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut g = c.benchmark_group("gemm");
    g.throughput(Throughput::Elements((2 * m * k * n) as u64));
    g.bench_function("128x256x196", |bench| {
        bench.iter_batched(
            || vec![0.0f32; m * n],
            |mut out| {
                gemm(m, k, n, &a, &b, &mut out, 0.0);
                black_box(out)
            },
            BatchSize::LargeInput,
        )
    });
    // The seed-vs-packed pair `examples/gemm_shapes.rs` records.
    let (m, k, n) = (256, 256, 256);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    g.throughput(Throughput::Elements((2 * m * k * n) as u64));
    g.bench_function("packed_256x256x256", |bench| {
        bench.iter_batched(
            || vec![0.0f32; m * n],
            |mut out| {
                gemm(m, k, n, &a, &b, &mut out, 0.0);
                black_box(out)
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("unpacked_256x256x256", |bench| {
        bench.iter_batched(
            || vec![0.0f32; m * n],
            |mut out| {
                gemm_unpacked(m, k, n, &a, &b, &mut out, 0.0);
                black_box(out)
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = Tensor::randn([1, 16, 56, 56], 1.0, &mut rng);
    let w = Tensor::randn([32, 16, 3, 3], 0.1, &mut rng);
    let bias = vec![0.0f32; 32];
    let p = Conv2dParams::same(3);
    let flops = 2u64 * 32 * 56 * 56 * 16 * 9;
    let mut g = c.benchmark_group("conv2d");
    g.throughput(Throughput::Elements(flops));
    g.bench_function("16->32ch_56x56_k3", |bench| {
        bench.iter(|| black_box(conv2d(&x, &w, &bias, p)))
    });
    g.bench_function("16->32ch_56x56_k3_into", |bench| {
        let mut scratch = Scratch::new();
        let mut out = ActBuf::new();
        bench.iter(|| {
            conv2d_into(
                x.as_slice(),
                (1, 16, 56, 56),
                &w,
                &bias,
                p,
                FusedAct::Relu,
                &mut scratch,
                &mut out,
            );
            black_box(out.as_slice()[0])
        })
    });
    g.finish();
}

/// The Conv-node steady-state tile loop: prefix forward + clip + quantize +
/// RLE, all through reusable scratch (the zero-allocation path).
fn bench_tile_pipeline(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let net = Network::new(vec![Block::Seq(vec![
        Layer::conv2d(3, 16, 3, Conv2dParams::same(3), &mut rng),
        Layer::batch_norm(16),
        Layer::Relu,
        Layer::conv2d(16, 16, 3, Conv2dParams::same(3), &mut rng),
        Layer::Relu,
    ])]);
    let tile = Tensor::randn([1, 3, 16, 16], 0.5, &mut rng);
    let cr = ClippedRelu::new(0.1, 1.1);
    let q = Quantizer::paper_default(cr);
    let mut g = c.benchmark_group("tile_pipeline");
    g.bench_function("prefix_forward_clip_compress", |bench| {
        let mut scratch = InferScratch::new();
        let mut cs = CompressScratch::new();
        bench.iter(|| {
            let out = net.forward_infer_with(&tile, &mut scratch);
            let enc = clip_and_compress_into(out.as_slice(), cr, q, &mut cs);
            black_box(enc.len())
        })
    });
    g.finish();
}

fn bench_compression(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 100_352; // one VGG16 tile boundary (512*28*28/4)
    let xs: Vec<f32> =
        (0..n).map(|_| if rng.gen_bool(0.95) { 0.0 } else { rng.gen_range(0.0..1.0f32) }).collect();
    let q = Quantizer::new(4, 1.0);
    let mut g = c.benchmark_group("compress");
    g.throughput(Throughput::Bytes((n * 4) as u64));
    g.bench_function("pipeline_95pct_sparse", |bench| bench.iter(|| black_box(compress(&xs, q))));
    let levels = q.quantize(&xs);
    let encoded = RleCodec.encode(&levels);
    g.bench_function("rle_decode", |bench| {
        bench.iter(|| black_box(RleCodec.decode(&encoded, n).unwrap()))
    });
    g.finish();
}

fn bench_fdsp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let x = Tensor::randn([1, 3, 224, 224], 1.0, &mut rng);
    let grid = TileGrid::new(8, 8);
    let mut g = c.benchmark_group("fdsp");
    g.bench_function("stack_8x8_224", |bench| bench.iter(|| black_box(grid.stack(&x))));
    let stacked = grid.stack(&x);
    g.bench_function("unstack_8x8_224", |bench| {
        bench.iter(|| black_box(grid.unstack_assemble(&stacked)))
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let speeds: Vec<f64> = (0..8).map(|i| 1.0 + i as f64 * 0.5).collect();
    let alloc = TileAllocator::unbounded(8);
    let mut g = c.benchmark_group("scheduler");
    g.bench_function("allocate_64_tiles_8_nodes", |bench| {
        let mut rng = StdRng::seed_from_u64(5);
        bench.iter(|| black_box(alloc.allocate(64, &speeds, &mut rng)))
    });
    g.bench_function("stats_update", |bench| {
        let mut sc = StatsCollector::new(8, 0.9);
        let counts = [8u32, 8, 8, 8, 5, 5, 3, 3];
        bench.iter(|| {
            sc.record_image(&counts);
            black_box(sc.speed(0))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_conv2d, bench_tile_pipeline, bench_compression, bench_fdsp, bench_scheduler
}

criterion_main!(benches);
