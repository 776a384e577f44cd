//! The element-wise passes between the GEMMs, timed one by one: max-pool,
//! clip + quantize + RLE, decode, paste, tile extraction and the raw-f32
//! task codec, on the two served geometries. Writes
//! `results/BENCH_datapath.json` with this build's `us` beside `parent_us`,
//! the same binary's reading at the parent commit (the table below).
//!
//! A plain `main`, best of `REPS` wall-clock calls each, through public
//! calls only — so the file compiles unchanged at the parent, which is how
//! each `parent_us` row was taken: `cargo run --release --example data_path`
//! there, pinned to one CPU, the printed `us` column copied here.

use adcnn::core::compress::{clip_and_compress_into, CompressScratch, Quantizer};
use adcnn::core::fdsp::TileGrid;
use adcnn::core::wire::{make_result_from_parts, TileKey, TileTask};
use adcnn::tensor::activ::ClippedRelu;
use adcnn::tensor::pool::{maxpool2d_into, Pool2dParams};
use adcnn::tensor::{ActBuf, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 2000;
/// Distinct tiles the data-dependent passes cycle through.
const TILES: usize = 64;
const PARENT: &str = "4408e3f";
const PASSES: [&str; 6] = ["pool", "encode", "decode", "paste", "extract", "task_codec"];

/// One served geometry: the input image, the channels of the boundary map,
/// and the parent's reading of each pass, `PASSES` order, µs.
struct Geometry {
    name: &'static str,
    /// Input image `(C, H, W)`; a 2x2 grid cuts it into the task tiles.
    input: (usize, usize, usize),
    /// Channels of the `[1, C, 16, 16]` boundary map (tiles `[1, C, 8, 8]`).
    channels: usize,
    parent_us: [f64; 6],
}

const GEOMETRIES: [Geometry; 2] = [
    Geometry {
        name: "hub",
        input: (3, 32, 32),
        channels: 16,
        parent_us: [0.48, 4.81, 2.54, 0.40, 0.81, 0.20],
    },
    Geometry {
        name: "vgg",
        input: (3, 64, 64),
        channels: 128,
        parent_us: [3.44, 41.08, 19.87, 4.22, 2.08, 0.56],
    },
];

fn best_us(mut f: impl FnMut()) -> f64 {
    // Warm-up: grow every reused buffer, fault in pages.
    f();
    f();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best * 1e6
}

/// The widest vector extension these passes were *compiled* for: all but
/// the codec's are plain loops with no runtime dispatch, so this is the
/// tier they run at.
fn simd_tier() -> &'static str {
    if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        "scalar"
    }
}

/// The tier the codec passes (`encode`: clip + quantize + RLE, `decode`)
/// dispatch to at run time: `adcnn_core::compress` probes the CPU once, the
/// same rule as here, and runs its AVX-512 VBMI2 tier where the CPU has it,
/// else the scalar loops (at `simd_tier()`).
fn codec_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx512f")
            && has!("avx512bw")
            && has!("avx512vbmi")
            && has!("avx512vbmi2")
            && has!("bmi2")
        {
            return "avx512vbmi2";
        }
    }
    "scalar"
}

fn time_geometry(g: &Geometry) -> [f64; 6] {
    let mut rng = StdRng::seed_from_u64(0xDA7A);
    let grid = TileGrid::new(2, 2);
    let c = g.channels;
    let cr = ClippedRelu::new(0.0, 2.0);
    let q = Quantizer::paper_default(cr);
    let key = TileKey { image_id: 0, tile_id: 3 };

    // pool: the prefix's last layer, [1, C, 16, 16] -> the [1, C, 8, 8] tile.
    let pre_pool = Tensor::randn([1, c, 16, 16], 1.0, &mut rng);
    let mut pooled = ActBuf::new();
    let pool = best_us(|| {
        // The window is a runtime value where it is served (a `Layer` field).
        let (x, p) = black_box((pre_pool.as_slice(), Pool2dParams::non_overlapping(2)));
        maxpool2d_into(x, (1, c, 16, 16), p, &mut pooled);
        black_box(pooled.as_slice());
    });

    // encode / decode are data-dependent (zero-run branches): each timed
    // call takes the next of `TILES` different tiles, so the predictor
    // meets every payload cold, as it does when serving. Mean 0.5: about
    // 30 % clip to zero and 7 % saturate.
    let acts: Vec<Tensor> = (0..TILES)
        .map(|_| {
            let mut act = Tensor::randn([1, c, 8, 8], 1.0, &mut rng);
            act.map_inplace(|v| v + 0.5);
            act
        })
        .collect();
    let mut cs = CompressScratch::new();
    let mut next = 0;
    let encode = best_us(|| {
        next = (next + 1) % TILES;
        black_box(clip_and_compress_into(black_box(acts[next].as_slice()), cr, q, &mut cs));
    });

    // decode: the payload back to a tensor, as the Central node receives it.
    let results: Vec<_> = acts
        .iter()
        .map(|act| {
            let payload = clip_and_compress_into(act.as_slice(), cr, q, &mut cs);
            make_result_from_parts(key, [1, c, 8, 8], act.numel(), payload, q)
        })
        .collect();
    let decode = best_us(|| {
        next = (next + 1) % TILES;
        black_box(black_box(&results[next]).to_tensor().expect("healthy payload"));
    });

    // paste: the decoded tile into its corner of the boundary map.
    let tile = results[0].to_tensor().expect("healthy payload");
    let mut map = Tensor::zeros([1, c, 16, 16]);
    let paste = best_us(|| {
        map.paste_spatial(black_box(&tile), 8, 8);
        black_box(map.as_slice());
    });

    // extract: the input image into its four task tiles.
    let (ic, ih, iw) = g.input;
    let image = Tensor::randn([1, ic, ih, iw], 0.5, &mut rng);
    let extract = best_us(|| {
        black_box(grid.extract(black_box(&image)));
    });

    // task_codec: one task tile through the raw-f32 wire body and back.
    // (`BytesMut` is not a dependency of this package: the buffer's type is
    // inferred from `encode_into`.)
    let task = TileTask { key, tile: grid.extract(&image).swap_remove(3) };
    let mut body = Default::default();
    task.encode_into(&mut body);
    let task_codec = best_us(|| {
        body.clear();
        black_box(&task).encode_into(&mut body);
        black_box(TileTask::decode(&body).expect("task body round-trips"));
    });

    [pool, encode, decode, paste, extract, task_codec]
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut geometries = Vec::new();
    println!("{:<6} {:<11} {:>10} {:>9} {:>7}", "geom", "pass", "parent_us", "us", "x");
    for g in &GEOMETRIES {
        let us = time_geometry(g);
        let mut passes = Vec::new();
        for ((pass, parent), us) in PASSES.iter().zip(g.parent_us).zip(us) {
            println!("{:<6} {pass:<11} {parent:>10.2} {us:>9.2} {:>7.2}", g.name, parent / us);
            passes.push(format!(
                "        {{\"pass\": \"{pass}\", \"parent_us\": {parent:.2}, \"us\": {us:.2}}}"
            ));
        }
        let (ic, ih, iw) = g.input;
        geometries.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"input\": [1, {ic}, {ih}, {iw}],\n      \
             \"tile\": [1, {c}, 8, 8],\n      \"map\": [1, {c}, 16, 16],\n      \
             \"passes\": [\n{}\n      ]\n    }}",
            g.name,
            passes.join(",\n"),
            c = g.channels,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"data_path\",\n  \"clock\": \"wall\",\n  \"simd\": \"{}\",\n  \
         \"codec\": \"{}\",\n  \"nproc\": {nproc},\n  \"reps\": {REPS},\n  \"stat\": \"best\",\n  \
         \"parent\": \"{PARENT}\",\n  \"geometries\": [\n{}\n  ]\n}}\n",
        simd_tier(),
        codec_tier(),
        geometries.join(",\n"),
    );
    assert!(adcnn::core::obs::json::is_well_formed(&json), "BENCH_datapath.json is malformed");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_datapath.json", json).expect("write BENCH_datapath.json");
    println!("written results/BENCH_datapath.json");
}
