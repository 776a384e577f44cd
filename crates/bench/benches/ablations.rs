//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. tile allocator policy (greedy min-makespan vs round-robin vs
//!    speed-proportional) under heterogeneity;
//! 2. Algorithm 2 decay γ sensitivity (adaptation lag after throttling);
//! 3. quantizer bit-width (wire size vs quantization error);
//! 4. encoding scheme (RLE vs dense 4-bit vs bitmap + packed values);
//! 5. Figure 9 pipelining on/off (throughput).

use adcnn_bench::{emit_json, print_table};
use adcnn_core::compress::{compress, Quantizer};
use adcnn_core::obs::json::{array, num, string, Obj};
use adcnn_core::sched::{allocate_proportional, allocate_round_robin, TileAllocator};
use adcnn_netsim::{AdcnnSim, AdcnnSimConfig, ThrottleSchedule};
use adcnn_nn::zoo;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// `[[name, value], ...]`, the shape of the four two-column series.
fn pairs<'a>(rows: impl IntoIterator<Item = (&'a str, f64)>) -> String {
    array(rows.into_iter().map(|(name, v)| array([string(name), num(v)])))
}

fn allocator_ablation() -> String {
    // heterogeneous speeds, 64 tiles
    let speeds = [8.0, 8.0, 8.0, 8.0, 3.6, 3.6, 1.9, 1.9];
    let mut rng = StdRng::seed_from_u64(1);
    let greedy = TileAllocator::unbounded(8).allocate(64, &speeds, &mut rng);
    let rr = allocate_round_robin(64, 8);
    let prop = allocate_proportional(64, &speeds, &mut rng);
    let rows = [("greedy (Alg 3)", greedy), ("round-robin", rr), ("proportional", prop)]
        .map(|(name, x)| (name, TileAllocator::makespan(&x, &speeds)));
    print_table(
        "Ablation 1 — allocator makespan on a 4-fast/2-mid/2-slow cluster (lower = better)",
        &["policy", "makespan (tiles/speed-unit)"],
        &rows.iter().map(|(n, m)| vec![n.to_string(), format!("{m:.2}")]).collect::<Vec<_>>(),
    );
    pairs(rows)
}

fn gamma_ablation() -> String {
    // γ controls how fast Algorithm 2 tracks a change; measure the
    // adaptation lag — images (and dropped results) between the throttle
    // and the first lossless image.
    let m = zoo::vgg16();
    let mut rows = Vec::new();
    for gamma in [0.3, 0.9, 0.99] {
        let mut cfg = AdcnnSimConfig::paper_testbed(m.clone(), 8);
        cfg.images = 80;
        cfg.pipeline_depth = 1;
        cfg.gamma = gamma;
        let warm = AdcnnSim::new(cfg.clone()).run();
        let t_half = warm.images[40].done_at;
        for i in 4..8 {
            cfg.nodes[i].throttle = ThrottleSchedule::throttle_at(t_half, 0.24);
        }
        let run = AdcnnSim::new(cfg).run();
        let total_drops: u32 = run.images[40..].iter().map(|i| i.dropped).sum();
        rows.push((gamma, total_drops));
    }
    print_table(
        "Ablation 2 — Algorithm 2 decay γ vs adaptation cost (total dropped tiles after throttle)",
        &["gamma", "dropped tiles"],
        &rows.iter().map(|(g, l)| vec![g.to_string(), l.to_string()]).collect::<Vec<_>>(),
    );
    array(rows.iter().map(|&(g, l)| array([num(g), num(l.into())])))
}

fn quant_ablation() -> String {
    let mut rng = StdRng::seed_from_u64(7);
    let n = 100_000usize;
    let xs: Vec<f32> =
        (0..n).map(|_| if rng.gen_bool(0.95) { 0.0 } else { rng.gen_range(0.0..1.0f32) }).collect();
    let mut rows = Vec::new();
    for bits in [2u8, 3, 4] {
        let q = Quantizer::new(bits, 1.0);
        let c = compress(&xs, q);
        let err: f32 = xs.iter().map(|&x| (q.value(q.level(x)) - x).abs()).fold(0.0, f32::max);
        rows.push((bits, c.ratio_vs_f32(), err as f64));
    }
    print_table(
        "Ablation 3 — quantizer bit width (95% sparse activations)",
        &["bits", "wire ratio", "max abs error"],
        &rows
            .iter()
            .map(|(b, r, e)| vec![b.to_string(), format!("{r:.4}x"), format!("{e:.4}")])
            .collect::<Vec<_>>(),
    );
    array(rows.iter().map(|&(b, r, e)| array([b.to_string(), num(r), num(e)])))
}

fn encoding_ablation() -> String {
    let mut rng = StdRng::seed_from_u64(9);
    let n = 200_000usize;
    let sparsity = 0.95;
    let xs: Vec<f32> = (0..n)
        .map(|_| if rng.gen_bool(sparsity) { 0.0 } else { rng.gen_range(0.05..1.0f32) })
        .collect();
    let q = Quantizer::new(4, 1.0);
    let rle_bits = compress(&xs, q).wire_bits() as f64;
    // dense 4-bit: one nibble per element, no run encoding
    let dense_bits = (n as f64) * 4.0;
    // bitmap: 1 bit presence mask + 4 bits per non-zero
    let nonzero = xs.iter().filter(|&&x| x != 0.0).count() as f64;
    let bitmap_bits = n as f64 + nonzero * 4.0;
    let raw_bits = n as f64 * 32.0;
    let rows = [
        ("raw f32", raw_bits),
        ("dense 4-bit", dense_bits),
        ("bitmap + 4-bit", bitmap_bits),
        ("RLE 4-bit (paper)", rle_bits),
    ]
    .map(|(name, bits)| (name, bits / raw_bits));
    print_table(
        "Ablation 4 — encoding scheme at 95% sparsity (fraction of raw f32)",
        &["encoding", "ratio"],
        &rows.iter().map(|(n, r)| vec![n.to_string(), format!("{r:.4}x")]).collect::<Vec<_>>(),
    );
    pairs(rows)
}

fn pipelining_ablation() -> String {
    let m = zoo::vgg16();
    let mut rows = Vec::new();
    for (name, depth) in [("serial", 1), ("pipelined (Fig 9)", 2), ("deep (depth 4)", 4)] {
        let mut cfg = AdcnnSimConfig::paper_testbed(m.clone(), 8);
        cfg.images = 30;
        cfg.pipeline_depth = depth;
        let run = AdcnnSim::new(cfg).run();
        let throughput = run.images.len() as f64 / run.total_time_s;
        rows.push((name, throughput));
    }
    print_table(
        "Ablation 5 — pipelining vs throughput (images/s)",
        &["mode", "throughput"],
        &rows.iter().map(|(n, t)| vec![n.to_string(), format!("{t:.2}")]).collect::<Vec<_>>(),
    );
    pairs(rows)
}

fn main() {
    let doc = Obj::new()
        .raw("allocator", allocator_ablation())
        .raw("gamma", gamma_ablation())
        .raw("quant_bits", quant_ablation())
        .raw("encodings", encoding_ablation())
        .raw("pipelining", pipelining_ablation())
        .finish();
    emit_json("ablations", &doc);
}
