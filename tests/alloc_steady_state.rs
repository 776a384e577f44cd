//! Counting-allocator proof of the zero-allocation inference hot path.
//!
//! The Conv-node steady-state tile loop is: prefix forward
//! (`Network::forward_infer_with`) + clip/quantize/RLE
//! (`clip_and_compress_into`), all through per-worker scratch. After a
//! warm-up pass on the tile shape, repeating that loop must hit the global
//! allocator **zero** times. The only per-tile allocation left in the full
//! worker is the final `Bytes` payload copy at the wire boundary, which is
//! measured separately and bounded.
//!
//! The network is sized so every internal GEMM stays under the parallel
//! dispatch threshold — the loop runs on this thread only — and the counter
//! is per thread, so the tests of this file (which the default runner puts
//! on parallel threads) cannot see each other's allocations.
//!
//! The same counter also sums bytes, which proves the footprint side of the
//! runtime: an in-process launch holds one copy of the prefix's weights,
//! however many Conv-node threads read it.

use adcnn::core::compress::{clip_and_compress_into, CompressScratch, Quantizer};
use adcnn::core::wire::{make_result_from_parts, TileKey};
use adcnn::nn::infer::InferScratch;
use adcnn::nn::small::vgg_blocks;
use adcnn::nn::{Block, Layer, Network};
use adcnn::tensor::activ::ClippedRelu;
use adcnn::tensor::conv::{conv2d_into, Conv2dParams};
use adcnn::tensor::gemm::FusedAct;
use adcnn::tensor::pool::Pool2dParams;
use adcnn::tensor::{ActBuf, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocator hit (alloc + realloc; dealloc is free to the
/// "zero allocation" claim) made by the calling thread, and the bytes each
/// hit asks for (a realloc counts its whole new size).
struct CountingAlloc;

thread_local! {
    /// `const`-initialised and without a destructor, so the allocator can
    /// touch it at any point of a thread's life without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by this thread's hits, under the same rules.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: defers to `System` for every operation; the counters are plain
// thread-local cells that neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocator hits of *this* thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes *this* thread has asked the allocator for so far.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// A representative Conv-node prefix: conv→BN→ReLU→pool→conv→ReLU. Small
/// enough (all GEMMs < the parallel-dispatch threshold) to stay serial.
fn prefix_net(rng: &mut StdRng) -> Network {
    Network::new(vec![
        Block::Seq(vec![
            Layer::conv2d(3, 8, 3, Conv2dParams::same(3), rng),
            Layer::batch_norm(8),
            Layer::Relu,
            Layer::MaxPool(Pool2dParams::non_overlapping(2)),
        ]),
        Block::Residual {
            body: vec![Layer::conv2d(8, 8, 3, Conv2dParams::same(3), rng), Layer::Relu],
            shortcut: vec![],
        },
    ])
}

#[test]
fn steady_state_tile_loop_is_allocation_free() {
    let mut rng = StdRng::seed_from_u64(42);
    let net = prefix_net(&mut rng);
    let tile = Tensor::randn([1, 3, 16, 16], 0.5, &mut rng);
    let cr = ClippedRelu::new(0.1, 1.1);
    let q = Quantizer::paper_default(cr);

    // A deep, narrow conv through the same arena: K = 32·9 = 288 spans two
    // k-blocks and M = 8 leaves a ragged last row panel, so the A-pack arena
    // (one k-block deep: ⌈M/MR⌉·MR·KC + KC·NR floats, re-packed per block)
    // and the one-pass B panel are exercised past a single block (still
    // 8·288·16 multiply-adds, under the parallel threshold).
    let deep = Tensor::randn([1, 32, 4, 4], 0.5, &mut rng);
    let deep_w = Tensor::randn([8, 32, 3, 3], 0.1, &mut rng);
    let deep_b = [0.1f32; 8];
    let mut deep_out = ActBuf::new();
    // The same depth with M = 40: a ragged last row panel under the 6-row
    // and the 16-row register tile alike (40·288·4 multiply-adds).
    let wide = Tensor::randn([1, 32, 2, 2], 0.5, &mut rng);
    let wide_w = Tensor::randn([40, 32, 3, 3], 0.1, &mut rng);
    let wide_b = [0.1f32; 40];
    let mut wide_out = ActBuf::new();

    let mut scratch = InferScratch::new();
    let mut cs = CompressScratch::new();
    let mut tile_loop = |iters: usize| {
        for _ in 0..iters {
            let out = net.forward_infer_with(&tile, &mut scratch);
            let enc = clip_and_compress_into(out.as_slice(), cr, q, &mut cs);
            assert!(!enc.is_empty());
            conv2d_into(
                deep.as_slice(),
                (1, 32, 4, 4),
                &deep_w,
                &deep_b,
                Conv2dParams::same(3),
                FusedAct::Relu,
                &mut scratch.ts,
                &mut deep_out,
            );
            assert_eq!(deep_out.dims(), &[1, 8, 4, 4]);
            conv2d_into(
                wide.as_slice(),
                (1, 32, 2, 2),
                &wide_w,
                &wide_b,
                Conv2dParams::same(3),
                FusedAct::Relu,
                &mut scratch.ts,
                &mut wide_out,
            );
            assert_eq!(wide_out.dims(), &[1, 40, 2, 2]);
        }
    };

    // Warm-up: grow every arena/buffer to its steady-state size.
    tile_loop(3);
    let before = allocs();
    tile_loop(10);
    let hot_path_allocs = allocs() - before;
    assert_eq!(
        hot_path_allocs, 0,
        "steady-state forward + compress must not allocate (got {hot_path_allocs} allocations \
         over 10 tiles)"
    );
}

/// The observability layer's zero-cost-when-disabled contract, proven at
/// the allocator: the exact hot loop of the first test, now emitting the
/// worker's per-tile `TileCompute`/`TileCompress` events through the
/// null handle, must still hit the allocator zero times. (`emit_with`
/// never runs the constructor closure when no sink is installed, so the
/// events cost a branch, not an allocation.)
#[test]
fn steady_state_tile_loop_with_null_sink_is_allocation_free() {
    use adcnn::core::obs::{ObsEvent, SinkHandle};

    let mut rng = StdRng::seed_from_u64(44);
    let net = prefix_net(&mut rng);
    let tile = Tensor::randn([1, 3, 16, 16], 0.5, &mut rng);
    let cr = ClippedRelu::new(0.1, 1.1);
    let q = Quantizer::paper_default(cr);

    let sink = SinkHandle::null();
    assert!(!sink.enabled());

    let mut scratch = InferScratch::new();
    let mut cs = CompressScratch::new();
    for _ in 0..3 {
        let out = net.forward_infer_with(&tile, &mut scratch);
        let _ = clip_and_compress_into(out.as_slice(), cr, q, &mut cs);
    }

    let before = allocs();
    for i in 0..10u64 {
        let out = net.forward_infer_with(&tile, &mut scratch);
        let elems = out.numel();
        let enc = clip_and_compress_into(out.as_slice(), cr, q, &mut cs);
        assert!(!enc.is_empty());
        sink.emit_with(|| ObsEvent::TileCompute {
            at: i as f64 * 1e-3,
            image: 0,
            tile: i as u32,
            worker: 0,
            dur: 1e-3,
        });
        sink.emit_with(|| ObsEvent::TileCompress {
            at: i as f64 * 1e-3,
            image: 0,
            tile: i as u32,
            worker: 0,
            dur: 1e-4,
            bytes: enc.len() as u64,
            ratio: (enc.len() as u64 * 8) as f64 / (elems as f64 * 32.0),
        });
    }
    let hot_path_allocs = allocs() - before;
    assert_eq!(
        hot_path_allocs, 0,
        "a disabled sink must keep the hot path allocation-free (got {hot_path_allocs} \
         allocations over 10 tiles)"
    );
}

#[test]
fn wire_boundary_allocations_are_bounded() {
    let mut rng = StdRng::seed_from_u64(43);
    let net = prefix_net(&mut rng);
    let tile = Tensor::randn([1, 3, 16, 16], 0.5, &mut rng);
    let cr = ClippedRelu::new(0.1, 1.1);
    let q = Quantizer::paper_default(cr);

    let mut scratch = InferScratch::new();
    let mut cs = CompressScratch::new();
    for _ in 0..3 {
        let out = net.forward_infer_with(&tile, &mut scratch);
        let _ = clip_and_compress_into(out.as_slice(), cr, q, &mut cs);
    }

    // The full per-tile result construction: the one unavoidable allocation
    // is the Bytes payload copy handed to the channel (plus its drop).
    let iters = 10u64;
    let before = allocs();
    for i in 0..iters {
        let out = net.forward_infer_with(&tile, &mut scratch);
        let dims = out.dims();
        let shape = [dims[0], dims[1], dims[2], dims[3]];
        let elems = out.numel();
        let enc = clip_and_compress_into(out.as_slice(), cr, q, &mut cs);
        let res = make_result_from_parts(
            TileKey { image_id: 0, tile_id: i as u32 },
            shape,
            elems,
            enc,
            q,
        );
        assert_eq!(res.payload.elems, elems);
    }
    let per_tile = (allocs() - before) as f64 / iters as f64;
    assert!(
        per_tile <= 2.0,
        "expected at most the Bytes payload copy per tile, got {per_tile} allocations/tile"
    );
}

/// The Central node's half of the statement: after one warm-up result, a
/// healthy 4-tile image goes from wire payloads to the assembled boundary
/// map — shape check, decode into the collector-owned buffer, row paste,
/// the calls `Collector::ingest` makes — without touching the allocator.
/// The same four results through `to_tensor` + `paste_spatial` cost at
/// least two allocations each (the value vector and the shape).
#[test]
fn central_result_path_is_allocation_free() {
    use adcnn::core::fdsp::TileGrid;

    let mut rng = StdRng::seed_from_u64(45);
    let grid = TileGrid::new(2, 2);
    let cr = ClippedRelu::new(0.0, 2.0);
    let q = Quantizer::paper_default(cr);
    let (c, th, tw) = (16, 8, 8);
    let boundary = Tensor::randn([1, c, 2 * th, 2 * tw], 1.0, &mut rng);
    let mut cs = CompressScratch::new();
    let results: Vec<_> = (0..grid.tiles())
        .map(|t| {
            let tile = grid.extract_tile(&boundary, t);
            let enc = clip_and_compress_into(tile.as_slice(), cr, q, &mut cs);
            let key = TileKey { image_id: 0, tile_id: t as u32 };
            make_result_from_parts(key, [1, c, th, tw], tile.numel(), enc, q)
        })
        .collect();

    let mut decoded = Tensor::zeros([1, c, th, tw]);
    let mut assembled = Tensor::zeros([1, c, 2 * th, 2 * tw]);
    let mut ingest = |t: usize| {
        let res = &results[t];
        assert_eq!(res.shape, [1, c, th, tw]);
        res.decode_into(decoded.as_mut_slice()).expect("healthy payload");
        let (gr, gc) = grid.tile_pos(t);
        assembled.paste_spatial(&decoded, gr * th, gc * tw);
    };
    ingest(0); // warm-up
    let before = allocs();
    (0..4).for_each(&mut ingest);
    let result_path_allocs = allocs() - before;
    assert_eq!(
        result_path_allocs, 0,
        "decode-into-buffer + row paste must not allocate (got {result_path_allocs} allocations \
         over 4 results)"
    );

    let mut reference = Tensor::zeros([1, c, 2 * th, 2 * tw]);
    let before = allocs();
    for (t, res) in results.iter().enumerate() {
        let (gr, gc) = grid.tile_pos(t);
        reference.paste_spatial(&res.to_tensor().expect("healthy payload"), gr * th, gc * tw);
    }
    let to_tensor_allocs = allocs() - before;
    assert!(to_tensor_allocs >= 8, "to_tensor is expected to allocate: {to_tensor_allocs}");
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&assembled), bits(&reference), "both paths assemble the same map");
}

/// A launch holds one prefix, whatever K: every in-process Conv node reads
/// the same read-only weights, so launching four workers instead of one
/// costs the calling thread channels and thread handles, not another copy
/// of the prefix (a per-worker clone would cost its value, gradient and
/// momentum buffers once it has trained). Nor does launch run a tile
/// forward to size the split: the calling thread allocates less than the
/// activation buffers and pack arena of one prefix forward.
#[test]
fn launch_holds_one_prefix_whatever_k() {
    use adcnn::core::fdsp::TileGrid;
    use adcnn::retrain::PartitionedModel;
    use adcnn::runtime::{AdcnnRuntime, RuntimeConfig, WorkerOptions};

    // Two 64→64 3×3 convs: 288 KiB of weights in the prefix.
    let model = || {
        let mut rng = StdRng::seed_from_u64(46);
        let net = Network::new(vec![
            Block::Seq(vec![
                Layer::conv2d(64, 64, 3, Conv2dParams::same(3), &mut rng),
                Layer::Relu,
            ]),
            Block::Seq(vec![
                Layer::conv2d(64, 64, 3, Conv2dParams::same(3), &mut rng),
                Layer::Relu,
            ]),
            Block::Seq(vec![Layer::GlobalAvgPool]),
        ]);
        PartitionedModel {
            net,
            prefix: 2,
            grid: TileGrid::new(2, 2),
            boundary_crelu: None,
            boundary_quant: None,
            input: (64, 8, 8),
            classes: 64,
        }
    };
    let prefix_value_bytes = {
        let mut m = model();
        m.net.blocks.truncate(m.prefix);
        m.net.param_count() * std::mem::size_of::<f32>()
    };
    assert!(prefix_value_bytes >= 256 << 10, "prefix weights: {prefix_value_bytes} B");

    let launch_bytes = |k: usize| {
        let m = model();
        let before = bytes();
        let rt =
            AdcnnRuntime::launch(m, &vec![WorkerOptions::default(); k], RuntimeConfig::default());
        let spent = bytes() - before;
        rt.shutdown();
        spent
    };
    let (one, four) = (launch_bytes(1), launch_bytes(4));
    let tile_scratch = {
        let mut m = model();
        m.net.blocks.truncate(m.prefix);
        let mut s = InferScratch::new();
        m.net.forward_infer_with(&Tensor::zeros([1, 64, 4, 4]), &mut s);
        s.capacity_bytes()
    };
    assert!(
        four.saturating_sub(one) < prefix_value_bytes as u64,
        "launching 4 workers allocated {four} B on the calling thread, 1 worker {one} B: the \
         difference must stay under one copy of the prefix ({prefix_value_bytes} B)"
    );
    assert!(
        one < tile_scratch as u64,
        "launching 1 worker allocated {one} B on the calling thread: a shape pass sizes the \
         split, so launch holds no tile forward's activation buffers and pack arena \
         ({tile_scratch} B)"
    );
}

/// A model that never trained holds its weights once: building the VGG
/// blocks, or cloning them, allocates one `f32` per weight and little
/// else; the gradient and momentum buffers come with training.
#[test]
fn an_untrained_model_holds_its_weights_once() {
    let mut rng = StdRng::seed_from_u64(47);
    let before = bytes();
    let net = vgg_blocks(10, &mut rng).net;
    let built = bytes() - before;
    let before = bytes();
    let copy = net.clone();
    let cloned = bytes() - before;
    let weights = (net.param_count() * std::mem::size_of::<f32>()) as f64;
    assert!(weights > 1.5e6, "the VGG blocks hold {weights} B of weights");
    for (what, spent) in [("building", built), ("cloning", cloned)] {
        assert!(
            spent as f64 <= 1.05 * weights,
            "{what} the VGG blocks allocated {spent} B for {weights} B of weights"
        );
    }
    drop(copy);
}
