//! Cross-crate integration tests: the full pipeline from training through
//! the compression wire format to the distributed runtime and the
//! simulator, exercised together.

use adcnn::core::compress::{compress, decompress, Quantizer};
use adcnn::core::fdsp::TileGrid;
use adcnn::core::wire::{make_result, TileKey};
use adcnn::core::ClippedRelu;
use adcnn::nn::layer::QuantizeSte;
use adcnn::nn::small::shapes_cnn;
use adcnn::retrain::data::shapes;
use adcnn::retrain::progressive::{progressive_retrain, RetrainConfig};
use adcnn::retrain::trainer::{evaluate, train, TrainConfig};
use adcnn::retrain::PartitionedModel;
use adcnn::runtime::{AdcnnRuntime, LifecyclePolicy, RuntimeConfig, WorkerOptions};
use adcnn::tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

/// The training-graph quantizer (`QuantizeSte`) and the wire quantizer
/// (`compress::Quantizer`) must place values on the same grid, otherwise
/// the model the Central node retrained is not the model the cluster
/// serves.
#[test]
fn training_and_wire_quantizers_agree() {
    let range = 1.7f32;
    let ste = QuantizeSte::new(4, range);
    let wire = Quantizer::new(4, range);
    for i in 0..1000 {
        let x = i as f32 * range / 999.0;
        let a = ste.apply(x);
        let b = wire.value(wire.level(x));
        assert!((a - b).abs() < 1e-6, "grids disagree at {x}: {a} vs {b}");
    }
}

/// Tile extraction → per-tile compression → wire → decode → reassembly must
/// reproduce the clipped/quantized boundary map exactly (not just within
/// tolerance: both paths land on identical quantization levels).
#[test]
fn tile_wire_roundtrip_reassembles_boundary() {
    let mut rng = StdRng::seed_from_u64(3);
    let boundary = Tensor::randn([1, 8, 16, 16], 1.0, &mut rng);
    let cr = ClippedRelu::new(0.1, 1.3);
    let q = Quantizer::paper_default(cr);
    let grid = TileGrid::new(4, 4);

    // reference: clip + quantize the whole map
    let reference = cr.forward(&boundary).map(|v| q.value(q.level(v)));

    // distributed path: per tile
    let mut assembled = Tensor::zeros([1, 8, 16, 16]);
    for (t, tile) in grid.extract(&boundary).into_iter().enumerate() {
        let clipped = cr.forward(&tile);
        let res = make_result(TileKey { image_id: 0, tile_id: t as u32 }, &clipped, q);
        let decoded = res.to_tensor().expect("decode");
        let (gr, gc) = grid.tile_pos(t);
        assembled.paste_spatial(&decoded, gr * 4, gc * 4);
    }
    assert!(assembled.approx_eq(&reference, 1e-6), "wire path diverged");
}

/// Train → Algorithm 1 retrain → serve distributed: the cluster's accuracy
/// must match the local retrained model's accuracy on the same data.
#[test]
fn retrained_model_serves_correctly_on_cluster() {
    let data = shapes(240, 80, 32, 55);
    let mut rng = StdRng::seed_from_u64(55);
    let mut original = PartitionedModel::unpartitioned(shapes_cnn(data.classes, &mut rng));
    train(
        &mut original,
        &data,
        &TrainConfig { epochs: 20, target_accuracy: 0.9, ..Default::default() },
    );
    let small = adcnn::nn::small::SmallModel {
        net: original.net,
        name: "ShapesCNN",
        input: (3, 32, 32),
        classes: data.classes,
        separable_prefix: 2,
        prefix_scale: (2, 2),
    };
    let cfg = RetrainConfig { tolerance: 0.03, max_epochs_per_stage: 5, ..Default::default() };
    let (mut retrained, report) = progressive_retrain(small, &data, TileGrid::new(2, 2), &cfg);
    assert!(report.final_accuracy > 0.7, "retraining failed: {report:?}");

    let local_acc = evaluate(&mut retrained, &data);
    let mut rt =
        AdcnnRuntime::launch(retrained, &[WorkerOptions::default(); 3], RuntimeConfig::default());
    let dims = data.test_x.dims().to_vec();
    let stride: usize = dims[1..].iter().product();
    let mut correct = 0usize;
    let n = 40.min(data.test_len());
    for i in 0..n {
        let img = Tensor::from_vec(
            [1, dims[1], dims[2], dims[3]],
            data.test_x.as_slice()[i * stride..(i + 1) * stride].to_vec(),
        );
        let out = rt.infer(&img);
        assert_eq!(out.zero_filled, 0);
        let row = out.output.as_slice();
        let pred = (0..row.len()).max_by(|&a, &b| row[a].total_cmp(&row[b])).unwrap();
        if pred == data.test_y[i] {
            correct += 1;
        }
    }
    rt.shutdown();
    let dist_acc = correct as f64 / n as f64;
    assert!(
        (dist_acc - local_acc).abs() < 0.15,
        "distributed accuracy {dist_acc} far from local {local_acc}"
    );
}

/// A trained model served by a cluster whose worker dies mid-stream: the
/// tile lifecycle manager must recover every tile through re-dispatch (no
/// zero-fill, no accuracy cliff), well before the hard timeout, and the
/// supervisor must starve the dead worker out of subsequent allocations.
#[test]
fn cluster_survives_worker_death_without_losing_tiles() {
    let mut rng = StdRng::seed_from_u64(91);
    let cr = ClippedRelu::new(0.0, 2.0);
    let build = |rng: &mut StdRng| {
        PartitionedModel::fdsp(shapes_cnn(6, rng), TileGrid::new(4, 4))
            .with_crelu(cr)
            .with_quant(QuantizeSte::new(4, cr.range()))
    };
    let mut local = build(&mut StdRng::seed_from_u64(91));
    let model = build(&mut StdRng::seed_from_u64(91));
    // Worker 1 dies after three tiles; worker 2 after ten.
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(3), ..Default::default() },
        WorkerOptions { fail_after_tiles: Some(10), ..Default::default() },
    ];
    let cfg = RuntimeConfig {
        policy: LifecyclePolicy { t_l: 0.050, ..Default::default() },
        ..Default::default()
    };
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg.clone());
    let images: Vec<Tensor> =
        (0..8).map(|_| Tensor::randn([1, 3, 32, 32], 0.5, &mut rng)).collect();
    let want: Vec<Tensor> = images.iter().map(|x| local.infer(x)).collect();
    let start = std::time::Instant::now();
    let got = rt.infer_stream(&images);
    let elapsed = start.elapsed();
    assert!(got.iter().all(|o| o.zero_filled == 0), "tiles were lost");
    assert!(got.iter().any(|o| o.redispatched > 0), "deaths must trigger re-dispatch");
    for (g, w) in got.iter().zip(&want) {
        assert!(g.output.approx_eq(w, 2e-3), "recovered output diverged from local model");
    }
    // Recovery must come from the deadline machinery, not the hard timeout.
    assert!(
        elapsed.as_secs_f64() < cfg.policy.hard_timeout,
        "stream of 8 images took {elapsed:?}; recovery waited for the hard timeout"
    );
    // Supervision: both dead workers end up starved and no longer needed.
    let last = got.last().unwrap();
    assert_eq!(last.alloc[1], 0, "dead worker 1 still allocated: {:?}", last.alloc);
    assert_eq!(last.alloc[2], 0, "dead worker 2 still allocated: {:?}", last.alloc);
    assert_eq!(last.redispatched, 0, "steady state should not need recovery");
    rt.shutdown();
}

/// Every counter a `MetricsSink` accumulates must reconcile exactly with
/// the per-image `InferOutcome`s the caller saw — under fault injection
/// (a worker death plus a corrupting worker), not just on the happy path.
/// The metrics pipeline and the API results are two views of the same
/// run; if they drift, one of them is lying.
#[test]
fn metrics_snapshot_reconciles_with_infer_outcomes_under_faults() {
    use adcnn::core::obs::MetricsSink;
    use adcnn::runtime::SinkHandle;
    use std::sync::Arc;

    let cr = ClippedRelu::new(0.0, 2.0);
    let model =
        PartitionedModel::fdsp(shapes_cnn(6, &mut StdRng::seed_from_u64(17)), TileGrid::new(4, 4))
            .with_crelu(cr)
            .with_quant(QuantizeSte::new(4, cr.range()));
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(5), disconnect_on_fail: true, ..Default::default() },
        WorkerOptions { corrupt_prob: 0.3, fault_seed: 99, ..Default::default() },
    ];
    let metrics = Arc::new(MetricsSink::new());
    let cfg = RuntimeConfig {
        policy: LifecyclePolicy { t_l: 0.040, ..Default::default() },
        sink: SinkHandle::new(metrics.clone()),
        ..Default::default()
    };
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg);
    let mut rng = StdRng::seed_from_u64(18);
    let images: Vec<Tensor> =
        (0..6).map(|_| Tensor::randn([1, 3, 32, 32], 0.5, &mut rng)).collect();
    let got = rt.infer_stream(&images);
    rt.shutdown();

    let snap = metrics.snapshot();
    let n = images.len() as u64;
    let d = 16u64; // 4x4 grid
    assert_eq!(snap.images_started, n);
    assert_eq!(snap.images_finished, n);
    assert_eq!(snap.image_latency_us.count, n);

    let received: u64 = got.iter().map(|o| o.received.iter().map(|&r| r as u64).sum::<u64>()).sum();
    let zero_filled: u64 = got.iter().map(|o| o.zero_filled as u64).sum();
    let redispatched: u64 = got.iter().map(|o| o.redispatched as u64).sum();
    assert_eq!(snap.tiles_arrived, received);
    assert_eq!(snap.tiles_zero_filled, zero_filled);
    // The event stream records every recovery *send attempt*; the outcome
    // counter nets out attempts whose send was rejected (a dead worker's
    // closed queue) before the tile was re-routed.
    assert!(
        snap.tiles_redispatched >= redispatched,
        "{} redispatch events < {redispatched} net redispatches",
        snap.tiles_redispatched
    );
    // Every tile is accounted for exactly once: accepted or zero-filled.
    assert_eq!(snap.tiles_arrived + snap.tiles_zero_filled, n * d);
    // Round-0 dispatches cover every tile; send rejections re-route as
    // fresh dispatches, so the count can only exceed n*d.
    assert!(snap.tiles_dispatched >= n * d, "{} dispatches", snap.tiles_dispatched);

    // The injected faults actually showed up in the metrics stream.
    assert!(snap.workers_died >= 1, "worker death not observed");
    assert!(snap.tiles_corrupt > 0, "corruption not observed");
    assert!(redispatched > 0, "death must force re-dispatch");

    // Worker-side spans: one compute + one compress per computed tile, and
    // every accepted result was computed by someone.
    assert_eq!(snap.compute_us.count, snap.compress_us.count);
    assert!(snap.compute_us.count >= snap.tiles_arrived);
    assert!(snap.compressed_bytes > 0);
    assert!(snap.compute_us.mean().unwrap_or(0.0) > 0.0);
}

/// The §4 pipeline is lossless for level values and bounded-error for
/// arbitrary activations, across a range of shapes and sparsities.
#[test]
fn compression_error_bound_holds_at_scale() {
    let mut rng = StdRng::seed_from_u64(7);
    for &(c, h, w) in &[(4usize, 8usize, 8usize), (16, 28, 28), (3, 17, 31)] {
        let x = Tensor::randn([1, c, h, w], 1.0, &mut rng);
        let cr = ClippedRelu::new(0.5, 2.0);
        let clipped = cr.forward(&x);
        let q = Quantizer::paper_default(cr);
        let comp = compress(clipped.as_slice(), q);
        let back = decompress(&comp).expect("decode");
        for (a, b) in clipped.as_slice().iter().zip(&back) {
            assert!((a - b).abs() <= q.max_error() + 1e-6);
        }
        // byte accounting is self-consistent
        assert_eq!(comp.wire_bits() % 8, 0);
    }
}

/// FDSP processing through the real trained prefix equals whole-image
/// processing away from tile borders: the property §3.2 rests on, checked
/// on a *trained* model rather than random weights.
#[test]
fn fdsp_interior_equivalence_on_trained_model() {
    let data = shapes(120, 40, 32, 66);
    let mut rng = StdRng::seed_from_u64(66);
    let mut m = PartitionedModel::unpartitioned(shapes_cnn(data.classes, &mut rng));
    train(&mut m, &data, &TrainConfig { epochs: 4, ..Default::default() });

    let x = Tensor::randn([1, 3, 32, 32], 0.5, &mut rng);
    // full-map boundary (prefix has one pool, so 16x16 out)
    let full = m.boundary_activations(&x);
    // tiled boundary
    m.grid = TileGrid::new(2, 2);
    let tiled = m.boundary_activations(&x);
    assert_eq!(full.dims(), tiled.dims());

    // Interior of each 8x8 output tile (≥2 px from the internal cut at 8,
    // to cover the receptive field through 2 convs + pool) must agree.
    let (_, c, hh, ww) = full.shape().nchw();
    let mut checked = 0;
    for ci in 0..c {
        for r in 0..hh {
            for cc in 0..ww {
                let dr = if r < 8 { 7 - r } else { r - 8 };
                let dc = if cc < 8 { 7 - cc } else { cc - 8 };
                if dr >= 2 && dc >= 2 {
                    let a = full.at(&[0, ci, r, cc]);
                    let b = tiled.at(&[0, ci, r, cc]);
                    assert!(
                        (a - b).abs() < 1e-3,
                        "interior mismatch at ({ci},{r},{cc}): {a} vs {b}"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 100);
}
