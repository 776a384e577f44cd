//! The Central node's collector, driven through the public API: the
//! config checks, dispatch and adaptation, recovery from dead, silent,
//! lossy and corrupting workers, the topology events a death emits, the
//! out-of-order pipeline, and admission backpressure.

use adcnn_core::config::ConfigError;
use adcnn_core::fdsp::TileGrid;
use adcnn_core::lifecycle::{LifecyclePolicy, TimerPolicy};
use adcnn_core::obs::{ObsEvent, RecordingSink, SinkHandle};
use adcnn_core::report::AttributionSink;
use adcnn_core::sched::TileAllocator;
use adcnn_core::ClippedRelu;
use adcnn_nn::layer::QuantizeSte;
use adcnn_nn::small::shapes_cnn;
use adcnn_nn::{Block, Layer, Network};
use adcnn_retrain::PartitionedModel;
use adcnn_runtime::{
    AdcnnRuntime, Endpoint, InferHandle, RemoteModelSpec, RuntimeConfig, WorkerListener,
    WorkerOptions,
};
use adcnn_tensor::conv::Conv2dParams;
use adcnn_tensor::Tensor;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn build_model(seed: u64, grid: TileGrid) -> PartitionedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let cr = ClippedRelu::new(0.0, 2.0);
    PartitionedModel::fdsp(shapes_cnn(6, &mut rng), grid)
        .with_crelu(cr)
        .with_quant(QuantizeSte::new(4, cr.range()))
}

/// A tensor's values as bits: served and local outputs compare exactly.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn rand_image(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn([1, 3, 32, 32], 0.5, &mut rng)
}

fn rand_images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Tensor::randn([1, 3, 32, 32], 0.5, &mut rng)).collect()
}

/// The default lifecycle policy with a different `T_L` grace.
fn t_l(ms: u64) -> LifecyclePolicy {
    LifecyclePolicy { t_l: Duration::from_millis(ms).as_secs_f64(), ..Default::default() }
}

/// The default config with a different `T_L` grace.
fn cfg_t_l(ms: u64) -> RuntimeConfig {
    RuntimeConfig { policy: t_l(ms), ..Default::default() }
}

#[test]
fn validate_surfaces_typed_errors() {
    let cfg = RuntimeConfig {
        policy: LifecyclePolicy {
            t_l: 0.025,
            slack: 2.0,
            max_redispatch_rounds: 1,
            hard_timeout: 3.0,
            timer: TimerPolicy::AfterSend,
        },
        gamma: 0.8,
        seed: 7,
        task_queue_cap: 16,
        pipeline_depth: 4,
        intake_cap: 8,
        ..Default::default()
    };
    cfg.validate().unwrap();
    assert_eq!(cfg.policy.t_l, 0.025);
    assert_eq!(cfg.policy.slack, 2.0);
    assert_eq!(cfg.policy.max_redispatch_rounds, 1);
    assert_eq!(cfg.policy.hard_timeout, 3.0);
    assert_eq!(cfg.policy.timer, TimerPolicy::AfterSend);
    assert_eq!((cfg.gamma, cfg.seed, cfg.task_queue_cap), (0.8, 7, 16));
    assert_eq!((cfg.pipeline_depth, cfg.intake_cap), (4, 8));
    assert!(!cfg.sink.enabled());
    assert_eq!(
        RuntimeConfig { gamma: 0.0, ..Default::default() }.validate().unwrap_err(),
        ConfigError::GammaOutOfRange(0.0)
    );
    assert_eq!(
        RuntimeConfig { gamma: 1.5, ..Default::default() }.validate().unwrap_err(),
        ConfigError::GammaOutOfRange(1.5)
    );
    assert_eq!(
        RuntimeConfig { task_queue_cap: 0, ..Default::default() }.validate().unwrap_err(),
        ConfigError::ZeroTaskQueueCap
    );
    assert_eq!(
        RuntimeConfig { pipeline_depth: 0, ..Default::default() }.validate().unwrap_err(),
        ConfigError::ZeroPipelineDepth
    );
    assert_eq!(
        RuntimeConfig { intake_cap: 0, ..Default::default() }.validate().unwrap_err(),
        ConfigError::ZeroIntakeCap
    );
    assert_eq!(
        RuntimeConfig {
            policy: LifecyclePolicy { slack: 0.5, ..Default::default() },
            ..Default::default()
        }
        .validate()
        .unwrap_err(),
        ConfigError::SlackBelowOne(0.5)
    );
}

#[test]
fn attribution_rejects_a_pipeline_deeper_than_its_inflight_window() {
    let max = AttributionSink::MAX_INFLIGHT;
    let with_attr = |depth| {
        RuntimeConfig {
            pipeline_depth: depth,
            attribution: Some(Arc::new(AttributionSink::new())),
            ..Default::default()
        }
        .validate()
    };
    assert!(with_attr(max).is_ok());
    assert_eq!(
        with_attr(max + 1).unwrap_err(),
        ConfigError::AttributionDepthExceeded { depth: max + 1, max }
    );
    // without attribution nothing evicts, so depth is unbounded
    assert!(RuntimeConfig { pipeline_depth: max + 1, ..Default::default() }.validate().is_ok());
}

#[test]
fn distributed_matches_local_partitioned_model() {
    let grid = TileGrid::new(2, 2);
    let local = build_model(5, grid);
    let model = build_model(5, grid); // identical weights (same seed)
    let mut rt =
        AdcnnRuntime::launch(model, &[WorkerOptions::default(); 3], RuntimeConfig::default());
    for s in 0..3 {
        let x = rand_image(100 + s);
        let want = local.infer(&x);
        let out = rt.infer(&x);
        assert_eq!(out.zero_filled, 0, "dropped tiles: {:?}", out.received);
        assert_eq!(bits(&out.output), bits(&want), "distributed output diverges from local model");
    }
    rt.shutdown();
}

/// Launch sizes its split with a shape pass over the prefix and refuses,
/// naming the layer, a prefix that cannot emit `[C, H, W]` tiles: a broken
/// channel chain, or a prefix that ends in global pooling or flatten.
#[test]
fn launch_refuses_a_prefix_that_cannot_emit_tiles() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut conv = |ic, oc| Layer::conv2d(ic, oc, 3, Conv2dParams::same(3), &mut rng);
    let cases = [
        (
            vec![Block::Seq(vec![conv(3, 8), Layer::Relu]), Block::Seq(vec![conv(4, 8)])],
            "block 1 layer 0 (Conv2d) takes 4 channels, its input has 8",
        ),
        (
            vec![Block::Seq(vec![conv(3, 8)]), Block::Seq(vec![Layer::GlobalAvgPool])],
            "block 1 layer 0 (GlobalAvgPool) does not emit a [C, H, W] map",
        ),
        (
            vec![Block::Seq(vec![conv(3, 8), Layer::Relu, Layer::Flatten])],
            "block 0 layer 2 (Flatten) does not emit a [C, H, W] map",
        ),
    ];
    for (blocks, want) in cases {
        let prefix = blocks.len();
        let model = PartitionedModel {
            net: Network::new(blocks),
            prefix,
            grid: TileGrid::new(2, 2),
            boundary_crelu: None,
            boundary_quant: None,
            input: (3, 8, 8),
            classes: 8,
        };
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            AdcnnRuntime::launch(model, &[WorkerOptions::default()], RuntimeConfig::default())
        }))
        .err()
        .expect("launch must refuse the model");
        let msg = refused.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains(want), "{msg:?} does not say {want:?}");
    }
}

/// The remote launch runs the same shape pass and refuses the same way,
/// with an error: here a grid whose 1×1 tiles ShapesCNN's pool empties
/// (a remote spec always builds ShapesCNN, whose channel chain holds).
#[test]
fn launch_remote_refuses_a_tile_the_prefix_empties() {
    let spec = RemoteModelSpec::paper_default(6, 1, TileGrid::new(32, 32));
    let listener = WorkerListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let cfg = RuntimeConfig::default();
    let err = AdcnnRuntime::launch_remote(spec, 1, cfg, listener, Duration::from_secs(1))
        .err()
        .expect("launch_remote must refuse the model");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let want = "block 1 layer 3 (MaxPool) leaves an empty map";
    assert!(err.to_string().contains(want), "{err} does not say {want:?}");
}

/// A boundary quantizer wider than the wire's 4-bit nibbles is refused at
/// launch, before any worker has a tile to fail on: `launch` panics with
/// the reason and `launch_remote` returns it.
#[test]
fn launch_refuses_a_quantizer_the_wire_cannot_carry() {
    let cr = ClippedRelu::new(0.0, 2.0);
    let want = "the boundary quantizer has 5 bits";
    let mut rng = StdRng::seed_from_u64(3);
    let model = PartitionedModel::fdsp(shapes_cnn(6, &mut rng), TileGrid::new(2, 2))
        .with_crelu(cr)
        .with_quant(QuantizeSte::new(5, cr.range()));
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        AdcnnRuntime::launch(model, &[WorkerOptions::default()], RuntimeConfig::default())
    }))
    .err()
    .expect("launch must refuse the model");
    let msg = refused.downcast_ref::<String>().map_or("", String::as_str);
    assert!(msg.contains(want), "{msg:?} does not say {want:?}");

    let spec = RemoteModelSpec {
        quant_bits: 5,
        ..RemoteModelSpec::paper_default(6, 1, TileGrid::new(2, 2))
    };
    let listener = WorkerListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let err = AdcnnRuntime::launch_remote(
        spec,
        1,
        RuntimeConfig::default(),
        listener,
        Duration::from_secs(1),
    )
    .err()
    .expect("launch_remote must refuse the spec");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains(want), "{err} does not say {want:?}");
}

/// A grid that does not divide ShapesCNN's 32×32 input is an error from
/// `launch_remote`, not a panic in the model build.
#[test]
fn launch_remote_refuses_a_grid_that_does_not_divide_the_input() {
    let spec = RemoteModelSpec::paper_default(6, 1, TileGrid::new(3, 3));
    let listener = WorkerListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let err = AdcnnRuntime::launch_remote(
        spec,
        1,
        RuntimeConfig::default(),
        listener,
        Duration::from_secs(1),
    )
    .err()
    .expect("launch_remote must refuse the spec");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("not divisible"), "{err}");
}

#[test]
fn allocation_adapts_to_slow_worker() {
    let grid = TileGrid::new(4, 4);
    let model = build_model(7, grid);
    // The slow worker's per-tile time must exceed T_L so its stragglers
    // miss the idle-gap deadline and Algorithm 2 marks it slow.
    let opts = [
        WorkerOptions::default(),
        WorkerOptions::default(),
        WorkerOptions { artificial_delay: Duration::from_millis(100), ..Default::default() },
    ];
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg_t_l(50));
    let mut last_alloc = vec![0u32; 3];
    for s in 0..6 {
        let out = rt.infer(&rand_image(s));
        last_alloc = out.alloc.clone();
    }
    // the slow worker must end up with fewer tiles than the fast ones
    assert!(
        last_alloc[2] < last_alloc[0] && last_alloc[2] < last_alloc[1],
        "allocation did not adapt: {last_alloc:?} (speeds {:?})",
        rt.speeds()
    );
    rt.shutdown();
}

#[test]
fn failed_worker_tiles_recovered_by_redispatch_then_starved() {
    // A worker that goes silent from tile 0 used to cost one image's
    // worth of zero-filled tiles (§6.3); the lifecycle machine now
    // recovers them through re-dispatch well before the hard timeout.
    let grid = TileGrid::new(4, 4);
    let model = build_model(9, grid);
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(0), ..Default::default() },
    ];
    let cfg = cfg_t_l(50);
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg.clone());
    let first = rt.infer(&rand_image(1));
    assert_eq!(first.zero_filled, 0, "re-dispatch should recover every tile");
    assert!(first.redispatched > 0, "dead worker's tiles must be re-dispatched");
    assert!(
        first.latency.as_secs_f64() < cfg.policy.hard_timeout / 2.0,
        "recovery must not wait for the hard timeout: {:?}",
        first.latency
    );
    assert_eq!(first.output.dims()[0], 1); // output still produced
    for s in 2..6 {
        rt.infer(&rand_image(s));
    }
    let last = rt.infer(&rand_image(99));
    assert_eq!(last.alloc[1], 0, "dead worker still allocated: {:?}", last.alloc);
    assert_eq!(last.zero_filled, 0, "steady state should not drop");
    assert_eq!(last.redispatched, 0, "steady state should not re-dispatch");
    rt.shutdown();
}

#[test]
fn zero_fill_fallback_when_redispatch_disabled() {
    // `max_redispatch_rounds: 0` restores the paper's pure zero-fill
    // policy: a silent worker's tiles are dropped, not recovered.
    let grid = TileGrid::new(4, 4);
    let model = build_model(9, grid);
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(0), ..Default::default() },
    ];
    let cfg = RuntimeConfig {
        policy: LifecyclePolicy { max_redispatch_rounds: 0, ..t_l(50) },
        ..Default::default()
    };
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg);
    let first = rt.infer(&rand_image(1));
    assert!(first.zero_filled > 0, "zero-fill policy should drop the dead worker's tiles");
    assert_eq!(first.redispatched, 0);
    rt.shutdown();
}

#[test]
fn worker_killed_mid_image_recovers_without_hard_timeout() {
    // The fault-injection acceptance scenario: the worker processes a
    // few tiles of the image, then dies. Its remaining tiles must come
    // back through re-dispatch, not zero-fill.
    let grid = TileGrid::new(4, 4);
    let local = build_model(15, grid);
    let model = build_model(15, grid);
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(3), ..Default::default() },
    ];
    let cfg = cfg_t_l(50);
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg.clone());
    let x = rand_image(7);
    let want = local.infer(&x);
    let out = rt.infer(&x);
    assert_eq!(out.zero_filled, 0, "mid-image death must be recovered: {:?}", out.received);
    assert!(out.redispatched > 0, "expected re-dispatched tiles");
    assert!(
        out.latency.as_secs_f64() < cfg.policy.hard_timeout / 2.0,
        "recovery waited too long: {:?}",
        out.latency
    );
    assert_eq!(bits(&out.output), bits(&want), "recovered output diverges");
    rt.shutdown();
}

#[test]
fn disconnected_worker_detected_eagerly_and_rerouted() {
    // `disconnect_on_fail` drops the worker's task channel; from the
    // next dispatch on, sends fail fast, the worker is marked dead
    // (speed 0) and its tiles are rerouted without any deadline.
    let grid = TileGrid::new(4, 4);
    let model = build_model(19, grid);
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(2), disconnect_on_fail: true, ..Default::default() },
    ];
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg_t_l(50));
    let first = rt.infer(&rand_image(1));
    assert_eq!(first.zero_filled, 0, "death mid-image must be recovered");
    // By the next image the disconnect has been observed: the worker
    // is supervised out and everything routes to the live one.
    let second = rt.infer(&rand_image(2));
    assert_eq!(second.zero_filled, 0);
    assert!(!rt.live_workers()[1], "disconnect not detected");
    assert_eq!(rt.speeds()[1], 0.0, "dead worker's speed must be zeroed");
    let third = rt.infer(&rand_image(3));
    assert_eq!(third.alloc[1], 0, "dead worker still allocated: {:?}", third.alloc);
    assert_eq!(third.redispatched, 0, "steady state needs no recovery");
    rt.shutdown();
}

#[test]
fn in_process_disconnect_emits_one_node_down() {
    // A dropped task channel is a death exactly as a dropped socket is: the
    // first failed send takes the worker down and the topology stream sees
    // one NodeDown for it, however many later sends are refused.
    let grid = TileGrid::new(4, 4);
    let model = build_model(19, grid);
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(0), disconnect_on_fail: true, ..Default::default() },
    ];
    let rec = Arc::new(RecordingSink::new());
    let cfg = RuntimeConfig { sink: SinkHandle::new(rec.clone()), ..cfg_t_l(50) };
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg);
    // Worker 0 holds at most half an image, so every image sends worker 1
    // tiles after it has exited (Algorithm 2 alone would starve it out
    // before any send could fail).
    rt.set_allocator(TileAllocator::with_storage(1, vec![8, 16]));
    for s in 0..4 {
        let out = rt.infer(&rand_image(300 + s));
        assert_eq!(out.zero_filled, 0, "image {s} lost tiles");
    }
    assert!(!rt.live_workers()[1], "disconnect not detected");
    rt.shutdown();
    let downs: Vec<u32> = rec
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            ObsEvent::NodeDown { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    assert_eq!(downs, vec![1], "one NodeDown for the dead worker, none for the live one");
}

#[test]
fn idle_runtime_sees_in_process_exit() {
    // A worker thread that crashes reports its own exit: with nothing
    // submitted, the idle collector still takes it down — speed 0, one
    // NodeDown — instead of waiting for a send to find its queue gone.
    let grid = TileGrid::new(4, 4);
    let model = build_model(19, grid);
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(2), disconnect_on_fail: true, ..Default::default() },
    ];
    let rec = Arc::new(RecordingSink::new());
    let cfg = RuntimeConfig { sink: SinkHandle::new(rec.clone()), ..cfg_t_l(50) };
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg);
    // Serve until worker 1 has taken its third tile, on which it exits.
    let mut s = 0;
    while rt.worker_stats()[1].tiles < 2 {
        let out = rt.infer(&rand_image(400 + s));
        assert_eq!(out.zero_filled, 0, "image {s} lost tiles");
        s += 1;
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    while rt.live_workers()[1] || rt.speeds()[1] != 0.0 {
        assert!(std::time::Instant::now() < deadline, "idle runtime never saw worker 1 exit");
        std::thread::sleep(Duration::from_millis(5));
    }
    rt.shutdown();
    let downs: Vec<u32> = rec
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            ObsEvent::NodeDown { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    assert_eq!(downs, vec![1], "exactly one NodeDown, for the worker that exited");
}

#[test]
fn corrupt_payloads_are_recovered_by_redispatch() {
    // Every payload from worker 1 fails to decode; the tiles must be
    // re-dispatched to worker 0 and the image completed cleanly.
    let grid = TileGrid::new(2, 2);
    let local = build_model(25, grid);
    let model = build_model(25, grid);
    let opts =
        [WorkerOptions::default(), WorkerOptions { corrupt_prob: 1.0, ..Default::default() }];
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg_t_l(50));
    let x = rand_image(9);
    let want = local.infer(&x);
    let out = rt.infer(&x);
    assert_eq!(out.zero_filled, 0, "corrupt tiles must be recovered");
    assert!(out.redispatched > 0);
    assert_eq!(bits(&out.output), bits(&want));
    rt.shutdown();
}

#[test]
fn a_refused_round_reroutes_every_tile_in_the_same_drive() {
    // Each worker gets one message per dispatch round, so a one-message
    // queue holds one image's tiles for that worker. Storage caps give every
    // image to worker 0 ([4, 0]); worker 1 takes only reroutes. Worker 0
    // sleeps through image 0's round while image 1's waits in its queue, so
    // image 2's round finds the queue full and is refused whole: one
    // `SendRejected` per tile, each rerouted to worker 1 before `drive`
    // returns — no deadline re-dispatches anything.
    let grid = TileGrid::new(2, 2);
    let local = build_model(43, grid);
    let opts = [
        WorkerOptions { artificial_delay: Duration::from_millis(60), ..Default::default() },
        WorkerOptions::default(),
    ];
    let rec = Arc::new(RecordingSink::new());
    let cfg = RuntimeConfig {
        task_queue_cap: 1,
        pipeline_depth: 3,
        sink: SinkHandle::new(rec.clone()),
        ..Default::default()
    };
    let mut rt = AdcnnRuntime::launch(build_model(43, grid), &opts, cfg);
    // Two bits a tile: worker 1's one bit holds no tile, but it is placed,
    // so the lifecycle may reroute to it.
    rt.set_allocator(TileAllocator::with_storage(2, vec![8, 1]));
    let images = rand_images(3, 8);
    let first = rt.submit(&images[0]);
    // Worker 0 takes image 0's round off its queue (its 4 × 60 ms sleep
    // starts), so the queue is empty for image 1 and full for image 2.
    std::thread::sleep(Duration::from_millis(30));
    let rest: Vec<InferHandle> = images[1..].iter().map(|x| rt.submit(x)).collect();
    let got: Vec<_> = std::iter::once(first).chain(rest).map(InferHandle::wait).collect();
    let stats = rt.worker_stats();
    rt.shutdown();
    for (g, x) in got.iter().zip(&images) {
        assert_eq!(g.zero_filled, 0, "image {} lost tiles: {:?}", g.image, g.received);
        assert_eq!(g.redispatched, 0, "image {}: no deadline re-dispatch", g.image);
        assert_eq!(g.alloc, [4, 0]);
        assert_eq!(bits(&g.output), bits(&local.infer(x)), "image {} diverges", g.image);
    }
    // A round of four tiles is four tiles, wherever it went.
    let received: Vec<&[u32]> = got.iter().map(|g| g.received.as_slice()).collect();
    assert_eq!(received, [[4, 0], [4, 0], [0, 4]], "image 2's round was not refused");
    assert_eq!((stats[0].tiles, stats[1].tiles), (8, 4));
    // Each tile of image 2 was dispatched to worker 0, then rerouted to
    // worker 1: one reroute per tile.
    let dispatches: Vec<(u32, u32)> = rec
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            ObsEvent::TileDispatch { image: 2, tile, worker, .. } => Some((tile, worker)),
            _ => None,
        })
        .collect();
    let mut want: Vec<(u32, u32)> = (0..4).map(|t| (t, 0)).chain((0..4).map(|t| (t, 1))).collect();
    let mut seen = dispatches.clone();
    seen.sort();
    want.sort();
    assert_eq!(seen, want, "image 2's dispatches: {dispatches:?}");
}

#[test]
fn storage_capped_dispatch_completes_without_hanging() {
    // Regression: a storage-capped allocator returning Σ alloc < d made
    // the seed's round-robin assignment loop spin forever. The
    // shortfall must now zero-fill immediately.
    let grid = TileGrid::new(4, 4); // d = 16
    let model = build_model(33, grid);
    let mut rt =
        AdcnnRuntime::launch(model, &[WorkerOptions::default(); 2], RuntimeConfig::default());
    // Each worker can hold 3 tiles: only 6 of 16 are schedulable.
    rt.set_allocator(TileAllocator::with_storage(100, vec![300, 300]));
    let out = rt.infer(&rand_image(3));
    assert_eq!(out.alloc.iter().sum::<u32>(), 6);
    assert_eq!(out.zero_filled, 10, "shortfall must be dropped: {:?}", out.alloc);
    assert_eq!(out.redispatched, 0, "unschedulable tiles must not be re-dispatched");
    assert!(
        out.latency < Duration::from_secs(2),
        "storage shortfall must not stall: {:?}",
        out.latency
    );
    rt.shutdown();
}

#[test]
fn worker_stats_surface_in_outcome() {
    let grid = TileGrid::new(2, 2);
    let model = build_model(31, grid);
    let mut rt =
        AdcnnRuntime::launch(model, &[WorkerOptions::default(); 2], RuntimeConfig::default());
    let out = rt.infer(&rand_image(4));
    let first = rt.worker_stats();
    assert_eq!(first.len(), 2);
    if out.zero_filled == 0 && out.redispatched == 0 {
        let total: u64 = first.iter().map(|s| s.tiles).sum();
        assert_eq!(total, 4, "every received tile must be counted");
        assert!(first.iter().any(|s| s.compute_ns > 0));
        assert!(first.iter().any(|s| s.compress_ns > 0));
    }
    rt.infer(&rand_image(5));
    let t1: u64 = first.iter().map(|s| s.tiles).sum();
    let t2: u64 = rt.worker_stats().iter().map(|s| s.tiles).sum();
    assert!(t2 > t1, "counters must accumulate across images");
    rt.shutdown();
}

#[test]
fn wire_bits_shrink_with_compression() {
    let grid = TileGrid::new(2, 2);
    // Compressed model (tight clipped ReLU -> sparse)
    let model = build_model(11, grid);
    let mut rt =
        AdcnnRuntime::launch(model, &[WorkerOptions::default(); 2], RuntimeConfig::default());
    let out = rt.infer(&rand_image(3));
    let raw_bits = (16 * 16 * 16 * 4) as u64 * 32; // boundary map at f32
    assert!(out.wire_bits > 0);
    assert!(out.wire_bits < raw_bits, "compression ineffective: {} vs {raw_bits}", out.wire_bits);
    rt.shutdown();
}

#[test]
fn image_ids_keep_results_separated() {
    // Run several images back-to-back; stragglers from image i must not
    // corrupt image i+1 (exercised by a slow worker + short timeout).
    let grid = TileGrid::new(2, 2);
    let model = build_model(13, grid);
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { artificial_delay: Duration::from_millis(30), ..Default::default() },
    ];
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg_t_l(10));
    let local = build_model(13, grid);
    let x = rand_image(42);
    let want = local.infer(&x);
    // warm-up images that will leave stragglers in flight
    for s in 0..3 {
        rt.infer(&rand_image(s));
    }
    // let the allocator starve the slow worker, then verify correctness
    for _ in 0..3 {
        rt.infer(&x);
    }
    let out = rt.infer(&x);
    if out.zero_filled == 0 {
        assert_eq!(bits(&out.output), bits(&want));
    }
    rt.shutdown();
}

#[test]
fn random_inputs_never_panic() {
    let grid = TileGrid::new(2, 2);
    let model = build_model(17, grid);
    let mut rt =
        AdcnnRuntime::launch(model, &[WorkerOptions::default(); 4], RuntimeConfig::default());
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..5 {
        let x = Tensor::rand_uniform([1, 3, 32, 32], -2.0, 2.0, &mut rng);
        let out = rt.infer(&x);
        assert_eq!(out.output.dims(), &[1, 6]);
        let _ = rng.gen::<u32>();
    }
    rt.shutdown();
}

#[test]
fn lossy_worker_never_loses_tiles() {
    // Per-tile drop probability on one worker: every swallowed result
    // must come back through a re-dispatch round.
    let grid = TileGrid::new(4, 4);
    let model = build_model(37, grid);
    let opts = [
        WorkerOptions::default(),
        WorkerOptions { drop_prob: 0.5, fault_seed: 3, ..Default::default() },
    ];
    let mut rt = AdcnnRuntime::launch(model, &opts, cfg_t_l(50));
    let mut total_redispatched = 0u32;
    for s in 0..4 {
        let out = rt.infer(&rand_image(200 + s));
        assert_eq!(out.zero_filled, 0, "lossy worker must be recovered, image {s}");
        total_redispatched += out.redispatched;
    }
    assert!(total_redispatched > 0, "a 50% lossy worker must trigger recovery");
    rt.shutdown();
}

#[test]
fn stream_matches_sequential_outputs() {
    let grid = TileGrid::new(2, 2);
    let images = rand_images(6, 77);
    // sequential reference
    let mut rt_seq = AdcnnRuntime::launch(
        build_model(21, grid),
        &[WorkerOptions::default(); 3],
        RuntimeConfig::default(),
    );
    let seq: Vec<Tensor> = images.iter().map(|x| rt_seq.infer(x).output).collect();
    rt_seq.shutdown();
    // streamed
    let mut rt = AdcnnRuntime::launch(
        build_model(21, grid),
        &[WorkerOptions::default(); 3],
        RuntimeConfig::default(),
    );
    let stream = rt.infer_stream(&images);
    rt.shutdown();
    assert_eq!(stream.len(), 6);
    for (s, r) in stream.iter().zip(&seq) {
        assert_eq!(s.zero_filled, 0);
        assert!(s.output.approx_eq(r, 1e-4), "streamed output diverged");
    }
}

#[test]
fn stream_interleaves_without_cross_talk() {
    // Distinct images must map to their own outputs even when results
    // of consecutive images interleave on the shared result channel.
    let grid = TileGrid::new(4, 4);
    let images = rand_images(8, 91);
    let local = build_model(23, grid);
    let want: Vec<Tensor> = images.iter().map(|x| local.infer(x)).collect();
    let mut rt = AdcnnRuntime::launch(
        build_model(23, grid),
        &[WorkerOptions::default(); 4],
        RuntimeConfig::default(),
    );
    let got = rt.infer_stream(&images);
    rt.shutdown();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.zero_filled, 0);
        assert_eq!(bits(&g.output), bits(w));
    }
}

#[test]
fn probe_window_favors_faster_worker() {
    // Nobody misses the deadline here — the fast worker simply returns
    // more results inside the T_L probe window, and Algorithm 3 should
    // reward it with more tiles (the paper's throughput semantics).
    let grid = TileGrid::new(4, 4);
    let model = build_model(41, grid);
    let workers = [
        WorkerOptions::default(),
        WorkerOptions { artificial_delay: Duration::from_millis(15), ..Default::default() },
        WorkerOptions { artificial_delay: Duration::from_millis(15), ..Default::default() },
    ];
    let mut rt = AdcnnRuntime::launch(model, &workers, cfg_t_l(50));
    let images = rand_images(8, 17);
    let got = rt.infer_stream(&images);
    let last = got.last().unwrap();
    assert!(
        last.alloc[0] > last.alloc[1] && last.alloc[0] > last.alloc[2],
        "fast worker not favored: {:?} (speeds {:?})",
        last.alloc,
        rt.speeds()
    );
    rt.shutdown();
}

#[test]
fn stream_survives_failed_worker() {
    let grid = TileGrid::new(2, 2);
    let images = rand_images(8, 13);
    let workers = [
        WorkerOptions::default(),
        WorkerOptions { fail_after_tiles: Some(2), ..Default::default() },
    ];
    let mut rt = AdcnnRuntime::launch(build_model(29, grid), &workers, cfg_t_l(40));
    let got = rt.infer_stream(&images);
    rt.shutdown();
    // Every message names each image's regime, so a failure says which
    // one the run met.
    let regime: Vec<_> = got.iter().map(|o| (&o.alloc, o.redispatched, o.zero_filled)).collect();
    let regime = format!("per image (alloc, redispatched, zero_filled): {regime:?}");
    assert_eq!(got.len(), 8, "{regime}");
    // the crash is absorbed by re-dispatch, never by zero-fill …
    assert!(got.iter().all(|o| o.zero_filled == 0), "no image may lose tiles; {regime}");
    assert!(got.iter().any(|o| o.redispatched > 0), "the crash must trigger recovery; {regime}");
    // … and the statistics still starve the dead worker out
    assert_eq!(got.last().unwrap().alloc[1], 0, "{regime}");
    assert_eq!(got.last().unwrap().redispatched, 0, "{regime}");
}

#[test]
fn stream_stays_correct_when_duplicates_race_stashed_originals() {
    // A jittery-slow worker makes the deadline fire while its originals
    // are still in flight: the duplicate (re-dispatched) results race
    // the originals across consecutive pipelined images. Outputs must
    // match the local model whenever nothing was zero-filled.
    let grid = TileGrid::new(2, 2);
    let images = rand_images(8, 57);
    let local = build_model(47, grid);
    let want: Vec<Tensor> = images.iter().map(|x| local.infer(x)).collect();
    let workers = [
        WorkerOptions::default(),
        WorkerOptions {
            artificial_delay: Duration::from_millis(20),
            delay_jitter: Duration::from_millis(20),
            fault_seed: 11,
            ..Default::default()
        },
    ];
    let mut rt = AdcnnRuntime::launch(build_model(47, grid), &workers, cfg_t_l(10));
    let got = rt.infer_stream(&images);
    rt.shutdown();
    assert!(
        got.iter().any(|o| o.redispatched > 0),
        "scenario must actually exercise re-dispatch: {:?}",
        got.iter().map(|o| o.redispatched).collect::<Vec<_>>()
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if g.zero_filled == 0 {
            assert_eq!(
                bits(&g.output),
                bits(w),
                "image {i} diverged despite full tile set (redispatched {})",
                g.redispatched
            );
        }
    }
}

#[test]
fn backpressure_blocks_at_exactly_intake_cap() {
    // Depth 1 with slow workers wedges the collector on image 0, so
    // the intake queue fills deterministically: exactly `intake_cap`
    // submissions are accepted, the next is rejected.
    let grid = TileGrid::new(2, 2);
    let model = build_model(61, grid);
    let opts = [
        WorkerOptions { artificial_delay: Duration::from_millis(100), ..Default::default() },
        WorkerOptions { artificial_delay: Duration::from_millis(100), ..Default::default() },
    ];
    let cfg = RuntimeConfig { pipeline_depth: 1, intake_cap: 3, ..Default::default() };
    let rt = AdcnnRuntime::launch(model, &opts, cfg);
    let images = rand_images(5, 33);
    let h0 = rt.submit(&images[0]);
    // Wait until image 0 is admitted: from here the collector holds it
    // in flight for >= 200 ms (4 tiles x 100 ms over 2 workers) and
    // never pops the intake queue (depth 1).
    while rt.in_flight() < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut handles = vec![h0];
    for x in &images[1..4] {
        handles.push(rt.try_submit(x).expect("queue below intake_cap must accept"));
    }
    assert_eq!(rt.queued(), 3, "admission queue must hold exactly intake_cap");
    assert!(rt.try_submit(&images[4]).is_none(), "submit beyond intake_cap must be rejected");
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.image(), i as u64);
        let out = h.wait();
        assert_eq!(out.image, i as u64, "handle resolved with another image's outcome");
        assert_eq!(out.output.dims(), &[1, 6]);
    }
    rt.shutdown();
}

#[test]
fn pipeline_drains_and_gauges_return_to_zero() {
    let grid = TileGrid::new(2, 2);
    let model = build_model(63, grid);
    let cfg = RuntimeConfig { pipeline_depth: 4, ..Default::default() };
    let rt = AdcnnRuntime::launch(model, &[WorkerOptions::default(); 2], cfg);
    let images = rand_images(8, 44);
    let handles: Vec<InferHandle> = images.iter().map(|x| rt.submit(x)).collect();
    for (i, h) in handles.into_iter().enumerate() {
        let out = h.wait();
        assert_eq!(out.image, i as u64);
        assert_eq!(out.zero_filled, 0);
        assert!(out.queued >= Duration::ZERO);
    }
    // The last finish stored the gauge before resolving its handle.
    assert_eq!(rt.in_flight(), 0);
    assert_eq!(rt.queued(), 0);
    rt.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random submit/complete interleavings — depth, worker faults
    /// (silent death mid-flight, lossy links, jitter) and the order
    /// handles are waited on all derive from the seed. Every handle
    /// must resolve exactly once with its *own* image's result.
    #[test]
    fn random_interleavings_resolve_each_handle_with_its_own_image(seed in 0u64..1000) {
        let grid = TileGrid::new(2, 2);
        let mut dice = StdRng::seed_from_u64(seed);
        let depth = 1 + dice.gen_range(0..4usize);
        let faulty = WorkerOptions {
            fail_after_tiles: if dice.gen_bool(0.3) {
                Some(dice.gen_range(0..6usize))
            } else {
                None
            },
            artificial_delay: Duration::from_millis(dice.gen_range(0..20u64)),
            delay_jitter: Duration::from_millis(dice.gen_range(0..10u64)),
            drop_prob: if dice.gen_bool(0.3) { 0.3 } else { 0.0 },
            fault_seed: seed,
            ..Default::default()
        };
        let cfg = RuntimeConfig {
            policy: t_l(20),
            pipeline_depth: depth,
            intake_cap: 8,
            ..Default::default()
        };
        let local = build_model(71, grid);
        let rt = AdcnnRuntime::launch(
            build_model(71, grid),
            &[WorkerOptions::default(), faulty],
            cfg,
        );
        let images = rand_images(6, 1000 + seed);
        let want: Vec<Tensor> = images.iter().map(|x| local.infer(x)).collect();
        let mut handles: Vec<InferHandle> = images.iter().map(|x| rt.submit(x)).collect();
        // Wait out of submission order: completion is out-of-order too.
        handles.shuffle(&mut dice);
        let mut seen = [false; 6];
        for h in handles {
            let id = h.image();
            let out = h.wait();
            prop_assert_eq!(out.image, id, "handle resolved with another image's outcome");
            prop_assert!(!seen[id as usize], "image {} resolved twice", id);
            seen[id as usize] = true;
            if out.zero_filled == 0 {
                prop_assert_eq!(
                    bits(&out.output),
                    bits(&want[id as usize]),
                    "image {} produced another image's output", id
                );
            }
        }
        prop_assert!(seen.iter().all(|s| *s), "every handle must resolve");
        rt.shutdown();
    }
}
