//! Conv-node worker threads.
//!
//! Each worker reads the separable-prefix network (the paper stores "the
//! filter weights for the separable layer blocks … in the Conv nodes",
//! §6.1): in-process workers share one read-only copy, a worker process
//! builds its own. Tiles arrive in rounds, one message per dispatch round:
//! the worker runs each [`TileTask`] of a round through the clipped-ReLU +
//! quantize + RLE pipeline and answers the round with one message of
//! [`TileResult`]s.

use crate::central::Inbound;
use crate::transport::Conn;
use adcnn_core::compress::{clip_and_compress_into, compress_into, CompressScratch, Quantizer};
use adcnn_core::config::{check_probability, ConfigError};
use adcnn_core::obs::{ObsEvent, SinkHandle};
use adcnn_core::wire::{make_result_from_parts, TileResult, TileTask};
use adcnn_nn::infer::InferScratch;
use adcnn_nn::Network;
use adcnn_tensor::activ::ClippedRelu;
use crossbeam::channel::{Receiver, Sender};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Behaviour knobs for one worker (heterogeneity / fault injection).
///
/// The fault modes compose: a worker can be slow *and* lossy *and* crash
/// after `n` tiles, which is exactly the kind of edge device the re-dispatch
/// machinery in [`crate::central`] exists to survive.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerOptions {
    /// Extra sleep per tile (simulates a slower device; §7.3 CPUlimit).
    pub artificial_delay: Duration,
    /// Stop responding after this many tiles (simulates a node crash).
    pub fail_after_tiles: Option<usize>,
    /// If true, `fail_after_tiles` makes the thread *exit* — it reports
    /// itself down to the Central node as it goes, and its task channel
    /// disconnects — instead of silently swallowing work.
    pub disconnect_on_fail: bool,
    /// Per-tile probability that the finished result is silently lost
    /// (lossy wireless link / crashed send).
    pub drop_prob: f64,
    /// Extra uniform random delay in `[0, delay_jitter]` per tile
    /// (contended channel / noisy neighbour).
    pub delay_jitter: Duration,
    /// Per-tile probability that the payload is corrupted in transit: the
    /// result arrives but fails to decode at the Central node.
    pub corrupt_prob: f64,
    /// Seed for the fault-injection RNG (mixed with the worker id so
    /// identically-configured workers fault independently).
    pub fault_seed: u64,
}

impl WorkerOptions {
    /// Start building validated options from the defaults. Only
    /// `perf-ledger/` builds options this way; everything else writes
    /// `WorkerOptions { .., ..Default::default() }`.
    pub fn builder() -> WorkerOptionsBuilder {
        WorkerOptionsBuilder { opts: WorkerOptions::default() }
    }

    /// Check the probabilities; `AdcnnRuntime::launch` runs this on every
    /// worker's options, so a bad value fails before any thread starts.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_probability("drop_prob", self.drop_prob)?;
        check_probability("corrupt_prob", self.corrupt_prob)
    }
}

/// Builder for [`WorkerOptions`]; see [`WorkerOptions::builder`].
#[derive(Clone, Debug)]
pub struct WorkerOptionsBuilder {
    opts: WorkerOptions,
}

impl WorkerOptionsBuilder {
    /// Extra sleep per tile. The ledger's (`perf-ledger/src/serve.rs`);
    /// goes with the item-6 `benchmark` PR.
    pub fn artificial_delay(mut self, d: Duration) -> Self {
        self.opts.artificial_delay = d;
        self
    }

    /// Validate and produce the options. The ledger's; goes with the
    /// item-6 `benchmark` PR.
    pub fn build(self) -> Result<WorkerOptions, ConfigError> {
        self.opts.validate()?;
        Ok(self.opts)
    }
}

/// Control messages from the Central node. The last two only ever reach a
/// remote slot's supervisor, whose one channel they share with the tiles
/// (see [`crate::transport`], "Supervision").
pub enum WorkerMsg {
    /// One dispatch round: the tiles the Central node sends this worker in
    /// one step, in dispatch order. They are answered with one
    /// `Inbound::Results`.
    Tiles(Vec<TileTask>),
    /// Terminate the worker.
    Shutdown,
    /// The acceptor hands the slot a connection that sent a valid `HELLO`.
    Conn(Conn),
    /// The reader of the slot's connection with this generation exited.
    ReaderGone(u64),
}

/// One worker's compression configuration (applied at the boundary).
#[derive(Clone, Copy, Debug)]
pub struct Compression {
    /// Clipped ReLU bounds.
    pub crelu: ClippedRelu,
    /// Wire quantizer (usually `Quantizer::paper_default(crelu)`).
    pub quantizer: Quantizer,
}

/// Lock-free per-worker counters, updated by the worker thread after every
/// tile and snapshotted by the Central node (the runtime-stats-context
/// idiom: one shared `Arc`, relaxed atomics, no channel traffic).
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Tiles fully processed (computed + compressed + sent).
    pub tiles: AtomicU64,
    /// Cumulative prefix-network forward time, nanoseconds.
    pub compute_ns: AtomicU64,
    /// Cumulative clip + quantize + RLE time, nanoseconds.
    pub compress_ns: AtomicU64,
}

impl WorkerStats {
    /// Record one processed tile.
    pub fn record(&self, compute: Duration, compress: Duration) {
        self.tiles.fetch_add(1, Ordering::Relaxed);
        self.compute_ns.fetch_add(compute.as_nanos() as u64, Ordering::Relaxed);
        self.compress_ns.fetch_add(compress.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot for reporting (relaxed loads).
    pub fn snapshot(&self) -> WorkerStatsSnapshot {
        WorkerStatsSnapshot {
            tiles: self.tiles.load(Ordering::Relaxed),
            compute_ns: self.compute_ns.load(Ordering::Relaxed),
            compress_ns: self.compress_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`WorkerStats`], one per worker from
/// [`AdcnnRuntime::worker_stats`](crate::central::AdcnnRuntime::worker_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Tiles fully processed since launch.
    pub tiles: u64,
    /// Cumulative prefix-network forward time, nanoseconds.
    pub compute_ns: u64,
    /// Cumulative clip + quantize + RLE time, nanoseconds.
    pub compress_ns: u64,
}

/// Run one tile through the Conv-node pipeline: prefix forward in the
/// reusable scratch, boundary compression, result assembly. Returns the
/// result plus the (compute, compress) durations for stats/observability.
///
/// This is the single tile-processing path: the in-process worker threads
/// ([`spawn_worker`]) and the remote worker loop
/// ([`crate::transport::run_worker`]) both call it, so a tile produces a
/// byte-identical [`TileResult`] no matter which transport carried it.
pub(crate) fn process_tile(
    prefix: &Network,
    compression: Option<Compression>,
    task: &TileTask,
    scratch: &mut InferScratch,
    cs: &mut CompressScratch,
) -> (TileResult, Duration, Duration) {
    let t0 = Instant::now();
    let out = prefix.forward_infer_with(&task.tile, scratch);
    let t1 = Instant::now();
    let dims = out.dims();
    assert_eq!(dims.len(), 4, "tile results are [1,C,H,W]");
    let shape = [dims[0], dims[1], dims[2], dims[3]];
    let elems = out.numel();
    let (encoded, quantizer) = match compression {
        Some(c) => (clip_and_compress_into(out.as_slice(), c.crelu, c.quantizer, cs), c.quantizer),
        // Uncompressed mode still needs a wire quantizer (the nibble codec
        // carries at most 4-bit levels); use the observed range. The
        // quantizer clamps into [0, range], which subsumes the ReLU the
        // seed path applied. This mode exists for comparisons only.
        None => {
            let range = out.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
            let q = Quantizer::new(4, range);
            (compress_into(out.as_slice(), q, cs), q)
        }
    };
    // Timestamp *before* building the result: the per-shipped-tile payload
    // copy is transport, not compression, and must not be billed to
    // `compress_ns`.
    let t2 = Instant::now();
    let result = make_result_from_parts(task.key, shape, elems, encoded, quantizer);
    (result, t1.duration_since(t0), t2.duration_since(t1))
}

/// Observe one processed tile, the same way whichever carrier brought it
/// back: count it in `stats` and mirror its spans into `sink`. Compress
/// ends at `done_s` (seconds since the runtime's epoch) and compute ends
/// where compress began.
pub(crate) fn observe_tile(
    stats: &WorkerStats,
    sink: &SinkHandle,
    worker: usize,
    done_s: f64,
    compute: Duration,
    compress: Duration,
    res: &TileResult,
) {
    stats.record(compute, compress);
    let compress_s = compress.as_secs_f64();
    sink.emit_with(|| ObsEvent::TileCompute {
        at: (done_s - compress_s).max(0.0),
        image: res.key.image_id,
        tile: res.key.tile_id,
        worker: worker as u32,
        dur: compute.as_secs_f64(),
    });
    sink.emit_with(|| {
        let bits = res.wire_bits();
        ObsEvent::TileCompress {
            at: done_s,
            image: res.key.image_id,
            tile: res.key.tile_id,
            worker: worker as u32,
            dur: compress_s,
            bytes: bits / 8,
            ratio: bits as f64 / (res.payload.elems as f64 * 32.0),
        }
    });
}

/// Spawn a Conv-node worker thread.
///
/// `prefix` is the separable blocks, shared read-only with every other
/// in-process worker (the weights are held once per process). Each
/// [`WorkerMsg::Tiles`] round is computed tile by tile — the fault options
/// and [`observe_tile`] apply per tile — and answered with one
/// [`Inbound::Results`] on the collector's `inbound` channel, tagged with
/// `worker_id`; an injected crash reports the worker's exit there instead,
/// and the replies of the round it dies in are never sent, as a process
/// dying before its write would lose them. The thread owns one
/// [`InferScratch`] and one [`CompressScratch`], so its steady-state tile
/// loop allocates only the per-result payload copy and the reply. Per-tile
/// compute/compress spans are mirrored into `sink` with timestamps
/// relative to `epoch` — the same time axis the Central node's lifecycle
/// events use.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_worker(
    worker_id: usize,
    prefix: Arc<Network>,
    compression: Option<Compression>,
    opts: WorkerOptions,
    tasks: Receiver<WorkerMsg>,
    inbound: Sender<Inbound>,
    stats: Arc<WorkerStats>,
    sink: SinkHandle,
    epoch: Instant,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("conv-node-{worker_id}"))
        .spawn(move || {
            let mut processed = 0usize;
            let mut scratch = InferScratch::new();
            let mut cs = CompressScratch::new();
            let mut faults = StdRng::seed_from_u64(
                opts.fault_seed ^ (worker_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            while let Ok(WorkerMsg::Tiles(round)) = tasks.recv() {
                let mut replies = Vec::with_capacity(round.len());
                for task in &round {
                    if let Some(limit) = opts.fail_after_tiles {
                        if processed >= limit {
                            if opts.disconnect_on_fail {
                                // Hard crash: say so on the way out (exiting
                                // also drops `tasks`, so a send that races
                                // this report fails fast).
                                let _ = inbound.send(Inbound::Down(worker_id));
                                return;
                            }
                            // Crashed node: swallow work silently (the
                            // Central node's timeout + statistics handle it).
                            continue;
                        }
                    }
                    if !opts.artificial_delay.is_zero() {
                        std::thread::sleep(opts.artificial_delay);
                    }
                    if !opts.delay_jitter.is_zero() {
                        std::thread::sleep(opts.delay_jitter.mul_f64(faults.gen::<f64>()));
                    }
                    let (mut result, compute, compress) =
                        process_tile(&prefix, compression, task, &mut scratch, &mut cs);
                    let done_s = epoch.elapsed().as_secs_f64();
                    observe_tile(&stats, &sink, worker_id, done_s, compute, compress, &result);
                    processed += 1;
                    if opts.drop_prob > 0.0 && faults.gen_bool(opts.drop_prob) {
                        continue; // the result vanishes on the "wire"
                    }
                    if opts.corrupt_prob > 0.0 && faults.gen_bool(opts.corrupt_prob) {
                        // Truncate the payload: it arrives but fails to
                        // decode, so the Central node must treat the tile as
                        // missing.
                        let half = result.payload.payload.len() / 2;
                        result.payload.payload = result.payload.payload.slice(0..half);
                    }
                    replies.push(result);
                }
                if !replies.is_empty()
                    && inbound.send(Inbound::Results(worker_id, replies)).is_err()
                {
                    break; // central gone
                }
            }
        })
        .expect("failed to spawn worker thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_core::wire::TileKey;
    use adcnn_nn::{Block, Layer, Network};
    use adcnn_tensor::conv::Conv2dParams;
    use adcnn_tensor::Tensor;
    use crossbeam::channel::unbounded;
    use rand::{rngs::StdRng, SeedableRng};

    /// The next message on a worker's outbound channel, which must be a
    /// reply of one result.
    fn result(rx: &Receiver<Inbound>) -> (usize, TileResult) {
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Inbound::Results(w, mut res)) if res.len() == 1 => (w, res.remove(0)),
            _ => panic!("expected a reply of one result"),
        }
    }

    /// A round of one tile.
    fn one(image_id: u64, tile_id: u32, tile: Tensor) -> WorkerMsg {
        WorkerMsg::Tiles(vec![TileTask { key: TileKey { image_id, tile_id }, tile }])
    }

    fn tiny_prefix(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![Block::Seq(vec![
            Layer::conv2d(1, 2, 3, Conv2dParams::same(3), &mut rng),
            Layer::Relu,
        ])])
    }

    #[test]
    fn worker_processes_and_replies() {
        let (task_tx, task_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let cr = ClippedRelu::new(0.0, 1.0);
        let comp = Compression { crelu: cr, quantizer: Quantizer::paper_default(cr) };
        let stats = Arc::new(WorkerStats::default());
        let h = spawn_worker(
            3,
            Arc::new(tiny_prefix(1)),
            Some(comp),
            WorkerOptions::default(),
            task_rx,
            res_tx,
            stats.clone(),
            SinkHandle::null(),
            Instant::now(),
        );

        let tile = Tensor::full([1, 1, 4, 4], 0.5);
        task_tx.send(one(9, 2, tile)).unwrap();
        let (wid, res) = result(&res_rx);
        assert_eq!(wid, 3);
        assert_eq!(res.key, TileKey { image_id: 9, tile_id: 2 });
        let t = res.to_tensor().unwrap();
        assert_eq!(t.dims(), &[1, 2, 4, 4]);
        let snap = stats.snapshot();
        assert_eq!(snap.tiles, 1);

        task_tx.send(WorkerMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn a_round_is_answered_once_in_dispatch_order_and_a_crash_loses_its_replies() {
        let spawn = |opts, task_rx, res_tx| {
            let stats = Arc::new(WorkerStats::default());
            let h = spawn_worker(
                1,
                Arc::new(tiny_prefix(7)),
                None,
                opts,
                task_rx,
                res_tx,
                stats.clone(),
                SinkHandle::null(),
                Instant::now(),
            );
            (h, stats)
        };
        let round = |tiles: &[u32]| {
            let task = |t| TileTask {
                key: TileKey { image_id: 5, tile_id: t },
                tile: Tensor::full([1, 1, 4, 4], 0.1 * t as f32),
            };
            WorkerMsg::Tiles(tiles.iter().map(|&t| task(t)).collect())
        };

        let (task_tx, task_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let (h, stats) = spawn(WorkerOptions::default(), task_rx, res_tx);
        task_tx.send(round(&[3, 0, 2])).unwrap();
        match res_rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Inbound::Results(1, res)) => {
                let ids: Vec<u32> = res.iter().map(|r| r.key.tile_id).collect();
                assert_eq!(ids, [3, 0, 2], "one reply, in dispatch order");
            }
            _ => panic!("expected one reply for the round"),
        }
        assert_eq!(stats.snapshot().tiles, 3, "every tile of the round is counted");
        task_tx.send(WorkerMsg::Shutdown).unwrap();
        h.join().unwrap();

        // A worker that dies on the third tile of a round sends its exit,
        // never the two results it computed first.
        let (task_tx, task_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let opts = WorkerOptions {
            fail_after_tiles: Some(2),
            disconnect_on_fail: true,
            ..Default::default()
        };
        let (h, stats) = spawn(opts, task_rx, res_tx);
        task_tx.send(round(&[0, 1, 2, 3])).unwrap();
        h.join().unwrap();
        assert!(matches!(res_rx.try_recv(), Ok(Inbound::Down(1))), "the exit is reported");
        assert!(res_rx.try_recv().is_err(), "the round's replies died with the worker");
        assert_eq!(stats.snapshot().tiles, 2);
    }

    #[test]
    fn failed_worker_goes_silent() {
        let (task_tx, task_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let opts = WorkerOptions { fail_after_tiles: Some(1), ..Default::default() };
        let stats = Arc::new(WorkerStats::default());
        let h = spawn_worker(
            0,
            Arc::new(tiny_prefix(2)),
            None,
            opts,
            task_rx,
            res_tx,
            stats.clone(),
            SinkHandle::null(),
            Instant::now(),
        );

        for i in 0..3u32 {
            task_tx.send(one(0, i, Tensor::full([1, 1, 4, 4], 0.1))).unwrap();
        }
        // exactly one reply, then silence
        assert!(res_rx.recv_timeout(Duration::from_secs(5)).is_ok());
        assert!(res_rx.recv_timeout(Duration::from_millis(200)).is_err());
        task_tx.send(WorkerMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn disconnecting_worker_drops_its_task_channel() {
        let (task_tx, task_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let opts = WorkerOptions {
            fail_after_tiles: Some(1),
            disconnect_on_fail: true,
            ..Default::default()
        };
        let h = spawn_worker(
            0,
            Arc::new(tiny_prefix(4)),
            None,
            opts,
            task_rx,
            res_tx,
            Arc::new(WorkerStats::default()),
            SinkHandle::null(),
            Instant::now(),
        );
        for i in 0..2u32 {
            task_tx.send(one(0, i, Tensor::full([1, 1, 4, 4], 0.1))).unwrap();
        }
        assert!(res_rx.recv_timeout(Duration::from_secs(5)).is_ok());
        h.join().unwrap(); // the thread exited on tile 2 …
        assert!(task_tx.send(WorkerMsg::Shutdown).is_err()); // … and the channel is dead
    }

    #[test]
    fn drop_prob_one_swallows_every_result_but_counts_work() {
        let (task_tx, task_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let opts = WorkerOptions { drop_prob: 1.0, ..Default::default() };
        let stats = Arc::new(WorkerStats::default());
        let h = spawn_worker(
            0,
            Arc::new(tiny_prefix(5)),
            None,
            opts,
            task_rx,
            res_tx,
            stats.clone(),
            SinkHandle::null(),
            Instant::now(),
        );
        for i in 0..3u32 {
            task_tx.send(one(0, i, Tensor::full([1, 1, 4, 4], 0.2))).unwrap();
        }
        assert!(res_rx.recv_timeout(Duration::from_millis(500)).is_err());
        assert_eq!(stats.snapshot().tiles, 3, "dropped results still burned compute");
        task_tx.send(WorkerMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn corrupt_prob_one_yields_undecodable_results() {
        let (task_tx, task_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let cr = ClippedRelu::new(0.0, 1.0);
        let comp = Compression { crelu: cr, quantizer: Quantizer::paper_default(cr) };
        let opts = WorkerOptions { corrupt_prob: 1.0, ..Default::default() };
        let h = spawn_worker(
            0,
            Arc::new(tiny_prefix(6)),
            Some(comp),
            opts,
            task_rx,
            res_tx,
            Arc::new(WorkerStats::default()),
            SinkHandle::null(),
            Instant::now(),
        );
        task_tx.send(one(0, 0, Tensor::full([1, 1, 4, 4], 0.5))).unwrap();
        let (_, res) = result(&res_rx);
        assert!(res.to_tensor().is_none(), "truncated payload must fail to decode");
        task_tx.send(WorkerMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn options_validate_probabilities() {
        let opts = WorkerOptions {
            artificial_delay: Duration::from_millis(5),
            fail_after_tiles: Some(3),
            disconnect_on_fail: true,
            drop_prob: 0.25,
            delay_jitter: Duration::from_millis(2),
            corrupt_prob: 0.5,
            fault_seed: 7,
        };
        assert!(opts.validate().is_ok());
        let with = |drop_prob, corrupt_prob| {
            WorkerOptions { drop_prob, corrupt_prob, ..Default::default() }.validate()
        };
        assert!(matches!(
            with(1.5, 0.0),
            Err(ConfigError::ProbabilityOutOfRange { field: "drop_prob", .. })
        ));
        assert!(matches!(
            with(0.0, -0.1),
            Err(ConfigError::ProbabilityOutOfRange { field: "corrupt_prob", .. })
        ));
        assert!(with(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn worker_mirrors_compute_and_compress_spans() {
        use adcnn_core::obs::RecordingSink;
        let (task_tx, task_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let rec = Arc::new(RecordingSink::new());
        let epoch = Instant::now();
        let h = spawn_worker(
            2,
            Arc::new(tiny_prefix(8)),
            None,
            WorkerOptions::default(),
            task_rx,
            res_tx,
            Arc::new(WorkerStats::default()),
            SinkHandle::new(rec.clone()),
            epoch,
        );
        task_tx.send(one(4, 1, Tensor::full([1, 1, 4, 4], 0.5))).unwrap();
        let _ = result(&res_rx);
        task_tx.send(WorkerMsg::Shutdown).unwrap();
        h.join().unwrap();
        let events = rec.events();
        assert_eq!(rec.kinds(), vec!["tile_compute", "tile_compress"]);
        for ev in &events {
            match *ev {
                ObsEvent::TileCompute { at, image, tile, worker, dur } => {
                    assert_eq!((image, tile, worker), (4, 1, 2));
                    assert!(at >= dur && dur >= 0.0);
                }
                ObsEvent::TileCompress { image, tile, worker, dur, bytes, ratio, .. } => {
                    assert_eq!((image, tile, worker), (4, 1, 2));
                    assert!(dur >= 0.0);
                    assert!(bytes > 0);
                    assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio}");
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn worker_exits_when_central_drops() {
        let (task_tx, task_rx) = unbounded();
        let (res_tx, res_rx) = unbounded();
        let h = spawn_worker(
            0,
            Arc::new(tiny_prefix(3)),
            None,
            WorkerOptions::default(),
            task_rx,
            res_tx,
            Arc::new(WorkerStats::default()),
            SinkHandle::null(),
            Instant::now(),
        );
        drop(res_rx);
        task_tx.send(one(0, 0, Tensor::zeros([1, 1, 4, 4]))).unwrap();
        drop(task_tx);
        h.join().unwrap();
    }
}
