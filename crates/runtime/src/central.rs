//! The Central node (§6.1, Figure 8): input partition block, statistics
//! collection block, and layer computation block, driving real worker
//! threads behind a pipelined admission queue.
//!
//! All tile-lifecycle *decisions* — the expected-makespan deadline,
//! speculative re-dispatch rounds, zero-fill, duplicate handling and the
//! Algorithm 2 measurement cutoff — live in the shared sans-IO state
//! machine, [`adcnn_core::lifecycle::TileLifecycle`]. This module is the
//! wall-clock *driver*: it maps `Instant`s onto the machine's abstract
//! seconds (via a per-runtime epoch), crossbeam channel sends onto
//! [`Dispatch`](adcnn_core::lifecycle::Action::Dispatch)/
//! [`Redispatch`](adcnn_core::lifecycle::Action::Redispatch) actions, and
//! `recv_timeout` onto the machine's `next_deadline()`. The network
//! simulator (`adcnn-netsim`) drives the *same* machine from simulated
//! timestamps, so simulated and real scheduling decisions cannot drift.
//! See DESIGN.md §11 for the policy/mechanism split, §10 for the
//! lifecycle policy itself, and §14 for the pipeline architecture.
//!
//! # Pipeline
//!
//! Caller threads [`submit`](AdcnnRuntime::submit) images into a bounded
//! intake queue ([`RuntimeConfig::intake_cap`]; a full queue blocks the
//! submitter — backpressure, not an unbounded buffer) and receive an
//! [`InferHandle`] per image. A single collector thread admits up to
//! [`RuntimeConfig::pipeline_depth`] images in flight at once — each
//! owning its own [`TileLifecycle`] instance — demultiplexes the shared
//! worker result channel by image id to the owning lifecycle, and
//! resolves each handle with its own image's [`InferOutcome`] the moment
//! that image completes, regardless of submission order (out-of-order
//! completion). [`infer`](AdcnnRuntime::infer) and
//! [`infer_stream`](AdcnnRuntime::infer_stream) are thin wrappers over
//! `submit`/`wait`: the pipeline is the only lifecycle driver in the
//! runtime.
//!
//! Worker death is detected eagerly — a failed send on a worker's
//! (bounded) task queue marks it dead in the Algorithm 2 statistics and
//! feeds [`WorkerDied`](adcnn_core::lifecycle::Event::WorkerDied)/
//! [`SendRejected`](adcnn_core::lifecycle::Event::SendRejected) back into
//! the machine, which reroutes the tile immediately — so a crashed node
//! costs one deadline, not an accuracy loss.

use crate::transport::{prefix_and_compression, RemoteCluster, RemoteModelSpec, WorkerListener};
use crate::worker::{
    spawn_worker, Compression, WorkerMsg, WorkerOptions, WorkerStats, WorkerStatsSnapshot,
};
use adcnn_core::config::ConfigError;
use adcnn_core::fdsp::TileGrid;
use adcnn_core::lifecycle::{Action, Event, LifecyclePolicy, TileLifecycle};
use adcnn_core::obs::{ObsEvent, SinkHandle};
use adcnn_core::report::{AttributionSink, ImageReport};
use adcnn_core::sched::{StatsCollector, TileAllocator};
use adcnn_core::wire::{TileKey, TileResult, TileTask};
use adcnn_nn::infer::InferScratch;
use adcnn_nn::Network;
use adcnn_retrain::PartitionedModel;
use adcnn_tensor::Tensor;
use crossbeam::channel::{
    bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Central-node configuration: the shared [`LifecyclePolicy`] (deadline
/// slack, `T_L`, re-dispatch rounds, hard timeout, timer interpretation)
/// plus the runtime-only transport/statistics knobs and the observability
/// sink both the Central node and its workers emit into.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// The shared tile-lifecycle policy — identical in meaning to the
    /// simulator's copy in `AdcnnSimConfig`, so a plan validated there
    /// runs under the same decisions here.
    pub policy: LifecyclePolicy,
    /// Algorithm 2 decay γ.
    pub gamma: f64,
    /// Tile-allocation tie-break seed.
    pub seed: u64,
    /// Depth of each worker's bounded task queue. A dead or wedged worker
    /// can hold at most this many tiles hostage; further sends fail fast
    /// and the tiles are rerouted to live workers.
    pub task_queue_cap: usize,
    /// Maximum images in flight at once, each with its own
    /// [`TileLifecycle`]. The default of 1 is the paper's
    /// dispatch-merge-dispatch loop (and keeps re-dispatch recovery as
    /// strong as the serial runtime: no concurrent image drains a faulty
    /// worker between an image's dispatch and its recovery rounds); 2
    /// matches the Figure 9 pipelining window (image `i+1` dispatched
    /// before image `i` merges); higher depths trade per-image latency
    /// for sustained images/s.
    pub pipeline_depth: usize,
    /// Capacity of the admission queue between `submit` callers and the
    /// collector. A full queue blocks `submit` (backpressure) and makes
    /// `try_submit` return `None`.
    pub intake_cap: usize,
    /// Structured-event sink shared by the lifecycle machine and the
    /// worker threads. The default ([`SinkHandle::null()`]) never even
    /// constructs events.
    pub sink: SinkHandle,
    /// Optional per-image critical-path attribution. When set, the sink is
    /// tee'd into the attribution fold and every [`InferOutcome`] carries
    /// its [`ImageReport`]; the handle stays shared so the caller can also
    /// pull the run aggregate.
    pub attribution: Option<Arc<AttributionSink>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            policy: LifecyclePolicy::default(),
            gamma: 0.9,
            seed: 42,
            task_queue_cap: 64,
            pipeline_depth: 1,
            intake_cap: 16,
            sink: SinkHandle::null(),
            attribution: None,
        }
    }
}

impl RuntimeConfig {
    /// Start building a validated config from the defaults. Only
    /// `perf-ledger/` builds configs this way; everything else writes
    /// `RuntimeConfig { .., ..Default::default() }` and lets
    /// [`validate`](Self::validate) or [`AdcnnRuntime::launch`] check it.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder { cfg: RuntimeConfig::default() }
    }

    /// Check every field's invariant; [`AdcnnRuntime::launch`] and
    /// [`AdcnnRuntime::launch_remote`] run this before anything starts.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.policy.validate()?;
        if !(self.gamma > 0.0 && self.gamma <= 1.0) {
            return Err(ConfigError::GammaOutOfRange(self.gamma));
        }
        if self.task_queue_cap == 0 {
            return Err(ConfigError::ZeroTaskQueueCap);
        }
        if self.pipeline_depth == 0 {
            return Err(ConfigError::ZeroPipelineDepth);
        }
        if self.intake_cap == 0 {
            return Err(ConfigError::ZeroIntakeCap);
        }
        if self.attribution.is_some() && self.pipeline_depth > AttributionSink::MAX_INFLIGHT {
            return Err(ConfigError::AttributionDepthExceeded {
                depth: self.pipeline_depth,
                max: AttributionSink::MAX_INFLIGHT,
            });
        }
        Ok(())
    }
}

/// Builder for [`RuntimeConfig`]; see [`RuntimeConfig::builder`]. It keeps
/// exactly the setters the perf ledger calls.
#[derive(Clone, Debug)]
pub struct RuntimeConfigBuilder {
    cfg: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Base timer `T_L`. The ledger's (`perf-ledger/src/serve.rs`); goes
    /// with the item-6 `benchmark` PR.
    pub fn t_l(mut self, t_l: Duration) -> Self {
        self.cfg.policy.t_l = t_l.as_secs_f64();
        self
    }

    /// Maximum images in flight at once. The ledger's; goes with the
    /// item-6 `benchmark` PR.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.cfg.pipeline_depth = depth;
        self
    }

    /// Install a structured-event sink. The ledger's; goes with the item-6
    /// `benchmark` PR.
    pub fn sink(mut self, sink: SinkHandle) -> Self {
        self.cfg.sink = sink;
        self
    }

    /// Attach per-image critical-path attribution. The ledger's; goes with
    /// the item-6 `benchmark` PR.
    pub fn attribution(mut self, attribution: Arc<AttributionSink>) -> Self {
        self.cfg.attribution = Some(attribution);
        self
    }

    /// Validate and produce the config. The ledger's; goes with the item-6
    /// `benchmark` PR.
    pub fn build(self) -> Result<RuntimeConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Result of one distributed inference.
#[derive(Debug)]
pub struct InferOutcome {
    /// The network output (logits / dense map).
    pub output: Tensor,
    /// The image id this outcome belongs to (matches
    /// [`InferHandle::image`]).
    pub image: u64,
    /// Time spent waiting in the admission queue before the collector
    /// admitted the image.
    pub queued: Duration,
    /// Wall-clock end-to-end latency from admission to merge (excludes
    /// `queued`, so it is comparable across pipeline depths).
    pub latency: Duration,
    /// Tiles allocated per worker.
    pub alloc: Vec<u32>,
    /// Results received in time per worker (re-dispatched tiles credit the
    /// worker that actually delivered them).
    pub received: Vec<u32>,
    /// Tiles zero-filled after every recovery attempt failed.
    pub zero_filled: u32,
    /// Re-dispatch sends issued after the expected-makespan deadline fired
    /// (duplicate results are deduplicated by `TileKey`, so re-dispatch is
    /// always safe).
    pub redispatched: u32,
    /// Total compressed payload bits received (communication accounting).
    pub wire_bits: u64,
    /// Per-image critical-path attribution, present when
    /// [`RuntimeConfig::attribution`] was set at launch.
    pub report: Option<ImageReport>,
}

/// One image waiting in the admission queue: the input plus the reply
/// channel its [`InferHandle`] waits on.
struct Submission {
    image_id: u64,
    x: Tensor,
    queued_at: Instant,
    reply: Sender<InferOutcome>,
}

/// A claim on one submitted image's future [`InferOutcome`]. Handles
/// resolve out of order: each waits only for its own image, not for
/// earlier submissions.
#[derive(Debug)]
pub struct InferHandle {
    image_id: u64,
    rx: Receiver<InferOutcome>,
}

impl InferHandle {
    /// The image id this handle will resolve with
    /// ([`InferOutcome::image`] on the delivered outcome is equal).
    pub fn image(&self) -> u64 {
        self.image_id
    }

    /// Block until this image completes. Exactly one outcome is ever
    /// delivered per handle; dropping the handle instead discards the
    /// outcome without stalling the pipeline.
    pub fn wait(self) -> InferOutcome {
        self.rx.recv().expect("collector thread exited before resolving this image")
    }
}

/// State shared between submitter threads, accessor methods, the
/// collector thread and (remote) the slot supervisors. It is the one owner
/// of worker liveness: every carrier reports a worker up or down through
/// [`worker_up`](Self::worker_up)/[`worker_down`](Self::worker_down).
pub(crate) struct Shared {
    /// Algorithm 2 statistics (EWMA speeds). The collector updates them
    /// per result; accessors snapshot them.
    stats: Mutex<StatsCollector>,
    /// Algorithm 3 allocator; replaceable at runtime via
    /// [`AdcnnRuntime::set_allocator`].
    allocator: Mutex<TileAllocator>,
    /// Workers that are up. Cleared on the first detected death; a dead
    /// worker is never sent to again until it rejoins.
    live: Vec<AtomicBool>,
    /// Images currently admitted (gauge mirrored by
    /// [`ObsEvent::ImageAdmitted`]/[`ObsEvent::ImageRetired`]).
    inflight: AtomicUsize,
    /// Submissions sitting in the admission queue.
    queued: AtomicUsize,
    /// The effective event sink: the user sink tee'd with the attribution
    /// fold when one is configured.
    pub(crate) sink: SinkHandle,
    /// Origin of the machine's abstract time axis: every `Instant` is
    /// expressed as seconds since this epoch before it reaches the
    /// lifecycle machine or the sink.
    pub(crate) epoch: Instant,
}

impl Shared {
    /// Fresh state for `k` workers, every slot initially `live` or not
    /// (in-process threads exist from the start; a remote slot is dead
    /// until a worker joins it, so nothing may be allocated or dispatched
    /// to an empty slot).
    fn new(k: usize, gamma: f64, live: bool, sink: SinkHandle, epoch: Instant) -> Arc<Shared> {
        Arc::new(Shared {
            stats: Mutex::new(StatsCollector::new(k, gamma)),
            allocator: Mutex::new(TileAllocator::unbounded(k)),
            live: (0..k).map(|_| AtomicBool::new(live)).collect(),
            inflight: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            sink,
            epoch,
        })
    }

    /// Worker `w` is gone: speed 0 in the Algorithm 2 statistics, so the
    /// very next allocation assigns it nothing. The first detection wins
    /// and later ones are no-ops, so the topology stream sees exactly one
    /// `NodeDown` per spell whichever carrier noticed.
    pub(crate) fn worker_down(&self, w: usize) {
        if self.live[w].swap(false, Ordering::Relaxed) {
            self.stats.lock().mark_failed(w);
            self.sink.emit_with(|| ObsEvent::NodeDown {
                at: secs_since(self.epoch, Instant::now()),
                node: w as u32,
            });
        }
    }

    /// Worker `w` (re)joined: a fresh join. The EWMA goes back to the
    /// fresh-join prior *before* the slot becomes allocatable, so the first
    /// allocation after a rejoin treats the worker as new — never resumes
    /// the dead incarnation's statistics.
    pub(crate) fn worker_up(&self, w: usize) {
        self.stats.lock().rejoin(w);
        self.live[w].store(true, Ordering::Relaxed);
        self.sink.emit_with(|| ObsEvent::NodeUp {
            at: secs_since(self.epoch, Instant::now()),
            node: w as u32,
        });
    }
}

/// An admitted image: the input itself (each dispatch crops its tile out
/// of it, a re-dispatch crops again — one copy per tile sent, none held),
/// its own lifecycle machine, and its partially assembled boundary map.
struct InFlight {
    image_id: u64,
    queued_at: Instant,
    start: Instant,
    x: Tensor,
    lc: TileLifecycle,
    assembled: Tensor,
    wire_bits: u64,
    reply: Sender<InferOutcome>,
}

/// The collector thread: the single lifecycle driver in the runtime. It
/// admits images from the intake queue (up to `depth` at once),
/// demultiplexes worker results by image id, turns the earliest
/// `next_deadline()` across all in-flight images into a `recv_timeout`
/// budget, and resolves each image's reply channel on completion.
struct Collector {
    grid: TileGrid,
    suffix: Network,
    /// Reusable buffers for the suffix-network forward.
    infer_scratch: InferScratch,
    task_txs: Vec<Sender<WorkerMsg>>,
    result_rx: Receiver<(usize, TileResult)>,
    shared: Arc<Shared>,
    rng: StdRng,
    policy: LifecyclePolicy,
    depth: usize,
    attribution: Option<Arc<AttributionSink>>,
    /// `shared.epoch`, which the run loop reads for every result and
    /// timer. Read through `shared` instead, the ledger's hub workloads
    /// lost 3–5 % images/s (29 of 30 pairs), so the loop keeps a copy.
    epoch: Instant,
    /// Assembled boundary map dims `(C, H, W)`.
    boundary: (usize, usize, usize),
    /// Per-tile boundary dims `(C, h, w)`.
    tile_out: (usize, usize, usize),
    /// Where every result is decoded, `[1, C, h, w]`: a payload that fails
    /// half way has touched this and not the image's boundary map, and a
    /// healthy one costs no allocation.
    decoded: Tensor,
    intake_rx: Receiver<Submission>,
}

/// `Instant` → the machine's abstract seconds since `epoch`.
fn secs_since(epoch: Instant, at: Instant) -> f64 {
    at.duration_since(epoch).as_secs_f64()
}

/// The machine's abstract seconds → the `Instant` a timer must fire at.
fn instant_at(epoch: Instant, secs: f64) -> Instant {
    epoch + Duration::from_secs_f64(secs)
}

/// The runtime driver's clock for [`adcnn_core::lifecycle::replay`]: every
/// trace timestamp makes the journey it makes in production — abstract
/// seconds → an `Instant` offset from an epoch → back to abstract seconds at
/// the machine boundary — through the two functions the `Collector`
/// itself calls (ns-grain, so millisecond trace timestamps survive the
/// roundtrip bit-exactly).
pub fn replay_clock() -> impl Fn(f64) -> f64 {
    let epoch = Instant::now();
    move |at| secs_since(epoch, instant_at(epoch, at))
}

impl Collector {
    /// Try to hand one tile to `node`'s bounded queue. On failure the task
    /// is returned for rerouting; a disconnected channel additionally takes
    /// the worker down.
    fn send_to(&mut self, node: usize, task: TileTask) -> Result<(), TileTask> {
        if !self.shared.live[node].load(Ordering::Relaxed) {
            return Err(task);
        }
        match self.task_txs[node].try_send(WorkerMsg::Tile(task)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(WorkerMsg::Tile(t))) => Err(t),
            Err(TrySendError::Disconnected(WorkerMsg::Tile(t))) => {
                self.shared.worker_down(node);
                Err(t)
            }
            Err(_) => unreachable!("only Tile messages are routed through send_to"),
        }
    }

    /// Execute machine actions against the real transport. Sends that the
    /// transport refuses are fed back as [`Event::SendRejected`] (after
    /// [`Event::WorkerDied`] when the refusal revealed a disconnect), and
    /// the machine's follow-up actions join the worklist, until it drains.
    fn drive(&mut self, lc: &mut TileLifecycle, acts: Vec<Action>, image_id: u64, x: &Tensor) {
        let mut queue: std::collections::VecDeque<Action> = acts.into();
        while let Some(act) = queue.pop_front() {
            let (tile, to, original) = match act {
                Action::Dispatch { tile, to } => (tile, to, true),
                Action::Redispatch { tile, to } => (tile, to, false),
                Action::RecordRate { worker, rate } => {
                    // The machine only observes deaths it was told about;
                    // the driver may have marked the worker failed (e.g. on
                    // a disconnect discovered for another image) after this
                    // measurement window opened. A stale observation would
                    // resurrect a starved node's EWMA.
                    if self.shared.live[worker].load(Ordering::Relaxed) {
                        self.shared.stats.lock().record_node(worker, rate);
                    }
                    continue;
                }
                // Timers are derived from `next_deadline()` in the run
                // loop; zero-fill needs no work (the boundary map starts
                // zeroed); Accept is pasted where the result was decoded.
                Action::ArmDeadline { .. }
                | Action::ZeroFill { .. }
                | Action::Complete
                | Action::Accept { .. } => continue,
            };
            let task = TileTask {
                key: TileKey { image_id, tile_id: tile as u32 },
                tile: self.grid.extract_tile(x, tile),
            };
            match self.send_to(to, task) {
                Ok(()) => {
                    if original {
                        // A queue handoff is "delivered" for the runtime:
                        // there is no modeled transit.
                        lc.handle(Event::TileDelivered { tile });
                    }
                }
                Err(_) => {
                    if !self.shared.live[to].load(Ordering::Relaxed) {
                        lc.handle(Event::WorkerDied { worker: to });
                    }
                    queue.extend(lc.handle(Event::SendRejected { tile, worker: to }));
                }
            }
        }
    }

    /// Input partition block for one admitted image: allocate with
    /// Algorithm 3, start its lifecycle machine and push the initial
    /// dispatch batch — each tile cropped as it is sent — to the workers.
    fn admit(&mut self, sub: Submission, inflight_now: usize) -> InFlight {
        let Submission { image_id, x, queued_at, reply } = sub;
        let d = self.grid.tiles();
        let speeds = self.shared.stats.lock().speeds().to_vec();
        let live: Vec<bool> = self.shared.live.iter().map(|l| l.load(Ordering::Relaxed)).collect();
        let alloc = self.shared.allocator.lock().allocate(d, &speeds, &mut self.rng);
        let start = Instant::now();
        let queue_wait = start.duration_since(queued_at).as_secs_f64();
        let depth_now = inflight_now + 1;
        self.shared.inflight.store(depth_now, Ordering::Relaxed);
        // Driver-emitted (never by the lifecycle), before the machine's
        // own ImageStart: admission is a pipeline fact, not a decision.
        let at = secs_since(self.epoch, start);
        self.shared.sink.emit_with(|| ObsEvent::ImageAdmitted {
            at,
            image: image_id,
            queue_wait,
            inflight: depth_now as u32,
        });
        let (mut lc, acts) = TileLifecycle::begin_observed(
            self.policy,
            at,
            d,
            &alloc,
            &speeds,
            &live,
            image_id,
            self.shared.sink.clone(),
        );
        self.drive(&mut lc, acts, image_id, &x);
        let at = secs_since(self.epoch, Instant::now());
        let acts = lc.handle(Event::SendComplete { at });
        self.drive(&mut lc, acts, image_id, &x);
        let (bc, bh, bw) = self.boundary;
        InFlight {
            image_id,
            queued_at,
            start,
            x,
            lc,
            assembled: Tensor::zeros([1, bc, bh, bw]),
            wire_bits: 0,
            reply,
        }
    }

    /// Feed one of an image's results into its machine: account wire
    /// bits, decode, paste on [`Action::Accept`], run everything else.
    fn ingest(&mut self, inf: &mut InFlight, worker: usize, res: &TileResult, at: f64) {
        let InFlight { image_id, ref x, ref mut lc, ref mut assembled, ref mut wire_bits, .. } =
            *inf;
        let tile = res.key.tile_id as usize;
        let (c, th, tw) = self.tile_out;
        // A duplicate or late result is counted by the machine, not decoded.
        let open = lc.tile_open(tile);
        if open {
            *wire_bits += res.wire_bits();
        }
        // A frame can decode cleanly and still not be this model's tile (a
        // worker serving another model): only the expected shape may reach
        // the paste. Anything else is a corrupt result — the tile stays open
        // for re-dispatch.
        let decoded = open
            && res.shape == [1, c, th, tw]
            && res.decode_into(self.decoded.as_mut_slice()).is_some();
        let ok = decoded || !open;
        let acts = lc.handle(Event::ResultArrived { at, tile, worker, ok });
        let mut rest = Vec::with_capacity(acts.len());
        for act in acts {
            if let Action::Accept { tile: t, .. } = act {
                assert!(decoded, "Accept without a decoded payload");
                let (gr, gc) = self.grid.tile_pos(t);
                assembled.paste_spatial(&self.decoded, gr * th, gc * tw);
            } else {
                rest.push(act);
            }
        }
        self.drive(lc, rest, image_id, x);
    }

    /// Layer computation block + handle resolution for one completed
    /// image: run the suffix network and deliver the outcome.
    fn finish(&mut self, inf: InFlight, remaining: usize) {
        let InFlight { image_id, queued_at, start, lc, assembled, wire_bits, reply, .. } = inf;
        let n_suffix = self.suffix.len();
        let output = self
            .suffix
            .forward_infer_range_with(&assembled, 0..n_suffix, &mut self.infer_scratch)
            .to_tensor();
        self.shared.inflight.store(remaining, Ordering::Relaxed);
        let at = secs_since(self.epoch, Instant::now());
        self.shared.sink.emit_with(|| ObsEvent::ImageRetired {
            at,
            image: image_id,
            inflight: remaining as u32,
        });
        let c = lc.counters();
        let outcome = InferOutcome {
            output,
            image: image_id,
            queued: start.duration_since(queued_at),
            latency: start.elapsed(),
            alloc: lc.alloc().to_vec(),
            received: c.received.clone(),
            zero_filled: c.zero_filled,
            redispatched: c.redispatched,
            wire_bits,
            report: self.attribution.as_ref().and_then(|a| a.report_for(image_id)),
        };
        // `bounded(1)` reply never blocks; a dropped handle just discards.
        let _ = reply.send(outcome);
    }

    /// Every worker thread has exited: nothing will ever arrive again.
    /// Mark the whole cluster dead and abort every in-flight image (the
    /// machine zero-fills what is still open); the sweep in the run loop
    /// retires them.
    fn abort_all(&mut self, inflight: &mut [InFlight]) {
        let k = self.shared.live.len();
        for w in 0..k {
            self.shared.worker_down(w);
        }
        for inf in inflight.iter_mut() {
            let InFlight { image_id, ref x, ref mut lc, .. } = *inf;
            // WorkerDied and Abort are idempotent in the machine, so
            // feeding every image the full death list is safe.
            for w in 0..k {
                lc.handle(Event::WorkerDied { worker: w });
            }
            let acts = lc.handle(Event::Abort);
            self.drive(lc, acts, image_id, x);
        }
    }

    /// The collector loop. Exits when the intake channel disconnects
    /// (runtime shutdown) *and* every admitted image has been retired, so
    /// shutdown never strands a handle.
    fn run(mut self) {
        let mut inflight: Vec<InFlight> = Vec::new();
        let mut intake_open = true;
        loop {
            // Admission: fill up to `depth`. Block only when idle —
            // otherwise in-flight deadlines must keep being serviced.
            while intake_open && inflight.len() < self.depth {
                if inflight.is_empty() {
                    match self.intake_rx.recv() {
                        Ok(sub) => {
                            self.shared.queued.fetch_sub(1, Ordering::Relaxed);
                            let inf = self.admit(sub, inflight.len());
                            inflight.push(inf);
                        }
                        Err(_) => {
                            intake_open = false;
                            break;
                        }
                    }
                } else {
                    match self.intake_rx.try_recv() {
                        Ok(sub) => {
                            self.shared.queued.fetch_sub(1, Ordering::Relaxed);
                            let inf = self.admit(sub, inflight.len());
                            inflight.push(inf);
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            intake_open = false;
                            break;
                        }
                    }
                }
            }

            // Retire every completed image (admission can complete an
            // image synchronously when all its sends fail, and ingest /
            // deadline handling below completes them asynchronously).
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].lc.is_complete() {
                    let done = inflight.swap_remove(i);
                    self.finish(done, inflight.len());
                } else {
                    i += 1;
                }
            }

            if inflight.is_empty() {
                if !intake_open {
                    return;
                }
                continue;
            }

            // The machines own the deadline arithmetic; the driver only
            // turns the *earliest* `next_deadline()` across all in-flight
            // images into a `recv_timeout` budget.
            let (idx, limit) = inflight
                .iter()
                .enumerate()
                .map(|(i, f)| (i, instant_at(self.epoch, f.lc.next_deadline())))
                .min_by_key(|e| e.1)
                .expect("inflight is non-empty");
            let now = Instant::now();
            if now >= limit {
                let inf = &mut inflight[idx];
                // `max` guards the f64↔Duration roundtrip: the machine
                // must never see a fire time before its own deadline.
                let at = secs_since(self.epoch, now).max(inf.lc.next_deadline());
                let InFlight { image_id, ref x, ref mut lc, .. } = *inf;
                let acts = lc.handle(Event::DeadlineFired { at });
                self.drive(lc, acts, image_id, x);
                continue;
            }
            match self.result_rx.recv_timeout(limit - now) {
                Ok((worker, res)) => {
                    let when = Instant::now();
                    // Demultiplex by image id to the owning lifecycle. A
                    // miss is a straggler from an already-retired image
                    // (every result originates from a tile this collector
                    // dispatched): discard.
                    if let Some(pos) = inflight.iter().position(|f| f.image_id == res.key.image_id)
                    {
                        let at = secs_since(self.epoch, when);
                        self.ingest(&mut inflight[pos], worker, &res, at);
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue, // deadline handling above
                Err(RecvTimeoutError::Disconnected) => {
                    self.abort_all(&mut inflight);
                }
            }
        }
    }
}

/// Model geometry and pipeline pieces shared by the in-process and remote
/// launch paths: the Conv-side prefix (with its boundary compression) and
/// the Central-side suffix, plus the probed boundary-map dimensions.
struct SplitModel {
    grid: TileGrid,
    prefix: Network,
    suffix: Network,
    compression: Option<Compression>,
    tile_out: (usize, usize, usize),
    boundary: (usize, usize, usize),
}

/// Split a model into its Conv/Central halves and probe the per-tile
/// boundary dims with a zero tile.
fn split_model(model: &PartitionedModel) -> SplitModel {
    let grid = model.grid;
    let (prefix, compression) = prefix_and_compression(model);
    let suffix = Network::new(model.net.blocks[model.prefix..].to_vec());
    let (c, h, w) = model.input;
    assert!(h % grid.rows == 0 && w % grid.cols == 0, "input {h}x{w} not divisible by {grid}");
    let mut probe_net = prefix.clone();
    let probe = Tensor::zeros([1, c, h / grid.rows, w / grid.cols]);
    let n_prefix = probe_net.len();
    let (out, _) = probe_net.forward_range(&probe, 0..n_prefix, false);
    let (_, oc, oh, ow) = out.shape().nchw();
    let tile_out = (oc, oh, ow);
    let boundary = (oc, oh * grid.rows, ow * grid.cols);
    SplitModel { grid, prefix, suffix, compression, tile_out, boundary }
}

/// Attribution rides the same event stream as any user sink: tee it in
/// once, so the lifecycle machine and every worker share one effective
/// sink (still `null` when neither is configured).
fn effective_sink(cfg: &RuntimeConfig) -> SinkHandle {
    match &cfg.attribution {
        Some(attr) => cfg.sink.tee(attr.clone()),
        None => cfg.sink.clone(),
    }
}

/// The live system: the pipeline front-end plus its worker threads (or
/// remote-worker supervisors) and the collector thread.
pub struct AdcnnRuntime {
    /// `Some` until shutdown; dropping it is the collector's stop signal.
    intake_tx: Option<Sender<Submission>>,
    collector: Option<JoinHandle<()>>,
    task_txs: Vec<Sender<WorkerMsg>>,
    handles: Vec<JoinHandle<()>>,
    worker_stats: Vec<Arc<WorkerStats>>,
    shared: Arc<Shared>,
    /// `Some` when launched via [`launch_remote`](Self::launch_remote):
    /// the acceptor half of the transport (the per-slot supervisors are
    /// `handles`).
    transport: Option<RemoteCluster>,
    next_image: AtomicU64,
}

impl AdcnnRuntime {
    /// Split a (retrained) [`PartitionedModel`] into Conv-node prefixes and
    /// the Central suffix, launch one worker thread per entry of
    /// `worker_opts`, and start the collector thread.
    pub fn launch(
        model: PartitionedModel,
        worker_opts: &[WorkerOptions],
        cfg: RuntimeConfig,
    ) -> Self {
        assert!(!worker_opts.is_empty(), "need at least one worker");
        if let Err(e) = cfg.validate() {
            panic!("invalid RuntimeConfig: {e}");
        }
        for (i, opts) in worker_opts.iter().enumerate() {
            if let Err(e) = opts.validate() {
                panic!("invalid WorkerOptions for worker {i}: {e}");
            }
        }
        let k = worker_opts.len();
        let sm = split_model(&model);

        // The epoch — origin of the abstract time axis — must exist before
        // the workers do: they stamp their compute/compress spans against
        // it, and a span must never predate the axis.
        let epoch = Instant::now();
        let sink = effective_sink(&cfg);
        let (result_tx, result_rx) = unbounded();
        let mut task_txs = Vec::with_capacity(k);
        let mut handles = Vec::with_capacity(k);
        let mut worker_stats = Vec::with_capacity(k);
        for (i, opts) in worker_opts.iter().enumerate() {
            // Bounded queues: a worker that stops draining can absorb at
            // most `task_queue_cap` tiles before sends fail fast.
            let (tx, rx) = bounded(cfg.task_queue_cap);
            let stats = Arc::new(WorkerStats::default());
            handles.push(spawn_worker(
                i,
                sm.prefix.clone(),
                sm.compression,
                *opts,
                rx,
                result_tx.clone(),
                stats.clone(),
                sink.clone(),
                epoch,
            ));
            task_txs.push(tx);
            worker_stats.push(stats);
        }
        let shared = Shared::new(k, cfg.gamma, true, sink, epoch);
        Self::start(sm, cfg, shared, result_rx, task_txs, handles, worker_stats, None)
    }

    /// The tail both launch paths share once their workers are up: the
    /// intake queue, the [`Collector`] on its own thread, and the runtime
    /// handle that owns them all.
    #[allow(clippy::too_many_arguments)]
    fn start(
        sm: SplitModel,
        cfg: RuntimeConfig,
        shared: Arc<Shared>,
        result_rx: Receiver<(usize, TileResult)>,
        task_txs: Vec<Sender<WorkerMsg>>,
        handles: Vec<JoinHandle<()>>,
        worker_stats: Vec<Arc<WorkerStats>>,
        transport: Option<RemoteCluster>,
    ) -> Self {
        let (intake_tx, intake_rx) = bounded(cfg.intake_cap);
        let collector = Collector {
            grid: sm.grid,
            suffix: sm.suffix,
            infer_scratch: InferScratch::new(),
            task_txs: task_txs.clone(),
            result_rx,
            shared: shared.clone(),
            rng: StdRng::seed_from_u64(cfg.seed),
            policy: cfg.policy,
            depth: cfg.pipeline_depth,
            attribution: cfg.attribution,
            epoch: shared.epoch,
            boundary: sm.boundary,
            tile_out: sm.tile_out,
            decoded: Tensor::zeros([1, sm.tile_out.0, sm.tile_out.1, sm.tile_out.2]),
            intake_rx,
        };
        let collector = std::thread::Builder::new()
            .name("adcnn-collector".into())
            .spawn(move || collector.run())
            .expect("failed to spawn collector thread");
        AdcnnRuntime {
            intake_tx: Some(intake_tx),
            collector: Some(collector),
            task_txs,
            handles,
            worker_stats,
            shared,
            transport,
            next_image: AtomicU64::new(0),
        }
    }

    /// Launch the Central node with `workers` *remote* Conv-node slots
    /// behind `listener`, instead of in-process threads. Worker processes
    /// (`adcnn-conv-worker --connect <endpoint>`) connect, handshake, and
    /// rebuild the model from `spec` — deterministic by seed, so their
    /// tiles are byte-identical to in-process workers'.
    ///
    /// Blocks until all `workers` slots have a connected worker or
    /// `join_timeout` elapses (error). After launch, supervision is live:
    /// a worker process that dies (even `kill -9`) is marked failed — its
    /// in-flight tiles recover through the lifecycle's re-dispatch
    /// machinery — and a reconnecting process rejoins its slot as a fresh
    /// worker. The collector, dispatch and deadline paths are *exactly*
    /// the ones [`launch`](Self::launch) uses; only the transport behind
    /// the channel seams differs. See DESIGN.md §15.
    pub fn launch_remote(
        spec: RemoteModelSpec,
        workers: usize,
        cfg: RuntimeConfig,
        listener: WorkerListener,
        join_timeout: Duration,
    ) -> std::io::Result<Self> {
        assert!(workers > 0, "need at least one worker");
        if let Err(e) = cfg.validate() {
            panic!("invalid RuntimeConfig: {e}");
        }
        let model = spec.build();
        let sm = split_model(&model);
        let k = workers;
        let (result_tx, result_rx) = unbounded();
        let worker_stats: Vec<Arc<WorkerStats>> =
            (0..k).map(|_| Arc::new(WorkerStats::default())).collect();
        let shared = Shared::new(k, cfg.gamma, false, effective_sink(&cfg), Instant::now());
        let (cluster, task_txs, handles) = RemoteCluster::start(
            listener,
            spec,
            cfg.task_queue_cap,
            result_tx,
            worker_stats.clone(),
            shared.clone(),
        )?;
        // Join barrier: every slot must be up before the runtime exists,
        // so callers never race their first submit against the handshake.
        let deadline = Instant::now() + join_timeout;
        while shared.live.iter().any(|l| !l.load(Ordering::Relaxed)) {
            if Instant::now() >= deadline {
                let joined = shared.live.iter().filter(|l| l.load(Ordering::Relaxed)).count();
                for tx in &task_txs {
                    let _ = tx.send(WorkerMsg::Shutdown);
                }
                for h in handles {
                    let _ = h.join();
                }
                drop(cluster); // stops and joins the acceptor
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("only {joined}/{k} workers joined within {join_timeout:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(Self::start(sm, cfg, shared, result_rx, task_txs, handles, worker_stats, Some(cluster)))
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.task_txs.len()
    }

    /// Snapshot of the Algorithm 2 speed estimates. Owned because the
    /// collector thread updates them concurrently.
    pub fn speeds(&self) -> Vec<f64> {
        self.shared.stats.lock().speeds().to_vec()
    }

    /// Which workers still have a connected task channel (supervision
    /// view). A `false` entry is a positively-detected death, not merely a
    /// slow node.
    pub fn live_workers(&self) -> Vec<bool> {
        self.shared.live.iter().map(|l| l.load(Ordering::Relaxed)).collect()
    }

    /// Replace the tile allocator (e.g. with per-worker storage caps, the
    /// Equation 1 `M·x_k ≤ H_k` constraint). Takes effect from the next
    /// admission. Panics if the allocator does not cover exactly this
    /// runtime's workers.
    pub fn set_allocator(&mut self, allocator: TileAllocator) {
        assert_eq!(
            allocator.storage_bits.len(),
            self.workers(),
            "allocator node count must match the worker count"
        );
        *self.shared.allocator.lock() = allocator;
    }

    /// Snapshot the per-worker tile/compute/compress counters.
    pub fn worker_stats(&self) -> Vec<WorkerStatsSnapshot> {
        self.worker_stats.iter().map(|s| s.snapshot()).collect()
    }

    /// Images currently admitted by the collector (0 ..= `pipeline_depth`).
    pub fn in_flight(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Submissions waiting in the admission queue (0 ..= `intake_cap`).
    pub fn queued(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Submit one image `[1, C, H, W]` to the pipeline, blocking while the
    /// admission queue is at `intake_cap` (backpressure). The returned
    /// handle resolves when *this* image completes, independent of other
    /// submissions.
    pub fn submit(&self, x: &Tensor) -> InferHandle {
        let image_id = self.next_image.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = bounded(1);
        let sub = Submission { image_id, x: x.clone(), queued_at: Instant::now(), reply: reply_tx };
        // Count before the send: the collector decrements as it pops, and
        // the gauge must never observe a pop before its push.
        self.shared.queued.fetch_add(1, Ordering::Relaxed);
        self.intake_tx
            .as_ref()
            .expect("runtime already shut down")
            .send(sub)
            .expect("collector thread exited");
        InferHandle { image_id, rx: reply_rx }
    }

    /// Non-blocking [`submit`](Self::submit): `None` when the admission
    /// queue is at `intake_cap`.
    pub fn try_submit(&self, x: &Tensor) -> Option<InferHandle> {
        let image_id = self.next_image.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = bounded(1);
        let sub = Submission { image_id, x: x.clone(), queued_at: Instant::now(), reply: reply_tx };
        self.shared.queued.fetch_add(1, Ordering::Relaxed);
        match self.intake_tx.as_ref().expect("runtime already shut down").try_send(sub) {
            Ok(()) => Some(InferHandle { image_id, rx: reply_rx }),
            Err(TrySendError::Full(_)) => {
                self.shared.queued.fetch_sub(1, Ordering::Relaxed);
                None
            }
            Err(TrySendError::Disconnected(_)) => panic!("collector thread exited"),
        }
    }

    /// Run one image `[1, C, H, W]` through the distributed pipeline.
    /// Wrapper over [`submit`](Self::submit)/[`InferHandle::wait`].
    pub fn infer(&mut self, x: &Tensor) -> InferOutcome {
        self.submit(x).wait()
    }

    /// Run a stream of images with Figure 9 pipelining: all images are
    /// submitted up front (the admission queue and `pipeline_depth` bound
    /// how many proceed at once) and the outcomes are returned in input
    /// order. Wrapper over [`submit`](Self::submit)/[`InferHandle::wait`].
    pub fn infer_stream(&mut self, images: &[Tensor]) -> Vec<InferOutcome> {
        let handles: Vec<InferHandle> = images.iter().map(|x| self.submit(x)).collect();
        handles.into_iter().map(InferHandle::wait).collect()
    }

    /// Idempotent teardown: stop intake, drain the collector (every
    /// outstanding handle resolves), then stop and join the workers.
    fn close(&mut self) {
        drop(self.intake_tx.take());
        if let Some(h) = self.collector.take() {
            let _ = h.join();
        }
        for tx in &self.task_txs {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        // In-process: joins the worker threads. Remote: joins the slot
        // supervisors, which forward the shutdown to their connected
        // worker processes first.
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(mut t) = self.transport.take() {
            t.stop();
        }
    }

    /// Stop the collector and all workers and join their threads. Every
    /// already-submitted image is still completed and its handle resolved
    /// before the threads exit.
    pub fn shutdown(mut self) {
        self.close();
    }
}

impl Drop for AdcnnRuntime {
    fn drop(&mut self) {
        self.close();
    }
}
