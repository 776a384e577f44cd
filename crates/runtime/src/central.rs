//! The Central node (§6.1, Figure 8): input partition block, statistics
//! collection block, and layer computation block, driving real worker
//! threads behind a pipelined admission queue.
//!
//! Every *decision* — Algorithm 3 allocation, the expected-makespan
//! deadline, speculative re-dispatch rounds, zero-fill, duplicate handling,
//! the Algorithm 2 statistics and worker liveness — lives in the shared
//! sans-IO machine [`adcnn_core::pipeline::Pipeline`], one
//! [`TileLifecycle`](adcnn_core::lifecycle::TileLifecycle) per image. This
//! module is the wall-clock *driver*: it maps `Instant`s onto the machine's
//! abstract seconds (via a per-runtime epoch), one channel send per worker
//! and dispatch round onto [`Dispatch`](Action::Dispatch)/
//! [`Redispatch`](Action::Redispatch) actions, and `recv_timeout` onto the
//! machine's `next_deadline()`. The
//! network simulator (`adcnn-netsim`) drives the *same* machine from
//! simulated timestamps, so simulated and real scheduling decisions cannot
//! drift. See DESIGN.md §11 for the policy/mechanism split, §10 for the
//! lifecycle policy itself, and §14 for the pipeline architecture.
//!
//! # Pipeline
//!
//! One collector thread holds the machine and blocks on one inbound
//! channel. Caller threads [`submit`](AdcnnRuntime::submit) images into it
//! — at most [`RuntimeConfig::intake_cap`] waiting, beyond which `submit`
//! blocks (backpressure, not an unbounded buffer) — and receive an
//! [`InferHandle`] per image; workers send their results and report when
//! they go down or come up. The collector admits up to
//! [`RuntimeConfig::pipeline_depth`] images at once, routes each result to
//! its image by id, and resolves each handle with its own image's
//! [`InferOutcome`] the moment that image completes, regardless of
//! submission order (out-of-order completion).
//! [`infer`](AdcnnRuntime::infer) and
//! [`infer_stream`](AdcnnRuntime::infer_stream) are thin wrappers over
//! `submit`/`wait`: the pipeline is the only lifecycle driver in the
//! runtime.
//!
//! A worker is down from the moment its carrier reports it (an in-process
//! worker thread that exits, a remote slot whose connection drops) or a
//! send finds its queue disconnected: its Algorithm 2 estimate drops to
//! zero, no send goes to it, a refused tile is rerouted at once, and each
//! in-flight image learns of the death before its next deadline picks
//! re-dispatch targets — so a crashed node costs one deadline, not an
//! accuracy loss.

use crate::transport::{prefix_and_compression, RemoteCluster, RemoteModelSpec, WorkerListener};
use crate::worker::{
    spawn_worker, Compression, WorkerMsg, WorkerOptions, WorkerStats, WorkerStatsSnapshot,
};
use adcnn_core::config::ConfigError;
use adcnn_core::fdsp::TileGrid;
use adcnn_core::lifecycle::{Action, Event, LifecyclePolicy};
use adcnn_core::obs::{ObsEvent, SinkHandle};
use adcnn_core::pipeline::{Pipeline, Split};
use adcnn_core::report::{AttributionSink, ImageReport};
use adcnn_core::sched::TileAllocator;
use adcnn_core::wire::{TileKey, TileResult, TileTask};
use adcnn_nn::infer::InferScratch;
use adcnn_nn::Network;
use adcnn_retrain::PartitionedModel;
use adcnn_tensor::Tensor;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
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
    /// Depth of each worker's bounded task queue, in dispatch rounds (one
    /// message carries all of one image's tiles for that worker in one
    /// dispatch step). A dead or wedged worker can hold at most this many
    /// rounds hostage; further sends fail fast and every tile of a refused
    /// round is rerouted to live workers.
    pub task_queue_cap: usize,
    /// Maximum images in flight at once, each with its own
    /// [`TileLifecycle`](adcnn_core::lifecycle::TileLifecycle). The default of 1 is the paper's
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

/// One submitted image: the input plus the reply channel its
/// [`InferHandle`] waits on.
pub(crate) struct Submission {
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

/// Everything the collector thread reacts to, on its one inbound channel.
pub(crate) enum Inbound {
    /// A caller's image, counted in [`Shared::queued`] until admitted.
    Submit(Submission),
    /// A worker's reply: its results for the tiles it had in hand, in the
    /// order it computed them.
    Results(usize, Vec<TileResult>),
    /// A worker (re)joined: its carrier is up.
    Up(usize),
    /// A worker is gone: its thread exited or its connection dropped.
    Down(usize),
    /// [`AdcnnRuntime::set_allocator`]'s replacement allocator.
    Allocator(TileAllocator),
    /// Runtime shutdown: finish every submitted image, then exit.
    Close,
}

/// State shared between submitter threads, the accessors and the collector
/// thread: the two gauges, and a copy of the machine's speeds and live set
/// for [`AdcnnRuntime::speeds`] and [`AdcnnRuntime::live_workers`].
struct Shared {
    /// Images currently admitted (gauge mirrored by
    /// [`ObsEvent::ImageAdmitted`]/[`ObsEvent::ImageRetired`]).
    inflight: AtomicUsize,
    /// Submissions not yet admitted. A submitter waits on `admitted` while
    /// `intake_cap` of them are; each admission counts one out.
    queued: std::sync::Mutex<usize>,
    admitted: Condvar,
    /// The machine's Algorithm 2 estimates and live set, copied by the
    /// collector whenever either changes.
    mirror: Mutex<(Vec<f64>, Vec<bool>)>,
}

impl Shared {
    /// Count one submission in, waiting while `cap` are already queued —
    /// or, without `wait`, refusing (`false`).
    fn enqueue(&self, cap: usize, wait: bool) -> bool {
        let mut queued = self.queued.lock().unwrap_or_else(PoisonError::into_inner);
        while *queued >= cap {
            if !wait {
                return false;
            }
            queued = self.admitted.wait(queued).unwrap_or_else(PoisonError::into_inner);
        }
        *queued += 1;
        true
    }

    /// Count one submission out (admitted) and wake a waiting submitter.
    fn dequeue(&self) {
        *self.queued.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.admitted.notify_one();
    }
}

/// The collector's per-image state, the payload the machine carries for
/// it: the submission (each dispatch crops its tile out of the input, a
/// re-dispatch crops again — one copy per tile sent, none held), when it
/// was admitted, and its partially assembled boundary map.
struct Image {
    sub: Submission,
    start: Instant,
    assembled: Tensor,
    wire_bits: u64,
}

/// The collector thread: the single lifecycle driver in the runtime. It
/// holds the machine by value, admits images (up to `depth` at once), hands
/// every inbound result and liveness report to it, turns its
/// `next_deadline()` into a `recv_timeout` budget, and resolves each
/// image's reply channel on completion.
struct Collector {
    pipeline: Pipeline<Image>,
    grid: TileGrid,
    suffix: Network,
    /// Reusable buffers for the suffix-network forward.
    infer_scratch: InferScratch,
    task_txs: Vec<Sender<WorkerMsg>>,
    inbound: Receiver<Inbound>,
    shared: Arc<Shared>,
    rng: StdRng,
    depth: usize,
    attribution: Option<Arc<AttributionSink>>,
    /// The effective event sink: the user sink tee'd with the attribution
    /// fold when one is configured.
    sink: SinkHandle,
    /// Origin of the machine's abstract time axis: every `Instant` is
    /// expressed as seconds since this epoch before it reaches the machine
    /// or the sink. The run loop reads it for every result and timer, so
    /// it is the collector's own (behind an `Arc` the ledger's hub
    /// workloads lost 3–5 % images/s, 29 of 30 pairs).
    epoch: Instant,
    /// Assembled boundary map dims `(C, H, W)`.
    boundary: (usize, usize, usize),
    /// Per-tile boundary dims `(C, h, w)`.
    tile_out: (usize, usize, usize),
    /// Where every result is decoded, `[1, C, h, w]`: a payload that fails
    /// half way has touched this and not the image's boundary map, and a
    /// healthy one costs no allocation.
    decoded: Tensor,
    /// A remote slot can rejoin; an in-process worker thread that exited
    /// never comes back, so once all of them are down nothing can arrive.
    rejoinable: bool,
    /// Each worker's round while [`drive`](Self::drive) collects it (kept
    /// here so that a drive with nothing to send allocates nothing).
    rounds: Vec<Vec<TileTask>>,
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
    /// A collector for the workers behind `task_txs`, all up from the start
    /// (in-process threads) or all down until they join (`remote` slots).
    fn new(
        sm: SplitModel,
        cfg: &RuntimeConfig,
        sink: SinkHandle,
        epoch: Instant,
        inbound: Receiver<Inbound>,
        task_txs: Vec<Sender<WorkerMsg>>,
        remote: bool,
    ) -> Self {
        let k = task_txs.len();
        let allocator = TileAllocator::unbounded(k);
        let pipeline = Pipeline::new(
            cfg.policy,
            sm.grid.tiles(),
            cfg.gamma,
            Split::Adaptive,
            allocator,
            !remote,
            sink.clone(),
        );
        let shared = Arc::new(Shared {
            inflight: AtomicUsize::new(0),
            queued: std::sync::Mutex::new(0),
            admitted: Condvar::new(),
            mirror: Mutex::new((pipeline.speeds().to_vec(), pipeline.live().to_vec())),
        });
        Collector {
            pipeline,
            grid: sm.grid,
            suffix: sm.suffix,
            infer_scratch: InferScratch::new(),
            task_txs,
            inbound,
            shared,
            rng: StdRng::seed_from_u64(cfg.seed),
            depth: cfg.pipeline_depth,
            attribution: cfg.attribution.clone(),
            sink,
            epoch,
            boundary: sm.boundary,
            tile_out: sm.tile_out,
            decoded: Tensor::zeros([1, sm.tile_out.0, sm.tile_out.1, sm.tile_out.2]),
            rejoinable: remote,
            rounds: vec![Vec::new(); k],
        }
    }

    /// Worker `w`'s carrier went up or down. The machine decides whether
    /// that is news; only news is narrated on the topology stream (one
    /// `NodeDown` per spell, whichever carrier noticed first) and copied
    /// for the accessors.
    fn set_live(&mut self, w: usize, up: bool) {
        let changed = if up { self.pipeline.worker_up(w) } else { self.pipeline.worker_down(w) };
        if changed {
            let (at, node) = (secs_since(self.epoch, Instant::now()), w as u32);
            self.sink.emit_with(|| {
                if up {
                    ObsEvent::NodeUp { at, node }
                } else {
                    ObsEvent::NodeDown { at, node }
                }
            });
            self.publish();
        }
    }

    /// Copy the machine's speeds and live set for the accessors. They move
    /// only when a worker goes up or down and when an image completes.
    fn publish(&self) {
        *self.shared.mirror.lock() =
            (self.pipeline.speeds().to_vec(), self.pipeline.live().to_vec());
    }

    /// The join barrier of [`AdcnnRuntime::launch_remote`]: apply the
    /// slots' reports until every slot is up, or return how many are when
    /// `deadline` passes.
    fn join(&mut self, deadline: Instant) -> Result<(), usize> {
        while self.pipeline.live().contains(&false) {
            match self.inbound.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(Inbound::Up(w)) => self.set_live(w, true),
                Ok(Inbound::Down(w)) => self.set_live(w, false),
                Ok(_) => {}
                Err(_) => return Err(self.pipeline.live().iter().filter(|&&l| l).count()),
            }
        }
        Ok(())
    }

    /// Try to hand `node` one round of tiles as one message on its bounded
    /// queue; `false` when the round is refused. A disconnected queue takes
    /// the worker down on the spot.
    fn send_round(&mut self, node: usize, round: Vec<TileTask>) -> bool {
        if !self.pipeline.live()[node] {
            return false;
        }
        match self.task_txs[node].try_send(WorkerMsg::Tiles(round)) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => false,
            Err(TrySendError::Disconnected(_)) => {
                self.set_live(node, false);
                false
            }
        }
    }

    /// Execute `image`'s actions against the real transport. Each worker's
    /// [`Dispatch`](Action::Dispatch)/[`Redispatch`](Action::Redispatch)
    /// tiles — each cropped as it is queued — form one round, and once the
    /// actions drain every round goes out as one message, starting from a
    /// worker that rotates with the image. A delivered
    /// round's original tiles come back as [`Event::TileDelivered`] and a
    /// refused round's tiles each as [`Event::SendRejected`], in dispatch
    /// order; the machine's follow-up actions (the reroutes) form the next
    /// rounds, until nothing is left to send. An [`Action::Accept`] pastes
    /// the tile [`ingest`](Self::ingest) just decoded; [`Action::Complete`]
    /// retires the image. Timers come from `next_deadline()` in the run
    /// loop, and zero-fill needs no work (the boundary map starts zeroed).
    fn drive(&mut self, image: u64, acts: Vec<Action>) {
        let mut queue: VecDeque<Action> = acts.into();
        // `(worker, tile, original)` of every queued tile, in dispatch order.
        let mut sent: Vec<(usize, usize, bool)> = Vec::new();
        let mut complete = false;
        loop {
            while let Some(act) = queue.pop_front() {
                let (tile, to, original) = match act {
                    Action::Dispatch { tile, to } => (tile, to, true),
                    Action::Redispatch { tile, to } => (tile, to, false),
                    Action::Accept { tile, .. } => {
                        let ((gr, gc), (_, th, tw)) = (self.grid.tile_pos(tile), self.tile_out);
                        let img =
                            &mut self.pipeline.get_mut(image).expect("image in flight").payload;
                        img.assembled.paste_spatial(&self.decoded, gr * th, gc * tw);
                        continue;
                    }
                    Action::Complete => {
                        complete = true;
                        continue;
                    }
                    _ => continue,
                };
                let x = &self.pipeline.get(image).expect("image in flight").payload.sub.x;
                let key = TileKey { image_id: image, tile_id: tile as u32 };
                self.rounds[to].push(TileTask { key, tile: self.grid.extract_tile(x, tile) });
                sent.push((to, tile, original));
            }
            if sent.is_empty() {
                break;
            }
            // The first round goes to a worker that rotates with the image:
            // workers that share a CPU compute in the order they are woken,
            // and Algorithm 2 would read a fixed send order as speed (on the
            // perf ledger's one-CPU hub at depth 1, worker 1's allocation
            // share fell from ≈ 0.47 to ≈ 0.05 with worker 0 always first).
            let k = self.rounds.len();
            let mut accepted = vec![true; k];
            for w in (0..k).map(|i| (image as usize + i) % k) {
                let round = std::mem::take(&mut self.rounds[w]);
                accepted[w] = round.is_empty() || self.send_round(w, round);
            }
            for (to, tile, original) in sent.drain(..) {
                // A queue handoff is "delivered" for the runtime: there is
                // no modeled transit.
                let ev = if !accepted[to] {
                    Event::SendRejected { tile, worker: to }
                } else if original {
                    Event::TileDelivered { tile }
                } else {
                    continue;
                };
                queue.extend(self.pipeline.handle(image, ev));
            }
        }
        if complete {
            self.finish(image);
        }
    }

    /// Input partition block for one admitted image: the machine allocates
    /// it with Algorithm 3 and begins its lifecycle, and the initial
    /// dispatch goes to the workers, one round each.
    fn admit(&mut self, sub: Submission) {
        self.shared.dequeue();
        let (image_id, start) = (sub.image_id, Instant::now());
        let queue_wait = start.duration_since(sub.queued_at).as_secs_f64();
        let depth_now = self.pipeline.len() + 1;
        self.shared.inflight.store(depth_now, Ordering::Relaxed);
        // Driver-emitted (never by the lifecycle), before the machine's
        // own ImageStart: admission is a pipeline fact, not a decision.
        let at = secs_since(self.epoch, start);
        self.sink.emit_with(|| ObsEvent::ImageAdmitted {
            at,
            image: image_id,
            queue_wait,
            inflight: depth_now as u32,
        });
        let (bc, bh, bw) = self.boundary;
        let img = Image { sub, start, assembled: Tensor::zeros([1, bc, bh, bw]), wire_bits: 0 };
        let acts = self.pipeline.submit(image_id, at, img, &mut self.rng);
        self.drive(image_id, acts);
        let at = secs_since(self.epoch, Instant::now());
        let acts = self.pipeline.handle(image_id, Event::SendComplete { at });
        self.drive(image_id, acts);
    }

    /// Feed one result to its image's machine: account wire bits, decode
    /// it into `decoded` (the [`Action::Accept`] pastes it), run the rest.
    /// A worker's reply is ingested one result at a time, in its order.
    fn ingest(&mut self, worker: usize, res: TileResult) {
        let at = secs_since(self.epoch, Instant::now());
        let (image, tile) = (res.key.image_id, res.key.tile_id as usize);
        // A miss is a straggler from an already-retired image (every
        // result answers a tile this collector dispatched): discard.
        let Some(f) = self.pipeline.get_mut(image) else { return };
        // A duplicate or late result is counted by the machine, not decoded.
        let open = f.lifecycle().tile_open(tile);
        if open {
            f.payload.wire_bits += res.wire_bits();
        }
        // A frame can decode cleanly and still not be this model's tile (a
        // worker serving another model): only the expected shape may reach
        // the paste. Anything else is a corrupt result — the tile stays open
        // for re-dispatch.
        let (c, th, tw) = self.tile_out;
        let ok = !open
            || (res.shape == [1, c, th, tw]
                && res.decode_into(self.decoded.as_mut_slice()).is_some());
        let acts = self.pipeline.handle(image, Event::ResultArrived { at, tile, worker, ok });
        self.drive(image, acts);
    }

    /// Layer computation block + handle resolution for one completed
    /// image: retire it from the machine, run the suffix network and
    /// deliver the outcome.
    fn finish(&mut self, image: u64) {
        let (img, lc) = self.pipeline.retire(image).expect("completed image in flight");
        let n_suffix = self.suffix.len();
        let output = self
            .suffix
            .forward_infer_range_with(&img.assembled, 0..n_suffix, &mut self.infer_scratch)
            .to_tensor();
        let remaining = self.pipeline.len();
        self.shared.inflight.store(remaining, Ordering::Relaxed);
        let at = secs_since(self.epoch, Instant::now());
        self.sink.emit_with(|| ObsEvent::ImageRetired { at, image, inflight: remaining as u32 });
        let c = lc.counters();
        let outcome = InferOutcome {
            output,
            image,
            queued: img.start.duration_since(img.sub.queued_at),
            latency: img.start.elapsed(),
            alloc: lc.alloc().to_vec(),
            received: c.received.clone(),
            zero_filled: c.zero_filled,
            redispatched: c.redispatched,
            wire_bits: img.wire_bits,
            report: self.attribution.as_ref().and_then(|a| a.report_for(image)),
        };
        // The accessors see this image's Algorithm 2 update before its
        // handle resolves.
        self.publish();
        // `bounded(1)` reply never blocks; a dropped handle just discards.
        let _ = img.sub.reply.send(outcome);
    }

    /// Every in-process worker is down: nothing will ever arrive again, so
    /// abort every in-flight image (the machine zero-fills what is still
    /// open, and each one retires as it completes).
    fn abort_all(&mut self) {
        while let Some((image, _)) = self.pipeline.next_deadline() {
            let acts = self.pipeline.handle(image, Event::Abort);
            self.drive(image, acts);
        }
    }

    /// Tell every worker to stop (a remote slot forwards it to its
    /// process).
    fn stop_workers(&self) {
        for tx in &self.task_txs {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
    }

    /// The collector loop. Exits once the runtime has closed the intake
    /// *and* every submitted image has been retired, so shutdown never
    /// strands a handle — and stops the workers on its way out.
    fn run(mut self) {
        let mut waiting: VecDeque<Submission> = VecDeque::new();
        let mut open = true;
        loop {
            while self.pipeline.len() < self.depth {
                let Some(sub) = waiting.pop_front() else { break };
                self.admit(sub);
            }
            if !open && self.pipeline.is_empty() {
                return self.stop_workers();
            }
            // The machine owns the deadline arithmetic; the driver only
            // turns the earliest `next_deadline()` into a `recv_timeout`
            // budget, and blocks outright when nothing is in flight.
            let now = Instant::now();
            let msg = match self.pipeline.next_deadline() {
                Some((image, dl)) if now >= instant_at(self.epoch, dl) => {
                    // `max` guards the f64↔Duration roundtrip: the machine
                    // must never see a fire time before its own deadline.
                    let at = secs_since(self.epoch, now).max(dl);
                    let acts = self.pipeline.handle(image, Event::DeadlineFired { at });
                    self.drive(image, acts);
                    Err(RecvTimeoutError::Timeout)
                }
                Some((_, dl)) => self.inbound.recv_timeout(instant_at(self.epoch, dl) - now),
                None => self.inbound.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match msg {
                Ok(Inbound::Submit(sub)) => waiting.push_back(sub),
                Ok(Inbound::Results(worker, results)) => {
                    for res in results {
                        self.ingest(worker, res);
                    }
                }
                Ok(Inbound::Up(w)) => self.set_live(w, true),
                Ok(Inbound::Down(w)) => self.set_live(w, false),
                Ok(Inbound::Allocator(a)) => self.pipeline.set_allocator(a),
                Ok(Inbound::Close) | Err(RecvTimeoutError::Disconnected) => open = false,
                Err(RecvTimeoutError::Timeout) => {}
            }
            if !self.rejoinable && !self.pipeline.live().contains(&true) {
                self.abort_all();
            }
        }
    }
}

/// Model geometry and pipeline pieces shared by the in-process and remote
/// launch paths: the Conv-side prefix (with its boundary compression) and
/// the Central-side suffix, plus the boundary-map dimensions. The prefix is
/// read-only once split, so every in-process Conv node shares this one
/// copy.
struct SplitModel {
    grid: TileGrid,
    prefix: Arc<Network>,
    suffix: Network,
    compression: Option<Compression>,
    tile_out: (usize, usize, usize),
    boundary: (usize, usize, usize),
}

/// Split a model into its Conv/Central halves and size the per-tile
/// boundary with a shape pass over the prefix ([`Network::map_dims`]): no
/// forward runs and no scratch is allocated. Refuses a grid that does not
/// divide the input, a boundary quantizer wider than the wire's 4 bits and
/// a prefix that cannot emit a `[C, H, W]` tile.
fn split_model(mut model: PartitionedModel) -> Result<SplitModel, String> {
    let (grid, (c, h, w)) = (model.grid, model.input);
    if h % grid.rows != 0 || w % grid.cols != 0 {
        return Err(format!("input {h}x{w} not divisible by {grid}"));
    }
    let tile = (c, h / grid.rows, w / grid.cols);
    let suffix = Network::new(model.net.blocks.split_off(model.prefix));
    let (prefix, compression) = prefix_and_compression(model);
    if let Some(bits) = compression.map(|c| c.quantizer.bits).filter(|&b| b > 4) {
        return Err(format!(
            "the boundary quantizer has {bits} bits; the nibble RLE wire codec carries at most 4"
        ));
    }
    let tile_out @ (oc, oh, ow) = prefix
        .map_dims(tile)
        .map_err(|e| format!("the prefix cannot serve a {tile:?} tile: {e}"))?;
    let boundary = (oc, oh * grid.rows, ow * grid.cols);
    Ok(SplitModel { grid, prefix: Arc::new(prefix), suffix, compression, tile_out, boundary })
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
    /// The collector's inbound channel, for submissions and control.
    inbound: Sender<Inbound>,
    /// `Some` until shutdown.
    collector: Option<JoinHandle<()>>,
    intake_cap: usize,
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
    /// Split a (retrained) [`PartitionedModel`] into the Conv-node prefix
    /// and the Central suffix, launch one worker thread per entry of
    /// `worker_opts`, and start the collector thread. The prefix is held
    /// once: every worker thread reads the same `Arc<Network>`, and only
    /// its scratch is its own. A shape pass sizes the split; panics if the
    /// grid does not divide the input, if the boundary quantizer is wider
    /// than the wire's 4 bits, or (naming the layer) if the prefix cannot
    /// emit `[C, H, W]` tiles on the grid.
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
        let sm = split_model(model).unwrap_or_else(|e| panic!("cannot launch this model: {e}"));

        // The epoch — origin of the abstract time axis — must exist before
        // the workers do: they stamp their compute/compress spans against
        // it, and a span must never predate the axis.
        let epoch = Instant::now();
        let sink = effective_sink(&cfg);
        let (inbound_tx, inbound_rx) = unbounded();
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
                Arc::clone(&sm.prefix),
                sm.compression,
                *opts,
                rx,
                inbound_tx.clone(),
                stats.clone(),
                sink.clone(),
                epoch,
            ));
            task_txs.push(tx);
            worker_stats.push(stats);
        }
        let collector = Collector::new(sm, &cfg, sink, epoch, inbound_rx, task_txs, false);
        Self::start(collector, cfg.intake_cap, inbound_tx, handles, worker_stats, None)
    }

    /// The tail both launch paths share once their workers are up: the
    /// [`Collector`] on its own thread, and the runtime handle that owns
    /// them all.
    fn start(
        collector: Collector,
        intake_cap: usize,
        inbound: Sender<Inbound>,
        handles: Vec<JoinHandle<()>>,
        worker_stats: Vec<Arc<WorkerStats>>,
        transport: Option<RemoteCluster>,
    ) -> Self {
        let shared = collector.shared.clone();
        let collector = std::thread::Builder::new()
            .name("adcnn-collector".into())
            .spawn(move || collector.run())
            .expect("failed to spawn collector thread");
        AdcnnRuntime {
            inbound,
            collector: Some(collector),
            intake_cap,
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
    /// the channel seams differs. See DESIGN.md §15. A spec whose grid
    /// does not divide the input, whose boundary quantizer is wider than
    /// the wire's 4 bits, or whose prefix cannot emit `[C, H, W]` tiles on
    /// the grid (the error names the layer) is an `InvalidInput` error.
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
        let sm = spec
            .checked_build()
            .and_then(split_model)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let k = workers;
        let (epoch, sink) = (Instant::now(), effective_sink(&cfg));
        let (inbound_tx, inbound_rx) = unbounded();
        let worker_stats: Vec<Arc<WorkerStats>> =
            (0..k).map(|_| Arc::new(WorkerStats::default())).collect();
        let (cluster, task_txs, handles) = RemoteCluster::start(
            listener,
            spec,
            cfg.task_queue_cap,
            inbound_tx.clone(),
            worker_stats.clone(),
            sink.clone(),
            epoch,
        );
        let mut collector = Collector::new(sm, &cfg, sink, epoch, inbound_rx, task_txs, true);
        // Join barrier: every slot must be up before the runtime exists,
        // so callers never race their first submit against the handshake.
        if let Err(joined) = collector.join(Instant::now() + join_timeout) {
            collector.stop_workers();
            for h in handles {
                let _ = h.join();
            }
            drop(cluster); // stops and joins the acceptor
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("only {joined}/{k} workers joined within {join_timeout:?}"),
            ));
        }
        let cap = cfg.intake_cap;
        Ok(Self::start(collector, cap, inbound_tx, handles, worker_stats, Some(cluster)))
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.worker_stats.len()
    }

    /// Snapshot of the Algorithm 2 speed estimates. Owned because the
    /// collector thread updates them concurrently.
    pub fn speeds(&self) -> Vec<f64> {
        self.shared.mirror.lock().0.clone()
    }

    /// Which workers still have a connected task channel (supervision
    /// view). A `false` entry is a positively-detected death, not merely a
    /// slow node.
    pub fn live_workers(&self) -> Vec<bool> {
        self.shared.mirror.lock().1.clone()
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
        let _ = self.inbound.send(Inbound::Allocator(allocator));
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
        *self.shared.queued.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Submit one image `[1, C, H, W]` to the pipeline, blocking while the
    /// admission queue is at `intake_cap` (backpressure). The returned
    /// handle resolves when *this* image completes, independent of other
    /// submissions.
    pub fn submit(&self, x: &Tensor) -> InferHandle {
        self.queue_image(x, true).expect("a blocking submit is always queued")
    }

    /// Non-blocking [`submit`](Self::submit): `None` when the admission
    /// queue is at `intake_cap`.
    pub fn try_submit(&self, x: &Tensor) -> Option<InferHandle> {
        self.queue_image(x, false)
    }

    /// Count one submission into the admission queue — waiting for room,
    /// or refusing without `wait` — and send it to the collector.
    fn queue_image(&self, x: &Tensor, wait: bool) -> Option<InferHandle> {
        let (image_id, queued_at) =
            (self.next_image.fetch_add(1, Ordering::Relaxed), Instant::now());
        if !self.shared.enqueue(self.intake_cap, wait) {
            return None;
        }
        let (reply, rx) = bounded(1);
        let sub = Submission { image_id, x: x.clone(), queued_at, reply };
        self.inbound.send(Inbound::Submit(sub)).expect("collector thread exited");
        Some(InferHandle { image_id, rx })
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
    /// outstanding handle resolves, then it stops the workers), and join
    /// the workers.
    fn close(&mut self) {
        if let Some(h) = self.collector.take() {
            let _ = self.inbound.send(Inbound::Close);
            let _ = h.join();
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
