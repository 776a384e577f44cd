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

use crate::transport::{
    prefix_and_compression, RemoteCluster, RemoteModelSpec, TransportHooks, WorkerListener,
};
use crate::worker::{
    spawn_worker, Compression, WorkerMsg, WorkerOptions, WorkerStats, WorkerStatsSnapshot,
};
use adcnn_core::config::ConfigError;
use adcnn_core::fdsp::TileGrid;
use adcnn_core::lifecycle::{Action, Event, LifecyclePolicy, TileLifecycle, TimerPolicy};
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
    /// Start building a validated config from the defaults.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder { cfg: RuntimeConfig::default() }
    }

    /// Check the invariants the builder enforces;
    /// [`AdcnnRuntime::launch`] re-validates so a hand-mutated config
    /// fails just as loudly.
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

/// Builder for [`RuntimeConfig`]; see [`RuntimeConfig::builder`]. The
/// lifecycle-policy knobs are inlined (with `Duration` ergonomics for the
/// time-valued ones) so most callers never touch the nested struct.
#[derive(Clone, Debug)]
pub struct RuntimeConfigBuilder {
    cfg: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Replace the whole lifecycle policy; `build()` runs
    /// [`LifecyclePolicy::validate`] on it.
    pub fn policy(mut self, policy: LifecyclePolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Base timer `T_L`.
    pub fn t_l(mut self, t_l: Duration) -> Self {
        self.cfg.policy.t_l = t_l.as_secs_f64();
        self
    }

    /// Deadline slack factor over the expected makespan.
    pub fn slack(mut self, slack: f64) -> Self {
        self.cfg.policy.slack = slack;
        self
    }

    /// Speculative re-dispatch rounds before zero-filling (0 disables
    /// recovery).
    pub fn max_redispatch_rounds(mut self, rounds: u32) -> Self {
        self.cfg.policy.max_redispatch_rounds = rounds;
        self
    }

    /// Absolute per-image lifetime bound.
    pub fn hard_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.policy.hard_timeout = timeout.as_secs_f64();
        self
    }

    /// When the recovery timer arms.
    pub fn timer(mut self, timer: TimerPolicy) -> Self {
        self.cfg.policy.timer = timer;
        self
    }

    /// Algorithm 2 decay γ.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.cfg.gamma = gamma;
        self
    }

    /// Tile-allocation tie-break seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Depth of each worker's bounded task queue.
    pub fn task_queue_cap(mut self, cap: usize) -> Self {
        self.cfg.task_queue_cap = cap;
        self
    }

    /// Maximum images in flight at once.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.cfg.pipeline_depth = depth;
        self
    }

    /// Capacity of the admission queue (backpressure bound).
    pub fn intake_cap(mut self, cap: usize) -> Self {
        self.cfg.intake_cap = cap;
        self
    }

    /// Install a structured-event sink.
    pub fn sink(mut self, sink: SinkHandle) -> Self {
        self.cfg.sink = sink;
        self
    }

    /// Attach per-image critical-path attribution. Keep a clone of the
    /// `Arc` to read the run aggregate after the fact.
    pub fn attribution(mut self, attribution: Arc<AttributionSink>) -> Self {
        self.cfg.attribution = Some(attribution);
        self
    }

    /// Validate and produce the config.
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

/// State shared between submitter threads, accessor methods and the
/// collector thread.
struct Shared {
    /// Algorithm 2 statistics (EWMA speeds). The collector updates them
    /// per result; accessors snapshot them.
    stats: Mutex<StatsCollector>,
    /// Algorithm 3 allocator; replaceable at runtime via
    /// [`AdcnnRuntime::set_allocator`].
    allocator: Mutex<TileAllocator>,
    /// Workers whose task channel is still connected. Cleared on the first
    /// failed send; a dead worker is never sent to again.
    live: Vec<AtomicBool>,
    /// Images currently admitted (gauge mirrored by
    /// [`ObsEvent::ImageAdmitted`]/[`ObsEvent::ImageRetired`]).
    inflight: AtomicUsize,
    /// Submissions sitting in the admission queue.
    queued: AtomicUsize,
}

impl Shared {
    /// Fresh state for `k` workers, every slot initially `live` or not
    /// (in-process threads exist from the start; a remote slot is dead
    /// until a worker joins it, so nothing may be allocated or dispatched
    /// to an empty slot).
    fn new(k: usize, gamma: f64, live: bool) -> Arc<Shared> {
        Arc::new(Shared {
            stats: Mutex::new(StatsCollector::new(k, gamma)),
            allocator: Mutex::new(TileAllocator::unbounded(k)),
            live: (0..k).map(|_| AtomicBool::new(live)).collect(),
            inflight: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
        })
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
    /// The effective event sink: the user sink tee'd with the attribution
    /// fold when one is configured.
    sink: SinkHandle,
    /// Origin of the machine's abstract time axis: every `Instant` is
    /// expressed as seconds since this epoch before it reaches the
    /// lifecycle machine.
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
    /// is returned for rerouting; a disconnected channel additionally marks
    /// the worker dead — speed 0 in the Algorithm 2 statistics — so the
    /// very next allocation assigns it nothing.
    fn send_to(&mut self, node: usize, task: TileTask) -> Result<(), TileTask> {
        if !self.shared.live[node].load(Ordering::Relaxed) {
            return Err(task);
        }
        match self.task_txs[node].try_send(WorkerMsg::Tile(task)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(WorkerMsg::Tile(t))) => Err(t),
            Err(TrySendError::Disconnected(WorkerMsg::Tile(t))) => {
                self.shared.live[node].store(false, Ordering::Relaxed);
                self.shared.stats.lock().mark_failed(node);
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
        self.sink.emit_with(|| ObsEvent::ImageAdmitted {
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
            self.sink.clone(),
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
        self.sink.emit_with(|| ObsEvent::ImageRetired {
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
        {
            let mut stats = self.shared.stats.lock();
            for w in 0..k {
                if self.shared.live[w].swap(false, Ordering::Relaxed) {
                    stats.mark_failed(w);
                }
            }
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
            let (tx, rx) = bounded(cfg.task_queue_cap.max(1));
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
        let shared = Shared::new(k, cfg.gamma, true);
        Self::start(sm, cfg, sink, epoch, shared, result_rx, task_txs, handles, worker_stats, None)
    }

    /// The tail both launch paths share once their workers are up: the
    /// intake queue, the [`Collector`] on its own thread, and the runtime
    /// handle that owns them all.
    #[allow(clippy::too_many_arguments)]
    fn start(
        sm: SplitModel,
        cfg: RuntimeConfig,
        sink: SinkHandle,
        epoch: Instant,
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
            sink,
            epoch,
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
        let epoch = Instant::now();
        let sink = effective_sink(&cfg);
        let (result_tx, result_rx) = unbounded();
        let worker_stats: Vec<Arc<WorkerStats>> =
            (0..k).map(|_| Arc::new(WorkerStats::default())).collect();
        let shared = Shared::new(k, cfg.gamma, false);
        let hooks = TransportHooks {
            on_up: {
                let shared = shared.clone();
                let sink = sink.clone();
                Arc::new(move |w: usize| {
                    // A (re)connect is a fresh join: restore the EWMA to
                    // the fresh-join prior *before* the slot becomes
                    // allocatable, so the first allocation after a rejoin
                    // treats the worker as new — never resumes the dead
                    // incarnation's statistics.
                    shared.stats.lock().rejoin(w);
                    shared.live[w].store(true, Ordering::Relaxed);
                    sink.emit_with(|| ObsEvent::NodeUp {
                        at: epoch.elapsed().as_secs_f64(),
                        node: w as u32,
                    });
                })
            },
            on_down: {
                let shared = shared.clone();
                let sink = sink.clone();
                Arc::new(move |w: usize| {
                    // Same guard as a disconnected in-process channel: the
                    // first detection wins, later ones are no-ops — the
                    // topology stream sees exactly one NodeDown per spell.
                    if shared.live[w].swap(false, Ordering::Relaxed) {
                        shared.stats.lock().mark_failed(w);
                        sink.emit_with(|| ObsEvent::NodeDown {
                            at: epoch.elapsed().as_secs_f64(),
                            node: w as u32,
                        });
                    }
                })
            },
        };
        let (cluster, task_txs, handles) = RemoteCluster::start(
            listener,
            spec,
            k,
            cfg.task_queue_cap.max(1),
            result_tx,
            worker_stats.clone(),
            sink.clone(),
            epoch,
            hooks,
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
        Ok(Self::start(
            sm,
            cfg,
            sink,
            epoch,
            shared,
            result_rx,
            task_txs,
            handles,
            worker_stats,
            Some(cluster),
        ))
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

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_core::ClippedRelu;
    use adcnn_nn::layer::QuantizeSte;
    use adcnn_nn::small::shapes_cnn;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn build_model(seed: u64, grid: TileGrid) -> PartitionedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let cr = ClippedRelu::new(0.0, 2.0);
        PartitionedModel::fdsp(shapes_cnn(6, &mut rng), grid)
            .with_crelu(cr)
            .with_quant(QuantizeSte::new(4, cr.range()))
    }

    fn rand_image(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::randn([1, 3, 32, 32], 0.5, &mut rng)
    }

    /// The default config with a different `T_L` grace (the old
    /// `RuntimeConfig::with_t_l` shorthand, through the builder).
    fn cfg_t_l(ms: u64) -> RuntimeConfig {
        RuntimeConfig::builder().t_l(Duration::from_millis(ms)).build().unwrap()
    }

    #[test]
    fn builder_validates_and_surfaces_typed_errors() {
        let cfg = RuntimeConfig::builder()
            .t_l(Duration::from_millis(25))
            .slack(2.0)
            .max_redispatch_rounds(1)
            .hard_timeout(Duration::from_secs(3))
            .timer(TimerPolicy::AfterSend)
            .gamma(0.8)
            .seed(7)
            .task_queue_cap(16)
            .pipeline_depth(4)
            .intake_cap(8)
            .build()
            .unwrap();
        assert_eq!(cfg.policy.t_l, 0.025);
        assert_eq!(cfg.policy.slack, 2.0);
        assert_eq!(cfg.policy.max_redispatch_rounds, 1);
        assert_eq!(cfg.policy.hard_timeout, 3.0);
        assert_eq!(cfg.policy.timer, TimerPolicy::AfterSend);
        assert_eq!((cfg.gamma, cfg.seed, cfg.task_queue_cap), (0.8, 7, 16));
        assert_eq!((cfg.pipeline_depth, cfg.intake_cap), (4, 8));
        assert!(!cfg.sink.enabled());
        assert_eq!(
            RuntimeConfig::builder().gamma(0.0).build().unwrap_err(),
            ConfigError::GammaOutOfRange(0.0)
        );
        assert_eq!(
            RuntimeConfig::builder().gamma(1.5).build().unwrap_err(),
            ConfigError::GammaOutOfRange(1.5)
        );
        assert_eq!(
            RuntimeConfig::builder().task_queue_cap(0).build().unwrap_err(),
            ConfigError::ZeroTaskQueueCap
        );
        assert_eq!(
            RuntimeConfig::builder().pipeline_depth(0).build().unwrap_err(),
            ConfigError::ZeroPipelineDepth
        );
        assert_eq!(
            RuntimeConfig::builder().intake_cap(0).build().unwrap_err(),
            ConfigError::ZeroIntakeCap
        );
        assert_eq!(
            RuntimeConfig::builder().slack(0.5).build().unwrap_err(),
            ConfigError::SlackBelowOne(0.5)
        );
    }

    #[test]
    fn attribution_rejects_a_pipeline_deeper_than_its_inflight_window() {
        let max = AttributionSink::MAX_INFLIGHT;
        let with_attr = |depth| {
            RuntimeConfig::builder()
                .pipeline_depth(depth)
                .attribution(Arc::new(AttributionSink::new()))
                .build()
        };
        assert!(with_attr(max).is_ok());
        assert_eq!(
            with_attr(max + 1).unwrap_err(),
            ConfigError::AttributionDepthExceeded { depth: max + 1, max }
        );
        // without attribution nothing evicts, so depth is unbounded
        assert!(RuntimeConfig::builder().pipeline_depth(max + 1).build().is_ok());
    }

    #[test]
    fn distributed_matches_local_partitioned_model() {
        let grid = TileGrid::new(2, 2);
        let mut local = build_model(5, grid);
        let model = build_model(5, grid); // identical weights (same seed)
        let mut rt =
            AdcnnRuntime::launch(model, &[WorkerOptions::default(); 3], RuntimeConfig::default());
        for s in 0..3 {
            let x = rand_image(100 + s);
            let want = local.infer(&x);
            let out = rt.infer(&x);
            assert_eq!(out.zero_filled, 0, "dropped tiles: {:?}", out.received);
            assert!(
                out.output.approx_eq(&want, 2e-3),
                "distributed output diverges from local model"
            );
        }
        rt.shutdown();
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
        let cfg = RuntimeConfig::builder()
            .t_l(Duration::from_millis(50))
            .max_redispatch_rounds(0)
            .build()
            .unwrap();
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
        let mut local = build_model(15, grid);
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
        assert!(out.output.approx_eq(&want, 2e-3), "recovered output diverges");
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
            WorkerOptions {
                fail_after_tiles: Some(2),
                disconnect_on_fail: true,
                ..Default::default()
            },
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
    fn corrupt_payloads_are_recovered_by_redispatch() {
        // Every payload from worker 1 fails to decode; the tiles must be
        // re-dispatched to worker 0 and the image completed cleanly.
        let grid = TileGrid::new(2, 2);
        let mut local = build_model(25, grid);
        let model = build_model(25, grid);
        let opts =
            [WorkerOptions::default(), WorkerOptions { corrupt_prob: 1.0, ..Default::default() }];
        let mut rt = AdcnnRuntime::launch(model, &opts, cfg_t_l(50));
        let x = rand_image(9);
        let want = local.infer(&x);
        let out = rt.infer(&x);
        assert_eq!(out.zero_filled, 0, "corrupt tiles must be recovered");
        assert!(out.redispatched > 0);
        assert!(out.output.approx_eq(&want, 2e-3));
        rt.shutdown();
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
        assert!(
            out.wire_bits < raw_bits,
            "compression ineffective: {} vs {raw_bits}",
            out.wire_bits
        );
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
        let mut local = build_model(13, grid);
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
            assert!(out.output.approx_eq(&want, 2e-3));
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
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use adcnn_core::fdsp::TileGrid;
    use adcnn_core::ClippedRelu;
    use adcnn_nn::layer::QuantizeSte;
    use adcnn_nn::small::shapes_cnn;
    use adcnn_retrain::PartitionedModel;
    use rand::{rngs::StdRng, SeedableRng};

    fn build_model(seed: u64, grid: TileGrid) -> PartitionedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let cr = ClippedRelu::new(0.0, 2.0);
        PartitionedModel::fdsp(shapes_cnn(6, &mut rng), grid)
            .with_crelu(cr)
            .with_quant(QuantizeSte::new(4, cr.range()))
    }

    fn rand_images(n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Tensor::randn([1, 3, 32, 32], 0.5, &mut rng)).collect()
    }

    fn cfg_t_l(ms: u64) -> RuntimeConfig {
        RuntimeConfig::builder().t_l(Duration::from_millis(ms)).build().unwrap()
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
        let mut local = build_model(23, grid);
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
            assert!(g.output.approx_eq(w, 2e-3));
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
        assert_eq!(got.len(), 8);
        // the crash is absorbed by re-dispatch, never by zero-fill …
        assert!(got.iter().all(|o| o.zero_filled == 0), "no image may lose tiles");
        assert!(got.iter().any(|o| o.redispatched > 0), "the crash must trigger recovery");
        // … and the statistics still starve the dead worker out
        assert_eq!(got.last().unwrap().alloc[1], 0);
        assert_eq!(got.last().unwrap().redispatched, 0);
    }

    #[test]
    fn stream_stays_correct_when_duplicates_race_stashed_originals() {
        // A jittery-slow worker makes the deadline fire while its originals
        // are still in flight: the duplicate (re-dispatched) results race
        // the originals across consecutive pipelined images. Outputs must
        // match the local model whenever nothing was zero-filled.
        let grid = TileGrid::new(2, 2);
        let images = rand_images(8, 57);
        let mut local = build_model(47, grid);
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
                assert!(
                    g.output.approx_eq(w, 2e-3),
                    "image {i} diverged despite full tile set (redispatched {})",
                    g.redispatched
                );
            }
        }
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use adcnn_core::fdsp::TileGrid;
    use adcnn_core::ClippedRelu;
    use adcnn_nn::layer::QuantizeSte;
    use adcnn_nn::small::shapes_cnn;
    use adcnn_retrain::PartitionedModel;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn build_model(seed: u64, grid: TileGrid) -> PartitionedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let cr = ClippedRelu::new(0.0, 2.0);
        PartitionedModel::fdsp(shapes_cnn(6, &mut rng), grid)
            .with_crelu(cr)
            .with_quant(QuantizeSte::new(4, cr.range()))
    }

    fn rand_images(n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Tensor::randn([1, 3, 32, 32], 0.5, &mut rng)).collect()
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
        let cfg = RuntimeConfig::builder().pipeline_depth(1).intake_cap(3).build().unwrap();
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
        let cfg = RuntimeConfig::builder().pipeline_depth(4).build().unwrap();
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
            let cfg = RuntimeConfig::builder()
                .t_l(Duration::from_millis(20))
                .pipeline_depth(depth)
                .intake_cap(8)
                .build()
                .unwrap();
            let mut local = build_model(71, grid);
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
                    prop_assert!(
                        out.output.approx_eq(&want[id as usize], 2e-3),
                        "image {} produced another image's output", id
                    );
                }
            }
            prop_assert!(seen.iter().all(|s| *s), "every handle must resolve");
            rt.shutdown();
        }
    }
}
