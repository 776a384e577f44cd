//! The fleet driver: the multi-tenant, churn-aware, trace-driven event
//! loop every netsim run executes on.
//!
//! One [`FleetConfig`] holds one shared cluster — Conv nodes, the
//! half-duplex channel, the Central node — and N [`TenantSpec`]s, each a
//! model with its own FDSP partition, lifecycle policy, Algorithm 2
//! statistics, compression parameters, and request stream
//! ([`ArrivalSpec`](crate::ArrivalSpec)). A weighted-fair stride scheduler
//! arbitrates the shared admission window between backlogged tenants.
//!
//! Every config type of this crate is a plain value: public fields, one
//! defaults constructor, one `validate()`. Write a scenario as a struct
//! literal over the defaults —
//! `FleetConfig { pipeline_depth: 4, ..FleetConfig::new(nodes, tenants) }`
//! — and [`FleetSim::new`] validates it, once.
//!
//! ## Scale discipline
//!
//! The loop is O(events · log events) with state indexed by id:
//!
//! - in-flight images live in a `HashMap` keyed by the global admission
//!   id (never scanned, only probed);
//! - node deaths are maintained as a sorted dead-set fed by *churn
//!   events* precomputed from each node's speed schedule, so timers touch
//!   O(dead) nodes instead of re-walking every schedule;
//! - per-image statistics fold into streaming aggregates (log2
//!   histograms + running sums) the moment an image retires, so memory
//!   stays bounded at millions of virtual requests. Full `ImageStats`
//!   retention is opt-in ([`FleetConfig::retain_images`]) and bounded.
//!
//! ## Determinism and the compatibility contract
//!
//! Runs are bit-reproducible: one seeded RNG for allocation tie-breaks
//! (consumed in admission order), per-tenant seeded arrival generators,
//! and a deterministic event queue (time, then insertion order).
//! [`AdcnnSim`](crate::AdcnnSim) is a one-tenant, closed-loop, churn-free
//! run of this driver; `tests/fleet_differential.rs` pins its decisions,
//! timestamps and statistics byte-for-byte against `tests/golden/`.

use crate::arrivals::ArrivalGen;
use crate::cluster::{ImageStats, SimNode};
use crate::engine::{EventQueue, FifoResource, SpeedSchedule, ThrottledCpu};
use crate::placement::{
    AllNodesPlacement, PlacementDecision, PlacementInput, PlacementPolicy, TenantView,
};
use crate::profiles::LinkParams;
use crate::tenancy::{FairScheduler, TenantSpec};
use adcnn_core::config::ConfigError;
use adcnn_core::fleetobs::{SloReport, SloTracker};
use adcnn_core::lifecycle::{Action, Event, TileLifecycle, TimerPolicy};
use adcnn_core::obs::{
    Histogram, HistogramSnapshot, ObsEvent, SinkHandle, PLACEMENT_INITIAL, PLACEMENT_JOIN,
    PLACEMENT_LEAVE,
};
use adcnn_core::sched::{StatsCollector, TileAllocator};
use adcnn_nn::cost::{suffix_time_s, DeviceProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Full configuration of one fleet run: one cluster, N tenants.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The Conv nodes (churn lives in each node's throttle schedule —
    /// compose one in with [`crate::churn::ChurnPlan::apply`]).
    pub nodes: Vec<SimNode>,
    /// The Central node's hardware.
    pub central: DeviceProfile,
    /// The shared wireless channel.
    pub link: LinkParams,
    /// The models sharing the cluster.
    pub tenants: Vec<TenantSpec>,
    /// Maximum images in flight at once, across all tenants.
    pub pipeline_depth: usize,
    /// RNG seed: allocation tie-breaks and (xored per tenant) arrivals.
    pub seed: u64,
    /// Retain full [`ImageStats`] for at most this many completed images
    /// (in completion order). 0 — the default — keeps memory strictly
    /// bounded on million-request runs; the streaming aggregates in
    /// [`TenantSummary`] are always maintained.
    pub retain_images: usize,
    /// Structured-event sink, the runtime's schema: the per-image
    /// lifecycle (decisions + modeled spans) and, marked by
    /// [`ObsEvent::is_fleet_scope`], `NodeUp`/`NodeDown` topology
    /// transitions, `PlacementDecided` and the tenant-tagged
    /// `TenantAdmit`/`TenantFinish` twins of admission and completion.
    /// Default never constructs events.
    pub sink: SinkHandle,
    /// Tenant-to-node placement policy, consulted at startup and after
    /// every join/leave churn event. The default [`AllNodesPlacement`] is
    /// the identity mask and is never re-consulted.
    pub placement: Arc<dyn PlacementPolicy>,
}

impl FleetConfig {
    /// A fleet on `nodes` serving `tenants`, with the §7.2 testbed
    /// defaults for everything else: Pi Central on 87.72 Mbps WiFi,
    /// admission window 2, seed 42, streaming aggregates only.
    pub fn new(nodes: Vec<SimNode>, tenants: Vec<TenantSpec>) -> Self {
        FleetConfig {
            nodes,
            central: DeviceProfile::raspberry_pi3(),
            link: LinkParams::wifi_fast(),
            tenants,
            pipeline_depth: 2,
            seed: 42,
            retain_images: 0,
            sink: SinkHandle::null(),
            placement: Arc::new(AllNodesPlacement),
        }
    }

    /// Check the invariants the driver relies on, every tenant's
    /// [`TenantSpec::validate`] included.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes.is_empty() {
            return Err(ConfigError::NoWorkers);
        }
        if self.tenants.is_empty() {
            return Err(ConfigError::NoTenants);
        }
        if self.pipeline_depth == 0 {
            return Err(ConfigError::ZeroPipelineDepth);
        }
        for t in &self.tenants {
            t.validate()?;
        }
        Ok(())
    }
}

/// Streaming per-tenant aggregates for one run — what a per-image
/// [`ImageStats`] vector could answer about a tenant, at O(1) memory. The
/// driver folds into this struct directly as images retire.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Tenant display name.
    pub name: String,
    /// Fair-share weight the run used.
    pub weight: f64,
    /// Requests submitted.
    pub requests: u64,
    /// Requests completed (always equal to `requests` at drain).
    pub completed: u64,
    /// Log2 histogram of end-to-end latencies, microseconds.
    pub latency_us: HistogramSnapshot,
    /// Log2 histogram of admission-queue waits, microseconds.
    pub queue_wait_us: HistogramSnapshot,
    /// Exact running sum of latencies, seconds (completion order).
    pub latency_sum_s: f64,
    /// Exact running sum of admission-queue waits, seconds.
    pub queue_wait_sum_s: f64,
    /// Exact running sum of per-image channel time, seconds.
    pub transmission_sum_s: f64,
    /// Exact running sum of per-image compute time, seconds.
    pub computation_sum_s: f64,
    /// Tiles allocated across all completed images.
    pub tiles_allocated: u64,
    /// Tiles zero-filled after missing the timeout: allocated but never
    /// arrived (tiles abandoned before dispatch are excluded).
    pub dropped_tiles: u64,
    /// Results that arrived after their image's suffix had started.
    pub late_tiles: u64,
    /// Tile re-sends issued by deadline-fired recovery rounds.
    pub redispatched_tiles: u64,
    /// Results discarded because another copy won the re-dispatch race.
    pub duplicate_tiles: u64,
    /// Completion time of this tenant's last image, seconds.
    pub last_done_s: f64,
    /// Burn-rate report against this tenant's [`TenantSpec::slo`], when
    /// one was declared (`None` otherwise).
    pub slo: Option<SloReport>,
}

impl TenantSummary {
    /// Mean end-to-end latency, seconds.
    pub fn mean_latency_s(&self) -> f64 {
        self.latency_sum_s / (self.completed.max(1)) as f64
    }

    /// Streaming median latency, seconds (within one log2 bucket).
    pub fn p50_latency_s(&self) -> Option<f64> {
        self.latency_us.p50().map(|us| us / 1e6)
    }

    /// Streaming p99 latency, seconds (within one log2 bucket).
    pub fn p99_latency_s(&self) -> Option<f64> {
        self.latency_us.p99().map(|us| us / 1e6)
    }

    /// Mean admission-queue wait, seconds.
    pub fn mean_queue_wait_s(&self) -> f64 {
        self.queue_wait_sum_s / (self.completed.max(1)) as f64
    }

    /// Fraction of allocated tiles zero-filled.
    pub fn zero_fill_rate(&self) -> f64 {
        self.dropped_tiles as f64 / (self.tiles_allocated.max(1)) as f64
    }

    /// Completed requests per virtual second, over this tenant's span.
    pub fn throughput_rps(&self) -> f64 {
        if self.last_done_s > 0.0 {
            self.completed as f64 / self.last_done_s
        } else {
            0.0
        }
    }
}

/// Whole-fleet summary: per-tenant streaming aggregates plus the shared
/// cluster's utilization surface.
#[derive(Clone, Debug)]
pub struct FleetSummary {
    /// Per-tenant aggregates, in config order.
    pub tenants: Vec<TenantSummary>,
    /// Total requests completed.
    pub completed: u64,
    /// Log2 histogram of all latencies (all tenants), microseconds.
    pub latency_us: HistogramSnapshot,
    /// Per-Conv-node CPU busy seconds over the whole run.
    pub node_busy_s: Vec<f64>,
    /// Completion time of the last image.
    pub total_time_s: f64,
    /// Time the event queue drained (stragglers included; churn and
    /// arrival bookkeeping excluded).
    pub sim_end_s: f64,
    /// Fraction of `sim_end_s` the shared channel was busy.
    pub channel_utilization: f64,
    /// Peak images in flight at once.
    pub peak_inflight: u32,
    /// Peak pending events — the queue's high-water mark, the memory
    /// bound of the run.
    pub peak_events_pending: u64,
    /// Events processed (the `events` of the O(events · log events)
    /// claim).
    pub events_processed: u64,
    /// Full per-image records for the first `retain_images` completions,
    /// tagged with their tenant index, in completion order.
    pub retained: Vec<(usize, ImageStats)>,
    /// The placement decision in force at startup (the same struct the
    /// deployment planner reports).
    pub placement: PlacementDecision,
    /// Times the policy was re-consulted after a join/leave churn event
    /// (always 0 for all-nodes policies, which skip re-placement).
    pub replacements: u64,
}

impl FleetSummary {
    /// Streaming median latency over all tenants, seconds.
    pub fn p50_latency_s(&self) -> Option<f64> {
        self.latency_us.p50().map(|us| us / 1e6)
    }

    /// Streaming p99 latency over all tenants, seconds.
    pub fn p99_latency_s(&self) -> Option<f64> {
        self.latency_us.p99().map(|us| us / 1e6)
    }

    /// Completed requests per virtual second over the whole run.
    pub fn throughput_rps(&self) -> f64 {
        if self.total_time_s > 0.0 {
            self.completed as f64 / self.total_time_s
        } else {
            0.0
        }
    }

    /// Fraction of all allocated tiles zero-filled.
    pub fn zero_fill_rate(&self) -> f64 {
        let dropped: u64 = self.tenants.iter().map(|t| t.dropped_tiles).sum();
        let tiles: u64 = self.tenants.iter().map(|t| t.tiles_allocated).sum();
        dropped as f64 / tiles.max(1) as f64
    }
}

/// Fleet events. `img` is the global admission id (admission order across
/// all tenants), the same id the observability stream carries.
enum Ev {
    /// A node's speed schedule crosses a death/revival boundary. Pushed
    /// at init with the lowest sequence numbers, so at equal timestamps
    /// churn resolves before any workload event: a node is dead *at* its
    /// death time (`SpeedSchedule::is_dead_at`'s `from <= t`).
    Churn {
        node: usize,
        dead: bool,
    },
    /// A tenant's next open-loop request lands in its admission backlog.
    Arrive {
        tenant: usize,
    },
    Admit {
        img: u64,
    },
    /// Stream the next pending input tile of `img` onto the channel.
    /// Tiles go out one at a time so result transfers interleave fairly
    /// with the next image's tile distribution.
    SendNext {
        img: u64,
    },
    TileArrive {
        img: u64,
        node: usize,
        tile: usize,
        original: bool,
    },
    ComputeDone {
        img: u64,
        node: usize,
        tile: usize,
    },
    ResultArrive {
        img: u64,
        node: usize,
        tile: usize,
    },
    /// A timer the driver armed. The lifecycle machine decides whether it
    /// is live or stale — the driver never cancels timers.
    Timer {
        img: u64,
    },
    SuffixDone {
        img: u64,
    },
}

/// Driver-side bookkeeping for one in-flight image. Everything that is a
/// *decision* lives in `lc`; this tracks the modeled transport and the
/// measurement surface.
struct ImageState {
    tenant: usize,
    arrival_s: f64,
    admitted_at: f64,
    lc: TileLifecycle,
    tiles_total: u32,
    tiles_arrived: u32,
    send_queue: Vec<(usize, usize)>,
    send_pos: usize,
    sent_done: f64,
    send_busy: f64,
    result_busy: f64,
    first_compute_start: f64,
    last_compute_end: f64,
    suffix_s: f64,
}

/// The shared cluster's mutable state: the one event queue, the
/// half-duplex channel, the Central and Conv CPUs, and the dead-set.
struct Cluster<'a> {
    link: &'a LinkParams,
    queue: EventQueue<Ev>,
    channel: FifoResource,
    central_cpu: ThrottledCpu,
    node_cpus: Vec<ThrottledCpu>,
    /// Sorted indices of currently-dead nodes, maintained by churn events
    /// so that timers touch O(dead) entries, not every node's schedule.
    dead_list: Vec<usize>,
}

impl Cluster<'_> {
    /// Apply the actions the lifecycle machine of image `img` returned
    /// for an event at time `at` — the one place the driver turns
    /// decisions into modeled transfers, timers, Algorithm 2 observations
    /// and the Central-node suffix. `Accept` and `ZeroFill` carry no
    /// payload in a simulation, and first-round `Dispatch`es are streamed
    /// by `Ev::SendNext`.
    fn apply(
        &mut self,
        acts: Vec<Action>,
        at: f64,
        img: u64,
        st: &mut ImageState,
        tr: &mut TenantRt,
    ) {
        // Chained pre-booking: each re-sent tile queues behind the
        // previous one's channel slot, which may lie past `at` — hence
        // `acquire_queued`, not `acquire` (events still pending at earlier
        // times keep the monotone clock).
        let mut resent_until: Option<f64> = None;
        for act in acts {
            match act {
                Action::Redispatch { tile, to } => {
                    let occ = self.link.occupancy_s(tr.tile_in_bits);
                    let (_, send_end) =
                        self.channel.acquire_queued(resent_until.unwrap_or(at), occ);
                    st.send_busy += occ;
                    resent_until = Some(send_end);
                    self.queue.push(
                        send_end + self.link.latency_s,
                        Ev::TileArrive { img, node: to, tile, original: false },
                    );
                }
                Action::ArmDeadline { span } => {
                    // After a re-dispatch round (its `Redispatch`es precede
                    // the re-arm) the clock starts when the re-sent tiles
                    // clear the channel; the machine treats the later
                    // firing as valid, never stale.
                    let from = resent_until.map_or(at, |t| t + self.link.latency_s);
                    self.queue.push(from + span, Ev::Timer { img });
                }
                // The machine already withholds observations for nodes it
                // was told are dead; this guard covers deaths since.
                Action::RecordRate { worker, rate }
                    if self.dead_list.binary_search(&worker).is_err() =>
                {
                    tr.stats.record_node(worker, rate)
                }
                Action::Complete => {
                    let (s, e) = self.central_cpu.run(at, tr.suffix_work);
                    st.suffix_s = e - s;
                    self.queue.push(e, Ev::SuffixDone { img });
                }
                _ => {}
            }
        }
    }
}

/// Per-tenant runtime: precomputed cost surfaces, the tenant's own
/// Algorithm 2 statistics and allocator, its arrival stream and backlog,
/// and its streaming aggregates.
struct TenantRt {
    d: usize,
    tile_in_bits: u64,
    tile_out_elems: u64,
    tile_out_bits: u64,
    tile_work: Vec<f64>,
    weight_load: Vec<f64>,
    suffix_work: f64,
    partition_work: f64,
    adaptive: bool,
    stats: StatsCollector,
    allocator: TileAllocator,
    // --- placement masks --------------------------------------------
    /// Nodes this tenant may use (all true under all-nodes policies).
    placed: Vec<bool>,
    /// The placed set is the full roster: such a tenant is always
    /// eligible for admission.
    placed_all: bool,
    /// Placed nodes not currently dead — the scheduler-skip guard.
    placed_live: usize,
    /// Unmasked storage caps, restored on re-placement.
    base_storage: Vec<u64>,
    arrivals: ArrivalGen,
    /// Open-loop requests that arrived but are not yet admitted.
    pending: VecDeque<f64>,
    // --- streaming aggregates ---------------------------------------
    /// Folded into as images retire; the two histogram snapshots and the
    /// SLO report are filled in when the run ends.
    sum: TenantSummary,
    lat_hist: Histogram,
    wait_hist: Histogram,
    slo: Option<SloTracker>,
}

impl TenantRt {
    /// `view` is this tenant's row of the run's [`PlacementInput`]: the
    /// wire sizes and per-node costs are derived there, once.
    fn build(
        spec: &TenantSpec,
        view: &TenantView,
        nodes: &[SimNode],
        central: &DeviceProfile,
        seed: u64,
    ) -> Self {
        let (d, model) = (view.tiles, &spec.model);
        let (tile_in_bits, tile_out_bits) = (view.tile_in_bits, view.tile_out_bits);
        let (oc, oh, ow) = model.block_inputs()[spec.prefix];
        let gather_bytes = (tile_out_bits * d as u64) / 8 + (oc * oh * ow) as u64 * 4;
        let suffix_work = suffix_time_s(model, spec.prefix, central)
            + gather_bytes as f64 / central.mem_bytes_per_sec;
        let partition_work = model.input_bits() as f64 / 8.0 / central.mem_bytes_per_sec;
        TenantRt {
            d,
            tile_in_bits,
            tile_out_elems: view.tile_out_elems,
            tile_out_bits,
            tile_work: view.tile_work_s.clone(),
            weight_load: view.weight_load_s.clone(),
            suffix_work,
            partition_work,
            adaptive: spec.adaptive,
            stats: StatsCollector::new(nodes.len(), spec.gamma),
            allocator: TileAllocator::with_storage(
                tile_in_bits.max(1),
                nodes.iter().map(|n| n.storage_bits).collect(),
            ),
            placed: vec![true; nodes.len()],
            placed_all: true,
            placed_live: nodes.len(),
            base_storage: nodes.iter().map(|n| n.storage_bits).collect(),
            arrivals: ArrivalGen::new(spec.arrivals.clone(), spec.requests, seed),
            pending: VecDeque::new(),
            sum: TenantSummary {
                name: spec.name.clone(),
                weight: spec.weight,
                requests: spec.requests as u64,
                completed: 0,
                latency_us: HistogramSnapshot::default(),
                queue_wait_us: HistogramSnapshot::default(),
                latency_sum_s: 0.0,
                queue_wait_sum_s: 0.0,
                transmission_sum_s: 0.0,
                computation_sum_s: 0.0,
                tiles_allocated: 0,
                dropped_tiles: 0,
                late_tiles: 0,
                redispatched_tiles: 0,
                duplicate_tiles: 0,
                last_done_s: 0.0,
                slo: None,
            },
            lat_hist: Histogram::default(),
            wait_hist: Histogram::default(),
            slo: spec.slo.map(SloTracker::new),
        }
    }

    /// A request is ready for admission right now.
    fn has_ready(&self) -> bool {
        if self.arrivals.is_closed_loop() {
            self.arrivals.remaining() > 0
        } else {
            !self.pending.is_empty()
        }
    }

    /// Restrict this tenant to `nodes`: admission speeds, allocator
    /// storage caps, and lifecycle live-sets all follow. `placed_live`
    /// counts placed nodes not currently dead (the scheduler-skip
    /// guard's input).
    fn apply_placement(&mut self, nodes: &[usize], dead_list: &[usize]) {
        let k = self.placed.len();
        self.placed_all = nodes.len() == k;
        for p in self.placed.iter_mut() {
            *p = false;
        }
        for &n in nodes {
            self.placed[n] = true;
        }
        for n in 0..k {
            // Zero storage makes a non-placed node invisible to the
            // allocator — including its any-node-with-capacity fallback.
            self.allocator.storage_bits[n] = if self.placed[n] { self.base_storage[n] } else { 0 };
        }
        self.placed_live =
            (0..k).filter(|&n| self.placed[n] && dead_list.binary_search(&n).is_err()).count();
    }

    /// Some placed node returns to life after `now` — i.e. skipping this
    /// tenant's admission is a wait, not a deadlock.
    fn revives_after(&self, node_revivals: &[Vec<f64>], now: f64) -> bool {
        self.placed.iter().enumerate().any(|(n, &p)| p && node_revivals[n].iter().any(|&t| t > now))
    }
}

/// The fleet simulator. Construct with a config, call [`FleetSim::run`].
pub struct FleetSim {
    cfg: FleetConfig,
}

impl FleetSim {
    /// Wrap a configuration; panics if [`FleetConfig::validate`] rejects
    /// it (call that first where a typed error is wanted).
    pub fn new(cfg: FleetConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FleetConfig: {e}");
        }
        FleetSim { cfg }
    }

    /// Execute the full run and return the streaming summary.
    pub fn run(&self) -> FleetSummary {
        let cfg = &self.cfg;
        let k = cfg.nodes.len();

        let sink = &cfg.sink;

        // --- per-tenant runtime (precomputed cost surfaces) ------------
        // Derived once; a re-placement refreshes only the node views.
        let mut placement_input = PlacementInput::from_fleet(cfg, 0.0, &[]);
        let mut tenants_rt: Vec<TenantRt> = cfg
            .tenants
            .iter()
            .zip(&placement_input.tenants)
            .enumerate()
            .map(|(t, (spec, view))| {
                // Distinct, well-separated arrival stream per tenant.
                let seed = cfg.seed ^ (t as u64 + 1).wrapping_mul(0x517C_C1B7_2722_0A95);
                TenantRt::build(spec, view, &cfg.nodes, &cfg.central, seed)
            })
            .collect();
        let mut sched =
            FairScheduler::new(&cfg.tenants.iter().map(|t| t.weight).collect::<Vec<_>>());

        // --- placement control plane -----------------------------------
        // The policy is consulted once at startup and again after every
        // join/leave churn event. All-nodes policies skip the
        // re-placement: their mask is the identity whatever the roster.
        let placement_all = cfg.placement.places_all();
        let initial_placement = cfg.placement.place(&placement_input);
        let mut replacements: u64 = 0;
        if !placement_all {
            for (t, a) in initial_placement.assignments.iter().enumerate() {
                tenants_rt[t].apply_placement(&a.nodes, &[]);
            }
        }
        // Every decision the run applies is a PlacementDecided event,
        // numbered from 0 for this initial one.
        sink.emit_with(|| ObsEvent::PlacementDecided {
            at: 0.0,
            cause: PLACEMENT_INITIAL,
            node: u32::MAX,
            tenants: cfg.tenants.len() as u32,
            live_nodes: k as u32,
            seq: 0,
        });
        // When each node returns to life, per node — the scheduler-skip
        // guard must know whether a fully-dead placed set can recover.
        let node_revivals: Vec<Vec<f64>> = cfg
            .nodes
            .iter()
            .map(|n| {
                n.throttle
                    .dead_transitions()
                    .into_iter()
                    .filter(|&(t, dead)| !dead && t.is_finite())
                    .map(|(t, _)| t)
                    .collect()
            })
            .collect();

        // --- shared cluster state --------------------------------------
        let mut cl = Cluster {
            link: &cfg.link,
            queue: EventQueue::new(),
            channel: FifoResource::new(),
            central_cpu: ThrottledCpu::new(SpeedSchedule::constant()),
            node_cpus: cfg.nodes.iter().map(|n| ThrottledCpu::new(n.throttle.clone())).collect(),
            dead_list: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut img_states: HashMap<u64, ImageState> = HashMap::new();
        // (tenant, arrival time) of admissions whose Admit event is queued.
        let mut admit_meta: HashMap<u64, (usize, f64)> = HashMap::new();
        // (tenant, image) whose prefix weights each node last streamed in.
        let mut node_loaded: Vec<(usize, u64)> = vec![(usize::MAX, u64::MAX); k];

        // Churn events first: at equal timestamps they must resolve
        // before any workload event (matching `is_dead_at`'s `from <= t`).
        for (n, node) in cfg.nodes.iter().enumerate() {
            for (t, dead) in node.throttle.dead_transitions() {
                if t.is_finite() {
                    cl.queue.push(t, Ev::Churn { node: n, dead });
                }
            }
        }
        // Seed each open-loop tenant's first arrival.
        for (t, tr) in tenants_rt.iter_mut().enumerate() {
            if let Some(at) = tr.arrivals.next_arrival() {
                cl.queue.push(at, Ev::Arrive { tenant: t });
            }
        }

        // --- admission control -----------------------------------------
        // At most `pipeline_depth` images in flight across all tenants,
        // and the most recently admitted image must have its tiles on
        // their nodes before the next admission (the Figure 9 gate —
        // tile distribution is serialized on the shared channel).
        let window = cfg.pipeline_depth as u64;
        let mut admitted_total: u64 = 0;
        let mut completed_total: u64 = 0;
        let mut gate: u64 = 0;
        let mut inflight_now = 0usize;
        let mut peak_inflight = 0u32;
        macro_rules! try_admit {
            ($now:expr) => {{
                while admitted_total <= gate && admitted_total - completed_total < window {
                    // A placed tenant whose node-set is entirely dead is
                    // skipped instead of burning its pass quantum on a
                    // zero-fill round — unless no placed node will ever
                    // revive, in which case admitting (and degrading) is
                    // the only way to drain its budget. All-nodes tenants
                    // are always eligible.
                    let Some(t) = sched.pick(|t| {
                        let tr = &tenants_rt[t];
                        tr.has_ready()
                            && (tr.placed_all
                                || tr.placed_live > 0
                                || !tr.revives_after(&node_revivals, $now))
                    }) else {
                        break;
                    };
                    let tr = &mut tenants_rt[t];
                    let arrival = if tr.arrivals.is_closed_loop() {
                        tr.arrivals.take_closed_loop();
                        $now
                    } else {
                        tr.pending.pop_front().expect("eligible tenant has a backlog")
                    };
                    let img = admitted_total;
                    admit_meta.insert(img, (t, arrival));
                    admitted_total += 1;
                    cl.queue.push($now, Ev::Admit { img });
                }
            }};
        }
        try_admit!(0.0);

        // --- streaming whole-fleet aggregates --------------------------
        let global_lat_hist = Histogram::default();
        let mut retained: Vec<(usize, ImageStats)> = Vec::new();
        let mut sim_end = 0.0f64;
        let mut events_processed: u64 = 0;
        let mut peak_pending: u64 = 0;

        while let Some((now, ev)) = cl.queue.pop() {
            events_processed += 1;
            peak_pending = peak_pending.max(cl.queue.len() as u64 + 1);
            // Timers for completed images (hard-timeout fallbacks, stale
            // re-arms) are pure driver artifacts: they must neither reach
            // the machine nor stretch the simulated horizon.
            if let Ev::Timer { img } = ev {
                match img_states.get(&img) {
                    None => continue,
                    Some(st) if st.lc.is_complete() => continue,
                    _ => {}
                }
            }
            // Churn transitions are config bookkeeping, not workload:
            // they never stretch the horizon either.
            if !matches!(ev, Ev::Churn { .. }) {
                sim_end = sim_end.max(now);
            }
            match ev {
                Ev::Churn { node, dead } => {
                    let mut roster_changed = false;
                    if dead {
                        if let Err(i) = cl.dead_list.binary_search(&node) {
                            cl.dead_list.insert(i, node);
                            roster_changed = true;
                            sink.emit_with(|| ObsEvent::NodeDown { at: now, node: node as u32 });
                        }
                    } else if let Ok(i) = cl.dead_list.binary_search(&node) {
                        cl.dead_list.remove(i);
                        roster_changed = true;
                        sink.emit_with(|| ObsEvent::NodeUp { at: now, node: node as u32 });
                        // A revived node re-enters every tenant's
                        // Algorithm 2 statistics through the fresh-join
                        // prior, exactly as the runtime treats a
                        // reconnecting worker.
                        for tr in tenants_rt.iter_mut() {
                            tr.stats.rejoin(node);
                        }
                    }
                    // Re-placement: the policy sees the new roster and
                    // every tenant's masks follow. Skipped for all-nodes
                    // policies, whose decision is the identity whatever
                    // the roster — no new events, no changed state.
                    if roster_changed && !placement_all {
                        placement_input.refresh(cfg, now, &cl.dead_list);
                        let decision = cfg.placement.place(&placement_input);
                        for (t, a) in decision.assignments.iter().enumerate() {
                            tenants_rt[t].apply_placement(&a.nodes, &cl.dead_list);
                        }
                        replacements += 1;
                        sink.emit_with(|| ObsEvent::PlacementDecided {
                            at: now,
                            cause: if dead { PLACEMENT_LEAVE } else { PLACEMENT_JOIN },
                            node: node as u32,
                            tenants: cfg.tenants.len() as u32,
                            live_nodes: (k - cl.dead_list.len()) as u32,
                            seq: replacements,
                        });
                        // A revival can make a skipped tenant eligible.
                        try_admit!(now);
                    }
                }
                Ev::Arrive { tenant } => {
                    let tr = &mut tenants_rt[tenant];
                    tr.pending.push_back(now);
                    if let Some(at) = tr.arrivals.next_arrival() {
                        cl.queue.push(at, Ev::Arrive { tenant });
                    }
                    try_admit!(now);
                }
                Ev::Admit { img } => {
                    let (tenant, arrival_s) =
                        admit_meta.remove(&img).expect("admission without metadata");
                    inflight_now += 1;
                    peak_inflight = peak_inflight.max(inflight_now as u32);
                    // Driver-emitted (never by the lifecycle), before the
                    // machine's own ImageStart — the same ordering the
                    // runtime's collector uses.
                    sink.emit_with(|| ObsEvent::ImageAdmitted {
                        at: now,
                        image: img,
                        queue_wait: now - arrival_s,
                        inflight: inflight_now as u32,
                    });
                    // Tenant-tagged twin, same instant — the
                    // labeled-metrics registry keys on it.
                    sink.emit_with(|| ObsEvent::TenantAdmit {
                        at: now,
                        image: img,
                        tenant: tenant as u32,
                        queue_wait: now - arrival_s,
                    });
                    let (_, part_done) = cl.central_cpu.run(now, tenants_rt[tenant].partition_work);
                    // One mask for the allocator and the lifecycle: dead
                    // nodes are out for everyone; a placed tenant
                    // additionally never sees non-placed nodes (zero speed
                    // here, zero storage cap in the allocator, so even its
                    // any-node-with-capacity fallback cannot reach them),
                    // and re-dispatch recovery stays inside its placed set.
                    // With every node placed the mask is the identity.
                    let tr = &tenants_rt[tenant];
                    let mut live = vec![true; k];
                    for &n in &cl.dead_list {
                        live[n] = false;
                    }
                    let mut speeds = tr.stats.speeds().to_vec();
                    for n in 0..k {
                        if !tr.placed[n] {
                            live[n] = false;
                            speeds[n] = 0.0;
                        }
                    }
                    let x = if tr.adaptive {
                        tr.allocator.allocate(tr.d, &speeds, &mut rng)
                    } else {
                        // Round-robin over the placed subset only.
                        let placed: Vec<usize> = (0..k).filter(|&n| tr.placed[n]).collect();
                        let rr = adcnn_core::sched::allocate_round_robin(tr.d, placed.len());
                        let mut x = vec![0u32; k];
                        for (i, &n) in placed.iter().enumerate() {
                            x[n] = rr[i];
                        }
                        x
                    };
                    let (lc, acts) = TileLifecycle::begin_observed(
                        cfg.tenants[tenant].policy,
                        now,
                        tr.d,
                        &x,
                        &speeds,
                        &live,
                        img,
                        sink.clone(),
                    );
                    let send_queue: Vec<(usize, usize)> = acts
                        .iter()
                        .filter_map(|a| match a {
                            Action::Dispatch { tile, to } => Some((*tile, *to)),
                            _ => None,
                        })
                        .collect();
                    let tiles_total = send_queue.len() as u32;
                    let mut st = ImageState {
                        tenant,
                        arrival_s,
                        admitted_at: now,
                        lc,
                        tiles_total,
                        tiles_arrived: 0,
                        send_queue,
                        send_pos: 0,
                        sent_done: part_done,
                        send_busy: 0.0,
                        result_busy: 0.0,
                        first_compute_start: f64::INFINITY,
                        last_compute_end: 0.0,
                        suffix_s: 0.0,
                    };
                    if tiles_total == 0 {
                        // Nothing allocatable (all nodes dead/out of
                        // storage): the machine completes on SendComplete,
                        // the suffix runs on zeros, and the pipeline must
                        // not stall waiting for arrivals.
                        let acts = st.lc.handle(Event::SendComplete { at: part_done });
                        gate = gate.max(img + 1);
                        try_admit!(part_done);
                        cl.apply(acts, part_done, img, &mut st, &mut tenants_rt[tenant]);
                    } else {
                        cl.queue.push(part_done, Ev::SendNext { img });
                    }
                    img_states.insert(img, st);
                }
                Ev::SendNext { img } => {
                    let Some(st) = img_states.get_mut(&img) else { continue };
                    if st.send_pos >= st.send_queue.len() {
                        continue;
                    }
                    let (tile, node) = st.send_queue[st.send_pos];
                    st.send_pos += 1;
                    let tr = &mut tenants_rt[st.tenant];
                    let occ = cfg.link.occupancy_s(tr.tile_in_bits);
                    let (_, send_end) = cl.channel.acquire(now, occ);
                    st.send_busy += occ;
                    st.sent_done = st.sent_done.max(send_end);
                    cl.queue.push(
                        send_end + cfg.link.latency_s,
                        Ev::TileArrive { img, node, tile, original: true },
                    );
                    if st.send_pos < st.send_queue.len() {
                        cl.queue.push(send_end, Ev::SendNext { img });
                    } else {
                        // All tiles of this image are on the wire: tell the
                        // machine and arm whatever timers it asks for.
                        let acts = st.lc.handle(Event::SendComplete { at: send_end });
                        cl.apply(acts, send_end, img, st, tr);
                        if cfg.tenants[st.tenant].policy.timer == TimerPolicy::Deadline {
                            // Fallback in case no result ever arrives: the
                            // machine's hard timeout, as a real event. The
                            // machine ignores it when it lands stale.
                            cl.queue.push(st.lc.hard_deadline(), Ev::Timer { img });
                        }
                    }
                }
                Ev::TileArrive { img, node, tile, original } => {
                    // The image may already have completed via the timeout
                    // (its suffix ran on the partial set); drop stragglers
                    // but still unblock the admission gate.
                    let Some(st) = img_states.get_mut(&img) else {
                        gate = gate.max(img + 1);
                        try_admit!(now);
                        continue;
                    };
                    if original {
                        st.tiles_arrived += 1;
                        st.lc.handle(Event::TileDelivered { tile });
                    }
                    let all_arrived = st.tiles_arrived == st.tiles_total;
                    let tr = &tenants_rt[st.tenant];
                    let mut work = tr.tile_work[node];
                    if node_loaded[node] != (st.tenant, img) {
                        node_loaded[node] = (st.tenant, img);
                        work += tr.weight_load[node];
                    }
                    let (cs, ce) = cl.node_cpus[node].run(now, work);
                    if ce.is_finite() {
                        st.first_compute_start = st.first_compute_start.min(cs);
                        cl.queue.push(ce, Ev::ComputeDone { img, node, tile });
                        sink.emit_with(|| ObsEvent::TileCompute {
                            at: ce,
                            image: img,
                            tile: tile as u32,
                            worker: node as u32,
                            dur: ce - cs,
                        });
                    }
                    // Figure 9 pipelining: the next image becomes eligible
                    // once this one's tiles are all on their nodes.
                    if original && all_arrived {
                        gate = gate.max(img + 1);
                        try_admit!(now);
                    }
                }
                Ev::ComputeDone { img, node, tile } => {
                    // The image may already be finished (its suffix ran on
                    // zero-filled inputs); the node still sends the result,
                    // which will be discarded on arrival.
                    let Some(st) = img_states.get_mut(&img) else { continue };
                    st.last_compute_end = st.last_compute_end.max(now);
                    let tr = &tenants_rt[st.tenant];
                    // The §4 pipeline is modeled analytically (its time is
                    // folded into the compute span), but the byte count is
                    // real modeled data: emit it so byte-accounting sinks
                    // see the same schema the runtime's workers emit.
                    sink.emit_with(|| ObsEvent::TileCompress {
                        at: now,
                        image: img,
                        tile: tile as u32,
                        worker: node as u32,
                        dur: 0.0,
                        bytes: tr.tile_out_bits / 8,
                        ratio: tr.tile_out_bits as f64 / (tr.tile_out_elems as f64 * 32.0),
                    });
                    let occ = cfg.link.occupancy_s(tr.tile_out_bits);
                    let (_, send_end) = cl.channel.acquire(now, occ);
                    st.result_busy += occ;
                    cl.queue
                        .push(send_end + cfg.link.latency_s, Ev::ResultArrive { img, node, tile });
                    sink.emit_with(|| ObsEvent::TileTransfer {
                        at: send_end + cfg.link.latency_s,
                        image: img,
                        tile: tile as u32,
                        worker: node as u32,
                        dur: occ,
                    });
                }
                Ev::ResultArrive { img, node, tile } => {
                    // Results for an image whose record is already gone are
                    // stragglers past the timeout: discard. Anything else —
                    // fresh, duplicate, late — is the machine's call.
                    let Some(st) = img_states.get_mut(&img) else { continue };
                    let acts = st.lc.handle(Event::ResultArrived {
                        at: now,
                        tile,
                        worker: node,
                        ok: true,
                    });
                    cl.apply(acts, now, img, st, &mut tenants_rt[st.tenant]);
                }
                Ev::Timer { img } => {
                    let st = img_states.get_mut(&img).expect("checked at loop top");
                    // Feed positively-observed deaths before judging the
                    // deadline — the sim's equivalent of the runtime's
                    // disconnect detection — so the machine never picks a
                    // dead node as a re-dispatch target. The statistics are
                    // told too (the runtime's `mark_failed` on disconnect):
                    // the lifecycle machine suppresses rate observations
                    // for dead nodes, so starvation must come from here,
                    // not from stale measurements. The dead-set is sorted,
                    // so deaths are fed in node order.
                    for &n in &cl.dead_list {
                        st.lc.handle(Event::WorkerDied { worker: n });
                        for tr in tenants_rt.iter_mut() {
                            tr.stats.mark_failed(n);
                        }
                    }
                    let acts = st.lc.handle(Event::DeadlineFired { at: now });
                    cl.apply(acts, now, img, st, &mut tenants_rt[st.tenant]);
                }
                Ev::SuffixDone { img } => {
                    let st = img_states.remove(&img).expect("suffix for unknown image");
                    let c = st.lc.counters();
                    let conv_compute = if st.first_compute_start.is_finite() {
                        (st.last_compute_end - st.first_compute_start).max(0.0)
                    } else {
                        0.0
                    };
                    let stats = ImageStats {
                        latency_s: now - st.admitted_at,
                        send_busy_s: st.send_busy,
                        result_busy_s: st.result_busy,
                        conv_compute_s: conv_compute,
                        suffix_s: st.suffix_s,
                        alloc: st.lc.alloc().to_vec(),
                        // Allocated-but-never-arrived: abandoned
                        // shortfall is excluded.
                        dropped: c.zero_filled - c.abandoned,
                        late: c.late,
                        redispatched: c.redispatched,
                        duplicate: c.duplicate,
                        done_at: now,
                    };
                    let tenant = st.tenant;
                    let queue_wait = st.admitted_at - st.arrival_s;
                    let tr = &mut tenants_rt[tenant];
                    completed_total += 1;
                    // Streaming aggregates, folded in completion order: the
                    // running sums are exact, so a mean over them equals a
                    // post-run fold over per-image records bit-for-bit.
                    tr.lat_hist.record((stats.latency_s * 1e6).round() as u64);
                    tr.wait_hist.record((queue_wait * 1e6).round() as u64);
                    global_lat_hist.record((stats.latency_s * 1e6).round() as u64);
                    let alloc_tiles: u32 = stats.alloc.iter().sum();
                    let sum = &mut tr.sum;
                    sum.completed += 1;
                    sum.latency_sum_s += stats.latency_s;
                    sum.queue_wait_sum_s += queue_wait;
                    sum.transmission_sum_s += stats.send_busy_s + stats.result_busy_s;
                    sum.computation_sum_s += stats.conv_compute_s + stats.suffix_s;
                    sum.tiles_allocated += alloc_tiles as u64;
                    sum.dropped_tiles += stats.dropped as u64;
                    sum.late_tiles += stats.late as u64;
                    sum.redispatched_tiles += stats.redispatched as u64;
                    sum.duplicate_tiles += stats.duplicate as u64;
                    sum.last_done_s = now;
                    // Tenant-tagged twin, plus the burn-rate fold for
                    // tenants that declared an SLO.
                    sink.emit_with(|| ObsEvent::TenantFinish {
                        at: now,
                        image: img,
                        tenant: tenant as u32,
                        latency: stats.latency_s,
                        zero_filled: stats.dropped,
                        tiles: alloc_tiles,
                    });
                    if let Some(slo) = &mut tr.slo {
                        slo.record(stats.latency_s, stats.dropped, alloc_tiles);
                    }
                    if retained.len() < cfg.retain_images {
                        retained.push((tenant, stats));
                    }
                    inflight_now -= 1;
                    sink.emit_with(|| ObsEvent::ImageRetired {
                        at: now,
                        image: img,
                        inflight: inflight_now as u32,
                    });
                    try_admit!(now);
                }
            }
        }
        debug_assert!(cl.queue.is_empty(), "drained loop left events behind");

        let expected: u64 = cfg.tenants.iter().map(|t| t.requests as u64).sum();
        assert_eq!(completed_total, expected, "not every request completed");
        let tenants: Vec<TenantSummary> = tenants_rt
            .into_iter()
            .map(|tr| TenantSummary {
                latency_us: tr.lat_hist.snapshot(),
                queue_wait_us: tr.wait_hist.snapshot(),
                slo: tr.slo.map(|s| s.report(&tr.sum.name)),
                ..tr.sum
            })
            .collect();
        FleetSummary {
            total_time_s: tenants.iter().map(|t| t.last_done_s).fold(0.0f64, f64::max),
            tenants,
            completed: completed_total,
            latency_us: global_lat_hist.snapshot(),
            node_busy_s: cl.node_cpus.iter().map(|c| c.busy_total()).collect(),
            sim_end_s: sim_end,
            channel_utilization: if sim_end > 0.0 {
                cl.channel.busy_total() / sim_end
            } else {
                0.0
            },
            peak_inflight,
            peak_events_pending: peak_pending,
            events_processed,
            retained,
            placement: initial_placement,
            replacements,
        }
    }
}
