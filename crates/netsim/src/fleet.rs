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
//! - each tenant's in-flight images live in its own
//!   `adcnn_core::pipeline::Pipeline` — at most the admission window of
//!   them — and every event names its tenant;
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
use adcnn_core::lifecycle::{Action, Event, TimerPolicy};
use adcnn_core::obs::{
    Histogram, HistogramSnapshot, ObsEvent, SinkHandle, PLACEMENT_INITIAL, PLACEMENT_JOIN,
    PLACEMENT_LEAVE,
};
use adcnn_core::pipeline::{Pipeline, Split};
use adcnn_core::sched::TileAllocator;
use adcnn_nn::cost::{suffix_time_s, DeviceProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
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
#[derive(Clone, Debug, Default)]
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

/// One admitted image: its tenant, and its global admission id (admission
/// order across all tenants), the id the observability stream carries.
#[derive(Clone, Copy)]
struct Img {
    tenant: usize,
    id: u64,
}

/// Fleet events.
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
    /// The scheduler picked a request that arrived at `arrival`.
    Admit {
        img: Img,
        arrival: f64,
    },
    /// Stream the next pending input tile of `img` onto the channel.
    /// Tiles go out one at a time so result transfers interleave fairly
    /// with the next image's tile distribution.
    SendNext {
        img: Img,
    },
    TileArrive {
        img: Img,
        node: usize,
        tile: usize,
        original: bool,
    },
    ComputeDone {
        img: Img,
        node: usize,
        tile: usize,
    },
    ResultArrive {
        img: Img,
        node: usize,
        tile: usize,
    },
    /// A timer the driver armed. The lifecycle machine decides whether it
    /// is live or stale — the driver never cancels timers.
    Timer {
        img: Img,
    },
    SuffixDone {
        img: Img,
    },
}

/// Driver-side bookkeeping for one in-flight image, the payload its
/// tenant's machine carries. Every *decision* is the machine's; this tracks
/// the modeled transport and the measurement surface.
#[derive(Default)]
struct ImageState {
    arrival_s: f64,
    admitted_at: f64,
    /// Original tiles not yet streamed onto the channel.
    send_queue: VecDeque<(usize, usize)>,
    send_busy: f64,
    result_busy: f64,
    first_compute_start: Option<f64>,
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
    /// Apply the actions `img`'s tenant machine returned for an event at
    /// time `at` — the one place the driver turns decisions into modeled
    /// transfers, timers and the Central-node suffix. `Accept` and
    /// `ZeroFill` carry no payload in a simulation, and first-round
    /// `Dispatch`es are streamed by `Ev::SendNext`.
    fn apply(&mut self, acts: Vec<Action>, at: f64, img: Img, tr: &mut TenantRt) {
        let Some(st) = tr.pipe.get_mut(img.id).map(|f| &mut f.payload) else { return };
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
/// machine (its in-flight images, Algorithm 2 statistics and allocator),
/// its arrival stream and backlog, and its streaming aggregates.
struct TenantRt {
    tile_in_bits: u64,
    tile_out_elems: u64,
    tile_out_bits: u64,
    tile_work: Vec<f64>,
    weight_load: Vec<f64>,
    suffix_work: f64,
    partition_work: f64,
    pipe: Pipeline<ImageState>,
    // --- placement masks --------------------------------------------
    /// Nodes this tenant may use (all true under all-nodes policies).
    placed: Vec<bool>,
    /// The placed set is the full roster: such a tenant is always
    /// eligible for admission.
    placed_all: bool,
    /// Placed nodes not currently dead — the scheduler-skip guard.
    placed_live: usize,
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
        sink: &SinkHandle,
    ) -> Self {
        let (d, model) = (view.tiles, &spec.model);
        let (tile_in_bits, tile_out_bits) = (view.tile_in_bits, view.tile_out_bits);
        let (oc, oh, ow) = model.block_inputs()[spec.prefix];
        let gather_bytes = (tile_out_bits * d as u64) / 8 + (oc * oh * ow) as u64 * 4;
        let suffix_work = suffix_time_s(model, spec.prefix, central)
            + gather_bytes as f64 / central.mem_bytes_per_sec;
        let partition_work = model.input_bits() as f64 / 8.0 / central.mem_bytes_per_sec;
        let split = if spec.adaptive { Split::Adaptive } else { Split::RoundRobin };
        let storage = nodes.iter().map(|n| n.storage_bits).collect();
        let allocator = TileAllocator::with_storage(tile_in_bits.max(1), storage);
        TenantRt {
            tile_in_bits,
            tile_out_elems: view.tile_out_elems,
            tile_out_bits,
            tile_work: view.tile_work_s.clone(),
            weight_load: view.weight_load_s.clone(),
            suffix_work,
            partition_work,
            pipe: Pipeline::new(spec.policy, d, spec.gamma, split, allocator, true, sink.clone()),
            placed: vec![true; nodes.len()],
            placed_all: true,
            placed_live: nodes.len(),
            arrivals: ArrivalGen::new(spec.arrivals.clone(), spec.requests, seed),
            pending: VecDeque::new(),
            sum: TenantSummary {
                name: spec.name.clone(),
                weight: spec.weight,
                requests: spec.requests as u64,
                ..Default::default()
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

    /// Restrict this tenant to `nodes` of the fleet's `roster`: its
    /// machine's allocation and lifecycle routing follow. `placed_live`
    /// counts placed nodes not currently dead (the scheduler-skip guard's
    /// input).
    fn apply_placement(&mut self, nodes: &[usize], dead_list: &[usize], roster: &[SimNode]) {
        let k = self.placed.len();
        self.placed_all = nodes.len() == k;
        for p in self.placed.iter_mut() {
            *p = false;
        }
        for &n in nodes {
            self.placed[n] = true;
        }
        // Zero storage hides a non-placed node from the machine — from
        // allocation, its any-node-with-capacity fallback and re-dispatch.
        let storage = (0..k).map(|n| if self.placed[n] { roster[n].storage_bits } else { 0 });
        self.pipe.set_allocator(TileAllocator::with_storage(
            self.tile_in_bits.max(1),
            storage.collect(),
        ));
        self.placed_live =
            (0..k).filter(|&n| self.placed[n] && dead_list.binary_search(&n).is_err()).count();
    }

    /// Some placed node of the fleet's `roster` returns to life after `now`
    /// — i.e. skipping this tenant's admission is a wait, not a deadlock.
    fn revives_after(&self, roster: &[SimNode], now: f64) -> bool {
        let revives = |node: &SimNode| {
            node.throttle
                .dead_transitions()
                .iter()
                .any(|&(t, dead)| !dead && t.is_finite() && t > now)
        };
        self.placed.iter().zip(roster).any(|(&p, node)| p && revives(node))
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
                TenantRt::build(spec, view, &cfg.nodes, &cfg.central, seed, sink)
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
                tenants_rt[t].apply_placement(&a.nodes, &[], &cfg.nodes);
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

        // --- shared cluster state --------------------------------------
        let mut cl = Cluster {
            link: &cfg.link,
            queue: EventQueue::new(),
            channel: FifoResource::new(),
            central_cpu: ThrottledCpu::new(SpeedSchedule::constant()),
            node_cpus: cfg.nodes.iter().map(|n| ThrottledCpu::new(n.throttle.clone())).collect(),
            dead_list: Vec::new(),
        };
        // One generator for every tenant's tie-breaks, drawn in admission
        // order.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
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
                                || !tr.revives_after(&cfg.nodes, $now))
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
                    let img = Img { tenant: t, id: admitted_total };
                    admitted_total += 1;
                    cl.queue.push($now, Ev::Admit { img, arrival });
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
                let f = tenants_rt[img.tenant].pipe.get(img.id);
                if f.is_none_or(|f| f.lifecycle().is_complete()) {
                    continue;
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
                            // No new image routes to the node from here, but
                            // the statistics learn of the death only when a
                            // deadline reveals it (the `Ev::Timer` arm).
                            for tr in tenants_rt.iter_mut() {
                                tr.pipe.set_reachable(node, false);
                            }
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
                            tr.pipe.set_reachable(node, true);
                            tr.pipe.worker_up(node);
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
                            tenants_rt[t].apply_placement(&a.nodes, &cl.dead_list, &cfg.nodes);
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
                Ev::Admit { img, arrival } => {
                    inflight_now += 1;
                    peak_inflight = peak_inflight.max(inflight_now as u32);
                    // Driver-emitted (never by the lifecycle), before the
                    // machine's own ImageStart — the same ordering the
                    // runtime's collector uses.
                    sink.emit_with(|| ObsEvent::ImageAdmitted {
                        at: now,
                        image: img.id,
                        queue_wait: now - arrival,
                        inflight: inflight_now as u32,
                    });
                    // Tenant-tagged twin, same instant — the
                    // labeled-metrics registry keys on it.
                    sink.emit_with(|| ObsEvent::TenantAdmit {
                        at: now,
                        image: img.id,
                        tenant: img.tenant as u32,
                        queue_wait: now - arrival,
                    });
                    let tr = &mut tenants_rt[img.tenant];
                    let (_, part_done) = cl.central_cpu.run(now, tr.partition_work);
                    let st =
                        ImageState { arrival_s: arrival, admitted_at: now, ..Default::default() };
                    let acts = tr.pipe.submit(img.id, now, st, &mut rng);
                    let send_queue: VecDeque<(usize, usize)> = acts
                        .iter()
                        .filter_map(|a| match a {
                            Action::Dispatch { tile, to } => Some((*tile, *to)),
                            _ => None,
                        })
                        .collect();
                    if send_queue.is_empty() {
                        // Nothing allocatable (all nodes dead/out of
                        // storage): the machine completes on SendComplete,
                        // the suffix runs on zeros, and the pipeline must
                        // not stall waiting for arrivals.
                        let acts = tr.pipe.handle(img.id, Event::SendComplete { at: part_done });
                        gate = gate.max(img.id + 1);
                        try_admit!(part_done);
                        cl.apply(acts, part_done, img, &mut tenants_rt[img.tenant]);
                    } else {
                        tr.pipe.get_mut(img.id).expect("just submitted").payload.send_queue =
                            send_queue;
                        cl.queue.push(part_done, Ev::SendNext { img });
                    }
                }
                Ev::SendNext { img } => {
                    let tr = &mut tenants_rt[img.tenant];
                    let Some(st) = tr.pipe.get_mut(img.id).map(|f| &mut f.payload) else {
                        continue;
                    };
                    let Some((tile, node)) = st.send_queue.pop_front() else { continue };
                    let occ = cfg.link.occupancy_s(tr.tile_in_bits);
                    let (_, send_end) = cl.channel.acquire(now, occ);
                    st.send_busy += occ;
                    cl.queue.push(
                        send_end + cfg.link.latency_s,
                        Ev::TileArrive { img, node, tile, original: true },
                    );
                    if !st.send_queue.is_empty() {
                        cl.queue.push(send_end, Ev::SendNext { img });
                    } else {
                        // All tiles of this image are on the wire: tell the
                        // machine and arm whatever timers it asks for.
                        let acts = tr.pipe.handle(img.id, Event::SendComplete { at: send_end });
                        cl.apply(acts, send_end, img, tr);
                        if cfg.tenants[img.tenant].policy.timer == TimerPolicy::Deadline {
                            // Fallback in case no result ever arrives: the
                            // machine's hard timeout, as a real event. The
                            // machine ignores it when it lands stale.
                            let f = tr.pipe.get(img.id).expect("retired only at SuffixDone");
                            cl.queue.push(f.lifecycle().hard_deadline(), Ev::Timer { img });
                        }
                    }
                }
                Ev::TileArrive { img, node, tile, original } => {
                    let tr = &mut tenants_rt[img.tenant];
                    if original {
                        tr.pipe.handle(img.id, Event::TileDelivered { tile });
                    }
                    // The image may already have completed via the timeout
                    // (its suffix ran on the partial set); drop stragglers
                    // but still unblock the admission gate.
                    let Some(f) = tr.pipe.get_mut(img.id) else {
                        gate = gate.max(img.id + 1);
                        try_admit!(now);
                        continue;
                    };
                    let all_arrived = f.lifecycle().all_delivered();
                    let st = &mut f.payload;
                    let mut work = tr.tile_work[node];
                    if node_loaded[node] != (img.tenant, img.id) {
                        node_loaded[node] = (img.tenant, img.id);
                        work += tr.weight_load[node];
                    }
                    let (cs, ce) = cl.node_cpus[node].run(now, work);
                    if ce.is_finite() {
                        st.first_compute_start =
                            Some(st.first_compute_start.map_or(cs, |f| f.min(cs)));
                        cl.queue.push(ce, Ev::ComputeDone { img, node, tile });
                        sink.emit_with(|| ObsEvent::TileCompute {
                            at: ce,
                            image: img.id,
                            tile: tile as u32,
                            worker: node as u32,
                            dur: ce - cs,
                        });
                    }
                    // Figure 9 pipelining: the next image becomes eligible
                    // once this one's tiles are all on their nodes.
                    if original && all_arrived {
                        gate = gate.max(img.id + 1);
                        try_admit!(now);
                    }
                }
                Ev::ComputeDone { img, node, tile } => {
                    // The image may already be finished (its suffix ran on
                    // zero-filled inputs); the node still sends the result,
                    // which will be discarded on arrival.
                    let tr = &mut tenants_rt[img.tenant];
                    let Some(st) = tr.pipe.get_mut(img.id).map(|f| &mut f.payload) else {
                        continue;
                    };
                    st.last_compute_end = st.last_compute_end.max(now);
                    // The §4 pipeline is modeled analytically (its time is
                    // folded into the compute span), but the byte count is
                    // real modeled data: emit it so byte-accounting sinks
                    // see the same schema the runtime's workers emit.
                    sink.emit_with(|| ObsEvent::TileCompress {
                        at: now,
                        image: img.id,
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
                        image: img.id,
                        tile: tile as u32,
                        worker: node as u32,
                        dur: occ,
                    });
                }
                Ev::ResultArrive { img, node, tile } => {
                    // Fresh, duplicate, late: the machine's call. A result
                    // for an image already retired is a straggler past the
                    // timeout, and the machine ignores it.
                    let tr = &mut tenants_rt[img.tenant];
                    let ev = Event::ResultArrived { at: now, tile, worker: node, ok: true };
                    let acts = tr.pipe.handle(img.id, ev);
                    cl.apply(acts, now, img, tr);
                }
                Ev::Timer { img } => {
                    // The simulator's death detection: when a deadline
                    // fires, every tenant's statistics learn of every dead
                    // node (the runtime's `worker_down` on a disconnect),
                    // and the machine tells this image's lifecycle, in node
                    // order, before the deadline is judged — so no dead
                    // node is picked as a re-dispatch target.
                    for &n in &cl.dead_list {
                        for tr in tenants_rt.iter_mut() {
                            tr.pipe.worker_down(n);
                        }
                    }
                    let tr = &mut tenants_rt[img.tenant];
                    let acts = tr.pipe.handle(img.id, Event::DeadlineFired { at: now });
                    cl.apply(acts, now, img, tr);
                }
                Ev::SuffixDone { img } => {
                    let tr = &mut tenants_rt[img.tenant];
                    let (st, lc) = tr.pipe.retire(img.id).expect("suffix for unknown image");
                    let c = lc.counters();
                    let conv_compute =
                        st.first_compute_start.map_or(0.0, |f| (st.last_compute_end - f).max(0.0));
                    let stats = ImageStats {
                        latency_s: now - st.admitted_at,
                        send_busy_s: st.send_busy,
                        result_busy_s: st.result_busy,
                        conv_compute_s: conv_compute,
                        suffix_s: st.suffix_s,
                        alloc: lc.alloc().to_vec(),
                        // Allocated-but-never-arrived: abandoned
                        // shortfall is excluded.
                        dropped: c.zero_filled - c.abandoned,
                        late: c.late,
                        redispatched: c.redispatched,
                        duplicate: c.duplicate,
                        done_at: now,
                    };
                    let tenant = img.tenant;
                    let queue_wait = st.admitted_at - st.arrival_s;
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
                        image: img.id,
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
                        image: img.id,
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
