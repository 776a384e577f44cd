//! Forensic observability on top of the event stream: per-image
//! critical-path attribution, a bounded flight recorder with anomaly
//! dumps, and live metrics reporting.
//!
//! Everything here consumes the [`ObsEvent`] schema of [`crate::obs`]
//! and therefore works identically over both drivers — the wall-clock
//! runtime and the discrete-event simulator — and over replayed
//! lifecycle traces (`tests/lifecycle_differential.rs` pins that the
//! two drivers produce byte-identical [`ImageReport`]s for the same
//! trace).
//!
//! Three consumers, three cost profiles:
//!
//! - [`AttributionSink`] folds events into per-image phase breakdowns
//!   (queue-wait / compute / compress / transfer / merge), maintained
//!   incrementally under a mutex with bounded memory. Attach it when
//!   you want `InferOutcome::report` populated.
//! - [`FlightRecorderSink`] keeps the last N events in a bounded ring
//!   under one mutex — a push and an eviction per event, no allocation
//!   after construction. An *anomaly* (zero-fill, worker death,
//!   deadline storm) filters the ring and files a [`ForensicReport`].
//! - [`Reporter`] diffs successive [`MetricsSnapshot`]s into
//!   throughput / p50 / p99 / zero-fill-rate lines for live logs;
//!   [`MetricsSnapshot::to_prometheus`] renders the same snapshot in
//!   Prometheus text exposition format.

use crate::obs::{json, EventSink, HistogramSnapshot, MetricsSnapshot, ObsEvent, SeriesValue};
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Per-image critical-path attribution
// ---------------------------------------------------------------------------

/// The lifecycle phase a tile (or image) spent the most time in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Phase {
    /// Between dispatch and the start of prefix compute (includes the
    /// uplink send in the simulator, task-queue wait in the runtime).
    QueueWait,
    /// Prefix-network forward.
    Compute,
    /// Clip + quantize + RLE (runtime only; the simulator's compression
    /// is a cost-model scalar).
    Compress,
    /// Everything between compute/compress end and acceptance at
    /// Central — the residual, so per-tile phases sum exactly.
    Transfer,
    /// Between the last tile's completion and the image's: the suffix
    /// network on the Central node, once the driver has retired the image.
    Merge,
}

impl Phase {
    /// Stable snake_case name (the JSON encoding).
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::Compute => "compute",
            Phase::Compress => "compress",
            Phase::Transfer => "transfer",
            Phase::Merge => "merge",
        }
    }
}

/// One tile's attribution inside an [`ImageReport`]. For an accepted
/// tile the four phases sum exactly to `done_at - dispatch_at`; a
/// zero-filled tile charges the whole open interval to queue-wait
/// (it waited and never arrived).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TileReport {
    /// Tile id.
    pub tile: u32,
    /// Worker that delivered the accepted result, or the last worker
    /// the tile was dispatched to if it was zero-filled; `None` if the
    /// tile was never placed (storage shortfall).
    pub worker: Option<u32>,
    /// Re-dispatch attempts this tile consumed.
    pub rounds: u32,
    /// Whether the tile missed every recovery attempt.
    pub zero_filled: bool,
    /// Last dispatch time (the attribution window starts here).
    pub dispatch_at: f64,
    /// Acceptance time, or zero-fill time.
    pub done_at: f64,
    /// Dispatch → start of compute.
    pub queue_wait_s: f64,
    /// Prefix compute span.
    pub compute_s: f64,
    /// Compression span.
    pub compress_s: f64,
    /// Residual to acceptance.
    pub transfer_s: f64,
}

impl TileReport {
    /// Sum of the four phases (= `done_at - dispatch_at` for any
    /// dispatched tile).
    pub fn total_s(&self) -> f64 {
        self.queue_wait_s + self.compute_s + self.compress_s + self.transfer_s
    }

    /// Serde-free JSON rendering via the shared [`json`] helpers.
    pub fn to_json(&self) -> String {
        let worker = match self.worker {
            Some(w) => w.to_string(),
            None => "null".to_string(),
        };
        json::Obj::new()
            .u64("tile", self.tile.into())
            .raw("worker", worker)
            .u64("rounds", self.rounds.into())
            .bool("zero_filled", self.zero_filled)
            .f64("dispatch_at", self.dispatch_at)
            .f64("done_at", self.done_at)
            .f64("queue_wait_s", self.queue_wait_s)
            .f64("compute_s", self.compute_s)
            .f64("compress_s", self.compress_s)
            .f64("transfer_s", self.transfer_s)
            .finish()
    }
}

/// Where one image's latency went: per-tile phase breakdowns, the
/// critical-path tile (the one whose completion gated the image), and
/// the dominant phase along that path.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ImageReport {
    /// Image id (the runtime's sequence number / the simulator's index).
    pub image: u64,
    /// Lifecycle start on the driver's time axis.
    pub start_at: f64,
    /// Completion time: when the driver retired the image (after the
    /// suffix), or when the last tile landed if no driver retired it.
    pub finish_at: f64,
    /// `ImageFinish.latency` extended to `finish_at`.
    pub latency_s: f64,
    /// Tiles zero-filled.
    pub zero_filled: u32,
    /// Recovery send attempts across the image.
    pub redispatched: u32,
    /// Last tile completion → `finish_at`.
    pub merge_s: f64,
    /// The tile whose completion (arrival or zero-fill) came last;
    /// `None` for a zero-tile image.
    pub critical_tile: Option<u32>,
    /// Largest phase along the critical path (critical tile's phases
    /// plus merge).
    pub dominant_phase: Phase,
    /// Per-tile breakdowns, ordered by tile id.
    pub tiles: Vec<TileReport>,
}

impl ImageReport {
    /// The critical-path tile's breakdown.
    pub fn critical(&self) -> Option<&TileReport> {
        let id = self.critical_tile?;
        self.tiles.iter().find(|t| t.tile == id)
    }

    /// Serde-free JSON rendering via the shared [`json`] helpers.
    pub fn to_json(&self) -> String {
        let critical = match self.critical_tile {
            Some(t) => t.to_string(),
            None => "null".to_string(),
        };
        json::Obj::new()
            .u64("image", self.image)
            .f64("start_at", self.start_at)
            .f64("finish_at", self.finish_at)
            .f64("latency_s", self.latency_s)
            .u64("zero_filled", self.zero_filled.into())
            .u64("redispatched", self.redispatched.into())
            .f64("merge_s", self.merge_s)
            .raw("critical_tile", critical)
            .str("dominant_phase", self.dominant_phase.as_str())
            .raw("tiles", json::array(self.tiles.iter().map(|t| t.to_json())))
            .finish()
    }
}

/// Whole-run roll-up of [`ImageReport`]s: critical-path phase sums (the
/// Table 3 decomposition, measured online instead of with ad-hoc
/// timers) and dominant-phase counts.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct AttributionAggregate {
    /// Images folded in.
    pub images: u64,
    /// Σ end-to-end latency.
    pub latency_s: f64,
    /// Σ critical-tile queue-wait.
    pub queue_wait_s: f64,
    /// Σ critical-tile compute.
    pub compute_s: f64,
    /// Σ critical-tile compression.
    pub compress_s: f64,
    /// Σ critical-tile transfer residual.
    pub transfer_s: f64,
    /// Σ merge.
    pub merge_s: f64,
    /// Σ zero-filled tiles.
    pub zero_filled: u64,
    /// Σ re-dispatch attempts.
    pub redispatched: u64,
    /// Images per dominant phase, indexed like [`Phase`]'s declaration
    /// order (queue-wait, compute, compress, transfer, merge).
    pub dominant: [u64; 5],
}

impl AttributionAggregate {
    /// Fold one finished image in.
    pub fn fold(&mut self, r: &ImageReport) {
        self.images += 1;
        self.latency_s += r.latency_s;
        if let Some(t) = r.critical() {
            self.queue_wait_s += t.queue_wait_s;
            self.compute_s += t.compute_s;
            self.compress_s += t.compress_s;
            self.transfer_s += t.transfer_s;
        }
        self.merge_s += r.merge_s;
        self.zero_filled += u64::from(r.zero_filled);
        self.redispatched += u64::from(r.redispatched);
        self.dominant[r.dominant_phase as usize] += 1;
    }

    /// Mean end-to-end latency per image.
    pub fn mean_latency_s(&self) -> Option<f64> {
        (self.images > 0).then(|| self.latency_s / self.images as f64)
    }

    /// Serde-free JSON rendering via the shared [`json`] helpers.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .u64("images", self.images)
            .f64("latency_s", self.latency_s)
            .f64("queue_wait_s", self.queue_wait_s)
            .f64("compute_s", self.compute_s)
            .f64("compress_s", self.compress_s)
            .f64("transfer_s", self.transfer_s)
            .f64("merge_s", self.merge_s)
            .u64("zero_filled", self.zero_filled)
            .u64("redispatched", self.redispatched)
            .raw("dominant", json::array(self.dominant.iter().map(|d| d.to_string())))
            .finish()
    }
}

/// Per-tile accumulation while an image is in flight.
#[derive(Clone, Debug, Default)]
struct TileState {
    /// Last (re-)dispatch time; `None` until the tile is placed.
    dispatch: Option<(f64, u32)>,
    rounds: u32,
    /// Last compute span seen before acceptance: (end, dur, worker).
    compute: Option<(f64, f64, u32)>,
    /// Last compression span seen before acceptance.
    compress: Option<(f64, f64, u32)>,
    /// Accepted arrival: (at, worker).
    arrival: Option<(f64, u32)>,
    zero_fill_at: Option<f64>,
}

/// One in-flight image.
#[derive(Clone, Debug)]
struct ImageState {
    image: u64,
    start_at: f64,
    tiles: BTreeMap<u32, TileState>,
}

impl ImageState {
    fn tile(&mut self, id: u32) -> &mut TileState {
        self.tiles.entry(id).or_default()
    }

    /// Build the final report. The phase decomposition is constructed
    /// to sum *exactly* to the tile's open interval: compute and
    /// compress are clamped into the window, queue-wait is what
    /// precedes compute, transfer is the residual. Spans from a worker
    /// other than the one whose result was accepted are ignored (they
    /// belong to a superseded dispatch).
    fn finish(self, at: f64, latency: f64, zero_filled: u32, redispatched: u32) -> ImageReport {
        let mut tiles = Vec::with_capacity(self.tiles.len());
        for (id, t) in &self.tiles {
            let rep = match (t.arrival, t.zero_fill_at, t.dispatch) {
                (Some((arr, worker)), _, dispatch) => {
                    let (dispatch_at, _) = dispatch.unwrap_or((self.start_at, worker));
                    let total = (arr - dispatch_at).max(0.0);
                    let compute = match t.compute {
                        Some((_, dur, w)) if w == worker => dur.clamp(0.0, total),
                        _ => 0.0,
                    };
                    let queue_wait = match t.compute {
                        Some((end, dur, w)) if w == worker => {
                            (end - dur - dispatch_at).clamp(0.0, total - compute)
                        }
                        _ => 0.0,
                    };
                    let compress = match t.compress {
                        Some((_, dur, w)) if w == worker => {
                            dur.clamp(0.0, total - compute - queue_wait)
                        }
                        _ => 0.0,
                    };
                    let transfer = (total - queue_wait - compute - compress).max(0.0);
                    TileReport {
                        tile: *id,
                        worker: Some(worker),
                        rounds: t.rounds,
                        zero_filled: false,
                        dispatch_at,
                        done_at: arr,
                        queue_wait_s: queue_wait,
                        compute_s: compute,
                        compress_s: compress,
                        transfer_s: transfer,
                    }
                }
                // Never accepted: the window closes at the zero-fill, or at
                // image completion for a tile abandoned mid-flight, and is
                // all queue wait (zero-width if the tile was never placed).
                (None, zero_fill_at, dispatch) => {
                    let done_at = zero_fill_at.unwrap_or(at);
                    let (dispatch_at, worker) = match dispatch {
                        Some((d, w)) => (d, Some(w)),
                        None => (done_at, None),
                    };
                    TileReport {
                        tile: *id,
                        worker,
                        rounds: t.rounds,
                        zero_filled: true,
                        dispatch_at,
                        done_at,
                        queue_wait_s: (done_at - dispatch_at).max(0.0),
                        compute_s: 0.0,
                        compress_s: 0.0,
                        transfer_s: 0.0,
                    }
                }
            };
            tiles.push(rep);
        }
        // Critical path: the tile whose completion came last (strict >
        // keeps the lowest tile id on ties, since `tiles` is id-sorted).
        let mut critical: Option<&TileReport> = None;
        for t in &tiles {
            if critical.is_none_or(|c| t.done_at > c.done_at) {
                critical = Some(t);
            }
        }
        // Merge: last tile completion (arrival or zero-fill) → image
        // completion.
        let merge_s = critical.map_or(0.0, |c| (at - c.done_at).max(0.0));
        let dominant_phase = dominant_phase(critical, merge_s);
        ImageReport {
            image: self.image,
            start_at: self.start_at,
            finish_at: at,
            latency_s: latency,
            zero_filled,
            redispatched,
            merge_s,
            critical_tile: critical.map(|t| t.tile),
            dominant_phase,
            tiles,
        }
    }
}

/// Largest phase along the critical path: the critical tile's four
/// phases plus merge (ties keep the earlier phase).
fn dominant_phase(critical: Option<&TileReport>, merge_s: f64) -> Phase {
    let (q, c, z, x) = critical.map_or((0.0, 0.0, 0.0, 0.0), |t| {
        (t.queue_wait_s, t.compute_s, t.compress_s, t.transfer_s)
    });
    let mut best = (Phase::QueueWait, q);
    for cand in
        [(Phase::Compute, c), (Phase::Compress, z), (Phase::Transfer, x), (Phase::Merge, merge_s)]
    {
        if cand.1 > best.1 {
            best = cand;
        }
    }
    best.0
}

#[derive(Debug)]
struct AttrInner {
    inflight: VecDeque<ImageState>,
    /// Each retained report with whether its `ImageRetired` was applied.
    finished: VecDeque<(ImageReport, bool)>,
    agg: AttributionAggregate,
}

/// Folds the event stream into per-image [`ImageReport`]s with bounded
/// memory: at most [`AttributionSink::MAX_INFLIGHT`] images accumulate
/// concurrently (oldest evicted) and the last
/// [`AttributionSink::MAX_FINISHED`] reports are retained for
/// [`AttributionSink::report_for`]; the running
/// [`AttributionAggregate`] covers every finished image regardless.
#[derive(Debug)]
pub struct AttributionSink {
    inner: Mutex<AttrInner>,
    finished_cap: usize,
}

impl Default for AttributionSink {
    fn default() -> Self {
        Self::new()
    }
}

impl AttributionSink {
    /// In-flight images tracked before the oldest is evicted; the
    /// runtime's config validation rejects a deeper pipeline.
    pub const MAX_INFLIGHT: usize = 64;
    /// Finished reports retained for per-image retrieval.
    pub const MAX_FINISHED: usize = 256;

    /// A fresh sink with the default retention.
    pub fn new() -> Self {
        Self::with_retention(Self::MAX_FINISHED)
    }

    /// A fresh sink retaining the last `finished_cap` reports.
    pub fn with_retention(finished_cap: usize) -> Self {
        AttributionSink {
            inner: Mutex::new(AttrInner {
                inflight: VecDeque::new(),
                finished: VecDeque::new(),
                agg: AttributionAggregate::default(),
            }),
            finished_cap: finished_cap.max(1),
        }
    }

    /// The report for `image`, if it finished recently enough to still
    /// be retained.
    pub fn report_for(&self, image: u64) -> Option<ImageReport> {
        let inner = self.inner.lock().expect("attribution sink poisoned");
        inner.finished.iter().rev().find(|(r, _)| r.image == image).map(|(r, _)| r.clone())
    }

    /// All retained reports, oldest first.
    pub fn reports(&self) -> Vec<ImageReport> {
        let inner = self.inner.lock().expect("attribution sink poisoned");
        inner.finished.iter().map(|(r, _)| r.clone()).collect()
    }

    /// The whole-run roll-up. Its merge (and the merge share of its
    /// latency) covers the images whose `ImageRetired` found their report
    /// still retained; with a retention smaller than the pipeline depth a
    /// report can be evicted first, and that image's merge is not counted.
    pub fn aggregate(&self) -> AttributionAggregate {
        self.inner.lock().expect("attribution sink poisoned").agg.clone()
    }
}

impl EventSink for AttributionSink {
    fn emit(&self, ev: &ObsEvent) {
        let mut inner = self.inner.lock().expect("attribution sink poisoned");
        // Events for images we aren't tracking (evicted, or spans that
        // straggle in after completion) are dropped silently.
        match *ev {
            ObsEvent::ImageStart { at, image, .. } => {
                inner.inflight.push_back(ImageState {
                    image,
                    start_at: at,
                    tiles: BTreeMap::new(),
                });
                if inner.inflight.len() > Self::MAX_INFLIGHT {
                    inner.inflight.pop_front();
                }
            }
            ObsEvent::ImageFinish { at, image, latency, zero_filled, redispatched } => {
                let Some(pos) = inner.inflight.iter().position(|s| s.image == image) else {
                    return;
                };
                let state = inner.inflight.remove(pos).expect("position just found");
                let report = state.finish(at, latency, zero_filled, redispatched);
                inner.agg.fold(&report);
                inner.finished.push_back((report, false));
                if inner.finished.len() > self.finished_cap {
                    inner.finished.pop_front();
                }
            }
            // The lifecycle finishes an image when its last tile lands;
            // the driver runs the suffix after that and retires the image
            // before anyone reads the report. Extend the finished report
            // to the retirement: the merge phase is that interval. Once
            // per report, and never backwards in time: a sink reused
            // across runs sees image ids restart, and the newest report
            // under an id may be an earlier run's.
            ObsEvent::ImageRetired { at, image, .. } => {
                let AttrInner { finished, agg, .. } = &mut *inner;
                let Some((r, retired)) = finished.iter_mut().rev().find(|(r, _)| r.image == image)
                else {
                    return;
                };
                if *retired || at < r.finish_at {
                    return;
                }
                *retired = true;
                let Some(done_at) = r.critical().map(|c| c.done_at) else { return };
                let merge_s = (at - done_at).max(0.0);
                let grown = merge_s - r.merge_s;
                let dominant = dominant_phase(r.critical(), merge_s);
                agg.latency_s += grown;
                agg.merge_s += grown;
                agg.dominant[r.dominant_phase as usize] -= 1;
                agg.dominant[dominant as usize] += 1;
                r.finish_at = at;
                r.latency_s += grown;
                r.merge_s = merge_s;
                r.dominant_phase = dominant;
            }
            ObsEvent::TileDispatch { at, image, tile, worker } => {
                if let Some(s) = inner.inflight.iter_mut().find(|s| s.image == image) {
                    let t = s.tile(tile);
                    t.dispatch = Some((at, worker));
                }
            }
            ObsEvent::TileRedispatch { at, image, tile, worker, .. } => {
                if let Some(s) = inner.inflight.iter_mut().find(|s| s.image == image) {
                    let t = s.tile(tile);
                    t.dispatch = Some((at, worker));
                    t.rounds += 1;
                }
            }
            ObsEvent::TileArrival { at, image, tile, worker } => {
                if let Some(s) = inner.inflight.iter_mut().find(|s| s.image == image) {
                    s.tile(tile).arrival = Some((at, worker));
                }
            }
            ObsEvent::TileZeroFill { at, image, tile } => {
                if let Some(s) = inner.inflight.iter_mut().find(|s| s.image == image) {
                    s.tile(tile).zero_fill_at = Some(at);
                }
            }
            ObsEvent::TileCompute { at, image, tile, worker, dur } => {
                if let Some(s) = inner.inflight.iter_mut().find(|s| s.image == image) {
                    let t = s.tile(tile);
                    if t.arrival.is_none() {
                        t.compute = Some((at, dur, worker));
                    }
                }
            }
            ObsEvent::TileCompress { at, image, tile, worker, dur, .. } => {
                if let Some(s) = inner.inflight.iter_mut().find(|s| s.image == image) {
                    let t = s.tile(tile);
                    if t.arrival.is_none() {
                        t.compress = Some((at, dur, worker));
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// What made the flight recorder snapshot a [`ForensicReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Anomaly {
    /// A tile was zero-filled.
    ZeroFill,
    /// A worker's death was positively observed.
    WorkerDead,
    /// `DeadlineFired` count for one image crossed the storm threshold.
    DeadlineStorm,
}

impl Anomaly {
    /// Stable snake_case name (the JSON encoding).
    pub fn as_str(&self) -> &'static str {
        match self {
            Anomaly::ZeroFill => "zero_fill",
            Anomaly::WorkerDead => "worker_dead",
            Anomaly::DeadlineStorm => "deadline_storm",
        }
    }
}

/// A bounded snapshot of the flight-recorder ring taken at an anomaly,
/// carrying everything needed to explain it: the tile, the owning
/// worker, re-dispatch rounds consumed, the deadline values in force,
/// and the surviving events that touched the image/tile/worker.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ForensicReport {
    /// What triggered the snapshot.
    pub trigger: Anomaly,
    /// Trigger time on the driver's axis.
    pub at: f64,
    /// The image involved.
    pub image: u64,
    /// The tile involved (zero-fill triggers only).
    pub tile: Option<u32>,
    /// The owning worker: last dispatch target of the tile, or the dead
    /// worker.
    pub worker: Option<u32>,
    /// Re-dispatch rounds consumed (max round seen in the ring window).
    pub rounds: u32,
    /// When the last deadline still in the window was armed.
    pub deadline_at: Option<f64>,
    /// That deadline's span (the §6.2 expected-makespan timer value).
    pub deadline_span: Option<f64>,
    /// Live deadline firings observed for the image.
    pub deadlines_fired: u32,
    /// Ring events touching the image/tile/worker, oldest first,
    /// bounded by the recorder's window.
    pub events: Vec<ObsEvent>,
}

impl ForensicReport {
    /// Serde-free JSON rendering via the shared [`json`] helpers.
    pub fn to_json(&self) -> String {
        let opt_u = |v: Option<u32>| v.map_or("null".to_string(), |x| x.to_string());
        let opt_f = |v: Option<f64>| v.map_or("null".to_string(), json::num);
        json::Obj::new()
            .str("trigger", self.trigger.as_str())
            .f64("at", self.at)
            .u64("image", self.image)
            .raw("tile", opt_u(self.tile))
            .raw("worker", opt_u(self.worker))
            .u64("rounds", self.rounds.into())
            .raw("deadline_at", opt_f(self.deadline_at))
            .raw("deadline_span", opt_f(self.deadline_span))
            .u64("deadlines_fired", self.deadlines_fired.into())
            .raw(
                "events",
                json::array(self.events.iter().map(|ev| {
                    json::Obj::new()
                        .str("kind", ev.kind())
                        .f64("at", ev.at())
                        .raw("args", ev.args_json())
                        .finish()
                })),
            )
            .finish()
    }
}

/// Everything the recorder holds, behind its one mutex.
#[derive(Debug)]
struct Recorder {
    /// The last `capacity` events, oldest first.
    ring: VecDeque<ObsEvent>,
    /// Per-image `DeadlineFired` counts (bounded, oldest evicted).
    fired: VecDeque<(u64, u32)>,
    reports: VecDeque<ForensicReport>,
}

/// A bounded ring of the last N events plus anomaly snapshots.
///
/// `emit` takes one mutex, pushes the event and evicts the oldest past
/// the capacity — no allocation after construction, and the same cost
/// class as [`AttributionSink`], which already locks per event on the
/// same path. The ring stores [`ObsEvent`]s as they are, so what
/// [`FlightRecorderSink::events`] returns is exactly what was emitted,
/// in the order the mutex admitted it.
///
/// Anomalies (zero-fill, worker death, a `DeadlineFired` storm reaching
/// [`FlightRecorderSink::STORM_THRESHOLD`]) filter the ring under the
/// same lock and file a [`ForensicReport`] — a cold path by definition.
#[derive(Debug)]
pub struct FlightRecorderSink {
    capacity: usize,
    inner: Mutex<Recorder>,
}

impl Default for FlightRecorderSink {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl FlightRecorderSink {
    /// Default ring capacity (events). At ~56 B/event this is ~56 KiB —
    /// deep enough to hold several images' full event history on a 4×4
    /// grid.
    pub const DEFAULT_CAPACITY: usize = 1024;
    /// `DeadlineFired` count for one image that files an
    /// [`Anomaly::DeadlineStorm`] report.
    pub const STORM_THRESHOLD: u32 = 8;
    /// Cap on events embedded per [`ForensicReport`].
    pub const WINDOW: usize = 128;
    /// Retained forensic reports (oldest evicted).
    const MAX_REPORTS: usize = 64;
    /// Tracked per-image deadline counters.
    const MAX_FIRED: usize = 64;

    /// A recorder holding the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorderSink {
            capacity,
            inner: Mutex::new(Recorder {
                ring: VecDeque::with_capacity(capacity),
                fired: VecDeque::new(),
                reports: VecDeque::new(),
            }),
        }
    }

    /// The surviving ring contents, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.inner.lock().expect("flight recorder poisoned").ring.iter().copied().collect()
    }

    /// All forensic reports filed so far, oldest first.
    pub fn reports(&self) -> Vec<ForensicReport> {
        self.inner.lock().expect("flight recorder poisoned").reports.iter().cloned().collect()
    }

    /// The report for a specific zero-filled tile, if still retained.
    pub fn report_for_tile(&self, image: u64, tile: u32) -> Option<ForensicReport> {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .reports
            .iter()
            .rev()
            .find(|r| r.image == image && r.tile == Some(tile))
            .cloned()
    }
}

impl Recorder {
    /// Count one `DeadlineFired` for `image`; true exactly when the count
    /// reaches the storm threshold (so a storm files once per image).
    fn storm_crossed(&mut self, image: u64) -> bool {
        let count = match self.fired.iter_mut().find(|(i, _)| *i == image) {
            Some((_, c)) => {
                *c += 1;
                *c
            }
            None => {
                self.fired.push_back((image, 1));
                if self.fired.len() > FlightRecorderSink::MAX_FIRED {
                    self.fired.pop_front();
                }
                1
            }
        };
        count == FlightRecorderSink::STORM_THRESHOLD
    }

    /// Filter the ring and file a report (the cold anomaly path).
    fn file_report(
        &mut self,
        trigger: Anomaly,
        at: f64,
        image: u64,
        tile: Option<u32>,
        worker: Option<u32>,
    ) {
        let mut events: Vec<ObsEvent> = self
            .ring
            .iter()
            .filter(|ev| match trigger {
                // Tile-scoped: the image's events, narrowed to the tile
                // where the event is tile-specific.
                Anomaly::ZeroFill => {
                    ev.image() == image && ev.tile().is_none_or(|t| Some(t) == tile)
                }
                // Worker-scoped: the image's events plus everything the
                // dead worker touched.
                Anomaly::WorkerDead => ev.image() == image || ev.worker() == worker,
                Anomaly::DeadlineStorm => ev.image() == image,
            })
            .copied()
            .collect();
        if events.len() > FlightRecorderSink::WINDOW {
            events.drain(..events.len() - FlightRecorderSink::WINDOW);
        }
        // The owning worker: for a zero-fill, the last dispatch target
        // of the tile still visible in the window.
        let owner = worker.or_else(|| {
            events.iter().rev().find_map(|ev| match *ev {
                ObsEvent::TileDispatch { tile: t, worker: w, .. }
                | ObsEvent::TileRedispatch { tile: t, worker: w, .. }
                    if Some(t) == tile =>
                {
                    Some(w)
                }
                _ => None,
            })
        });
        let rounds = events
            .iter()
            .filter_map(|ev| match *ev {
                ObsEvent::TileRedispatch { round, tile: t, .. }
                    if tile.is_none() || Some(t) == tile =>
                {
                    Some(round)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let deadline = events.iter().rev().find_map(|ev| match *ev {
            ObsEvent::DeadlineArmed { at, span, .. } => Some((at, span)),
            _ => None,
        });
        let fired_in_window =
            events.iter().filter(|ev| matches!(ev, ObsEvent::DeadlineFired { .. })).count() as u32;
        let fired_counted = self.fired.iter().find(|(i, _)| *i == image).map_or(0, |(_, c)| *c);
        self.reports.push_back(ForensicReport {
            trigger,
            at,
            image,
            tile,
            worker: owner,
            rounds,
            deadline_at: deadline.map(|(a, _)| a),
            deadline_span: deadline.map(|(_, s)| s),
            deadlines_fired: fired_in_window.max(fired_counted),
            events,
        });
        if self.reports.len() > FlightRecorderSink::MAX_REPORTS {
            self.reports.pop_front();
        }
    }
}

impl EventSink for FlightRecorderSink {
    fn emit(&self, ev: &ObsEvent) {
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(*ev);
        match *ev {
            ObsEvent::TileZeroFill { at, image, tile } => {
                inner.file_report(Anomaly::ZeroFill, at, image, Some(tile), None);
            }
            ObsEvent::WorkerDead { at, image, worker } => {
                inner.file_report(Anomaly::WorkerDead, at, image, None, Some(worker));
            }
            ObsEvent::DeadlineFired { at, image } if inner.storm_crossed(image) => {
                inner.file_report(Anomaly::DeadlineStorm, at, image, None, None);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Live exposition: Prometheus text format and snapshot diffing
// ---------------------------------------------------------------------------

/// Escape a Prometheus label *value* per the text exposition format:
/// backslash, double-quote, and line-feed become `\\`, `\"`, `\n`.
pub fn prometheus_escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render `labels` as `key="escaped-value"` pairs, comma-joined (no
/// surrounding braces — histogram series append their `le` pair).
fn prometheus_label_pairs(labels: &[(&str, &str)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prometheus_escape_label(v)))
        .collect::<Vec<_>>()
        .join(",")
}

impl MetricsSnapshot {
    /// Render in Prometheus text exposition format: one `counter` per
    /// scalar, one `histogram` (cumulative `le` buckets over the log2
    /// boundaries, `+Inf`, `_sum`, `_count`) per histogram, all under
    /// the `adcnn_` namespace, with `# HELP`/`# TYPE` headers.
    pub fn to_prometheus(&self) -> String {
        self.render_prometheus(&[], true)
    }

    /// [`MetricsSnapshot::to_prometheus`] with every series carrying the
    /// given labels (values are escaped), e.g.
    /// `adcnn_images_finished_total{tenant="vgg16"} 100`, and optional
    /// `# HELP`/`# TYPE` headers. The exposition format wants headers
    /// once per metric name, so a registry of shards renders its first
    /// shard with headers and the labeled shards without.
    pub fn render_prometheus(&self, labels: &[(&str, &str)], headers: bool) -> String {
        let mut out = String::with_capacity(4096);
        let pairs = prometheus_label_pairs(labels);
        let plain = if pairs.is_empty() { String::new() } else { format!("{{{pairs}}}") };
        let le_pairs = |le: &str| {
            if pairs.is_empty() {
                format!("{{le=\"{le}\"}}")
            } else {
                format!("{{{pairs},le=\"{le}\"}}")
            }
        };
        let series = self.series();
        // The exposition groups by type, whatever order the schema rows
        // (and so the JSON keys) come in.
        for kind in ["counter", "gauge", "histogram"] {
            for s in series.iter().filter(|s| s.kind == kind) {
                let name = s.name;
                if headers {
                    let help = s.help;
                    out.push_str(&format!(
                        "# HELP adcnn_{name} {help}\n# TYPE adcnn_{name} {kind}\n"
                    ));
                }
                let h = match s.value {
                    SeriesValue::Scalar(v) => {
                        out.push_str(&format!("adcnn_{name}{plain} {v}\n"));
                        continue;
                    }
                    SeriesValue::Histogram(h) => h,
                };
                let mut cum = 0u64;
                for (b, n) in h.buckets.iter().enumerate() {
                    cum += n;
                    // bucket b counts v < 2^b (v == 0 for b == 0), so the
                    // inclusive upper bound is 2^b - 1.
                    let le = if b == 0 { 0 } else { (1u64 << b) - 1 };
                    out.push_str(&format!(
                        "adcnn_{name}_bucket{} {cum}\n",
                        le_pairs(&le.to_string())
                    ));
                }
                out.push_str(&format!("adcnn_{name}_bucket{} {}\n", le_pairs("+Inf"), h.count));
                out.push_str(&format!("adcnn_{name}_sum{plain} {}\n", h.sum));
                out.push_str(&format!("adcnn_{name}_count{plain} {}\n", h.count));
            }
        }
        out
    }
}

/// One interval's rates and latency quantiles, produced by
/// [`Reporter::sample`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ReporterSample {
    /// Interval length the rates are normalized over.
    pub elapsed_s: f64,
    /// Images finished in the interval.
    pub images: u64,
    /// Throughput over the interval.
    pub images_per_s: f64,
    /// Interpolated median image latency (µs) over the interval.
    pub p50_latency_us: Option<f64>,
    /// Interpolated 99th-percentile image latency (µs).
    pub p99_latency_us: Option<f64>,
    /// Zero-filled tiles / delivered tiles (zero-filled + arrived).
    pub zero_fill_rate: f64,
    /// Re-dispatch attempts / round-0 dispatches.
    pub redispatch_rate: f64,
    /// In-flight depth gauge at sample time.
    pub inflight_depth: u64,
    /// Interpolated median intake-queue wait (µs) over the interval.
    pub p50_queue_wait_us: Option<f64>,
}

impl ReporterSample {
    /// A one-line human-readable summary (the live log format).
    pub fn line(&self) -> String {
        let q = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.0}"));
        format!(
            "{:7.1} img/s | p50 {:>8} µs | p99 {:>8} µs | zero-fill {:5.2}% | redispatch {:5.2}% | in-flight {:>2} | queue p50 {:>8} µs",
            self.images_per_s,
            q(self.p50_latency_us),
            q(self.p99_latency_us),
            self.zero_fill_rate * 100.0,
            self.redispatch_rate * 100.0,
            self.inflight_depth,
            q(self.p50_queue_wait_us),
        )
    }
}

/// Diffs successive [`MetricsSnapshot`]s into per-interval
/// [`ReporterSample`]s, so a long run can be narrated live (quantiles
/// are computed on the interval's histogram delta via
/// [`HistogramSnapshot::quantile`], not on raw buckets).
#[derive(Debug, Default)]
pub struct Reporter {
    prev: MetricsSnapshot,
}

/// Bucket-wise histogram delta (saturating, in case of snapshot skew).
fn hist_delta(cur: &HistogramSnapshot, prev: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets = cur
        .buckets
        .iter()
        .enumerate()
        .map(|(i, b)| b.saturating_sub(prev.buckets.get(i).copied().unwrap_or(0)))
        .collect();
    HistogramSnapshot {
        buckets,
        count: cur.count.saturating_sub(prev.count),
        sum: cur.sum.saturating_sub(prev.sum),
    }
}

impl Reporter {
    /// A reporter whose first sample covers everything since the sink
    /// was created.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in the latest snapshot, diffing against the previous one;
    /// `elapsed_s` is the wall (or simulated) time since that previous
    /// sample.
    pub fn sample(&mut self, snap: &MetricsSnapshot, elapsed_s: f64) -> ReporterSample {
        let d = |cur: u64, prev: u64| cur.saturating_sub(prev);
        let images = d(snap.images_finished, self.prev.images_finished);
        let latency = hist_delta(&snap.image_latency_us, &self.prev.image_latency_us);
        let arrived = d(snap.tiles_arrived, self.prev.tiles_arrived);
        let zero_filled = d(snap.tiles_zero_filled, self.prev.tiles_zero_filled);
        let dispatched = d(snap.tiles_dispatched, self.prev.tiles_dispatched);
        let redispatched = d(snap.tiles_redispatched, self.prev.tiles_redispatched);
        let queue_wait = hist_delta(&snap.queue_wait_us, &self.prev.queue_wait_us);
        let sample = ReporterSample {
            elapsed_s,
            images,
            images_per_s: images as f64 / elapsed_s.max(1e-9),
            p50_latency_us: latency.p50(),
            p99_latency_us: latency.p99(),
            zero_fill_rate: zero_filled as f64 / (zero_filled + arrived).max(1) as f64,
            redispatch_rate: redispatched as f64 / dispatched.max(1) as f64,
            inflight_depth: snap.inflight_depth,
            p50_queue_wait_us: queue_wait.p50(),
        };
        self.prev = snap.clone();
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{MetricsSink, SinkHandle};
    use std::sync::Arc;

    fn assert_json(s: &str) {
        assert!(json::is_well_formed(s), "malformed JSON: {s}");
    }

    /// A healthy 2-tile image with runtime-style spans: the breakdown
    /// must sum exactly and pick the later tile as critical.
    #[test]
    fn attribution_decomposes_exactly_and_picks_critical_tile() {
        let a = Arc::new(AttributionSink::new());
        let h = SinkHandle::new(a.clone());
        h.emit_with(|| ObsEvent::ImageStart { at: 1.0, image: 5, tiles: 2, placed: 2 });
        h.emit_with(|| ObsEvent::TileDispatch { at: 1.0, image: 5, tile: 0, worker: 0 });
        h.emit_with(|| ObsEvent::TileDispatch { at: 1.0, image: 5, tile: 1, worker: 1 });
        // tile 0: queue 0.010, compute 0.020, compress 0.005, arrival at
        // 1.040 → transfer residual 0.005
        h.emit_with(|| ObsEvent::TileCompute {
            at: 1.030,
            image: 5,
            tile: 0,
            worker: 0,
            dur: 0.020,
        });
        h.emit_with(|| ObsEvent::TileCompress {
            at: 1.035,
            image: 5,
            tile: 0,
            worker: 0,
            dur: 0.005,
            bytes: 100,
            ratio: 0.1,
        });
        h.emit_with(|| ObsEvent::TileArrival { at: 1.040, image: 5, tile: 0, worker: 0 });
        // tile 1: compute-dominated, arrives later → critical
        h.emit_with(|| ObsEvent::TileCompute {
            at: 1.060,
            image: 5,
            tile: 1,
            worker: 1,
            dur: 0.055,
        });
        h.emit_with(|| ObsEvent::TileArrival { at: 1.070, image: 5, tile: 1, worker: 1 });
        h.emit_with(|| ObsEvent::ImageFinish {
            at: 1.080,
            image: 5,
            latency: 0.080,
            zero_filled: 0,
            redispatched: 0,
        });

        let r = a.report_for(5).expect("image 5 finished");
        assert_eq!(r.tiles.len(), 2);
        let t0 = &r.tiles[0];
        assert!((t0.queue_wait_s - 0.010).abs() < 1e-12, "{t0:?}");
        assert!((t0.compute_s - 0.020).abs() < 1e-12);
        assert!((t0.compress_s - 0.005).abs() < 1e-12);
        assert!((t0.total_s() - 0.040).abs() < 1e-12);
        assert_eq!(r.critical_tile, Some(1));
        assert_eq!(r.dominant_phase, Phase::Compute);
        assert!((r.merge_s - 0.010).abs() < 1e-12);
        // exact per-tile identity: phases sum to the open interval
        for t in &r.tiles {
            assert!((t.total_s() - (t.done_at - t.dispatch_at)).abs() < 1e-12);
        }
        assert_json(&r.to_json());

        let agg = a.aggregate();
        assert_eq!(agg.images, 1);
        assert_eq!(agg.dominant[1], 1); // compute-dominant
        assert_json(&agg.to_json());
    }

    #[test]
    fn zero_filled_and_redispatched_tiles_are_attributed() {
        let a = Arc::new(AttributionSink::new());
        let h = SinkHandle::new(a.clone());
        h.emit_with(|| ObsEvent::ImageStart { at: 0.0, image: 0, tiles: 2, placed: 2 });
        h.emit_with(|| ObsEvent::TileDispatch { at: 0.0, image: 0, tile: 0, worker: 0 });
        h.emit_with(|| ObsEvent::TileDispatch { at: 0.0, image: 0, tile: 1, worker: 1 });
        h.emit_with(|| ObsEvent::TileArrival { at: 0.02, image: 0, tile: 0, worker: 0 });
        h.emit_with(|| ObsEvent::TileRedispatch {
            at: 0.05,
            image: 0,
            tile: 1,
            worker: 0,
            round: 1,
        });
        h.emit_with(|| ObsEvent::TileZeroFill { at: 0.10, image: 0, tile: 1 });
        h.emit_with(|| ObsEvent::ImageFinish {
            at: 0.10,
            image: 0,
            latency: 0.10,
            zero_filled: 1,
            redispatched: 1,
        });
        let r = a.report_for(0).expect("finished");
        let t1 = r.tiles.iter().find(|t| t.tile == 1).expect("tile 1 reported");
        assert!(t1.zero_filled);
        assert_eq!(t1.rounds, 1);
        assert_eq!(t1.worker, Some(0)); // owner = last dispatch target
        assert!((t1.dispatch_at - 0.05).abs() < 1e-12); // window restarts at re-dispatch
        assert!((t1.queue_wait_s - 0.05).abs() < 1e-12); // open interval → queue-wait
                                                         // the zero-filled tile completed last → critical
        assert_eq!(r.critical_tile, Some(1));
        assert_eq!(r.dominant_phase, Phase::QueueWait);
    }

    #[test]
    fn retirement_extends_a_report_once_and_never_an_older_runs() {
        let a = Arc::new(AttributionSink::new());
        let h = SinkHandle::new(a.clone());
        let run = |t0: f64| {
            h.emit_with(|| ObsEvent::ImageStart { at: t0, image: 0, tiles: 1, placed: 1 });
            h.emit_with(|| ObsEvent::TileDispatch { at: t0, image: 0, tile: 0, worker: 0 });
            h.emit_with(|| ObsEvent::TileArrival { at: t0 + 0.25, image: 0, tile: 0, worker: 0 });
        };
        run(1.0);
        h.emit_with(|| ObsEvent::ImageFinish {
            at: 1.25,
            image: 0,
            latency: 0.25,
            zero_filled: 0,
            redispatched: 0,
        });
        h.emit_with(|| ObsEvent::ImageRetired { at: 1.75, image: 0, inflight: 0 });
        let first = a.report_for(0).expect("retained");
        assert_eq!((first.merge_s, first.latency_s, first.finish_at), (0.5, 0.75, 1.75));
        assert_eq!(first.dominant_phase, Phase::Merge);

        // A second retirement of the same report changes nothing.
        h.emit_with(|| ObsEvent::ImageRetired { at: 9.0, image: 0, inflight: 0 });
        assert_eq!(a.report_for(0), Some(first.clone()));

        // A later run reuses id 0 and loses its state before finishing:
        // its retirement must not land on the first run's report.
        run(20.0);
        a.inner.lock().unwrap().inflight.clear();
        h.emit_with(|| ObsEvent::ImageRetired { at: 21.0, image: 0, inflight: 0 });
        assert_eq!(a.report_for(0), Some(first));
        let agg = a.aggregate();
        assert_eq!((agg.images, agg.merge_s, agg.latency_s), (1, 0.5, 0.75));

        // Nor does a retirement stamped before the report's own finish.
        run(30.0);
        h.emit_with(|| ObsEvent::ImageFinish {
            at: 30.25,
            image: 0,
            latency: 0.25,
            zero_filled: 0,
            redispatched: 0,
        });
        h.emit_with(|| ObsEvent::ImageRetired { at: 2.0, image: 0, inflight: 0 });
        assert_eq!(a.report_for(0).expect("retained").merge_s, 0.0);
    }

    #[test]
    fn attribution_memory_is_bounded() {
        let a = Arc::new(AttributionSink::with_retention(8));
        let h = SinkHandle::new(a.clone());
        for img in 0..(AttributionSink::MAX_INFLIGHT as u64 + 40) {
            h.emit_with(|| ObsEvent::ImageStart {
                at: img as f64,
                image: img,
                tiles: 1,
                placed: 1,
            });
        }
        // never finished: inflight evicted down to the cap, no reports
        assert!(a.reports().is_empty());
        for img in 0..20u64 {
            h.emit_with(|| ObsEvent::ImageFinish {
                at: img as f64 + 0.5,
                image: 1000 + img, // unknown images are ignored
                latency: 0.5,
                zero_filled: 0,
                redispatched: 0,
            });
        }
        assert_eq!(a.aggregate().images, 0);
        // finish tracked images: retention keeps only the last 8
        for img in 40..(AttributionSink::MAX_INFLIGHT as u64 + 40) {
            h.emit_with(|| ObsEvent::ImageFinish {
                at: img as f64 + 0.5,
                image: img,
                latency: 0.5,
                zero_filled: 0,
                redispatched: 0,
            });
        }
        assert_eq!(a.reports().len(), 8);
        assert_eq!(a.aggregate().images, AttributionSink::MAX_INFLIGHT as u64);
        assert!(a.report_for(40).is_none(), "evicted by retention cap");
    }

    #[test]
    fn recorder_ring_keeps_last_n_in_order() {
        let r = FlightRecorderSink::new(8);
        for i in 0..20u64 {
            r.emit(&ObsEvent::DeadlineArmed { at: i as f64, image: i, span: 0.1 });
        }
        let evs = r.events();
        assert_eq!(evs.len(), 8);
        let images: Vec<u64> = evs.iter().map(|e| e.image()).collect();
        assert_eq!(images, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn zero_fill_files_forensic_report_with_owner_rounds_and_deadline() {
        let r = Arc::new(FlightRecorderSink::new(256));
        let h = SinkHandle::new(r.clone());
        h.emit_with(|| ObsEvent::ImageStart { at: 0.0, image: 3, tiles: 2, placed: 2 });
        h.emit_with(|| ObsEvent::TileDispatch { at: 0.0, image: 3, tile: 0, worker: 1 });
        h.emit_with(|| ObsEvent::TileDispatch { at: 0.0, image: 3, tile: 1, worker: 2 });
        h.emit_with(|| ObsEvent::DeadlineArmed { at: 0.0, image: 3, span: 0.040 });
        h.emit_with(|| ObsEvent::TileArrival { at: 0.01, image: 3, tile: 0, worker: 1 });
        h.emit_with(|| ObsEvent::DeadlineFired { at: 0.040, image: 3 });
        h.emit_with(|| ObsEvent::TileRedispatch {
            at: 0.040,
            image: 3,
            tile: 1,
            worker: 1,
            round: 1,
        });
        h.emit_with(|| ObsEvent::DeadlineArmed { at: 0.040, image: 3, span: 0.060 });
        h.emit_with(|| ObsEvent::DeadlineFired { at: 0.100, image: 3 });
        h.emit_with(|| ObsEvent::TileZeroFill { at: 0.100, image: 3, tile: 1 });

        let rep = r.report_for_tile(3, 1).expect("zero-fill filed a report");
        assert_eq!(rep.trigger, Anomaly::ZeroFill);
        assert_eq!(rep.worker, Some(1), "owner = last re-dispatch target");
        assert_eq!(rep.rounds, 1);
        assert_eq!(rep.deadline_at, Some(0.040));
        assert_eq!(rep.deadline_span, Some(0.060));
        assert_eq!(rep.deadlines_fired, 2);
        assert!(!rep.events.is_empty());
        // tile-scoped filtering: no events of the other tile
        assert!(rep.events.iter().all(|e| e.tile().is_none_or(|t| t == 1)));
        assert_json(&rep.to_json());
    }

    #[test]
    fn worker_death_and_deadline_storm_file_reports() {
        let r = Arc::new(FlightRecorderSink::new(128));
        let h = SinkHandle::new(r.clone());
        h.emit_with(|| ObsEvent::WorkerDead { at: 0.5, image: 7, worker: 4 });
        for i in 0..10 {
            h.emit_with(|| ObsEvent::DeadlineFired { at: 0.6 + 0.1 * i as f64, image: 7 });
        }
        let reports = r.reports();
        assert_eq!(reports.len(), 2, "one worker-dead, one storm (fired once)");
        assert_eq!(reports[0].trigger, Anomaly::WorkerDead);
        assert_eq!(reports[0].worker, Some(4));
        assert_eq!(reports[1].trigger, Anomaly::DeadlineStorm);
        assert_eq!(reports[1].deadlines_fired, FlightRecorderSink::STORM_THRESHOLD);
    }

    /// Four emitters race into a ring far smaller than what they emit.
    /// Whatever order the mutex admits, the ring must hold whole events
    /// only, each thread's survivors must be the tail of what it emitted
    /// in order, and a forensic report filed afterwards must read the
    /// owner out of that same ring.
    #[test]
    fn recorder_keeps_whole_events_in_order_under_concurrent_emitters() {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 10_000;
        const CAP: usize = 256;
        let emitted = |t: u32, i: u32| ObsEvent::TileDispatch {
            at: f64::from(i),
            image: 7,
            tile: t,
            worker: 10 + t,
        };
        let r = FlightRecorderSink::new(CAP);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (r, start) = (&r, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        r.emit(&emitted(t, i));
                    }
                });
            }
        });
        // Zero-fill the tile of whichever thread emitted last, so its
        // dispatches are certainly still in the ring.
        let last_tile = r.events().last().and_then(|e| e.tile()).expect("ring is full");
        r.emit(&ObsEvent::TileZeroFill { at: f64::from(PER_THREAD), image: 7, tile: last_tile });

        let evs = r.events();
        assert_eq!(evs.len(), CAP);
        let (zero_fill, dispatches) = evs.split_last().expect("ring is full");
        assert!(matches!(zero_fill, ObsEvent::TileZeroFill { tile, .. } if *tile == last_tile));
        let mut next: [Option<u32>; THREADS as usize] = [None; THREADS as usize];
        for ev in dispatches {
            let (t, i) = (ev.tile().expect("dispatch"), ev.at() as u32);
            assert_eq!(*ev, emitted(t, i), "retained event was never emitted");
            let expect = next[t as usize].get_or_insert(i);
            assert_eq!(i, *expect, "thread {t} out of emission order");
            *expect += 1;
        }
        for (t, n) in next.iter().enumerate() {
            assert!(n.is_none_or(|n| n == PER_THREAD), "thread {t} survivors are not its tail");
        }

        let rep = r.report_for_tile(7, last_tile).expect("zero-fill filed a report");
        assert_eq!(rep.worker, Some(10 + last_tile));
        assert!(rep.events.iter().all(|e| e.tile() == Some(last_tile)));
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_complete() {
        let m = Arc::new(MetricsSink::new());
        let h = SinkHandle::new(m.clone());
        h.emit_with(|| ObsEvent::ImageStart { at: 0.0, image: 0, tiles: 1, placed: 1 });
        h.emit_with(|| ObsEvent::TileCompute {
            at: 0.01,
            image: 0,
            tile: 0,
            worker: 0,
            dur: 0.003,
        });
        h.emit_with(|| ObsEvent::TileCompute {
            at: 0.02,
            image: 0,
            tile: 0,
            worker: 0,
            dur: 0.007,
        });
        h.emit_with(|| ObsEvent::ImageAdmitted {
            at: 0.0,
            image: 0,
            queue_wait: 0.001,
            inflight: 1,
        });
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE adcnn_images_started_total counter"));
        assert!(text.contains("adcnn_images_started_total 1\n"));
        assert!(text.contains("# TYPE adcnn_inflight_depth gauge"));
        assert!(text.contains("adcnn_inflight_depth 1\n"));
        assert!(text.contains("adcnn_images_admitted_total 1\n"));
        assert!(text.contains("adcnn_queue_wait_us_count 1\n"));
        // 3000 µs and 7000 µs land in buckets 12 and 13; cumulative
        // counts must be monotone and end at the total
        assert!(text.contains("adcnn_compute_us_bucket{le=\"4095\"} 1\n"), "{text}");
        assert!(text.contains("adcnn_compute_us_bucket{le=\"8191\"} 2\n"));
        assert!(text.contains("adcnn_compute_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("adcnn_compute_us_sum 10000\n"));
        assert!(text.contains("adcnn_compute_us_count 2\n"));
        assert!(text.ends_with('\n'));
    }

    /// Full-format pin for the unlabeled exposition: metric order,
    /// `# HELP`/`# TYPE` headers, names, and the empty-histogram shape
    /// are all golden. A change here is a dashboard-breaking change.
    #[test]
    fn prometheus_format_is_pinned() {
        let text = MetricsSnapshot::default().to_prometheus();
        let expected = concat!(
            "# HELP adcnn_images_started_total Images whose lifecycle began.\n",
            "# TYPE adcnn_images_started_total counter\n",
            "adcnn_images_started_total 0\n",
            "# HELP adcnn_images_finished_total Images that completed.\n",
            "# TYPE adcnn_images_finished_total counter\n",
            "adcnn_images_finished_total 0\n",
            "# HELP adcnn_tiles_dispatched_total Round-0 tile send attempts.\n",
            "# TYPE adcnn_tiles_dispatched_total counter\n",
            "adcnn_tiles_dispatched_total 0\n",
            "# HELP adcnn_tiles_redispatched_total Recovery tile send attempts.\n",
            "# TYPE adcnn_tiles_redispatched_total counter\n",
            "adcnn_tiles_redispatched_total 0\n",
            "# HELP adcnn_tiles_arrived_total Accepted (fresh, decodable) results.\n",
            "# TYPE adcnn_tiles_arrived_total counter\n",
            "adcnn_tiles_arrived_total 0\n",
            "# HELP adcnn_tiles_duplicate_total Discarded duplicate results.\n",
            "# TYPE adcnn_tiles_duplicate_total counter\n",
            "adcnn_tiles_duplicate_total 0\n",
            "# HELP adcnn_tiles_late_total Results after image completion.\n",
            "# TYPE adcnn_tiles_late_total counter\n",
            "adcnn_tiles_late_total 0\n",
            "# HELP adcnn_tiles_corrupt_total Results that failed to decode.\n",
            "# TYPE adcnn_tiles_corrupt_total counter\n",
            "adcnn_tiles_corrupt_total 0\n",
            "# HELP adcnn_tiles_zero_filled_total Tiles zero-filled.\n",
            "# TYPE adcnn_tiles_zero_filled_total counter\n",
            "adcnn_tiles_zero_filled_total 0\n",
            "# HELP adcnn_deadlines_armed_total Deadline timers armed.\n",
            "# TYPE adcnn_deadlines_armed_total counter\n",
            "adcnn_deadlines_armed_total 0\n",
            "# HELP adcnn_deadlines_fired_total Live deadline firings.\n",
            "# TYPE adcnn_deadlines_fired_total counter\n",
            "adcnn_deadlines_fired_total 0\n",
            "# HELP adcnn_workers_died_total Positively-observed worker deaths.\n",
            "# TYPE adcnn_workers_died_total counter\n",
            "adcnn_workers_died_total 0\n",
            "# HELP adcnn_workers_suspected_total Silent-fault suspicions raised.\n",
            "# TYPE adcnn_workers_suspected_total counter\n",
            "adcnn_workers_suspected_total 0\n",
            "# HELP adcnn_workers_cleared_total Suspicions cleared.\n",
            "# TYPE adcnn_workers_cleared_total counter\n",
            "adcnn_workers_cleared_total 0\n",
            "# HELP adcnn_rate_updates_total Algorithm 2 EWMA observations.\n",
            "# TYPE adcnn_rate_updates_total counter\n",
            "adcnn_rate_updates_total 0\n",
            "# HELP adcnn_compressed_bytes_total Compressed payload bytes shipped.\n",
            "# TYPE adcnn_compressed_bytes_total counter\n",
            "adcnn_compressed_bytes_total 0\n",
            "# HELP adcnn_images_admitted_total Images admitted into the pipeline.\n",
            "# TYPE adcnn_images_admitted_total counter\n",
            "adcnn_images_admitted_total 0\n",
            "# HELP adcnn_nodes_up_total Node up-transitions observed.\n",
            "# TYPE adcnn_nodes_up_total counter\n",
            "adcnn_nodes_up_total 0\n",
            "# HELP adcnn_nodes_down_total Node down-transitions observed.\n",
            "# TYPE adcnn_nodes_down_total counter\n",
            "adcnn_nodes_down_total 0\n",
            "# HELP adcnn_placements_decided_total Placement decisions produced.\n",
            "# TYPE adcnn_placements_decided_total counter\n",
            "adcnn_placements_decided_total 0\n",
            "# HELP adcnn_inflight_depth Last observed concurrent-image count.\n",
            "# TYPE adcnn_inflight_depth gauge\n",
            "adcnn_inflight_depth 0\n",
            "# HELP adcnn_compute_us Per-tile prefix compute time, us.\n",
            "# TYPE adcnn_compute_us histogram\n",
            "adcnn_compute_us_bucket{le=\"+Inf\"} 0\n",
            "adcnn_compute_us_sum 0\n",
            "adcnn_compute_us_count 0\n",
            "# HELP adcnn_compress_us Per-tile clip/quantize/RLE time, us.\n",
            "# TYPE adcnn_compress_us histogram\n",
            "adcnn_compress_us_bucket{le=\"+Inf\"} 0\n",
            "adcnn_compress_us_sum 0\n",
            "adcnn_compress_us_count 0\n",
            "# HELP adcnn_transfer_us Per-tile transfer time, us.\n",
            "# TYPE adcnn_transfer_us histogram\n",
            "adcnn_transfer_us_bucket{le=\"+Inf\"} 0\n",
            "adcnn_transfer_us_sum 0\n",
            "adcnn_transfer_us_count 0\n",
            "# HELP adcnn_image_latency_us End-to-end image latency, us.\n",
            "# TYPE adcnn_image_latency_us histogram\n",
            "adcnn_image_latency_us_bucket{le=\"+Inf\"} 0\n",
            "adcnn_image_latency_us_sum 0\n",
            "adcnn_image_latency_us_count 0\n",
            "# HELP adcnn_compressed_tile_bytes Per-tile compressed payload size, bytes.\n",
            "# TYPE adcnn_compressed_tile_bytes histogram\n",
            "adcnn_compressed_tile_bytes_bucket{le=\"+Inf\"} 0\n",
            "adcnn_compressed_tile_bytes_sum 0\n",
            "adcnn_compressed_tile_bytes_count 0\n",
            "# HELP adcnn_queue_wait_us Intake-queue wait before admission, us.\n",
            "# TYPE adcnn_queue_wait_us histogram\n",
            "adcnn_queue_wait_us_bucket{le=\"+Inf\"} 0\n",
            "adcnn_queue_wait_us_sum 0\n",
            "adcnn_queue_wait_us_count 0\n",
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_labels_are_escaped_and_merged_into_le_pairs() {
        let m = Arc::new(MetricsSink::new());
        let h = SinkHandle::new(m.clone());
        h.emit_with(|| ObsEvent::ImageFinish {
            at: 0.05,
            image: 0,
            latency: 0.003,
            zero_filled: 0,
            redispatched: 0,
        });
        let labels = [("tenant", "a\"b\\c\nd"), ("node", "3")];
        let text = m.snapshot().render_prometheus(&labels, true);
        // backslash, quote, and newline are escaped in the value
        assert!(
            text.contains("adcnn_images_finished_total{tenant=\"a\\\"b\\\\c\\nd\",node=\"3\"} 1\n"),
            "{text}"
        );
        // histogram series merge the shard labels with their le pair
        assert!(text.contains(
            "adcnn_image_latency_us_bucket{tenant=\"a\\\"b\\\\c\\nd\",node=\"3\",le=\"+Inf\"} 1\n"
        ));
        assert!(text
            .contains("adcnn_image_latency_us_count{tenant=\"a\\\"b\\\\c\\nd\",node=\"3\"} 1\n"));
        // headers carry no labels, and headerless rendering drops them
        assert!(text.contains("# TYPE adcnn_images_finished_total counter\n"));
        let bare = m.snapshot().render_prometheus(&labels, false);
        assert!(!bare.contains("# HELP"));
        assert!(!bare.contains("# TYPE"));
    }

    #[test]
    fn reporter_diffs_successive_snapshots() {
        let m = Arc::new(MetricsSink::new());
        let h = SinkHandle::new(m.clone());
        let mut rep = Reporter::new();
        for i in 0..10u64 {
            h.emit_with(|| ObsEvent::TileDispatch { at: 0.0, image: i, tile: 0, worker: 0 });
            h.emit_with(|| ObsEvent::TileArrival { at: 0.01, image: i, tile: 0, worker: 0 });
            h.emit_with(|| ObsEvent::ImageFinish {
                at: 0.05,
                image: i,
                latency: 0.010, // 10_000 µs → bucket 14 [8192, 16384)
                zero_filled: 0,
                redispatched: 0,
            });
        }
        let s1 = rep.sample(&m.snapshot(), 2.0);
        assert_eq!(s1.images, 10);
        assert!((s1.images_per_s - 5.0).abs() < 1e-9);
        assert_eq!(s1.zero_fill_rate, 0.0);
        let p50 = s1.p50_latency_us.expect("latencies recorded");
        assert!((8192.0..16384.0).contains(&p50), "{p50}");
        assert!(!s1.line().is_empty());

        // second interval: one zero-fill out of one delivered tile
        h.emit_with(|| ObsEvent::TileDispatch { at: 0.1, image: 10, tile: 0, worker: 0 });
        h.emit_with(|| ObsEvent::TileZeroFill { at: 0.2, image: 10, tile: 0 });
        let s2 = rep.sample(&m.snapshot(), 1.0);
        assert_eq!(s2.images, 0);
        assert_eq!(s2.zero_fill_rate, 1.0);
        assert_eq!(s2.p50_latency_us, None, "no images finished this interval");
    }
}
