//! Structured observability: a zero-cost-when-disabled event-sink layer
//! for the tile lifecycle.
//!
//! Every decision the sans-IO [`TileLifecycle`](crate::lifecycle)
//! machine takes — and every timed step the drivers measure around it
//! (per-tile compute, compression, transfer) — can be mirrored into an
//! [`EventSink`] as a structured [`ObsEvent`]. Both drivers (the real
//! runtime in `adcnn-runtime` and the discrete-event simulator in
//! `adcnn-netsim`) thread the same sink through the same machine, so a
//! wall-clock run and a simulated run produce the **same event schema**:
//! a trace captured from either loads into the same tooling.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Emission goes through
//!    [`SinkHandle::emit_with`], which takes a closure; when no sink is
//!    installed the closure never runs, so the event is never even
//!    constructed (`tests/alloc_steady_state.rs` proves it allocates
//!    nothing). [`ObsEvent`] is `Copy` and all-scalar — no variant owns a
//!    heap allocation — so an installed sink still sees no per-event
//!    allocation on the hot path.
//! 2. **Counters reconcile.** The [`MetricsSink`] counters are defined
//!    so they add up against the per-image outcome: one `TileZeroFill`
//!    per zero-filled tile, one `TileArrival` per accepted tile, one
//!    `TileDispatch`/`TileRedispatch` per send attempt (including
//!    transport-bounced retries, which also re-attempt).
//! 3. **Time is the driver's time.** `at` is in the driver's abstract
//!    seconds — wall-clock seconds since the runtime's epoch, or
//!    simulated seconds — exactly the axis the lifecycle machine runs
//!    on. Span events (`TileCompute`, `TileCompress`, `TileTransfer`)
//!    carry the span *end* in `at` and the length in `dur`.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hand-rolled JSON formatting shared by every serde-free emitter in
/// this crate — [`ObsEvent::args_json`], [`MetricsSnapshot::to_json`],
/// [`RecordingSink::to_chrome_json`], and the report types in
/// [`crate::report`]. One escape routine, one finite-float rule, one
/// object builder, so the emitters cannot drift apart on the corner
/// cases (quotes in strings, NaN durations).
pub mod json {
    /// Append `s` to `out` JSON-escaped (without surrounding quotes).
    pub fn escape_into(out: &mut String, s: &str) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }

    /// `s` as a quoted, escaped JSON string literal.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        escape_into(&mut out, s);
        out.push('"');
        out
    }

    /// A float as a JSON number. JSON has no NaN/Infinity, so
    /// non-finite values render as `0` rather than poisoning the
    /// document.
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "0".to_string()
        }
    }

    /// Render pre-formatted JSON values as a JSON array.
    pub fn array(items: impl IntoIterator<Item = String>) -> String {
        let mut out = String::from("[");
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&item);
        }
        out.push(']');
        out
    }

    /// Incremental `{...}` object builder; fields appear in insertion
    /// order.
    #[derive(Debug, Default)]
    pub struct Obj {
        buf: String,
    }

    impl Obj {
        /// An empty object.
        pub fn new() -> Self {
            Obj { buf: String::from("{") }
        }

        fn key(&mut self, k: &str) {
            if self.buf.len() > 1 {
                self.buf.push(',');
            }
            self.buf.push('"');
            escape_into(&mut self.buf, k);
            self.buf.push_str("\":");
        }

        /// Add an unsigned-integer field.
        pub fn u64(mut self, k: &str, v: u64) -> Self {
            self.key(k);
            self.buf.push_str(&v.to_string());
            self
        }

        /// Add a float field (non-finite renders as `0`).
        pub fn f64(mut self, k: &str, v: f64) -> Self {
            self.key(k);
            self.buf.push_str(&num(v));
            self
        }

        /// Add an escaped string field.
        pub fn str(mut self, k: &str, v: &str) -> Self {
            self.key(k);
            self.buf.push_str(&string(v));
            self
        }

        /// Add a boolean field.
        pub fn bool(mut self, k: &str, v: bool) -> Self {
            self.key(k);
            self.buf.push_str(if v { "true" } else { "false" });
            self
        }

        /// Add a pre-rendered JSON value (nested object/array) verbatim.
        pub fn raw(mut self, k: &str, v: impl AsRef<str>) -> Self {
            self.key(k);
            self.buf.push_str(v.as_ref());
            self
        }

        /// Close and return the object.
        pub fn finish(mut self) -> String {
            self.buf.push('}');
            self.buf
        }
    }

    /// Structural well-formedness check: balanced braces/brackets
    /// outside strings and no unterminated string, honoring escapes.
    /// Not a parser — enough to catch a malformed hand-written document
    /// without a JSON dependency; shared by the unit tests and the
    /// example smoke checks wired into CI.
    pub fn is_well_formed(s: &str) -> bool {
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        depth == 0 && !in_str
    }
}

/// One structured observation. All variants are plain scalars (`Copy`),
/// so emitting never allocates; multi-tile outcomes (zero-fill sets)
/// emit one event per tile.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum ObsEvent {
    /// An image's tiles were allocated and its lifecycle began.
    /// `placed ≤ tiles` under storage caps.
    ImageStart { at: f64, image: u64, tiles: u32, placed: u32 },
    /// The image completed (every tile arrived or was zero-filled).
    ImageFinish { at: f64, image: u64, latency: f64, zero_filled: u32, redispatched: u32 },
    /// A round-0 send attempt of `tile` to `worker`.
    TileDispatch { at: f64, image: u64, tile: u32, worker: u32 },
    /// A recovery send attempt in re-dispatch round `round`.
    TileRedispatch { at: f64, image: u64, tile: u32, worker: u32, round: u32 },
    /// A fresh, decodable result was accepted from `worker`.
    TileArrival { at: f64, image: u64, tile: u32, worker: u32 },
    /// A result for an already-satisfied tile was discarded.
    TileDuplicate { at: f64, image: u64, tile: u32, worker: u32 },
    /// A result arrived after its image completed.
    TileLate { at: f64, image: u64, tile: u32, worker: u32 },
    /// A result arrived but failed to decode; the tile stays open.
    TileCorrupt { at: f64, image: u64, tile: u32, worker: u32 },
    /// The tile missed every recovery attempt and was zero-filled.
    TileZeroFill { at: f64, image: u64, tile: u32 },
    /// The expected-makespan deadline (or `T_L` timer) was armed to fire
    /// `span` seconds after `at`.
    DeadlineArmed { at: f64, image: u64, span: f64 },
    /// A live (non-stale) deadline fired.
    DeadlineFired { at: f64, image: u64 },
    /// The driver positively observed `worker`'s death.
    WorkerDead { at: f64, image: u64, worker: u32 },
    /// `worker` held a missing tile at a deadline without delivering
    /// anything since the previous round (§6.3 silent-fault rule).
    WorkerSuspect { at: f64, image: u64, worker: u32 },
    /// A previously suspect `worker` produced evidence of life.
    WorkerCleared { at: f64, image: u64, worker: u32 },
    /// An Algorithm 2 EWMA observation was folded in for `worker`.
    RateUpdate { at: f64, image: u64, worker: u32, rate: f64 },
    /// Prefix-network forward for one tile took `dur` seconds, ending at
    /// `at`.
    TileCompute { at: f64, image: u64, tile: u32, worker: u32, dur: f64 },
    /// Clip + quantize + RLE for one tile: `dur` seconds ending at `at`,
    /// `bytes` on the wire, `ratio` = wire bits / raw f32 bits.
    TileCompress { at: f64, image: u64, tile: u32, worker: u32, dur: f64, bytes: u64, ratio: f64 },
    /// A modeled or measured transfer of one tile's payload, `dur`
    /// seconds ending at `at`.
    TileTransfer { at: f64, image: u64, tile: u32, worker: u32, dur: f64 },
    /// The admission pipeline accepted `image` into flight after
    /// `queue_wait` seconds in the intake queue; `inflight` is the
    /// in-flight depth *including* this image. Driver-emitted (never by
    /// the lifecycle), so differential decision traces are unaffected.
    ImageAdmitted { at: f64, image: u64, queue_wait: f64, inflight: u32 },
    /// The image left flight (its handle was resolved); `inflight` is
    /// the depth *after* removal. Driver-emitted.
    ImageRetired { at: f64, image: u64, inflight: u32 },
    /// `node` became reachable: a churn revival in netsim, a transport
    /// (re)connect in the multi-process runtime. Driver-emitted (never
    /// by the lifecycle) and fleet-scope ([`ObsEvent::is_fleet_scope`]),
    /// so per-image decision traces filter it out.
    NodeUp { at: f64, node: u32 },
    /// `node` became unreachable: a churn departure in netsim, a
    /// supervisor-detected disconnect in the runtime. Driver-emitted.
    NodeDown { at: f64, node: u32 },
    /// The placement control plane produced decision number `seq`.
    /// `cause` is one of [`PLACEMENT_INITIAL`], [`PLACEMENT_JOIN`],
    /// [`PLACEMENT_LEAVE`]; `node` is the triggering node (`u32::MAX`
    /// for the initial decision). Driver-emitted.
    PlacementDecided { at: f64, cause: u32, node: u32, tenants: u32, live_nodes: u32, seq: u64 },
    /// Tenant-tagged twin of [`ObsEvent::ImageAdmitted`], emitted by the
    /// fleet driver beside it so labeled metrics can attribute
    /// admissions without a per-image tenant lookup.
    TenantAdmit { at: f64, image: u64, tenant: u32, queue_wait: f64 },
    /// Tenant-tagged completion: `zero_filled` of the image's `tiles`
    /// tiles were lost, the rest arrived. Driver-emitted.
    TenantFinish { at: f64, image: u64, tenant: u32, latency: f64, zero_filled: u32, tiles: u32 },
}

/// [`ObsEvent::PlacementDecided`] cause: the run's first decision.
pub const PLACEMENT_INITIAL: u32 = 0;
/// [`ObsEvent::PlacementDecided`] cause: a node (re)joined the roster.
pub const PLACEMENT_JOIN: u32 = 1;
/// [`ObsEvent::PlacementDecided`] cause: a node left the roster.
pub const PLACEMENT_LEAVE: u32 = 2;

/// One payload number of an event, as [`ObsEvent::args_json`] renders it.
#[derive(Clone, Copy)]
enum Num {
    U(u64),
    F(f64),
}

fn u(key: &'static str, v: impl Into<u64>) -> (&'static str, Num) {
    (key, Num::U(v.into()))
}

fn f(key: &'static str, v: f64) -> (&'static str, Num) {
    (key, Num::F(v))
}

/// One event taken apart: what the schema table in `impl ObsEvent` states
/// once per variant and every accessor reads.
struct Parts {
    kind: &'static str,
    /// See [`ObsEvent::is_fleet_scope`].
    fleet: bool,
    at: f64,
    image: Option<u64>,
    tile: Option<u32>,
    worker: Option<u32>,
    node: Option<u32>,
    tenant: Option<u32>,
    /// The payload fields that are not ids, in rendering order.
    rest: [Option<(&'static str, Num)>; 5],
}

impl Parts {
    #[inline(always)]
    fn new<const N: usize>(kind: &'static str, at: f64, rest: [(&'static str, Num); N]) -> Self {
        assert!(N <= 5, "widen Parts::rest");
        let rest = std::array::from_fn(|i| rest.get(i).copied());
        let (image, tile, worker, node, tenant) = (None, None, None, None, None);
        Parts { kind, fleet: false, at, image, tile, worker, node, tenant, rest }
    }
}

/// Generates `ObsEvent::parts`, the one match over the variants. A row is
/// `Variant "kind" scope [ids] [payload];`. The scope is `per_image` or
/// `fleet` ([`ObsEvent::is_fleet_scope`]). The ids are the fields among
/// `image`, `tile`, `worker`, `node`, `tenant` that scope the event: the
/// accessors of those names return them, and `args_json` renders them
/// first, in that order. The payload is every other field but `at`,
/// tagged `u` (integer) or `f` (float), in `args_json` order. A row that
/// leaves a field or the scope out does not compile.
///
/// `#[inline(always)]` is load-bearing: it lets an accessor that reads one
/// field compile to a branch on the discriminant, and the labeled registry
/// routes every event of a fleet's stream on `tenant()` and `worker()`
/// (3 ns an event; 17 ns with plain `#[inline]`, which builds the struct).
macro_rules! event_schema {
    (@fleet per_image) => { false };
    (@fleet fleet) => { true };
    ($($variant:ident $kind:literal $scope:ident [$($id:ident),*] [$($ty:ident $field:ident),*];)*) => {
        #[inline(always)]
        fn parts(&self) -> Parts {
            match *self {
                $(ObsEvent::$variant { at, $($id,)* $($field,)* } => Parts {
                    fleet: event_schema!(@fleet $scope),
                    $($id: Some($id),)*
                    ..Parts::new($kind, at, [$($ty(stringify!($field), $field)),*])
                },)*
            }
        }
    };
}

impl ObsEvent {
    event_schema! {
        ImageStart       "image_start"       per_image [image]               [u tiles, u placed];
        ImageFinish      "image_finish"      per_image [image]               [f latency, u zero_filled, u redispatched];
        TileDispatch     "tile_dispatch"     per_image [image, tile, worker] [];
        TileRedispatch   "tile_redispatch"   per_image [image, tile, worker] [u round];
        TileArrival      "tile_arrival"      per_image [image, tile, worker] [];
        TileDuplicate    "tile_duplicate"    per_image [image, tile, worker] [];
        TileLate         "tile_late"         per_image [image, tile, worker] [];
        TileCorrupt      "tile_corrupt"      per_image [image, tile, worker] [];
        TileZeroFill     "tile_zero_fill"    per_image [image, tile]         [];
        DeadlineArmed    "deadline_armed"    per_image [image]               [f span];
        DeadlineFired    "deadline_fired"    per_image [image]               [];
        WorkerDead       "worker_dead"       per_image [image, worker]       [];
        WorkerSuspect    "worker_suspect"    per_image [image, worker]       [];
        WorkerCleared    "worker_cleared"    per_image [image, worker]       [];
        RateUpdate       "rate_update"       per_image [image, worker]       [f rate];
        TileCompute      "tile_compute"      per_image [image, tile, worker] [f dur];
        TileCompress     "tile_compress"     per_image [image, tile, worker] [f dur, u bytes, f ratio];
        TileTransfer     "tile_transfer"     per_image [image, tile, worker] [f dur];
        ImageAdmitted    "image_admitted"    per_image [image]               [f queue_wait, u inflight];
        ImageRetired     "image_retired"     per_image [image]               [u inflight];
        NodeUp           "node_up"           fleet     [node]                [];
        NodeDown         "node_down"         fleet     [node]                [];
        // `node` is the trigger here, not a scope: payload, after `cause`.
        PlacementDecided "placement_decided" fleet     []                    [u cause, u node, u tenants, u live_nodes, u seq];
        TenantAdmit      "tenant_admit"      fleet     [image, tenant]       [f queue_wait];
        TenantFinish     "tenant_finish"     fleet     [image, tenant]       [f latency, u zero_filled, u tiles];
    }

    /// Stable event-type name (the cross-driver schema the differential
    /// test compares).
    pub fn kind(&self) -> &'static str {
        self.parts().kind
    }

    /// The event's payload as a JSON object (used for Chrome-trace
    /// `args`), rendered through the shared [`json`] helpers.
    pub fn args_json(&self) -> String {
        let p = self.parts();
        let ids = [
            p.image.map(|i| u("image", i)),
            p.tile.map(|t| u("tile", t)),
            p.worker.map(|w| u("worker", w)),
            p.node.map(|n| u("node", n)),
            p.tenant.map(|t| u("tenant", t)),
        ];
        let mut obj = json::Obj::new();
        for (key, v) in ids.into_iter().chain(p.rest).flatten() {
            obj = match v {
                Num::U(v) => obj.u64(key, v),
                Num::F(v) => obj.f64(key, v),
            };
        }
        obj.finish()
    }

    /// The image the event belongs to. Node- and placement-scoped
    /// variants carry no image and return `u64::MAX` — a sentinel no
    /// driver ever assigns, so image-window filters never match them.
    pub fn image(&self) -> u64 {
        self.parts().image.unwrap_or(u64::MAX)
    }

    /// The tile the event concerns, for tile-scoped variants.
    pub fn tile(&self) -> Option<u32> {
        self.parts().tile
    }

    /// The worker (or, for topology events, the node) the event concerns.
    #[inline]
    pub fn worker(&self) -> Option<u32> {
        let p = self.parts();
        p.worker.or(p.node)
    }

    /// The tenant the event is tagged with, for fleet-scope variants.
    #[inline]
    pub fn tenant(&self) -> Option<u32> {
        self.parts().tenant
    }

    /// The event's timestamp on the driver's time axis.
    pub fn at(&self) -> f64 {
        self.parts().at
    }

    /// True for the driver-emitted events that describe the fleet rather
    /// than one image's lifecycle: topology, placement and the
    /// tenant-tagged twins. Per-image decision traces (the goldens, the
    /// cross-driver differentials) skip these.
    #[inline]
    pub fn is_fleet_scope(&self) -> bool {
        self.parts().fleet
    }
}

/// Where structured events go. Implementations must be cheap and
/// thread-safe: workers emit from their own threads concurrently with
/// the Central node.
pub trait EventSink: Send + Sync {
    /// Consume one event.
    fn emit(&self, ev: &ObsEvent);
}

/// A shareable, optionally-absent sink. The default (and
/// [`SinkHandle::null()`]) holds **no** sink at all — no allocation, and
/// `emit_with` compiles down to a branch on `None`. That is the one way
/// to be disabled: an installed sink sees every event.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<Arc<dyn EventSink>>);

impl SinkHandle {
    /// Wrap a shared sink.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        SinkHandle(Some(sink))
    }

    /// Wrap an owned sink (convenience over [`SinkHandle::new`]).
    pub fn of(sink: impl EventSink + 'static) -> Self {
        SinkHandle(Some(Arc::new(sink)))
    }

    /// The disabled handle: events are never constructed.
    pub fn null() -> Self {
        SinkHandle(None)
    }

    /// True when a sink is installed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emit the event produced by `f`, constructing it only if a sink is
    /// installed. This is the only emission path the lifecycle machine
    /// and the drivers use, which is what makes the disabled case free.
    #[inline]
    pub fn emit_with(&self, f: impl FnOnce() -> ObsEvent) {
        if let Some(sink) = &self.0 {
            sink.emit(&f());
        }
    }

    /// A handle feeding both this handle's sink (if any) and `extra`.
    /// A null handle tees to just `extra`; otherwise the two are
    /// wrapped in a [`TeeSink`].
    pub fn tee(&self, extra: Arc<dyn EventSink>) -> SinkHandle {
        match &self.0 {
            None => SinkHandle(Some(extra)),
            Some(s) => SinkHandle(Some(Arc::new(TeeSink::new(vec![s.clone(), extra])))),
        }
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.enabled() { "SinkHandle(installed)" } else { "SinkHandle(none)" })
    }
}

/// Fan-out sink: forwards every event to each child, so metrics + trace
/// + attribution + flight recorder can all observe one run.
pub struct TeeSink {
    children: Vec<Arc<dyn EventSink>>,
}

impl TeeSink {
    /// Fan out to `children` (emit order = vector order).
    pub fn new(children: Vec<Arc<dyn EventSink>>) -> Self {
        TeeSink { children }
    }
}

impl std::fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TeeSink({} children)", self.children.len())
    }
}

impl EventSink for TeeSink {
    fn emit(&self, ev: &ObsEvent) {
        for c in &self.children {
            c.emit(ev);
        }
    }
}

/// Number of log2 buckets in a [`Histogram`] (covers 1 µs … ~35 min).
const HIST_BUCKETS: usize = 32;

/// Lock-free fixed-bucket histogram: bucket `b` counts values `v` (in
/// µs or bytes) with `2^(b-1) ≤ v < 2^b`; bucket 0 counts `v == 0`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one value (relaxed atomics: counters, not synchronization).
    pub fn record(&self, v: u64) {
        let b = (u64::BITS - v.leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Plain-value snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Serializable copy of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Log2 bucket counts (`buckets[b]` holds `2^(b-1) ≤ v < 2^b`).
    pub buckets: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value, if anything was recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Interpolated quantile estimate (`0.0 ≤ q ≤ 1.0`): find the
    /// bucket holding the `q·count`-th recorded value and interpolate
    /// linearly inside its `[2^(b-1), 2^b)` range (bucket 0 holds only
    /// zeros). The log2 buckets bound the error at one bucket width,
    /// so the estimate is within 2× of the true order statistic.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let prev = cum as f64;
            cum += n;
            if cum as f64 >= target {
                if b == 0 {
                    return Some(0.0);
                }
                let lo = 2f64.powi(b as i32 - 1);
                let hi = 2f64.powi(b as i32);
                let frac = ((target - prev) / n as f64).clamp(0.0, 1.0);
                return Some(lo + frac * (hi - lo));
            }
        }
        None // unreachable while count == Σ buckets; defensive
    }

    /// Interpolated median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Interpolated 90th percentile.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// Interpolated 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// Seconds → whole microseconds (the histogram unit).
fn us(seconds: f64) -> u64 {
    (seconds * 1e6).max(0.0) as u64
}

/// One row of the metric schema read off a [`MetricsSnapshot`]: what
/// `to_json` and the Prometheus exposition walk.
pub(crate) struct Series<'a> {
    /// `counter`, `gauge` or `histogram` (the Prometheus `# TYPE`).
    pub kind: &'static str,
    /// The snapshot field, which is also the JSON key.
    pub field: &'static str,
    /// The exposition name, without the `adcnn_` namespace.
    pub name: &'static str,
    /// The exposition `# HELP` text (and the field's doc).
    pub help: &'static str,
    pub value: SeriesValue<'a>,
}

/// A [`Series`] reading.
pub(crate) enum SeriesValue<'a> {
    Scalar(u64),
    Histogram(&'a HistogramSnapshot),
}

/// The metric schema, stated once. A row is
/// `kind field, "exposition_name", "Help text.";`, optionally preceded by
/// further doc lines for the snapshot field. In row order it generates
/// [`MetricsSink`]'s cells, [`MetricsSink::snapshot`], [`MetricsSnapshot`]'s
/// fields (documented by the help text) and `MetricsSnapshot::series`; what
/// an event adds to which cell is `MetricsSink::emit`, written by hand.
macro_rules! metric_schema {
    (@cell histogram) => { Histogram };
    (@cell $scalar:ident) => { AtomicU64 };
    (@plain histogram) => { HistogramSnapshot };
    (@plain $scalar:ident) => { u64 };
    (@read histogram $cell:expr) => { $cell.snapshot() };
    (@read $scalar:ident $cell:expr) => { $cell.load(Ordering::Relaxed) };
    (@value histogram $plain:expr) => { SeriesValue::Histogram(&$plain) };
    (@value $scalar:ident $plain:expr) => { SeriesValue::Scalar($plain) };
    ($($(#[$attr:meta])* $kind:ident $field:ident, $name:literal, $help:literal;)*) => {
        /// Lock-free metrics aggregation: per-event-type counters plus
        /// fixed-bucket histograms for durations, sizes and image latency.
        /// Share one instance across a whole run and [`MetricsSink::snapshot`]
        /// it whenever a consistent-enough view is needed.
        #[derive(Debug, Default)]
        pub struct MetricsSink {
            $($field: metric_schema!(@cell $kind),)*
        }

        impl MetricsSink {
            /// Plain-value, serde-serializable snapshot of every counter and
            /// histogram.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($field: metric_schema!(@read $kind self.$field),)* }
            }
        }

        /// Serializable copy of a [`MetricsSink`]. Counters reconcile against
        /// the per-image outcome: `tiles_zero_filled == Σ zero_filled`,
        /// `tiles_redispatched == Σ redispatched` (absent transport bounces),
        /// `tiles_arrived == Σ (tiles − zero_filled)`.
        #[derive(Clone, Debug, Default, PartialEq, Serialize)]
        pub struct MetricsSnapshot {
            $(#[doc = $help] $(#[$attr])* pub $field: metric_schema!(@plain $kind),)*
        }

        impl MetricsSnapshot {
            /// Every series of the schema with its reading, in row order.
            pub(crate) fn series(&self) -> Vec<Series<'_>> {
                vec![$(Series {
                    kind: stringify!($kind),
                    field: stringify!($field),
                    name: $name,
                    help: $help,
                    value: metric_schema!(@value $kind self.$field),
                },)*]
            }
        }
    };
}

metric_schema! {
    counter images_started, "images_started_total", "Images whose lifecycle began.";
    counter images_finished, "images_finished_total", "Images that completed.";
    counter tiles_dispatched, "tiles_dispatched_total", "Round-0 tile send attempts.";
    counter tiles_redispatched, "tiles_redispatched_total", "Recovery tile send attempts.";
    counter tiles_arrived, "tiles_arrived_total", "Accepted (fresh, decodable) results.";
    counter tiles_duplicate, "tiles_duplicate_total", "Discarded duplicate results.";
    counter tiles_late, "tiles_late_total", "Results after image completion.";
    counter tiles_corrupt, "tiles_corrupt_total", "Results that failed to decode.";
    counter tiles_zero_filled, "tiles_zero_filled_total", "Tiles zero-filled.";
    counter deadlines_armed, "deadlines_armed_total", "Deadline timers armed.";
    counter deadlines_fired, "deadlines_fired_total", "Live deadline firings.";
    counter workers_died, "workers_died_total", "Positively-observed worker deaths.";
    counter workers_suspected, "workers_suspected_total", "Silent-fault suspicions raised.";
    counter workers_cleared, "workers_cleared_total", "Suspicions cleared.";
    counter rate_updates, "rate_updates_total", "Algorithm 2 EWMA observations.";
    counter compressed_bytes, "compressed_bytes_total", "Compressed payload bytes shipped.";
    counter images_admitted, "images_admitted_total", "Images admitted into the pipeline.";
    gauge inflight_depth, "inflight_depth", "Last observed concurrent-image count.";
    /// Churn revivals in the simulator, transport (re)connects in the runtime.
    counter nodes_up, "nodes_up_total", "Node up-transitions observed.";
    /// Churn departures in the simulator, detected disconnects in the runtime.
    counter nodes_down, "nodes_down_total", "Node down-transitions observed.";
    counter placements_decided, "placements_decided_total", "Placement decisions produced.";
    histogram compute_us, "compute_us", "Per-tile prefix compute time, us.";
    histogram compress_us, "compress_us", "Per-tile clip/quantize/RLE time, us.";
    histogram transfer_us, "transfer_us", "Per-tile transfer time, us.";
    histogram image_latency_us, "image_latency_us", "End-to-end image latency, us.";
    histogram compressed_tile_bytes, "compressed_tile_bytes", "Per-tile compressed payload size, bytes.";
    histogram queue_wait_us, "queue_wait_us", "Intake-queue wait before admission, us.";
}

impl EventSink for MetricsSink {
    fn emit(&self, ev: &ObsEvent) {
        match *ev {
            ObsEvent::ImageStart { .. } => {
                self.images_started.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::ImageFinish { latency, .. } => {
                self.images_finished.fetch_add(1, Ordering::Relaxed);
                self.image_latency_us.record(us(latency));
            }
            ObsEvent::TileDispatch { .. } => {
                self.tiles_dispatched.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::TileRedispatch { .. } => {
                self.tiles_redispatched.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::TileArrival { .. } => {
                self.tiles_arrived.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::TileDuplicate { .. } => {
                self.tiles_duplicate.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::TileLate { .. } => {
                self.tiles_late.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::TileCorrupt { .. } => {
                self.tiles_corrupt.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::TileZeroFill { .. } => {
                self.tiles_zero_filled.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::DeadlineArmed { .. } => {
                self.deadlines_armed.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::DeadlineFired { .. } => {
                self.deadlines_fired.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::WorkerDead { .. } => {
                self.workers_died.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::WorkerSuspect { .. } => {
                self.workers_suspected.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::WorkerCleared { .. } => {
                self.workers_cleared.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::RateUpdate { .. } => {
                self.rate_updates.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::TileCompute { dur, .. } => {
                self.compute_us.record(us(dur));
            }
            ObsEvent::TileCompress { dur, bytes, .. } => {
                self.compress_us.record(us(dur));
                self.compressed_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.compressed_tile_bytes.record(bytes);
            }
            ObsEvent::TileTransfer { dur, .. } => {
                self.transfer_us.record(us(dur));
            }
            ObsEvent::ImageAdmitted { queue_wait, inflight, .. } => {
                self.images_admitted.fetch_add(1, Ordering::Relaxed);
                self.queue_wait_us.record(us(queue_wait));
                self.inflight_depth.store(inflight.into(), Ordering::Relaxed);
            }
            ObsEvent::ImageRetired { inflight, .. } => {
                self.inflight_depth.store(inflight.into(), Ordering::Relaxed);
            }
            ObsEvent::NodeUp { .. } => {
                self.nodes_up.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::NodeDown { .. } => {
                self.nodes_down.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::PlacementDecided { .. } => {
                self.placements_decided.fetch_add(1, Ordering::Relaxed);
            }
            // The tenant-tagged twins restate `ImageAdmitted` /
            // `ImageFinish` on the same stream; only a tenant shard of the
            // labeled registry counts them (`fold_tenant`).
            ObsEvent::TenantAdmit { .. } | ObsEvent::TenantFinish { .. } => {}
        }
    }
}

impl MetricsSink {
    /// A fresh, zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold a tenant-tagged twin into this sink's image series, so a
    /// per-tenant shard of [`crate::fleetobs::LabeledMetricsRegistry`]
    /// reads like a whole-run sink fed that tenant's images alone.
    pub(crate) fn fold_tenant(&self, ev: &ObsEvent) {
        match *ev {
            ObsEvent::TenantAdmit { queue_wait, .. } => {
                self.images_admitted.fetch_add(1, Ordering::Relaxed);
                self.queue_wait_us.record(us(queue_wait));
            }
            ObsEvent::TenantFinish { latency, zero_filled, tiles, .. } => {
                self.images_finished.fetch_add(1, Ordering::Relaxed);
                self.image_latency_us.record(us(latency));
                self.tiles_zero_filled.fetch_add(zero_filled.into(), Ordering::Relaxed);
                self.tiles_arrived
                    .fetch_add(u64::from(tiles.saturating_sub(zero_filled)), Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

impl MetricsSnapshot {
    /// Render as JSON by hand — the same field names and shape serde
    /// emits — so metrics export works without a serializer dependency
    /// (the sinks' contract throughout this module). Built on the
    /// shared [`json`] helpers.
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new();
        for s in self.series() {
            obj = match s.value {
                SeriesValue::Scalar(v) => obj.u64(s.field, v),
                SeriesValue::Histogram(h) => obj.raw(
                    s.field,
                    json::Obj::new()
                        .raw("buckets", json::array(h.buckets.iter().map(|b| b.to_string())))
                        .u64("count", h.count)
                        .u64("sum", h.sum)
                        .finish(),
                ),
            };
        }
        obj.finish()
    }
}

/// Records every event verbatim, for inspection in tests and for
/// Chrome-trace export ([`RecordingSink::to_chrome_json`]).
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<ObsEvent>>,
}

impl RecordingSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of everything recorded so far.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.events.lock().expect("recording sink poisoned").clone()
    }

    /// The recorded event-type sequence.
    pub fn kinds(&self) -> Vec<&'static str> {
        self.events().iter().map(|e| e.kind()).collect()
    }

    /// Render the recorded events as Chrome trace JSON (the
    /// `traceEvents` object format): complete (`ph: "X"`) events for the
    /// compute/compress/transfer spans on one track per worker, instant
    /// (`ph: "i"`) events for lifecycle decisions — image and deadline
    /// events on the Central track (tid 0), per-worker events on their
    /// worker's track. The JSON is written by hand (keys and numbers
    /// only, nothing needs escaping) so the sink carries no serializer
    /// dependency. Load the result in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        use json::Obj;
        let events = self.events.lock().expect("recording sink poisoned");
        let mut out: Vec<String> = Vec::with_capacity(events.len() + 8);
        let mut seen_workers: Vec<u32> = Vec::new();
        let thread_meta = |tid: u64, name: &str| {
            Obj::new()
                .str("name", "thread_name")
                .str("ph", "M")
                .u64("pid", 0)
                .u64("tid", tid)
                .raw("args", Obj::new().str("name", name).finish())
                .finish()
        };
        out.push(thread_meta(0, "central"));
        // Trace timestamps are µs at fixed ns precision (raw f64 Display
        // would leak artifacts like 6000.000000000001 into the file); the
        // finite-guard keeps the file loadable even if a driver ever
        // emits a degenerate span.
        let us = |s: f64| format!("{:.3}", if s.is_finite() { s * 1e6 } else { 0.0 });
        let span = |name: &str, ts: String, dur: String, tid: u64, args: String| {
            Obj::new()
                .str("name", name)
                .str("cat", "tile")
                .str("ph", "X")
                .raw("ts", ts)
                .raw("dur", dur)
                .u64("pid", 0)
                .u64("tid", tid)
                .raw("args", args)
                .finish()
        };
        for ev in events.iter() {
            // Topology events name a node but belong on the Central track.
            let worker = ev.worker().filter(|_| !ev.is_fleet_scope());
            let tid = match worker {
                Some(w) => {
                    if !seen_workers.contains(&w) {
                        seen_workers.push(w);
                        out.push(thread_meta(u64::from(w) + 1, &format!("worker {w}")));
                    }
                    u64::from(w) + 1
                }
                None => 0,
            };
            match *ev {
                ObsEvent::TileCompute { at, image, tile, dur, .. } => out.push(span(
                    "compute",
                    us(at - dur),
                    us(dur),
                    tid,
                    Obj::new().u64("image", image).u64("tile", tile.into()).finish(),
                )),
                ObsEvent::TileCompress { at, image, tile, dur, bytes, ratio, .. } => {
                    out.push(span(
                        "compress",
                        us(at - dur),
                        us(dur),
                        tid,
                        Obj::new()
                            .u64("image", image)
                            .u64("tile", tile.into())
                            .u64("bytes", bytes)
                            .f64("ratio", ratio)
                            .finish(),
                    ))
                }
                ObsEvent::TileTransfer { at, image, tile, dur, .. } => out.push(span(
                    "transfer",
                    us(at - dur),
                    us(dur),
                    tid,
                    Obj::new().u64("image", image).u64("tile", tile.into()).finish(),
                )),
                other => out.push(
                    Obj::new()
                        .str("name", other.kind())
                        .str("cat", "lifecycle")
                        .str("ph", "i")
                        .raw("ts", us(other.at()))
                        .u64("pid", 0)
                        .u64("tid", tid)
                        .str("s", "t")
                        .raw("args", other.args_json())
                        .finish(),
                ),
            }
        }
        Obj::new().raw("traceEvents", json::array(out)).str("displayTimeUnit", "ms").finish()
    }

    /// Write the Chrome trace JSON to `path`.
    pub fn write_chrome_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

impl EventSink for RecordingSink {
    fn emit(&self, ev: &ObsEvent) {
        self.events.lock().expect("recording sink poisoned").push(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_never_constructs_events() {
        let sink = SinkHandle::null();
        assert!(!sink.enabled());
        sink.emit_with(|| panic!("closure must not run for a null handle"));
    }

    #[test]
    fn metrics_sink_counts_and_buckets() {
        let m = Arc::new(MetricsSink::new());
        let h = SinkHandle::new(m.clone());
        assert!(h.enabled());
        h.emit_with(|| ObsEvent::ImageStart { at: 0.0, image: 0, tiles: 4, placed: 4 });
        for t in 0..3u32 {
            h.emit_with(|| ObsEvent::TileDispatch { at: 0.0, image: 0, tile: t, worker: 0 });
            h.emit_with(|| ObsEvent::TileArrival { at: 0.01, image: 0, tile: t, worker: 0 });
        }
        h.emit_with(|| ObsEvent::TileZeroFill { at: 0.05, image: 0, tile: 3 });
        h.emit_with(|| ObsEvent::TileCompress {
            at: 0.02,
            image: 0,
            tile: 0,
            worker: 0,
            dur: 0.001,
            bytes: 300,
            ratio: 0.12,
        });
        h.emit_with(|| ObsEvent::ImageFinish {
            at: 0.05,
            image: 0,
            latency: 0.05,
            zero_filled: 1,
            redispatched: 0,
        });
        let s = m.snapshot();
        assert_eq!(s.images_started, 1);
        assert_eq!(s.images_finished, 1);
        assert_eq!(s.tiles_dispatched, 3);
        assert_eq!(s.tiles_arrived, 3);
        assert_eq!(s.tiles_zero_filled, 1);
        assert_eq!(s.compressed_bytes, 300);
        assert_eq!(s.compress_us.count, 1);
        assert_eq!(s.compress_us.sum, 1000);
        assert_eq!(s.image_latency_us.count, 1);
        // 50_000 µs lands in bucket 16 (2^15 ≤ v < 2^16)
        assert_eq!(s.image_latency_us.buckets[16], 1);

        let json = s.to_json();
        assert_balanced_json(&json);
        for field in ["\"tiles_dispatched\":3", "\"compressed_bytes\":300", "\"compute_us\":{"] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }

    /// Structural JSON check, now shared with production code (the
    /// example smoke checks run it in CI): see [`json::is_well_formed`].
    fn assert_balanced_json(s: &str) {
        assert!(json::is_well_formed(s), "malformed JSON: {s}");
    }

    #[test]
    fn admission_events_drive_gauge_and_queue_wait_histogram() {
        let m = Arc::new(MetricsSink::new());
        let h = SinkHandle::new(m.clone());
        h.emit_with(|| ObsEvent::ImageAdmitted { at: 0.0, image: 0, queue_wait: 0.0, inflight: 1 });
        h.emit_with(|| ObsEvent::ImageAdmitted {
            at: 0.1,
            image: 1,
            queue_wait: 0.050,
            inflight: 2,
        });
        let s = m.snapshot();
        assert_eq!(s.images_admitted, 2);
        assert_eq!(s.inflight_depth, 2, "gauge tracks the latest admission");
        assert_eq!(s.queue_wait_us.count, 2);
        // 50_000 µs lands in bucket 16 (2^15 ≤ v < 2^16)
        assert_eq!(s.queue_wait_us.buckets[16], 1);

        h.emit_with(|| ObsEvent::ImageRetired { at: 0.2, image: 0, inflight: 1 });
        let s = m.snapshot();
        assert_eq!(s.inflight_depth, 1, "retirement lowers the gauge");
        assert_eq!(s.queue_wait_us.count, 2, "retirement records no wait");

        let json = s.to_json();
        assert_balanced_json(&json);
        for field in ["\"images_admitted\":2", "\"inflight_depth\":1", "\"queue_wait_us\":{"] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }

    #[test]
    fn json_helpers_escape_and_validate() {
        assert_eq!(json::string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json::string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json::num(f64::NAN), "0");
        assert_eq!(json::num(f64::INFINITY), "0");
        assert_eq!(json::num(0.25), "0.25");
        let obj = json::Obj::new()
            .str("name", "quote \" backslash \\ tab \t newline \n")
            .f64("x", 1.5)
            .f64("bad", f64::NAN)
            .raw("arr", json::array((0..3).map(|i| i.to_string())))
            .finish();
        assert_balanced_json(&obj);
        assert!(obj.contains(r#""x":1.5"#));
        assert!(obj.contains(r#""bad":0"#));
        assert!(obj.contains(r#""arr":[0,1,2]"#));
        assert!(obj.contains(r#"quote \" backslash \\ tab \t newline \n"#));
        // strings with braces/quotes must not confuse the checker
        assert!(json::is_well_formed(&json::string("deep { [ \" nesting")));
        assert!(!json::is_well_formed("{\"unterminated"));
        assert!(!json::is_well_formed("[1,2}}"));
        assert!(!json::is_well_formed("{\"k\":1"));
    }

    #[test]
    fn args_json_stays_well_formed_for_every_variant() {
        let evs = [
            ObsEvent::ImageStart { at: 0.0, image: 1, tiles: 4, placed: 3 },
            ObsEvent::ImageFinish {
                at: 1.0,
                image: 1,
                latency: f64::NAN, // non-finite must not poison the JSON
                zero_filled: 1,
                redispatched: 2,
            },
            ObsEvent::TileRedispatch { at: 0.5, image: 1, tile: 2, worker: 3, round: 1 },
            ObsEvent::RateUpdate { at: 0.5, image: 1, worker: 0, rate: f64::INFINITY },
            ObsEvent::TileCompress {
                at: 0.5,
                image: 1,
                tile: 0,
                worker: 0,
                dur: 0.001,
                bytes: 12,
                ratio: 0.5,
            },
            ObsEvent::ImageAdmitted { at: 0.1, image: 1, queue_wait: f64::NAN, inflight: 3 },
            ObsEvent::ImageRetired { at: 0.9, image: 1, inflight: 2 },
        ];
        for ev in evs {
            let j = ev.args_json();
            assert_balanced_json(&j);
            // Value-position check: a leaked non-finite renders as `:inf` /
            // `:-inf` / `:NaN` (the `inflight` key itself contains "inf").
            assert!(!j.contains("NaN") && !j.contains(":inf") && !j.contains(":-inf"), "{j}");
        }
    }

    /// Every variant, taken apart by hand: the accessors and the exact
    /// `args_json` rendering are the schema every reader (recorder
    /// filters, labeled routing, Chrome traces, forensic dumps) keys on.
    #[test]
    fn event_schema_is_pinned() {
        type Row =
            (ObsEvent, &'static str, f64, u64, Option<u32>, Option<u32>, Option<u32>, &'static str);
        let none = u64::MAX;
        let rows: [Row; 25] = [
            (
                ObsEvent::ImageStart { at: 0.5, image: 7, tiles: 4, placed: 3 },
                "image_start",
                0.5,
                7,
                None,
                None,
                None,
                r#"{"image":7,"tiles":4,"placed":3}"#,
            ),
            (
                ObsEvent::ImageFinish {
                    at: 1.5,
                    image: 7,
                    latency: 0.25,
                    zero_filled: 1,
                    redispatched: 2,
                },
                "image_finish",
                1.5,
                7,
                None,
                None,
                None,
                r#"{"image":7,"latency":0.25,"zero_filled":1,"redispatched":2}"#,
            ),
            (
                ObsEvent::TileDispatch { at: 0.125, image: 8, tile: 2, worker: 5 },
                "tile_dispatch",
                0.125,
                8,
                Some(2),
                Some(5),
                None,
                r#"{"image":8,"tile":2,"worker":5}"#,
            ),
            (
                ObsEvent::TileRedispatch { at: 0.75, image: 8, tile: 2, worker: 6, round: 1 },
                "tile_redispatch",
                0.75,
                8,
                Some(2),
                Some(6),
                None,
                r#"{"image":8,"tile":2,"worker":6,"round":1}"#,
            ),
            (
                ObsEvent::TileArrival { at: 0.875, image: 9, tile: 3, worker: 1 },
                "tile_arrival",
                0.875,
                9,
                Some(3),
                Some(1),
                None,
                r#"{"image":9,"tile":3,"worker":1}"#,
            ),
            (
                ObsEvent::TileDuplicate { at: 1.0, image: 9, tile: 3, worker: 2 },
                "tile_duplicate",
                1.0,
                9,
                Some(3),
                Some(2),
                None,
                r#"{"image":9,"tile":3,"worker":2}"#,
            ),
            (
                ObsEvent::TileLate { at: 1.25, image: 9, tile: 0, worker: 3 },
                "tile_late",
                1.25,
                9,
                Some(0),
                Some(3),
                None,
                r#"{"image":9,"tile":0,"worker":3}"#,
            ),
            (
                ObsEvent::TileCorrupt { at: 1.375, image: 10, tile: 1, worker: 0 },
                "tile_corrupt",
                1.375,
                10,
                Some(1),
                Some(0),
                None,
                r#"{"image":10,"tile":1,"worker":0}"#,
            ),
            (
                ObsEvent::TileZeroFill { at: 2.0, image: 10, tile: 15 },
                "tile_zero_fill",
                2.0,
                10,
                Some(15),
                None,
                None,
                r#"{"image":10,"tile":15}"#,
            ),
            (
                ObsEvent::DeadlineArmed { at: 2.5, image: 11, span: 0.03 },
                "deadline_armed",
                2.5,
                11,
                None,
                None,
                None,
                r#"{"image":11,"span":0.03}"#,
            ),
            (
                ObsEvent::DeadlineFired { at: 2.53, image: 11 },
                "deadline_fired",
                2.53,
                11,
                None,
                None,
                None,
                r#"{"image":11}"#,
            ),
            (
                ObsEvent::WorkerDead { at: 3.0, image: 12, worker: 4 },
                "worker_dead",
                3.0,
                12,
                None,
                Some(4),
                None,
                r#"{"image":12,"worker":4}"#,
            ),
            (
                ObsEvent::WorkerSuspect { at: 3.5, image: 12, worker: 5 },
                "worker_suspect",
                3.5,
                12,
                None,
                Some(5),
                None,
                r#"{"image":12,"worker":5}"#,
            ),
            (
                ObsEvent::WorkerCleared { at: 3.75, image: 12, worker: 5 },
                "worker_cleared",
                3.75,
                12,
                None,
                Some(5),
                None,
                r#"{"image":12,"worker":5}"#,
            ),
            (
                ObsEvent::RateUpdate { at: 4.0, image: 13, worker: 2, rate: 12.5 },
                "rate_update",
                4.0,
                13,
                None,
                Some(2),
                None,
                r#"{"image":13,"worker":2,"rate":12.5}"#,
            ),
            (
                ObsEvent::TileCompute { at: 4.5, image: 14, tile: 6, worker: 1, dur: 0.004 },
                "tile_compute",
                4.5,
                14,
                Some(6),
                Some(1),
                None,
                r#"{"image":14,"tile":6,"worker":1,"dur":0.004}"#,
            ),
            (
                ObsEvent::TileCompress {
                    at: 4.625,
                    image: 14,
                    tile: 6,
                    worker: 1,
                    dur: 0.001,
                    bytes: 120,
                    ratio: 0.125,
                },
                "tile_compress",
                4.625,
                14,
                Some(6),
                Some(1),
                None,
                r#"{"image":14,"tile":6,"worker":1,"dur":0.001,"bytes":120,"ratio":0.125}"#,
            ),
            (
                ObsEvent::TileTransfer { at: 4.75, image: 14, tile: 6, worker: 1, dur: 0.002 },
                "tile_transfer",
                4.75,
                14,
                Some(6),
                Some(1),
                None,
                r#"{"image":14,"tile":6,"worker":1,"dur":0.002}"#,
            ),
            (
                ObsEvent::ImageAdmitted { at: 5.0, image: 15, queue_wait: 0.05, inflight: 3 },
                "image_admitted",
                5.0,
                15,
                None,
                None,
                None,
                r#"{"image":15,"queue_wait":0.05,"inflight":3}"#,
            ),
            (
                ObsEvent::ImageRetired { at: 5.5, image: 15, inflight: 2 },
                "image_retired",
                5.5,
                15,
                None,
                None,
                None,
                r#"{"image":15,"inflight":2}"#,
            ),
            (
                ObsEvent::NodeUp { at: 6.0, node: 9 },
                "node_up",
                6.0,
                none,
                None,
                Some(9),
                None,
                r#"{"node":9}"#,
            ),
            (
                ObsEvent::NodeDown { at: 6.5, node: 9 },
                "node_down",
                6.5,
                none,
                None,
                Some(9),
                None,
                r#"{"node":9}"#,
            ),
            (
                ObsEvent::PlacementDecided {
                    at: 7.0,
                    cause: PLACEMENT_LEAVE,
                    node: 3,
                    tenants: 2,
                    live_nodes: 5,
                    seq: 41,
                },
                "placement_decided",
                7.0,
                none,
                None,
                None,
                None,
                r#"{"cause":2,"node":3,"tenants":2,"live_nodes":5,"seq":41}"#,
            ),
            (
                ObsEvent::TenantAdmit { at: 7.5, image: 16, tenant: 1, queue_wait: 0.5 },
                "tenant_admit",
                7.5,
                16,
                None,
                None,
                Some(1),
                r#"{"image":16,"tenant":1,"queue_wait":0.5}"#,
            ),
            (
                ObsEvent::TenantFinish {
                    at: 8.0,
                    image: 16,
                    tenant: 1,
                    latency: 0.375,
                    zero_filled: 1,
                    tiles: 4,
                },
                "tenant_finish",
                8.0,
                16,
                None,
                None,
                Some(1),
                r#"{"image":16,"tenant":1,"latency":0.375,"zero_filled":1,"tiles":4}"#,
            ),
        ];
        let mut kinds = std::collections::HashSet::new();
        for (ev, kind, at, image, tile, worker, tenant, args) in rows {
            assert!(kinds.insert(kind), "{kind} listed twice: a variant is missing");
            assert_eq!(ev.kind(), kind);
            assert_eq!(ev.at(), at, "{kind}");
            assert_eq!(ev.image(), image, "{kind}");
            assert_eq!(ev.tile(), tile, "{kind}");
            assert_eq!(ev.worker(), worker, "{kind}");
            assert_eq!(ev.tenant(), tenant, "{kind}");
            assert_eq!(ev.args_json(), args, "{kind}");
        }
    }

    /// `to_json` renders the schema in table order; downstream result
    /// files and dashboards key on it.
    #[test]
    fn metrics_json_key_order_is_pinned() {
        let json = MetricsSnapshot::default().to_json();
        let keys: Vec<&str> = json
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|k| !matches!(*k, "buckets" | "count" | "sum"))
            .collect();
        assert_eq!(
            keys,
            [
                "images_started",
                "images_finished",
                "tiles_dispatched",
                "tiles_redispatched",
                "tiles_arrived",
                "tiles_duplicate",
                "tiles_late",
                "tiles_corrupt",
                "tiles_zero_filled",
                "deadlines_armed",
                "deadlines_fired",
                "workers_died",
                "workers_suspected",
                "workers_cleared",
                "rate_updates",
                "compressed_bytes",
                "images_admitted",
                "inflight_depth",
                "nodes_up",
                "nodes_down",
                "placements_decided",
                "compute_us",
                "compress_us",
                "transfer_us",
                "image_latency_us",
                "compressed_tile_bytes",
                "queue_wait_us",
            ]
        );
        // An empty histogram renders as an object with the three sub-keys.
        assert!(json.ends_with(r#""queue_wait_us":{"buckets":[],"count":0,"sum":0}}"#), "{json}");
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        let close = |a: Option<f64>, b: f64| {
            let a = a.expect("quantile of non-empty histogram");
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        };
        // 100 values of 1000 all land in bucket 10 = [512, 1024)
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(1000);
        }
        let s = h.snapshot();
        close(s.p50(), 768.0); // 512 + 0.50·512
        close(s.p90(), 972.8); // 512 + 0.90·512
        close(s.p99(), 1018.88); // 512 + 0.99·512
        close(s.quantile(0.0), 512.0);

        // half zeros, half 100s (bucket 7 = [64, 128))
        let h = Histogram::default();
        for _ in 0..50 {
            h.record(0);
            h.record(100);
        }
        let s = h.snapshot();
        close(s.p50(), 0.0);
        close(s.p90(), 115.2); // 64 + 0.8·64: the 40th of 50 in-bucket
        assert_eq!(HistogramSnapshot::default().p50(), None);
    }

    #[test]
    fn tee_fans_out_and_stays_disabled_when_children_are() {
        let m = Arc::new(MetricsSink::new());
        let r = Arc::new(RecordingSink::new());
        let h = SinkHandle::new(m.clone()).tee(r.clone());
        assert!(h.enabled());
        h.emit_with(|| ObsEvent::ImageStart { at: 0.0, image: 7, tiles: 1, placed: 1 });
        assert_eq!(m.snapshot().images_started, 1);
        assert_eq!(r.kinds(), vec!["image_start"]);

        // teeing onto a null handle installs just the extra sink
        let h2 = SinkHandle::null().tee(r.clone());
        assert!(h2.enabled());
        h2.emit_with(|| ObsEvent::DeadlineFired { at: 0.1, image: 7 });
        assert_eq!(r.events().len(), 2);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_worker_tracks() {
        let t = Arc::new(RecordingSink::new());
        let h = SinkHandle::new(t.clone());
        h.emit_with(|| ObsEvent::ImageStart { at: 0.0, image: 0, tiles: 2, placed: 2 });
        h.emit_with(|| ObsEvent::TileCompute {
            at: 0.010,
            image: 0,
            tile: 0,
            worker: 1,
            dur: 0.004,
        });
        h.emit_with(|| ObsEvent::TileCompress {
            at: 0.011,
            image: 0,
            tile: 0,
            worker: 1,
            dur: 0.001,
            bytes: 120,
            ratio: 0.25,
        });
        let json = t.to_chrome_json();
        assert_balanced_json(&json);
        assert!(json.starts_with(r#"{"traceEvents":["#));
        // spans are complete events on worker 1's track (tid 2), with
        // ts = (at - dur) in µs
        assert!(
            json.contains(
                r#""name":"compute","cat":"tile","ph":"X","ts":6000.000,"dur":4000.000,"pid":0,"tid":2"#
            ),
            "{json}"
        );
        assert!(json.contains(r#""name":"compress"#));
        assert!(json.contains(r#""bytes":120"#));
        // lifecycle decisions are instants; image events sit on the
        // central track
        assert!(
            json.contains(
                r#""name":"image_start","cat":"lifecycle","ph":"i","ts":0.000,"pid":0,"tid":0"#
            ),
            "{json}"
        );
        // both tracks are named
        assert!(json.contains(
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"central"}}"#
        ));
        assert!(json.contains(r#""args":{"name":"worker 1"}"#));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[11], 1);
        assert_eq!(s.mean(), Some(206.0));
    }
}
