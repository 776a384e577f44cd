//! # adcnn-core
//!
//! The ADCNN paper's primary contribution, as a library:
//!
//! - [`fdsp`] — **Fully Decomposable Spatial Partition** (§3.2): tile
//!   geometry, tile extraction/stacking, and output reassembly. The key
//!   trick is that a tile convolved with ordinary zero padding behaves
//!   exactly as FDSP prescribes, so tiles can be processed as independent
//!   batch items with no cross-tile communication at all.
//! - [`partition`] — the §3.1 analysis of the alternative strategies
//!   (batch, channel, spatial-with-halo) with their communication costs,
//!   plus receptive-field/halo arithmetic shared with the AOFL baseline.
//! - [`halo`] — an *executable* halo-exchange spatial partition (Figure
//!   4(c)): bit-exact distributed convolution with measured cross-tile
//!   traffic, the baseline FDSP eliminates.
//! - [`channel_part`] — executable channel partitioning with measured
//!   all-reduce traffic (§3.1's other strawman).
//! - [`compress`] — the §4 communication-reduction pipeline: clipped
//!   `ReLU[a,b]` (re-exported from `adcnn-tensor`), a 4-bit linear
//!   quantizer, and a nibble-oriented run-length codec, with exact byte
//!   accounting and an analytic wire-size model for the simulator.
//! - [`wire`] — the Central↔Conv node message format (image id, tile id,
//!   payload), §6.1.
//! - [`sched`] — Algorithm 2 (EWMA statistics collection) and Algorithm 3
//!   (greedy min-makespan tile allocation with storage constraints).
//! - [`lifecycle`] — the clock-agnostic, sans-IO tile-lifecycle state
//!   machine (§6.3 timeout/zero-fill policy plus speculative re-dispatch)
//!   for one image.
//! - [`pipeline`] — the multi-image machine above it (the statistics
//!   collection block of Figure 8): admission, Algorithms 2 and 3, worker
//!   liveness; driven by both the real runtime and the network simulator.
//! - [`obs`] — structured observability: the zero-cost-when-disabled
//!   [`obs::EventSink`] layer both drivers mirror lifecycle decisions
//!   into, with metrics and recording (Chrome-trace) sinks built in.
//! - [`report`] — forensic observability on top of [`obs`]: per-image
//!   critical-path attribution, a bounded flight recorder with
//!   anomaly dumps, Prometheus exposition and live metrics reporting.
//! - [`fleetobs`] — fleet-scope observability on top of [`obs`]:
//!   tenant/node-labeled metrics shards and SLO burn-rate tracking.
//! - [`config`] — typed validation ([`config::ConfigError`]) behind the
//!   builder-based config surface of every crate in the workspace.

pub mod channel_part;
pub mod compress;
pub mod config;
pub mod fdsp;
pub mod fleetobs;
pub mod halo;
pub mod lifecycle;
pub mod obs;
pub mod partition;
pub mod pipeline;
pub mod report;
pub mod sched;
pub mod wire;

pub use compress::{CompressScratch, Quantizer, RleCodec};
pub use config::ConfigError;
pub use fdsp::TileGrid;
pub use fleetobs::{LabeledMetricsRegistry, SloReport, SloSpec, SloTracker};
pub use lifecycle::{LifecyclePolicy, TileLifecycle, TimerPolicy};
pub use obs::{
    EventSink, MetricsSink, MetricsSnapshot, ObsEvent, RecordingSink, SinkHandle, TeeSink,
};
pub use pipeline::{Pipeline, Split};
pub use report::{
    AttributionAggregate, AttributionSink, FlightRecorderSink, ForensicReport, ImageReport,
    Reporter, ReporterSample, TileReport,
};
pub use sched::{StatsCollector, TileAllocator};

/// Re-export of the clipped ReLU activation the compression pipeline starts
/// with (§4.1).
pub use adcnn_tensor::activ::ClippedRelu;
