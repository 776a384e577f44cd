//! # adcnn
//!
//! Facade crate for the ADCNN reproduction (Zhang, Lin & Zhang, *Adaptive
//! Distributed Convolutional Neural Network Inference at the Network Edge
//! with ADCNN*, ICPP 2020).
//!
//! Re-exports the workspace crates under stable module names so downstream
//! users depend on one crate:
//!
//! - [`tensor`] — dense f32 tensors and CNN primitives (fwd + bwd).
//! - [`nn`] — layers, networks, the model zoo descriptors and cost model.
//! - [`core`] — the paper's contribution: FDSP partitioning, the
//!   clipped-ReLU/quantize/RLE compression pipeline, and the Central-node
//!   scheduling algorithms.
//! - [`netsim`] — deterministic discrete-event edge-cluster simulator plus
//!   the baseline schemes (single-device, remote-cloud, Neurosurgeon, AOFL).
//! - [`runtime`] — the real multi-threaded ADCNN runtime.
//! - [`retrain`] — synthetic datasets and Algorithm 1 progressive retraining.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use adcnn_core as core;
pub use adcnn_netsim as netsim;
pub use adcnn_nn as nn;
pub use adcnn_retrain as retrain;
pub use adcnn_runtime as runtime;
pub use adcnn_tensor as tensor;

/// One-import surface for the common user-facing types.
///
/// ```
/// use adcnn::prelude::*;
///
/// let cfg = RuntimeConfig { gamma: 0.5, ..Default::default() };
/// cfg.validate().unwrap();
/// assert_eq!(cfg.gamma, 0.5);
/// ```
pub mod prelude {
    pub use adcnn_core::config::ConfigError;
    pub use adcnn_core::fdsp::TileGrid;
    pub use adcnn_core::lifecycle::{LifecyclePolicy, TimerPolicy};
    pub use adcnn_core::obs::{
        EventSink, MetricsSink, MetricsSnapshot, ObsEvent, RecordingSink, SinkHandle, TeeSink,
    };
    pub use adcnn_core::report::{
        AttributionAggregate, AttributionSink, FlightRecorderSink, ForensicReport, ImageReport,
        Reporter, ReporterSample, TileReport,
    };
    pub use adcnn_netsim::cluster::{AdcnnSim, AdcnnSimConfig, SimSummary};
    pub use adcnn_netsim::{
        plan_deployment, plan_placement, AllNodesPlacement, ArrivalSpec, ChurnPlan, FleetConfig,
        FleetSim, FleetSummary, GreedyPlacement, PinnedPlacement, PlacementDecision,
        PlacementInput, PlacementPolicy, SimNode, TenantAssignment, TenantSpec,
    };
    pub use adcnn_nn::zoo::{alexnet, resnet18, resnet34, vgg16, yolo, ModelSpec};
    pub use adcnn_retrain::PartitionedModel;
    pub use adcnn_runtime::central::{
        AdcnnRuntime, InferHandle, InferOutcome, RuntimeConfig, RuntimeConfigBuilder,
    };
    pub use adcnn_runtime::transport::{Endpoint, RemoteModelSpec, WorkerListener};
    pub use adcnn_runtime::worker::{WorkerOptions, WorkerOptionsBuilder};
    pub use adcnn_tensor::Tensor;
}
