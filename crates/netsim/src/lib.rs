//! # adcnn-netsim
//!
//! Deterministic discrete-event simulator standing in for the paper's
//! physical testbed (a WiFi cluster of Raspberry Pi 3B+ devices plus an EC2
//! p3.2xlarge "cloud"). It reuses the *actual* scheduling code from
//! [`adcnn_core`] (Algorithms 2 and 3) and the cost model from
//! [`adcnn_nn::cost`], so the simulated Central node takes exactly the
//! decisions the real runtime takes — only compute and transfer durations
//! are modeled instead of executed.
//!
//! Modules:
//! - `engine` (crate-internal) — minimal event queue, FIFO resources,
//!   throttleable CPUs; its one public-facing type is re-exported as
//!   [`ThrottleSchedule`].
//! - [`profiles`] — calibrated bandwidths, device profiles and per-model
//!   compression sparsities (Table 2).
//! - [`fleet`] — the multi-tenant, churn-aware fleet driver: one shared
//!   cluster serving N models at O(events · log events) with streaming
//!   aggregates (bounded memory at millions of virtual requests).
//! - [`arrivals`] — seeded request-arrival processes in virtual time
//!   (closed-loop, Poisson, bursty MMPP, trace replay).
//! - [`churn`] — node join/leave schedules and diurnal speed curves,
//!   composed onto per-node [`ThrottleSchedule`]s.
//! - [`tenancy`] — per-model tenant specs and the weighted-fair
//!   admission scheduler.
//! - [`cluster`] — the single-model ADCNN cluster simulation (Figures
//!   11–13, 15, Table 3): [`AdcnnSim`] is a one-tenant run of the fleet
//!   driver.
//! - [`schemes`] — the comparison schemes: single-device, remote-cloud,
//!   Neurosurgeon and AOFL (Figures 11, 14).
//! - [`power`] — the energy/memory model behind Figure 13's right panel.
//! - [`placement`] — tenant-to-node placement policies over the fleet
//!   (all-nodes baseline, greedy throughput bin-packing, pinned), with
//!   a cost oracle built on the shared-channel saturation model.
//! - [`planner`] — a deployment planner that jointly picks the partition
//!   grid and split depth under an operator accuracy floor (the paper's
//!   §7.2 closing suggestion, as an API).

pub mod arrivals;
pub mod churn;
pub mod cluster;
pub(crate) mod engine;
pub mod fleet;
pub mod placement;
pub mod planner;
pub mod power;
pub mod profiles;
pub mod schemes;
pub mod tenancy;

pub use adcnn_core::config::ConfigError;
pub use adcnn_core::fleetobs::{LabeledMetricsRegistry, SloReport, SloSpec};
pub use adcnn_core::obs::SinkHandle;
pub use adcnn_core::report::{AttributionSink, FlightRecorderSink, ImageReport};
pub use arrivals::{ArrivalGen, ArrivalSpec};
pub use churn::ChurnPlan;
pub use cluster::{
    AdcnnSim, AdcnnSimConfig, ImageStats, LifecyclePolicy, SimNode, SimSummary, ThrottleSchedule,
    TimerPolicy,
};
pub use fleet::{FleetConfig, FleetSim, FleetSummary, TenantSummary};
pub use placement::{
    AllNodesPlacement, CostOracle, GreedyPlacement, PinnedPlacement, PlacementDecision,
    PlacementInput, PlacementPolicy, TenantAssignment,
};
pub use planner::{plan_deployment, plan_placement, Candidate, Plan};
pub use profiles::LinkParams;
pub use tenancy::{FairScheduler, TenantSpec};
