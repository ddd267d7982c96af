//! # llhj-sim — discrete-event multicore simulator for handshake joins
//!
//! This crate is the experimental substrate that replaces the 48-core AMD
//! Opteron "Magny Cours" machine of the paper's evaluation.  It executes
//! the real node state machines from `llhj-core` on a simulated pipeline of
//! `n` cores connected by FIFO links, charging virtual time according to a
//! calibrated [`CostModel`]:
//!
//! * [`engine::run_simulation`] — exact event-driven simulation (real
//!   predicate evaluations, used for correctness and latency experiments)
//!   of a fixed-width chain;
//! * [`elastic::run_elastic_simulation`] — the same run with mid-run
//!   grow/shrink reconfigurations, mirroring the threaded runtime's
//!   fence-and-handoff protocol in virtual time.  It is the simulator's
//!   one driver and event loop: `run_simulation` is this with an empty
//!   plan;
//! * [`throughput::max_sustainable_rate`] — binary search for the maximum
//!   sustainable input rate, the methodology behind Figure 17;
//! * [`model::AnalyticModel`] — closed-form utilization model used to
//!   extrapolate to the paper's full-scale operating points (15-minute
//!   windows) that are too expensive to simulate tuple-by-tuple.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod cost;
pub mod elastic;
pub mod engine;
pub mod mesh;
pub mod model;
pub mod report;
pub mod throughput;

pub use config::{Algorithm, SimConfig};
pub use cost::{CostModel, SimNanos};
pub use elastic::{
    recover_simulation, run_autoscaled_simulation, run_checkpointed_simulation,
    run_elastic_simulation, ElasticSimReport, SimCheckpoint, SimCheckpointEvent, SimResizeEvent,
};
pub use engine::run_simulation;
pub use mesh::{
    max_sustainable_mesh_rate, recover_mesh_simulation, run_checkpointed_mesh_simulation,
    run_mesh_simulation, MeshSimReport, SimMeshCheckpoint, SimReshardEvent,
};
pub use model::AnalyticModel;
pub use report::SimReport;
pub use throughput::{max_sustainable_rate, ThroughputResult, ThroughputSearch};
