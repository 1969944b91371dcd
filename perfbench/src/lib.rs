//! End-to-end and per-layer benchmark of the H² stack. See README.md for
//! the workloads, the metrics and what each layer metric should move.

pub mod compare;
mod exact;
pub mod host;
mod layers;
pub mod metrics;
mod rng;
mod schedule;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;
