//! One benchmark for simulator speed and simulated context-switch
//! latency: four workloads run through the public campaign API, end-to-end
//! metrics from timed passes, per-layer metrics from a traced replay.
//! See `README.md` in this directory for the metrics and workloads.

pub mod bench;
pub mod check;
pub mod host;
pub mod layers;
pub mod mirror;
pub mod probe;
pub mod stats;
pub mod workload;
