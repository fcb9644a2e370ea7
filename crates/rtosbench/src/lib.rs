//! RTOSBench-style workloads and the campaign executor that measures them
//! (§6.1).
//!
//! The paper evaluates context-switch latency with "20 iterations of all
//! tests provided by the RISC-V port of RTOSBench". This crate provides
//! seven workloads exercising the same kernel paths:
//!
//! | Workload | Kernel path exercised |
//! |---|---|
//! | [`pingpong_semaphore`](workloads::ALL) | semaphore handoff, voluntary yields |
//! | `roundrobin_yield` | time slicing across equal priorities |
//! | `mutex_workload` | lock contention (also drives the power model, Fig. 13) |
//! | `delay_periodic` | delay-list insertion/expiry on timer ticks |
//! | `interrupt_latency` | deferred external-interrupt handling (§1) |
//! | `queue_burst` | counting semaphores, give-without-switch bursts |
//! | `priority_chain` | back-to-back preemptions across three priorities |
//!
//! Every run goes through the [`campaign`] executor: a [`CampaignSpec`]
//! lists `(core, preset, workload)` cells, [`CampaignSpec::run`] executes
//! them (one cell at a time through [`campaign::execute_run`]) and filters
//! each cell's [`SwitchRecord`](rtosunit::SwitchRecord)s with
//! [`runner::filter_episodes`]. [`Campaign::pooled_stats`] pools a
//! `(core, preset)` cell's latencies across the suite into the
//! mean/min/max/jitter rows of Fig. 9.

pub mod campaign;
pub mod perfdiff;
pub mod runner;
pub mod tail;
pub mod workloads;

pub use campaign::{
    execute_run, Campaign, CampaignSpec, ConfigOverride, FailureKind, FilterPolicy, RunFailure,
    RunOutcome, RunSpec, SimOutcome, WarmStart, WorkloadSpec,
};
pub use perfdiff::{compare, DiffOptions, DiffReport, MetricDelta};
pub use rvsim_snapshot::json;
pub use rvsim_snapshot::Json;
pub use workloads::{Workload, ALL as WORKLOADS};
