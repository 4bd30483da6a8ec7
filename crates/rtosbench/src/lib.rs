//! RTOSBench-style workloads and the latency measurement runner (§6.1).
//!
//! The paper evaluates context-switch latency with "20 iterations of all
//! tests provided by the RISC-V port of RTOSBench". This crate provides
//! five workloads exercising the same kernel paths:
//!
//! | Workload | Kernel path exercised |
//! |---|---|
//! | [`pingpong_semaphore`](workloads::ALL) | semaphore handoff, voluntary yields |
//! | `roundrobin_yield` | time slicing across equal priorities |
//! | `mutex_workload` | lock contention (also drives the power model, Fig. 13) |
//! | `delay_periodic` | delay-list insertion/expiry on timer ticks |
//! | `interrupt_latency` | deferred external-interrupt handling (§1) |
//!
//! The [`runner`] executes a workload on a `(core, preset)` pair, collects
//! the [`SwitchRecord`](rtosunit::SwitchRecord)s, and aggregates the
//! mean/min/max/jitter rows of Fig. 9.

pub mod campaign;
pub mod perfdiff;
pub mod report;
pub mod runner;
pub mod tail;
pub mod workloads;

pub use campaign::{
    Campaign, CampaignSpec, ConfigOverride, FailureKind, FilterPolicy, RunFailure, RunOutcome,
    RunSpec, SimOutcome, WorkloadSpec,
};
pub use perfdiff::{compare, DiffOptions, DiffReport, MetricDelta};
pub use runner::{run_suite, run_workload, run_workload_with, Fig9Row, RunResult};
pub use rvsim_snapshot::json;
pub use rvsim_snapshot::Json;
pub use workloads::{Workload, ALL as WORKLOADS};
