//! RTOSBench-style workloads and the experiment campaigns that measure
//! them (§6.1).
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
//! | `queue_burst` | counting semaphores, repeated give-without-switch |
//! | `priority_chain` | back-to-back preemptions through three priority levels |
//!
//! Every simulated run goes through [`campaign`]: [`campaign::boot`] turns
//! a [`RunSpec`] into a booted system, [`campaign::simulate`] runs it and
//! reduces its filtered [`SwitchRecord`](rtosunit::SwitchRecord)s to a
//! [`SimOutcome`] (a latency and a cause per episode, plus histograms),
//! and [`Fig9Row::pool`] aggregates the mean/min/max/jitter rows of Fig. 9.

pub mod campaign;
pub mod report;
pub mod runner;
pub mod tail;
pub mod workloads;

pub use campaign::{
    Campaign, CampaignJson, CampaignSpec, ConfigOverride, FailureKind, FilterPolicy, RunFailure,
    RunOutcome, RunSpec, SimOutcome, WorkloadSpec,
};
pub use runner::{run_workload, Fig9Row};
pub use rvsim_snapshot::json;
pub use rvsim_snapshot::Json;
pub use workloads::{Workload, ALL as WORKLOADS};
