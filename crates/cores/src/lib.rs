//! Cycle-stepped RISC-V core timing models for the RTOSUnit reproduction.
//!
//! The paper integrates its RTOSUnit into three RISC-V cores of increasing
//! complexity (§3, §5):
//!
//! 1. **CV32E40P** — microcontroller-class, 4-stage in-order pipeline,
//! 2. **CVA6** — application-class, 6-stage, in-order issue with
//!    out-of-order write-back and a write-through cache,
//! 3. **NaxRiscv** — superscalar out-of-order with register renaming,
//!    speculation and a write-back cache.
//!
//! This crate models those cores at the *timing* level: a shared functional
//! executor ([`exec`]) provides RV32IM_Zicsr semantics, and a cycle-stepped
//! engine ([`engine::CoreEngine`]) charges per-instruction latencies,
//! memory-port occupancy, branch/mispredict penalties and interrupt-entry
//! flushes according to a per-core [`timing::TimingParams`]. The engine
//! talks to an attached accelerator through the [`coproc::Coprocessor`]
//! trait; the RTOSUnit itself lives in the `rtosunit` crate.
//!
//! Fidelity notes are in `DESIGN.md` §5: the models reproduce the paper's
//! measurement (cycles from interrupt trigger to `mret`) and its jitter
//! sources, not the exact RTL microarchitecture.

pub mod blockcache;
pub mod coproc;
pub mod counters;
pub mod csrs;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod golden;
pub mod models;
pub mod profile;
pub mod state;
pub mod timing;

pub use coproc::{Coprocessor, NullCoprocessor};
pub use counters::CoreCounters;
pub use csrs::Csrs;
pub use engine::{
    BatchExit, BlockStats, CoreEngine, CoreEvent, DataBus, SramBus, StepOutput, StopReason,
};
pub use fault::{fault_code_name, FaultEvent, FaultKind, FaultPlan, FaultTargets};
pub use golden::{GoldenCore, GoldenStep};
pub use models::{make_engine, CoreKind};
pub use profile::{hot_block_report, hot_block_report_with_blocks, HotBlock, PcProfile};
pub use state::{ArchState, Bank};
pub use timing::TimingParams;
