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
//! This crate models those cores at the *timing* level: a cycle-stepped
//! engine ([`engine::CoreEngine`]) issues RV32IM_Zicsr micro-ops through
//! one executor, `CoreEngine::issue`, which applies each op's semantics
//! and charges its latency, memory-port occupancy, branch/mispredict
//! penalty and profile attribution according to a per-core
//! [`timing::TimingParams`]; the per-cycle interpreter and
//! translated-block dispatch ([`blockcache`]) both drive it. The engine
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
mod exec;
pub mod fault;
pub mod golden;
pub mod models;
pub mod profile;
pub mod state;
pub mod timing;

pub use coproc::{Coprocessor, Gate, NullCoprocessor};
pub use counters::CoreCounters;
pub use csrs::Csrs;
pub use engine::{BatchExit, BlockStats, CoreEngine, CoreEvent, DataBus, SramBus, StopReason};
pub use fault::{fault_code_name, FaultEvent, FaultKind, FaultPlan, FaultTargets};
pub use golden::{GoldenCore, GoldenStep};
pub use models::{make_engine, CoreKind};
pub use profile::{hot_block_report, hot_block_report_with_blocks, HotBlock, PcProfile};
pub use state::{ArchState, Bank};
pub use timing::TimingParams;
