//! Differential fuzzing and invariant harness for the RTOSUnit
//! reproduction.
//!
//! Every number the experiment stack produces is a cycle count measured on
//! the simulated cores running the simulated kernel — a silent
//! architectural or scheduling bug shifts results without failing a
//! latency test. This crate is the verification substrate (DESIGN.md §9):
//!
//! * [`lockstep`] — each timing engine runs constrained random programs
//!   (from [`rvsim_isa::progen`]) in lockstep with the golden architectural
//!   executor ([`rvsim_cores::GoldenCore`]), diffing registers, PC and CSRs
//!   at every retire boundary and all of data memory at episode end.
//! * [`oracle`] — randomized kernel scenarios run on the full system
//!   simulator while a host-side model of ready/delay/event-list semantics
//!   checks scheduling invariants from the emitted event trace.
//! * [`smp`] — multi-hart scenarios run in lockstep on the shared bus;
//!   every hart's trace is checked against its own scheduler model
//!   (per-core ready lists), the shared IPI mailboxes must conserve every
//!   cross-core wakeup, and the lazy lockstep must leave every hart
//!   exactly as per-cycle lockstep does; [`check_batching`] holds a
//!   single hart's batched run to its per-cycle run the same way.
//! * [`timetravel`] — full-system snapshots taken on a periodic cadence
//!   let any previously visited cycle be revisited exactly: rewind is
//!   restore-nearest-checkpoint plus deterministic re-execution, verified
//!   byte-for-byte against cold runs.
//! * [`shrink`] + [`artifact`] — failures are delta-debugged to minimal
//!   counterexamples and serialized as self-contained JSON replay files
//!   under `results/repro/`, re-runnable via the `checkfuzz` bin.

pub mod artifact;
pub mod coproc;
pub mod faultcamp;
pub mod lockstep;
pub mod oracle;
pub mod scenario;
pub mod shrink;
pub mod smp;
pub mod timetravel;

pub use coproc::{ScratchCoproc, ScratchUnit};
pub use faultcamp::{
    classify_fault_events, classify_with_reference, oracle_reference, run_fault_campaign,
    shrink_fault_events, FaultCampaign, FaultOutcome, FaultRunRecord, FaultRunReport,
};
pub use lockstep::{
    default_irq_plan, episode_for_seed, run_episode, EpisodeSpec, EpisodeStats, Fault, IrqEvent,
    Mismatch,
};
pub use oracle::{OracleStats, Violation};
pub use scenario::{
    run_scenario, scenario_for_seed, scenario_system, trace_scenario, Action, ScenarioSpec,
    TaskScript, ORACLE_PRESETS,
};
pub use shrink::{shrink_episode, shrink_scenario, shrink_scenario_with};
pub use smp::{
    check_batching, check_lazy_lockstep, run_smp_scenario, smp_scenario_for_seed,
    smp_scenario_system, trace_smp_scenario, SmpScenarioSpec,
};
pub use timetravel::{travel_selfcheck, TimeTravel, TravelReport};
