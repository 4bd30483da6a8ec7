//! The interface between a core and an attached accelerator.
//!
//! The paper integrates the RTOSUnit "as a standard functional unit" (§5):
//! the core reports interrupt entries, `mret`, and custom instructions, and
//! grants the unit idle data-port cycles. This trait is that integration
//! surface; `rtosunit::RtosUnit` implements it, and [`NullCoprocessor`]
//! stands in for an unmodified (vanilla) core.

use crate::engine::DataBus;
use crate::state::ArchState;
use rvsim_isa::CustomOp;

/// Hooks called by the [`CoreEngine`](crate::engine::CoreEngine).
///
/// The engine's drivers are generic over the coprocessor and the
/// [`DataBus`], so each (bus, coprocessor) pair runs one monomorphized hot
/// path with no virtual call per cycle. The generic [`step`](Self::step)
/// keeps the trait from being used as a trait object.
pub trait Coprocessor {
    /// Called once per interrupt entry, after the architectural entry
    /// (mepc/mcause/mstatus) completed. The unit may switch register banks
    /// and start its store FSM here.
    fn on_interrupt_entry(&mut self, state: &mut ArchState, cause: u32);

    /// Whether `mret` must stall this cycle (e.g. context restore still in
    /// flight, paper §4.3).
    fn mret_stall(&self) -> bool;

    /// Called when `mret` retires. The unit may switch back to the
    /// application bank and clear dirty bits here.
    fn on_mret(&mut self, state: &mut ArchState);

    /// Whether the given custom instruction must stall this cycle
    /// (e.g. `SWITCH_RF` while context storing is in progress, §4.2).
    fn custom_stall(&self, op: CustomOp) -> bool;

    /// Executes a custom instruction with resolved operand values and
    /// returns the `rd` result (only meaningful for `GET_HW_SCHED`).
    fn exec_custom(&mut self, op: CustomOp, rs1: u32, rs2: u32, state: &mut ArchState) -> u32;

    /// One background cycle: FSMs may use an idle data-port cycle via
    /// [`DataBus::unit_access`]. Generic over the bus, so the unit's
    /// port calls are direct calls the compiler may inline.
    fn step<B: DataBus>(&mut self, state: &mut ArchState, bus: &mut B);

    /// Whether the unit has no background work in flight — no store or
    /// restore FSM activity, no pending scheduler sort, no preload to run —
    /// so that skipping its per-cycle [`step`](Self::step) calls is
    /// observationally equivalent to making them. Batched execution
    /// ([`CoreEngine::run_until`](crate::engine::CoreEngine::run_until)) is
    /// only entered while this holds. Default: `false` (always poll).
    fn is_idle(&self) -> bool {
        false
    }
}

/// The "no RTOSUnit attached" coprocessor: every hook is a no-op and
/// custom instructions are rejected.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCoprocessor;

impl Coprocessor for NullCoprocessor {
    fn on_interrupt_entry(&mut self, _state: &mut ArchState, _cause: u32) {}

    fn mret_stall(&self) -> bool {
        false
    }

    fn on_mret(&mut self, _state: &mut ArchState) {}

    fn custom_stall(&self, _op: CustomOp) -> bool {
        false
    }

    fn exec_custom(&mut self, op: CustomOp, _rs1: u32, _rs2: u32, _state: &mut ArchState) -> u32 {
        panic!("custom instruction {op} executed on a core without an RTOSUnit")
    }

    fn step<B: DataBus>(&mut self, _state: &mut ArchState, _bus: &mut B) {}

    fn is_idle(&self) -> bool {
        true
    }
}
