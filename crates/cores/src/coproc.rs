//! The interface between a core and an attached accelerator.
//!
//! The paper integrates the RTOSUnit "as a standard functional unit" (§5):
//! the core reports interrupt entries, `mret`, and custom instructions, and
//! grants the unit idle data-port cycles. This trait is that integration
//! surface; `rtosunit::RtosUnit` implements it, and [`NullCoprocessor`]
//! stands in for an unmodified (vanilla) core.

use crate::engine::DataBus;
use crate::state::ArchState;
use rvsim_isa::{CustomOp, Uop};

/// An instruction the coprocessor can hold at issue: `mret` while a
/// context restore is in flight (§4.3), or a custom instruction its FSMs
/// are not ready for (`SWITCH_RF` during a store, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// `mret` (see [`Coprocessor::mret_stall`]).
    Mret,
    /// A custom instruction (see [`Coprocessor::custom_stall`]).
    Custom(CustomOp),
}

impl Gate {
    /// The gate of `uop`, if the coprocessor can hold it.
    pub fn of(uop: &Uop) -> Option<Gate> {
        match *uop {
            Uop::Mret => Some(Gate::Mret),
            Uop::Custom { op, .. } => Some(Gate::Custom(op)),
            _ => None,
        }
    }
}

/// Hooks called by the [`CoreEngine`](crate::engine::CoreEngine).
///
/// The engine's drivers are generic over the coprocessor and the
/// [`DataBus`], so each (bus, coprocessor) pair runs one monomorphized hot
/// path with no virtual call per cycle. The generic [`step`](Self::step)
/// keeps the trait from being used as a trait object.
///
/// **What a step may touch.** A unit's [`step`](Self::step) may use the
/// data port, and read or write the interrupted context — the
/// application register bank, `mstatus` and `mepc` — but nothing else
/// the core reads or writes. Batched execution relies on this to run the
/// core ahead of the unit over a *span*: a stretch of cycles in which the
/// core makes no port request, executes no CSR op on `mstatus` or `mepc`
/// and, while [`context_busy`](Self::context_busy) holds, runs on the ISR
/// bank. It then settles the unit once per span through
/// [`advance`](Self::advance).
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

    /// Whether the unit holds `gate`'s instruction at issue this cycle.
    fn holds(&self, gate: Gate) -> bool {
        match gate {
            Gate::Mret => self.mret_stall(),
            Gate::Custom(op) => self.custom_stall(op),
        }
    }

    /// Executes a custom instruction with resolved operand values and
    /// returns the `rd` result (only meaningful for `GET_HW_SCHED`).
    fn exec_custom(&mut self, op: CustomOp, rs1: u32, rs2: u32, state: &mut ArchState) -> u32;

    /// One background cycle: FSMs may use an idle data-port cycle via
    /// [`DataBus::unit_access`]. Generic over the bus, so the unit's
    /// port calls are direct calls the compiler may inline. The per-cycle
    /// path calls it after the core's work of each cycle; batched
    /// execution goes through [`advance`](Self::advance).
    fn step<B: DataBus>(&mut self, state: &mut ArchState, bus: &mut B);

    /// The unit's steps for the next `cycles` cycles of a span, the first
    /// on the bus's current cycle (the core has done its work for it) and
    /// each later one after one tick of the bus clock
    /// ([`DataBus::advance_cycles`]): it leaves the unit and the bus
    /// exactly where that sequence of calls would. The core makes no port
    /// request and touches nothing the unit reads or writes over those
    /// cycles, so a unit may take them in any way that ends there — in
    /// time proportional to the context words it moves rather than the
    /// cycles it covers.
    ///
    /// Default: that per-cycle sequence, and only the clock once the
    /// unit is idle (stepping an idle unit changes nothing).
    fn advance<B: DataBus>(&mut self, state: &mut ArchState, bus: &mut B, cycles: u64) {
        let mut left = cycles;
        while left > 0 {
            if self.is_idle() {
                bus.advance_cycles(left - 1);
                return;
            }
            self.step(state, bus);
            left -= 1;
            if left > 0 {
                bus.advance_cycles(1);
            }
        }
    }

    /// [`advance`](Self::advance) over the cycles the unit holds `gate`'s
    /// instruction at issue: at most `cycles` steps, stopping after the
    /// first that releases the gate, so the core issues on the cycle
    /// after the last. Returns the steps taken.
    ///
    /// Default: one [`advance`](Self::advance) step per cycle.
    fn advance_held<B: DataBus>(
        &mut self,
        state: &mut ArchState,
        bus: &mut B,
        gate: Gate,
        cycles: u64,
    ) -> u64 {
        let mut taken = 0;
        while taken < cycles {
            if taken > 0 {
                bus.advance_cycles(1);
            }
            self.advance(state, bus, 1);
            taken += 1;
            if !self.holds(gate) {
                break;
            }
        }
        taken
    }

    /// Whether the unit has no background work in flight — no store or
    /// restore FSM activity, no pending scheduler sort, no preload to run.
    /// The contract: stepping an idle coprocessor changes nothing. Batched
    /// execution ([`CoreEngine::run_until`](crate::engine::CoreEngine::run_until))
    /// runs plain block dispatch while this is `true` and co-stepped
    /// dispatch, which settles the unit at the end of every span, while
    /// it is `false`. Default: `false` (always co-step).
    fn is_idle(&self) -> bool {
        false
    }

    /// Whether the unit's pending work reads or writes the interrupted
    /// context — the application register bank, `mstatus` and `mepc` (a
    /// context store or restore in flight). While it does, co-stepped
    /// dispatch settles the unit before every step the core takes on that
    /// bank, and at block exits before the interrupt gate reads `mstatus`
    /// with an interrupt pending. Default: whether the unit has any work
    /// at all.
    fn context_busy(&self) -> bool {
        !self.is_idle()
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
