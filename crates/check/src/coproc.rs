//! A deterministic functional model of the RTOSUnit custom instructions,
//! shared by both sides of the lockstep.
//!
//! The lockstep harness compares *architectural* state, so the custom
//! instructions need semantics that are a pure function of their operand
//! values — no background FSMs, no bank switches, no timing. This unit
//! defines such semantics: a small priority ready list, a delay list and
//! counting semaphores, with every operand masked into range so arbitrary
//! fuzzed register values are total inputs. One instance is wrapped as the
//! engine-side [`Coprocessor`]; an identical clone answers the golden
//! model's custom callback. Identical op/operand sequences keep the two in
//! sync by construction, so the *engine's* operand resolution, `rd`
//! write-back and custom-instruction plumbing are what the diff actually
//! checks.
//!
//! This is intentionally **not** the real `rtosunit::RtosUnit`: that unit
//! switches register banks and runs store/restore FSMs over the bus —
//! timing machinery the golden model deliberately lacks. Its kernel-level
//! behaviour is covered by the scheduler oracle instead.

use rvsim_cores::engine::DataBus;
use rvsim_cores::{ArchState, Coprocessor};
use rvsim_isa::CustomOp;

const MAX_TASKS: u32 = 16;
const NUM_PRIOS: u32 = 8;
const NUM_SEMS: usize = 8;
const LIST_CAPACITY: usize = 8;

/// The shared functional model. `Clone` + `PartialEq` so the two sides can
/// be duplicated and cross-checked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScratchUnit {
    /// Ready entries `(task, prio)` in insertion order.
    ready: Vec<(u8, u8)>,
    /// Delayed entries `(task, prio, wake)`.
    delayed: Vec<(u8, u8, u32)>,
    /// Current hardware context id (`SET_CONTEXT_ID`).
    ctx_id: u32,
    /// Counting semaphores.
    sems: [u32; NUM_SEMS],
}

impl ScratchUnit {
    /// A fresh, empty unit.
    pub fn new() -> ScratchUnit {
        ScratchUnit::default()
    }

    fn push_ready(&mut self, task: u8, prio: u8) {
        // Bounded like the hardware list; overflow drops the entry (a
        // deterministic outcome both sides share).
        if self.ready.len() < LIST_CAPACITY && !self.ready.iter().any(|&(t, _)| t == task) {
            self.ready.push((task, prio));
        }
    }

    /// Executes one custom instruction on resolved operand values and
    /// returns the `rd` result (zero for ops that write none).
    pub fn exec(&mut self, op: CustomOp, rs1: u32, rs2: u32) -> u32 {
        match op {
            CustomOp::AddReady => {
                let (task, prio) = ((rs1 % MAX_TASKS) as u8, (rs2 % NUM_PRIOS) as u8);
                self.push_ready(task, prio);
                0
            }
            CustomOp::AddDelay => {
                let prio = (rs1 % NUM_PRIOS) as u8;
                let task = (self.ctx_id % MAX_TASKS) as u8;
                if self.delayed.len() < LIST_CAPACITY
                    && !self.delayed.iter().any(|&(t, _, _)| t == task)
                {
                    self.delayed.push((task, prio, rs2 & 0xffff));
                }
                0
            }
            CustomOp::RmTask => {
                let task = (rs1 % MAX_TASKS) as u8;
                self.ready.retain(|&(t, _)| t != task);
                self.delayed.retain(|&(t, _, _)| t != task);
                0
            }
            CustomOp::SetContextId => {
                self.ctx_id = rs1 % MAX_TASKS;
                0
            }
            CustomOp::GetHwSched => {
                // Pop the highest-priority ready entry (FIFO within a
                // priority); empty list reads all-ones.
                let best = self
                    .ready
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &(_, p))| (p, usize::MAX - i));
                match best {
                    Some((i, _)) => {
                        let (task, _) = self.ready.remove(i);
                        u32::from(task)
                    }
                    None => u32::MAX,
                }
            }
            CustomOp::SwitchRf => 0,
            CustomOp::SemTake => {
                let sem = rs1 as usize % NUM_SEMS;
                if self.sems[sem] > 0 {
                    self.sems[sem] -= 1;
                    1
                } else {
                    0
                }
            }
            CustomOp::SemGive => {
                let sem = rs1 as usize % NUM_SEMS;
                self.sems[sem] = self.sems[sem].saturating_add(1);
                self.sems[sem]
            }
        }
    }
}

/// Engine-side adapter: a [`Coprocessor`] with no stalls, no background
/// work and no bank switches, so engine and golden stay on the same
/// (application) register file.
#[derive(Debug, Clone, Default)]
pub struct ScratchCoproc(pub ScratchUnit);

impl Coprocessor for ScratchCoproc {
    fn on_interrupt_entry(&mut self, _state: &mut ArchState, _cause: u32) {}

    fn mret_stall(&self) -> bool {
        false
    }

    fn on_mret(&mut self, _state: &mut ArchState) {}

    fn custom_stall(&self, _op: CustomOp) -> bool {
        false
    }

    fn exec_custom(&mut self, op: CustomOp, rs1: u32, rs2: u32, _state: &mut ArchState) -> u32 {
        self.0.exec(op, rs1, rs2)
    }

    fn step<B: DataBus>(&mut self, _state: &mut ArchState, _bus: &mut B) {}

    fn is_idle(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_list_pops_highest_priority_fifo() {
        let mut u = ScratchUnit::new();
        u.exec(CustomOp::AddReady, 1, 3);
        u.exec(CustomOp::AddReady, 2, 5);
        u.exec(CustomOp::AddReady, 3, 5);
        assert_eq!(u.exec(CustomOp::GetHwSched, 0, 0), 2);
        assert_eq!(u.exec(CustomOp::GetHwSched, 0, 0), 3);
        assert_eq!(u.exec(CustomOp::GetHwSched, 0, 0), 1);
        assert_eq!(u.exec(CustomOp::GetHwSched, 0, 0), u32::MAX);
    }

    #[test]
    fn operands_are_total() {
        let mut u = ScratchUnit::new();
        // Wild values must not panic and must be deterministic.
        u.exec(CustomOp::AddReady, 0xffff_ffff, 0xffff_ffff);
        u.exec(CustomOp::AddDelay, 0xdead_beef, 0xffff_ffff);
        u.exec(CustomOp::RmTask, 0x1234_5678, 0);
        u.exec(CustomOp::SetContextId, u32::MAX, 0);
        let mut v = u.clone();
        assert_eq!(
            u.exec(CustomOp::SemGive, u32::MAX, 0),
            v.exec(CustomOp::SemGive, u32::MAX, 0)
        );
        assert_eq!(u, v);
    }

    #[test]
    fn sem_take_give_roundtrip() {
        let mut u = ScratchUnit::new();
        assert_eq!(u.exec(CustomOp::SemTake, 2, 0), 0);
        assert_eq!(u.exec(CustomOp::SemGive, 2, 0), 1);
        assert_eq!(u.exec(CustomOp::SemTake, 2, 0), 1);
        assert_eq!(u.exec(CustomOp::SemTake, 2, 0), 0);
    }
}
