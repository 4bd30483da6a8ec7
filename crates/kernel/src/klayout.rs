//! Host-side data layout of the guest kernel.
//!
//! All kernel data lives in DMEM at fixed, host-computed addresses so both
//! the assembly generators and the initial-data writer agree on them.

use rtosunit::layout::DMEM_BASE;

/// Number of priority levels (FreeRTOS `configMAX_PRIORITIES`).
pub const NUM_PRIOS: usize = 8;
/// Maximum number of tasks the lookup table supports.
pub const MAX_TASKS: usize = 16;
/// Bytes reserved per task stack.
pub const STACK_BYTES: u32 = 1024;
/// Size of one TCB in bytes.
pub const TCB_BYTES: u32 = 32;
/// Size of one semaphore control block in bytes.
pub const SEM_BYTES: u32 = 8;
/// Size of a saved context frame on the stack in bytes (31 words).
pub const FRAME_BYTES: u32 = 124;

/// TCB field offsets (bytes).
pub mod tcb {
    /// Saved stack pointer (top of the saved context frame).
    pub const SAVED_SP: i32 = 0;
    /// Task id (index into context region and lookup table).
    pub const ID: i32 = 4;
    /// Priority (0 = lowest / idle).
    pub const PRIO: i32 = 8;
    /// Generic list link (ready, delay or event list).
    pub const NEXT: i32 = 12;
    /// Absolute tick at which a delayed task wakes.
    pub const WAKE_TICK: i32 = 16;
}

/// Semaphore field offsets (bytes).
pub mod sem {
    /// Available count.
    pub const COUNT: i32 = 0;
    /// Head of the priority-sorted wait list.
    pub const WAIT_HEAD: i32 = 4;
}

/// Magic word planted at the *base* (lowest address) of every task stack
/// when self-protection is on. A stack overflow or an injected upset
/// clobbers it; the protected ISR checks all canaries on every switch.
pub const CANARY_MAGIC: u32 = 0xC0DE_FA11;

/// Ticks the watchdog counter may reach before the protected ISR
/// declares the idle task starved (idle pets the counter back to zero).
pub const WATCHDOG_LIMIT: u32 = 64;

/// Address of task `i`'s stack canary word (the stack grows down from
/// `stack_top(i)`, so the base word is the last to be overwritten).
pub fn canary_addr(i: usize) -> u32 {
    KernelLayout::STACKS + (i as u32) * STACK_BYTES
}

/// The build-time XOR checksum over the static fields of `n` TCBs with
/// the given priorities: `xor_i(id ^ (prio << 8))`, seeded with a
/// non-zero constant so an all-zero memory image never verifies.
pub fn tcb_checksum(prios: &[u32]) -> u32 {
    let mut x = 0x5EED_0001u32;
    for (id, &prio) in prios.iter().enumerate() {
        x ^= (id as u32) ^ (prio << 8);
    }
    x
}

/// Kernel global variables (absolute addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelLayout {
    /// Number of tasks (including the idle task).
    pub n_tasks: usize,
    /// Number of semaphores.
    pub n_sems: usize,
}

impl KernelLayout {
    /// Base of the kernel-global block.
    pub const GLOBALS: u32 = DMEM_BASE;
    /// `currentTCB` (paper §3).
    pub const CURRENT_TCB: u32 = Self::GLOBALS;
    /// Kernel tick counter.
    pub const TICK_COUNT: u32 = Self::GLOBALS + 4;
    /// Scratch slot carrying the next task id across `SWITCH_RF`.
    pub const NEXT_ID: u32 = Self::GLOBALS + 8;
    /// `READY_HEAD[prio]`, `NUM_PRIOS` words.
    pub const READY_HEAD: u32 = Self::GLOBALS + 12;
    /// `READY_TAIL[prio]`; kept exactly 32 bytes after the heads so the
    /// generated code can reach the tail with a single `addi`.
    pub const READY_TAIL: u32 = Self::READY_HEAD + (NUM_PRIOS as u32) * 4;
    /// Head of the sorted delay list.
    pub const DELAY_HEAD: u32 = Self::READY_TAIL + (NUM_PRIOS as u32) * 4;
    /// Task-id → TCB-pointer lookup table (paper §4.4), `MAX_TASKS` words.
    pub const LOOKUP: u32 = Self::DELAY_HEAD + 4;
    /// Guest watchdog counter: bumped by every timer tick, zeroed
    /// ("petted") by the idle loop. Crossing [`WATCHDOG_LIMIT`] in the
    /// ISR means idle was starved — the system is wedged or runaway.
    pub const WATCHDOG: u32 = Self::LOOKUP + (MAX_TASKS as u32) * 4;
    /// Expected XOR checksum over the static TCB fields (id, priority),
    /// written at build time and recomputed by the protected ISR.
    pub const TCB_CHECKSUM: u32 = Self::WATCHDOG + 4;
    /// Base of the semaphore control blocks.
    pub const SEMS: u32 = Self::GLOBALS + 0x100;
    /// Base of the TCB array.
    pub const TCBS: u32 = Self::GLOBALS + 0x200;
    /// Base of the task stacks.
    pub const STACKS: u32 = Self::GLOBALS + 0x1000;

    /// Creates the layout for the given object counts.
    ///
    /// # Panics
    ///
    /// Panics if the counts exceed the static capacity.
    pub fn new(n_tasks: usize, n_sems: usize) -> KernelLayout {
        assert!(
            n_tasks <= MAX_TASKS,
            "too many tasks ({n_tasks} > {MAX_TASKS})"
        );
        assert!(
            (n_sems as u32) * SEM_BYTES <= Self::TCBS - Self::SEMS,
            "too many semaphores"
        );
        KernelLayout { n_tasks, n_sems }
    }

    /// Address of task `i`'s TCB.
    pub fn tcb_addr(&self, i: usize) -> u32 {
        assert!(i < self.n_tasks);
        Self::TCBS + (i as u32) * TCB_BYTES
    }

    /// Initial stack top (highest address, exclusive) of task `i`.
    pub fn stack_top(&self, i: usize) -> u32 {
        assert!(i < self.n_tasks);
        Self::STACKS + ((i as u32) + 1) * STACK_BYTES
    }

    /// Address of semaphore `j`'s control block.
    pub fn sem_addr(&self, j: usize) -> u32 {
        assert!(j < self.n_sems);
        Self::SEMS + (j as u32) * SEM_BYTES
    }

    /// Address of the `READY_HEAD[prio]` slot.
    pub fn ready_head_addr(prio: usize) -> u32 {
        assert!(prio < NUM_PRIOS);
        Self::READY_HEAD + (prio as u32) * 4
    }

    /// Address of the `LOOKUP[id]` slot.
    pub fn lookup_addr(id: usize) -> u32 {
        assert!(id < MAX_TASKS);
        Self::LOOKUP + (id as u32) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtosunit::layout::{CTX_REGION_BASE, DMEM_SIZE};

    #[test]
    fn tail_is_one_addi_from_head() {
        assert_eq!(KernelLayout::READY_TAIL - KernelLayout::READY_HEAD, 32);
    }

    #[test]
    fn regions_do_not_overlap() {
        let l = KernelLayout::new(MAX_TASKS, 8);
        const { assert!(KernelLayout::TCB_CHECKSUM + 4 <= KernelLayout::SEMS) };
        assert!(l.sem_addr(7) + SEM_BYTES <= KernelLayout::TCBS);
        assert!(l.tcb_addr(MAX_TASKS - 1) + TCB_BYTES <= KernelLayout::STACKS);
        // Stacks must stay clear of the fixed context region.
        assert!(l.stack_top(MAX_TASKS - 1) <= CTX_REGION_BASE);
        assert!(l.stack_top(MAX_TASKS - 1) <= DMEM_BASE + DMEM_SIZE);
    }

    #[test]
    fn frame_holds_31_words() {
        assert_eq!(FRAME_BYTES, (rtosunit::layout::CTX_WORDS as u32) * 4);
    }

    #[test]
    #[should_panic(expected = "too many tasks")]
    fn task_capacity_enforced() {
        KernelLayout::new(MAX_TASKS + 1, 0);
    }
}
