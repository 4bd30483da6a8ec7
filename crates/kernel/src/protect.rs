//! Kernel self-protection emitters (fault detection inside the guest).
//!
//! The fault-injection campaign (rvsim-check's `faultcamp`) needs a
//! guest that can *notice* corruption, not just a host oracle judging it
//! from outside. This module emits three detection layers as real RV32
//! code, so their overhead shows up in the measured switch latency like
//! any other kernel work:
//!
//! * **Stack canaries** — [`CANARY_MAGIC`] is planted at the base word of
//!   every task stack at build time; the protected ISR re-checks all of
//!   them on every context switch.
//! * **Guest watchdog** — every timer tick bumps the
//!   [`WATCHDOG`](crate::klayout::KernelLayout::WATCHDOG) counter;
//!   the idle loop pets it back to zero. Crossing [`WATCHDOG_LIMIT`]
//!   means idle was starved: the system is wedged or a task ran away.
//! * **TCB checksum** — the static TCB fields (id, priority) are folded
//!   into an XOR checksum at build time
//!   ([`tcb_checksum`](crate::klayout::tcb_checksum)); the ISR
//!   recomputes and compares it each switch.
//!
//! Every detection announces itself with a fault-detection mark
//! (`rtosunit::events::fault_mark`) on the TRACE register *before*
//! responding, so the host classifier sees the hit even when the
//! response is a halt. The response is the **graceful-degradation
//! policy**: a clobbered canary either kills the corrupted task and
//! reschedules ([`ProtectSpec::kill`]) or halts; watchdog and checksum
//! hits always halt (there is no single task to blame).
//!
//! All of this is strictly opt-in (`KernelBuilder::protect`): the
//! unprotected ISR byte streams are unchanged, keeping the headline
//! latency figures and the campaign digest pins intact.

use crate::emit::LabelGen;
use crate::klayout::{tcb, KernelLayout, CANARY_MAGIC, STACK_BYTES, WATCHDOG_LIMIT};
use rtosunit::events::{
    fault_mark, DETECT_CANARY, DETECT_CHECKSUM, DETECT_TASK_KILLED, DETECT_WATCHDOG,
};
use rtosunit::layout::{MMIO_HALT, MMIO_TRACE};
use rvsim_isa::{Asm, Reg};

/// Self-protection configuration carried by the ISR spec. `None` (the
/// default) emits no protection code at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectSpec {
    /// Number of tasks in the image (canary/checksum loop bounds).
    pub n_tasks: usize,
    /// Degradation policy for a clobbered canary: `true` kills the
    /// corrupted task (removes it from its ready queue, restores the
    /// canary and reschedules), `false` halts. Killing requires the
    /// software ready queues, so hardware-scheduled presets always halt.
    pub kill: bool,
}

/// Emits one fault-detection mark (a single TRACE store). Clobbers
/// `t5`, `t6` — deliberately disjoint from the `t0`–`t4` working set of
/// the surrounding check loops.
fn emit_detect_mark(a: &mut Asm, detector: u32) {
    a.li(Reg::T5, MMIO_TRACE as i32);
    a.li(Reg::T6, fault_mark(detector) as i32);
    a.sw(Reg::T6, 0, Reg::T5);
}

/// Emits the fail-stop response: halt the platform, then spin (the store
/// raises attention, so the run loop exits on the next check; the spin
/// keeps the core from executing corrupted state meanwhile).
fn emit_halt_spin(a: &mut Asm, lg: &mut LabelGen) {
    let spin = lg.fresh("prot_spin");
    a.li(Reg::T5, MMIO_HALT as i32);
    a.sw(Reg::Zero, 0, Reg::T5);
    a.label(&spin);
    a.j(&spin);
}

/// Removes the TCB in `tcb_reg` from its priority's ready queue **if
/// present** — unlike [`crate::emit::ready_remove`], absence is not a
/// precondition: the kill path may target a task that is blocked on a
/// semaphore or the delay list, in which case this is a no-op.
///
/// Clobbers `t0`–`t3`. `tcb_reg` must not be one of those.
pub fn ready_remove_safe(a: &mut Asm, lg: &mut LabelGen, tcb_reg: Reg) {
    debug_assert!(![Reg::T0, Reg::T1, Reg::T2, Reg::T3].contains(&tcb_reg));
    let scan = lg.fresh("rrs_scan");
    let found = lg.fresh("rrs_found");
    let is_head = lg.fresh("rrs_head");
    let done = lg.fresh("rrs_done");
    a.lw(Reg::T0, tcb::PRIO, tcb_reg);
    a.slli(Reg::T0, Reg::T0, 2);
    a.li(Reg::T1, KernelLayout::READY_HEAD as i32);
    a.add(Reg::T1, Reg::T1, Reg::T0); // &head[prio]
    a.lw(Reg::T2, 0, Reg::T1); // cur = head
    a.beqz(Reg::T2, &done); // empty queue: nothing to remove
    a.beq(Reg::T2, tcb_reg, &is_head);
    a.label(&scan);
    a.lw(Reg::T3, tcb::NEXT, Reg::T2);
    a.beqz(Reg::T3, &done); // end of list: not present
    a.beq(Reg::T3, tcb_reg, &found);
    a.mv(Reg::T2, Reg::T3);
    a.j(&scan);
    a.label(&found);
    // prev (t2).next = tcb.next
    a.lw(Reg::T3, tcb::NEXT, tcb_reg);
    a.sw(Reg::T3, tcb::NEXT, Reg::T2);
    a.bnez(Reg::T3, &done);
    // Removed the tail: tail = prev.
    a.addi(Reg::T1, Reg::T1, 32);
    a.sw(Reg::T2, 0, Reg::T1);
    a.j(&done);
    a.label(&is_head);
    a.lw(Reg::T3, tcb::NEXT, tcb_reg);
    a.sw(Reg::T3, 0, Reg::T1); // head = next
    a.bnez(Reg::T3, &done);
    a.addi(Reg::T1, Reg::T1, 32);
    a.sw(Reg::Zero, 0, Reg::T1); // queue empty: tail = 0
    a.label(&done);
}

/// Emits the watchdog bump-and-check for the ISR's timer branch: the
/// counter is incremented each tick and compared (unsigned, so a flipped
/// high bit also trips it) against [`WATCHDOG_LIMIT`]. Expiry announces
/// [`DETECT_WATCHDOG`] and halts — a starved idle loop means the system
/// is wedged, there is nothing sensible to reschedule.
///
/// Clobbers `t0`–`t2` (and `t5`/`t6` on the expiry path).
pub fn emit_watchdog_check(a: &mut Asm, lg: &mut LabelGen) {
    let ok = lg.fresh("wdg_ok");
    a.li(Reg::T0, KernelLayout::WATCHDOG as i32);
    a.lw(Reg::T1, 0, Reg::T0);
    a.addi(Reg::T1, Reg::T1, 1);
    a.sw(Reg::T1, 0, Reg::T0);
    a.li(Reg::T2, WATCHDOG_LIMIT as i32);
    a.bltu(Reg::T1, Reg::T2, &ok);
    emit_detect_mark(a, DETECT_WATCHDOG);
    emit_halt_spin(a, lg);
    a.label(&ok);
}

/// Emits the watchdog pet (counter back to zero) — placed in the idle
/// loop, which only runs when every other task is blocked. Clobbers `t0`.
pub fn emit_watchdog_pet(a: &mut Asm) {
    a.li(Reg::T0, KernelLayout::WATCHDOG as i32);
    a.sw(Reg::Zero, 0, Reg::T0);
}

/// Emits the per-switch integrity sweep for the ISR's scheduling path:
/// all `n_tasks` stack canaries, then the TCB checksum. Runs before the
/// scheduler selects, so the kill path can pull a corrupted task out of
/// its ready queue in time.
///
/// Clobbers `t0`–`t6` and (on the kill path) `a1` — all dead at the top
/// of the scheduling path.
pub fn emit_integrity_checks(a: &mut Asm, lg: &mut LabelGen, spec: &ProtectSpec) {
    // --- canaries -----------------------------------------------------
    let scan = lg.fresh("can_scan");
    let bad = lg.fresh("can_bad");
    let ok = lg.fresh("can_ok");
    a.li(Reg::T0, 0); // i
    a.li(Reg::T1, spec.n_tasks as i32);
    a.li(Reg::T2, KernelLayout::STACKS as i32); // canary_addr(0)
    a.li(Reg::T3, CANARY_MAGIC as i32);
    a.label(&scan);
    a.lw(Reg::T4, 0, Reg::T2);
    a.bne(Reg::T4, Reg::T3, &bad);
    a.addi(Reg::T0, Reg::T0, 1);
    a.addi(Reg::T2, Reg::T2, STACK_BYTES as i32);
    a.blt(Reg::T0, Reg::T1, &scan);
    a.j(&ok);
    a.label(&bad);
    // t0 = corrupted task id, t2 = its canary address.
    emit_detect_mark(a, DETECT_CANARY);
    if spec.kill {
        // Graceful degradation: restore the canary (so the next switch
        // does not re-trip on the same word), pull the task out of its
        // ready queue and let the scheduler pick a survivor. A victim
        // parked on the delay or an event list can still wake later —
        // the kill is best-effort containment, not full teardown.
        a.sw(Reg::T3, 0, Reg::T2);
        a.slli(Reg::T4, Reg::T0, 2);
        a.li(Reg::T5, KernelLayout::LOOKUP as i32);
        a.add(Reg::T4, Reg::T4, Reg::T5);
        a.lw(Reg::A1, 0, Reg::T4); // victim TCB
        ready_remove_safe(a, lg, Reg::A1);
        emit_detect_mark(a, DETECT_TASK_KILLED);
    } else {
        emit_halt_spin(a, lg);
    }
    a.label(&ok);

    // --- TCB checksum -------------------------------------------------
    let csum = lg.fresh("ck_scan");
    let ck_ok = lg.fresh("ck_ok");
    a.li(Reg::T0, 0); // i
    a.li(Reg::T1, spec.n_tasks as i32);
    a.li(Reg::T2, KernelLayout::LOOKUP as i32);
    a.li(Reg::T3, 0x5EED_0001u32 as i32); // seed (see klayout::tcb_checksum)
    a.label(&csum);
    a.lw(Reg::T4, 0, Reg::T2); // TCB pointer
    a.lw(Reg::T5, tcb::ID, Reg::T4);
    a.xor(Reg::T3, Reg::T3, Reg::T5);
    a.lw(Reg::T5, tcb::PRIO, Reg::T4);
    a.slli(Reg::T5, Reg::T5, 8);
    a.xor(Reg::T3, Reg::T3, Reg::T5);
    a.addi(Reg::T0, Reg::T0, 1);
    a.addi(Reg::T2, Reg::T2, 4);
    a.blt(Reg::T0, Reg::T1, &csum);
    a.li(Reg::T4, KernelLayout::TCB_CHECKSUM as i32);
    a.lw(Reg::T4, 0, Reg::T4);
    a.beq(Reg::T3, Reg::T4, &ck_ok);
    emit_detect_mark(a, DETECT_CHECKSUM);
    emit_halt_spin(a, lg);
    a.label(&ck_ok);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klayout::tcb_checksum;

    #[test]
    fn emitters_assemble() {
        let mut a = Asm::new(0);
        let mut lg = LabelGen::new();
        emit_integrity_checks(
            &mut a,
            &mut lg,
            &ProtectSpec {
                n_tasks: 3,
                kill: true,
            },
        );
        emit_watchdog_check(&mut a, &mut lg);
        emit_watchdog_pet(&mut a);
        ready_remove_safe(&mut a, &mut lg, Reg::A1);
        a.ebreak();
        let p = a.finish().expect("protection emitters assemble");
        assert!(p.words.len() > 40);
    }

    #[test]
    fn halt_policy_is_smaller_than_kill() {
        let len = |kill: bool| {
            let mut a = Asm::new(0);
            let mut lg = LabelGen::new();
            emit_integrity_checks(&mut a, &mut lg, &ProtectSpec { n_tasks: 4, kill });
            a.ebreak();
            a.finish().expect("assembles").words.len()
        };
        assert!(len(false) < len(true));
    }

    #[test]
    fn checksum_matches_host_function() {
        // The emitted loop folds id ^ (prio << 8) over the lookup table
        // with the same seed the host-side function uses; pin the host
        // value so the two cannot drift silently.
        assert_eq!(tcb_checksum(&[]), 0x5EED_0001);
        assert_eq!(tcb_checksum(&[0]), 0x5EED_0001);
        assert_eq!(tcb_checksum(&[5]), 0x5EED_0001 ^ 0x500);
        assert_eq!(tcb_checksum(&[3, 1]), 0x5EED_0001 ^ 0x300 ^ 1 ^ 0x100);
    }
}
