//! Per-configuration ISR generation (paper Fig. 4).
//!
//! One ISR is emitted per [`Preset`]; the amount of software shrinks as
//! features move to hardware:
//!
//! * **(vanilla)**, **(T)**, **(CV32RT)** — full software context save to
//!   the task stack, software (or hardware) scheduling, software restore;
//! * **(S)**-family — register-bank entry (no save code), scheduling,
//!   `SET_CONTEXT_ID`, `SWITCH_RF`, software restore from the fixed
//!   context region;
//! * **(SL)**-family — as above but the restore happens in hardware and
//!   the ISR ends directly in `mret`;
//! * **(SLT)/(SPLIT)** — the ISR reduces to "update `currentTCB`"
//!   (Fig. 4 (g)).

use crate::emit::{self, LabelGen};
use crate::klayout::{tcb, KernelLayout, FRAME_BYTES};
use crate::probe;
use crate::protect::{self, ProtectSpec};
use rtosunit::cv32rt::{HW_BLOCK_OFF, SNAPSHOT_REGS};
use rtosunit::layout::{
    ctx_index_of, ctx_reg, CTX_MEPC_IDX, CTX_MSTATUS_IDX, CTX_REGION_BASE, CTX_SHIFT, MMIO_EXT_ACK,
    MMIO_IPI_RECV, MMIO_MSIP, MMIO_MTIME, MMIO_MTIMECMP, MMIO_TRACE,
};
use rtosunit::{PhaseCode, Preset};
use rvsim_isa::{csr, Asm, Reg};

/// Static description of the ISR to generate.
#[derive(Debug, Clone, Copy)]
pub struct IsrSpec {
    /// The configuration being built.
    pub preset: Preset,
    /// Timer tick period in cycles (for the software re-arm path).
    pub tick_period: u32,
    /// Address (or hardware id, with the §7 extension) of the semaphore
    /// given on external interrupts, if any.
    pub ext_sem_addr: Option<u32>,
    /// Emit typed [`PhaseCode`] marks at the ISR's save/schedule phase
    /// boundaries (for latency-waterfall analysis). The marks are extra
    /// stores and *change the measured latency*, so they default off and
    /// must stay off for headline measurements.
    pub trace_phases: bool,
    /// Emit scheduler-oracle probes ([`crate::probe`]): the selected task
    /// id after every `currentTCB` update and the outcome of the deferred
    /// external-interrupt give. Like phase marks, these perturb latency
    /// and default off.
    pub probe: bool,
    /// Drain the IPI mailbox (`MMIO_IPI_RECV`) in the software-interrupt
    /// branch: each popped code `c` gives semaphore `c - 1` with the same
    /// wake path as the deferred external give. Off for single-hart
    /// images, where the drain would be dead code on the yield path.
    pub ipi: bool,
    /// Self-protection ([`crate::protect`]): per-switch canary and TCB
    /// checksum sweeps plus the tick watchdog. The checks are real
    /// kernel work and *change the measured latency*, so they default
    /// off ([`None`]) and the unprotected byte streams are unchanged.
    pub protect: Option<ProtectSpec>,
}

impl IsrSpec {
    fn banked(&self) -> bool {
        self.preset.has_store()
    }

    fn hw_load(&self) -> bool {
        self.preset.has_load()
    }

    fn hw_sched(&self) -> bool {
        self.preset.has_sched()
    }

    fn cv32rt(&self) -> bool {
        self.preset == Preset::Cv32rt
    }

    fn hw_sync(&self) -> bool {
        rtosunit::RtosUnitConfig::from_preset(self.preset).is_some_and(|c| c.hw_sync)
    }
}

/// Context word of the first CV32RT snapshot register. The unit
/// snapshots the last 16 general-purpose context words (x16..x31), so
/// software saves every word below this one, plus `mstatus` and `mepc`.
fn cv32rt_first_hw_word() -> usize {
    ctx_index_of(SNAPSHOT_REGS[0])
}

/// Frame byte offset of context word `w` (`0..=30`; 29 = mstatus,
/// 30 = mepc). CV32RT uses the unit's rearranged frame
/// ([`rtosunit::cv32rt::FRAME_BYTES`]): the software-saved words sit
/// packed at the bottom and the hardware-written snapshot words occupy
/// the block at [`HW_BLOCK_OFF`], in [`SNAPSHOT_REGS`] order (§6).
pub fn frame_word_off(w: usize, cv32rt: bool) -> i32 {
    if !cv32rt {
        return (w as i32) * 4;
    }
    let first_hw = cv32rt_first_hw_word();
    let off = match w {
        CTX_MSTATUS_IDX => first_hw * 4,
        CTX_MEPC_IDX => first_hw * 4 + 4,
        w if w < first_hw => w * 4,
        w => HW_BLOCK_OFF as usize + (w - first_hw) * 4,
    };
    off as i32
}

/// Frame size in bytes for the given save style.
pub fn frame_bytes(cv32rt: bool) -> u32 {
    if cv32rt {
        rtosunit::cv32rt::FRAME_BYTES
    } else {
        FRAME_BYTES
    }
}

/// Emits the software context save to the stack frame (vanilla-style).
/// For CV32RT the 16 snapshot registers are saved by hardware through the
/// dedicated port and skipped here.
fn emit_save_frame(a: &mut Asm, cv32rt: bool) {
    let size = frame_bytes(cv32rt) as i32;
    a.addi(Reg::Sp, Reg::Sp, -size);
    let limit = if cv32rt {
        cv32rt_first_hw_word()
    } else {
        CTX_MSTATUS_IDX
    };
    for w in 0..limit {
        let r = ctx_reg(w);
        if r == Reg::Sp {
            continue; // stored below, after t0 is free
        }
        a.sw(r, frame_word_off(w, cv32rt), Reg::Sp);
    }
    // Original sp = sp + frame size (t0's old value is already saved).
    a.addi(Reg::T0, Reg::Sp, size);
    a.sw(
        Reg::T0,
        frame_word_off(ctx_index_of(Reg::Sp), cv32rt),
        Reg::Sp,
    );
    a.csrr(Reg::T0, csr::MSTATUS);
    a.sw(Reg::T0, frame_word_off(CTX_MSTATUS_IDX, cv32rt), Reg::Sp);
    a.csrr(Reg::T0, csr::MEPC);
    a.sw(Reg::T0, frame_word_off(CTX_MEPC_IDX, cv32rt), Reg::Sp);
    // currentTCB->saved_sp = sp (Fig. 4 (b)).
    a.li(Reg::T1, KernelLayout::CURRENT_TCB as i32);
    a.lw(Reg::T1, 0, Reg::T1);
    a.sw(Reg::Sp, tcb::SAVED_SP, Reg::T1);
}

/// Emits the software restore from the stack frame of the TCB in `a0`.
fn emit_restore_frame(a: &mut Asm, cv32rt: bool) {
    a.lw(Reg::Sp, tcb::SAVED_SP, Reg::A0);
    a.lw(Reg::T0, frame_word_off(CTX_MSTATUS_IDX, cv32rt), Reg::Sp);
    a.csrw(csr::MSTATUS, Reg::T0);
    a.lw(Reg::T0, frame_word_off(CTX_MEPC_IDX, cv32rt), Reg::Sp);
    a.csrw(csr::MEPC, Reg::T0);
    for w in 0..29 {
        let r = ctx_reg(w);
        if r == Reg::Sp {
            continue;
        }
        a.lw(r, frame_word_off(w, cv32rt), Reg::Sp);
    }
    a.lw(
        Reg::Sp,
        frame_word_off(ctx_index_of(Reg::Sp), cv32rt),
        Reg::Sp,
    );
}

/// Emits the software restore from the fixed context region, entered on
/// the application bank right after `SWITCH_RF` ((S)/(ST) family). The
/// next task's id was parked in the `NEXT_ID` global beforehand.
fn emit_restore_ctx_region(a: &mut Asm) {
    a.li(Reg::T0, KernelLayout::NEXT_ID as i32);
    a.lw(Reg::T0, 0, Reg::T0);
    a.slli(Reg::T0, Reg::T0, CTX_SHIFT as i32);
    a.li(Reg::T1, CTX_REGION_BASE as i32);
    a.add(Reg::T1, Reg::T1, Reg::T0); // context base of the next task
    a.lw(Reg::T0, frame_word_off(CTX_MSTATUS_IDX, false), Reg::T1);
    a.csrw(csr::MSTATUS, Reg::T0);
    a.lw(Reg::T0, frame_word_off(CTX_MEPC_IDX, false), Reg::T1);
    a.csrw(csr::MEPC, Reg::T0);
    let t1_word = ctx_index_of(Reg::T1);
    for w in 0..29 {
        if w == t1_word {
            continue; // base register: restored last
        }
        a.lw(ctx_reg(w), frame_word_off(w, false), Reg::T1);
    }
    a.lw(Reg::T1, frame_word_off(t1_word, false), Reg::T1);
}

/// Emits a typed phase mark: one store of the encoded [`PhaseCode`] to
/// the TRACE register. Clobbers `t0`/`t1`, so call only where both are
/// dead (right after the save frame, or after `currentTCB` is stored).
fn emit_phase_mark(a: &mut Asm, code: PhaseCode) {
    a.li(Reg::T0, MMIO_TRACE as i32);
    a.li(Reg::T1, code.encode() as i32);
    a.sw(Reg::T1, 0, Reg::T0);
}

/// Emits an ISR-context semaphore give for the operand already in `a2`
/// (control-block address, or hardware id with the §7 extension): bump
/// the count, pop the highest-priority waiter into `a1` and move it back
/// to the ready list. Shared by the deferred external-interrupt give and
/// the IPI drain loop. Clobbers `t0`–`t2`, `a1`.
fn emit_isr_give(a: &mut Asm, lg: &mut LabelGen, spec: &IsrSpec) {
    if spec.hw_sync() {
        // §7 extension: a single custom instruction gives the
        // semaphore and wakes the waiter entirely in hardware.
        a.hw_sem_give(Reg::Zero, Reg::A2);
        return;
    }
    let done = lg.fresh("isr_give_done");
    a.lw(Reg::T0, crate::klayout::sem::COUNT, Reg::A2);
    a.addi(Reg::T0, Reg::T0, 1);
    a.sw(Reg::T0, crate::klayout::sem::COUNT, Reg::A2);
    emit::event_pop(a, lg, Reg::A2); // a1 = waiter or 0
    if spec.probe {
        // Announce the give's outcome while still atomic with it
        // (the ISR runs with interrupts disabled throughout).
        let woke = lg.fresh("isr_probe_woke");
        let probed = lg.fresh("isr_probe_done");
        a.bnez(Reg::A1, &woke);
        probe::emit_probe(a, probe::Probe::IsrGiveNoWake);
        a.j(&probed);
        a.label(&woke);
        probe::emit_probe_id(a, probe::Probe::IsrGiveWoke { id: 0 }.encode(), Reg::A1);
        a.label(&probed);
    }
    a.beqz(Reg::A1, &done);
    if spec.hw_sched() {
        a.lw(Reg::T0, tcb::ID, Reg::A1);
        a.lw(Reg::T1, tcb::PRIO, Reg::A1);
        a.add_ready(Reg::T0, Reg::T1);
    } else {
        emit::ready_push_back(a, lg, Reg::A1);
    }
    a.label(&done);
}

/// Emits the complete ISR at label `isr`.
///
/// Register discipline: in non-banked configurations everything is saved
/// to the frame first, so the body may clobber freely; in banked
/// configurations the ISR runs on the fresh ISR bank.
pub fn gen_isr(a: &mut Asm, lg: &mut LabelGen, spec: &IsrSpec) {
    let l_timer = lg.fresh("isr_timer");
    let l_sw = lg.fresh("isr_sw");
    let l_sched = lg.fresh("isr_sched");

    a.label("isr");
    if !spec.banked() {
        emit_save_frame(a, spec.cv32rt());
    }
    // Banked configurations save in hardware, so their save phase is
    // zero-width: the mark lands right at ISR entry.
    if spec.trace_phases {
        emit_phase_mark(a, PhaseCode::SaveDone);
    }

    // Cause dispatch (Fig. 2: time slice (a), voluntary yield (c), or an
    // external event for deferred handling).
    a.csrr(Reg::T0, csr::MCAUSE);
    a.andi(Reg::T0, Reg::T0, 0x3f);
    a.li(Reg::T1, 7);
    a.beq(Reg::T0, Reg::T1, &l_timer);
    a.li(Reg::T1, 3);
    a.beq(Reg::T0, Reg::T1, &l_sw);

    // --- external interrupt: acknowledge, then give the bound semaphore
    // (deferred interrupt handling, §1).
    a.li(Reg::T0, MMIO_EXT_ACK as i32);
    a.sw(Reg::Zero, 0, Reg::T0);
    if let Some(sem) = spec.ext_sem_addr {
        // Semaphore give from the ISR: bump the count, wake the
        // highest-priority waiter (it re-takes the count on retry).
        a.li(Reg::A2, sem as i32);
        emit_isr_give(a, lg, spec);
    }
    a.j(&l_sched);

    // --- timer tick: in software configurations walk the delay list and
    // re-arm the comparator; with (T) both moved to hardware (§4.4).
    a.label(&l_timer);
    if spec.protect.is_some() {
        protect::emit_watchdog_check(a, lg);
    }
    if !spec.hw_sched() {
        emit::delay_tick(a, lg);
        a.li(Reg::T0, MMIO_MTIME as i32);
        a.lw(Reg::T1, 0, Reg::T0);
        a.li(Reg::T2, spec.tick_period as i32);
        a.add(Reg::T1, Reg::T1, Reg::T2);
        a.li(Reg::T0, MMIO_MTIMECMP as i32);
        a.sw(Reg::T1, 0, Reg::T0);
    }
    a.j(&l_sched);

    // --- software interrupt (voluntary yield, or an IPI): clear the line.
    a.label(&l_sw);
    a.li(Reg::T0, MMIO_MSIP as i32);
    a.sw(Reg::Zero, 0, Reg::T0);
    if spec.ipi {
        // Drain the IPI mailbox: each code `c` gives semaphore `c - 1`
        // (cross-hart wakeup). A code arriving after the final 0 read
        // keeps `mip.MSIP` asserted, so the ISR re-enters after `mret`
        // and no wakeup is lost.
        let drain = lg.fresh("isr_ipi_drain");
        let drained = lg.fresh("isr_ipi_drained");
        a.label(&drain);
        a.li(Reg::T0, MMIO_IPI_RECV as i32);
        a.lw(Reg::A2, 0, Reg::T0); // a2 = code, or 0 when empty
        a.beqz(Reg::A2, &drained);
        if spec.probe {
            // Announce the pop with the code as payload (computed store:
            // base-with-code-0 plus the live code).
            a.li(Reg::T0, probe::Probe::IpiRecv { code: 0 }.encode() as i32);
            a.add(Reg::T1, Reg::T0, Reg::A2);
            a.li(Reg::T0, MMIO_TRACE as i32);
            a.sw(Reg::T1, 0, Reg::T0);
        }
        a.addi(Reg::A2, Reg::A2, -1); // semaphore index
        if !spec.hw_sync() {
            // index -> control-block address; with §7 the hardware id
            // in a2 is already the operand.
            a.slli(
                Reg::A2,
                Reg::A2,
                crate::klayout::SEM_BYTES.trailing_zeros() as i32,
            );
            a.li(Reg::T0, KernelLayout::SEMS as i32);
            a.add(Reg::A2, Reg::A2, Reg::T0);
        }
        emit_isr_give(a, lg, spec);
        a.j(&drain);
        a.label(&drained);
    }
    // fall through

    // --- scheduling: select the next task into a0 (TCB pointer).
    a.label(&l_sched);
    if let Some(p) = &spec.protect {
        protect::emit_integrity_checks(a, lg, p);
    }
    if spec.hw_sched() {
        a.get_hw_sched(Reg::A0);
        a.slli(Reg::T0, Reg::A0, 2);
        a.li(Reg::T1, KernelLayout::LOOKUP as i32);
        a.add(Reg::T0, Reg::T1, Reg::T0);
        a.lw(Reg::A0, 0, Reg::T0); // id -> TCB (software lookup table, §4.4)
    } else {
        emit::sched_select(a, lg);
    }
    a.li(Reg::T1, KernelLayout::CURRENT_TCB as i32);
    a.sw(Reg::A0, 0, Reg::T1);
    if spec.probe {
        // The oracle's core check: which task won this scheduling event.
        probe::emit_probe_id(a, probe::Probe::Sched { id: 0 }.encode(), Reg::A0);
    }
    if spec.trace_phases {
        emit_phase_mark(a, PhaseCode::SchedDone);
    }

    // --- context-switch tail.
    if spec.banked() && spec.hw_load() {
        // (SL)/(SLT)/(SPLIT): announce the next task (unless GET_HW_SCHED
        // already did) and return; mret stalls until the restore FSM is
        // done and switches banks automatically (§4.3).
        if !spec.hw_sched() {
            a.lw(Reg::T2, tcb::ID, Reg::A0);
            a.set_context_id(Reg::T2);
        }
        a.mret();
    } else if spec.banked() {
        // (S)/(ST) family: park the id, switch back to the application
        // bank (stalls while storing is in flight, §4.2) and restore in
        // software from the fixed context region.
        a.lw(Reg::T2, tcb::ID, Reg::A0);
        a.li(Reg::T3, KernelLayout::NEXT_ID as i32);
        a.sw(Reg::T2, 0, Reg::T3);
        if !spec.hw_sched() {
            a.set_context_id(Reg::T2);
        }
        a.switch_rf();
        emit_restore_ctx_region(a);
        a.mret();
    } else {
        // (vanilla)/(T)/(CV32RT): full software restore from the frame.
        emit_restore_frame(a, spec.cv32rt());
        a.mret();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(p: Preset) -> IsrSpec {
        IsrSpec {
            preset: p,
            tick_period: 2000,
            ext_sem_addr: Some(KernelLayout::SEMS),
            trace_phases: false,
            probe: false,
            ipi: false,
            protect: None,
        }
    }

    fn isr_len(p: Preset) -> usize {
        let mut a = Asm::new(0);
        let mut lg = LabelGen::new();
        gen_isr(&mut a, &mut lg, &spec(p));
        a.ebreak();
        a.finish().expect("ISR assembles").words.len()
    }

    /// The CV32RT frame the ISR saves and restores is the one the unit
    /// drains into: snapshot register `i` at `HW_BLOCK_OFF + 4 * i`, and
    /// every software-saved word at its own offset below that block.
    #[test]
    fn cv32rt_frame_matches_the_units_snapshot_block() {
        for (i, &r) in SNAPSHOT_REGS.iter().enumerate() {
            let off = frame_word_off(ctx_index_of(r), true);
            assert_eq!(off, (HW_BLOCK_OFF + 4 * i as u32) as i32, "{r}");
        }
        let hw: Vec<usize> = SNAPSHOT_REGS.iter().map(|&r| ctx_index_of(r)).collect();
        let mut soft: Vec<i32> = (0..rtosunit::layout::CTX_WORDS)
            .filter(|w| !hw.contains(w))
            .map(|w| frame_word_off(w, true))
            .collect();
        assert!(soft
            .iter()
            .all(|&off| (0..HW_BLOCK_OFF as i32).contains(&off)));
        let words = soft.len();
        soft.sort_unstable();
        soft.dedup();
        assert_eq!(soft.len(), words, "two software-saved words share a slot");
    }

    #[test]
    fn all_isrs_assemble() {
        for p in Preset::LATENCY_SET {
            assert!(isr_len(p) > 5, "{p} ISR too small");
        }
    }

    #[test]
    fn isr_shrinks_as_features_move_to_hardware() {
        // Fig. 4: the software ISR shortens with more offloading.
        let vanilla = isr_len(Preset::Vanilla);
        let t = isr_len(Preset::T);
        let s = isr_len(Preset::S);
        let sl = isr_len(Preset::Sl);
        let slt = isr_len(Preset::Slt);
        assert!(t < vanilla, "(T) removes tick + scheduler scan");
        assert!(s < vanilla, "(S) removes the save path");
        assert!(sl < s, "(SL) removes the restore path");
        assert!(slt < sl, "(SLT) is minimal");
        assert!(slt < 40, "(SLT) ISR must be tiny, got {slt} instructions");
    }

    #[test]
    fn phase_marks_are_opt_in_and_grow_the_isr() {
        for p in [Preset::Vanilla, Preset::Slt] {
            let plain = isr_len(p);
            let mut a = Asm::new(0);
            let mut lg = LabelGen::new();
            let mut s = spec(p);
            s.trace_phases = true;
            gen_isr(&mut a, &mut lg, &s);
            a.ebreak();
            let traced = a.finish().expect("ISR assembles").words.len();
            assert!(traced > plain, "{p}: marks must add instructions");
            // Each mark is li/li/sw; both `li`s expand to lui+addi for
            // the MMIO address and the tagged phase code, so two marks
            // cost at most 10 instructions.
            assert!(traced <= plain + 10, "{p}: marks must stay cheap");
        }
    }

    #[test]
    fn ipi_drain_is_opt_in() {
        for p in [Preset::Vanilla, Preset::Slt, Preset::SltHs] {
            let plain = isr_len(p);
            let mut a = Asm::new(0);
            let mut lg = LabelGen::new();
            let mut s = spec(p);
            s.ipi = true;
            gen_isr(&mut a, &mut lg, &s);
            a.ebreak();
            let with_ipi = a.finish().expect("ISR assembles").words.len();
            assert!(with_ipi > plain, "{p}: the drain loop adds instructions");
        }
    }

    #[test]
    fn protection_is_opt_in_and_grows_the_isr() {
        for p in [Preset::Vanilla, Preset::Slt] {
            let plain = isr_len(p);
            let mut a = Asm::new(0);
            let mut lg = LabelGen::new();
            let mut s = spec(p);
            s.protect = Some(ProtectSpec {
                n_tasks: 3,
                kill: p == Preset::Vanilla,
            });
            gen_isr(&mut a, &mut lg, &s);
            a.ebreak();
            let protected = a.finish().expect("ISR assembles").words.len();
            // The sweeps are substantial real work — the whole point is
            // that protection overhead shows in the measured latency.
            assert!(protected > plain + 20, "{p}: checks must add code");
        }
    }

    #[test]
    fn cv32rt_saves_fewer_words_than_vanilla() {
        let vanilla = isr_len(Preset::Vanilla);
        let cv32rt = isr_len(Preset::Cv32rt);
        // 16 stores are done by hardware.
        assert!(cv32rt + 10 <= vanilla);
    }
}
