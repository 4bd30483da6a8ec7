//! Re-implementation of the comparison design **CV32RT** (Balas et al.
//! \[3\], as re-built by the paper for all three cores, §6).
//!
//! At interrupt entry the design *snapshots* half the register file —
//! x16..x31, 16 registers — into an internal buffer within a single cycle,
//! then drains the buffer to the task's stack frame through a **dedicated
//! second memory port** (one word per cycle, no arbitration with the
//! core). The other half of the context (13 registers + `mstatus` +
//! `mepc`) is saved by software; restore is entirely software.
//!
//! On the write-back-cache core (NaxRiscv) the dedicated port bypasses the
//! cache, so the cache line(s) covering the bypassed words are explicitly
//! invalidated — the paper reports this as the source of CV32RT's poor
//! fit there (§6).

use rvsim_cores::{ArchState, Coprocessor, CoreKind, DataBus};
use rvsim_isa::{CustomOp, Reg};
use rvsim_snapshot::{self as snap, Json, SnapError};

/// The 16 snapshot registers (x16..x31).
pub const SNAPSHOT_REGS: [Reg; 16] = [
    Reg::A6,
    Reg::A7,
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
    Reg::S8,
    Reg::S9,
    Reg::S10,
    Reg::S11,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
];

/// Size of the CV32RT stack frame in bytes: 31 context words padded to
/// 128 so the hardware-written half occupies one 64-byte-aligned block.
pub const FRAME_BYTES: u32 = 128;
/// Frame offset of the hardware-written snapshot block.
pub const HW_BLOCK_OFF: u32 = 64;

/// Activity counters of the CV32RT model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cv32rtStats {
    /// Interrupt entries (snapshots taken).
    pub interrupts: u64,
    /// Words written through the dedicated port.
    pub snapshot_words: u64,
    /// Cache lines invalidated after bypassing writes.
    pub invalidations: u64,
}

/// The CV32RT comparison unit. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Cv32rtUnit {
    bypass_invalidate: bool,
    buf: [u32; 16],
    frame_base: u32,
    remaining: usize,
    invalidated_lines: Vec<u32>,
    /// Activity counters.
    pub stats: Cv32rtStats,
}

impl Cv32rtUnit {
    /// Creates the unit for `kind` (cache-line invalidation is only
    /// needed on the write-back-cache core).
    pub fn new(kind: CoreKind) -> Cv32rtUnit {
        Cv32rtUnit {
            bypass_invalidate: kind.unit_shares_cache(),
            buf: [0; 16],
            frame_base: 0,
            remaining: 0,
            invalidated_lines: Vec::new(),
            stats: Cv32rtStats::default(),
        }
    }

    /// Whether the snapshot drain is still in progress.
    pub fn snapshot_busy(&self) -> bool {
        self.remaining > 0
    }

    /// Stack-frame offset (bytes) of snapshot register index `i`: the
    /// snapshot block is contiguous and line-aligned.
    fn frame_offset(i: usize) -> u32 {
        HW_BLOCK_OFF + (i as u32) * 4
    }

    /// Serializes the unit (snapshot buffer, drain cursor, invalidated
    /// lines, counters) for a machine-state snapshot. Whether lines are
    /// invalidated at all is the core kind's.
    pub fn to_snap(&self) -> Json {
        Json::object()
            .with("buf", snap::runs_to_json(&self.buf))
            .with("frame_base", self.frame_base)
            .with("remaining", self.remaining)
            .with("lines", snap::list_to_json(&self.invalidated_lines))
            .with("interrupts", self.stats.interrupts)
            .with("snapshot_words", self.stats.snapshot_words)
            .with("invalidations", self.stats.invalidations)
    }

    /// Rebuilds the unit for `kind` from [`to_snap`](Self::to_snap)
    /// output.
    ///
    /// # Errors
    ///
    /// Fails on malformed fields, a drain cursor beyond the buffer, or
    /// more invalidated lines than the drained words could invalidate.
    pub fn from_snap(value: &Json, kind: CoreKind) -> Result<Cv32rtUnit, SnapError> {
        let remaining = snap::get_usize(value, "remaining")?;
        let lines: Vec<u32> = snap::list_from_json(snap::field(value, "lines")?, "cv32rt lines")?;
        // Each drained word invalidates at most one line, and only on the
        // core whose cache the dedicated port bypasses.
        let bypass_invalidate = kind.unit_shares_cache();
        let drained = SNAPSHOT_REGS.len().checked_sub(remaining);
        if drained.is_none_or(|d| lines.len() > if bypass_invalidate { d } else { 0 }) {
            return Err(SnapError::new(format!(
                "cv32rt: drain cursor {remaining} with {} invalidated lines",
                lines.len()
            )));
        }
        let words = snap::runs_from_json(snap::field(value, "buf")?, 16)?;
        let mut buf = [0u32; 16];
        buf.copy_from_slice(&words);
        Ok(Cv32rtUnit {
            bypass_invalidate,
            buf,
            frame_base: snap::get_u32(value, "frame_base")?,
            remaining,
            invalidated_lines: lines,
            stats: Cv32rtStats {
                interrupts: snap::get_u64(value, "interrupts")?,
                snapshot_words: snap::get_u64(value, "snapshot_words")?,
                invalidations: snap::get_u64(value, "invalidations")?,
            },
        })
    }

    /// Writes the next snapshot word through the dedicated port.
    fn drain_word<B: DataBus>(&mut self, bus: &mut B) {
        let i = SNAPSHOT_REGS.len() - self.remaining;
        let addr = self.frame_base + Self::frame_offset(i);
        bus.dedicated_access(addr, Some(self.buf[i]));
        self.stats.snapshot_words += 1;
        if self.bypass_invalidate {
            // The dedicated port bypassed the write-back cache: the stale
            // line must be dropped — once per 64-byte line, matching the
            // paper's "single cache line containing the bypassed 16
            // words" (§6).
            let line = addr & !63;
            if self.invalidated_lines.iter().all(|&l| l != line) {
                bus.invalidate_line(addr);
                self.invalidated_lines.push(line);
                self.stats.invalidations += 1;
            }
        }
        self.remaining -= 1;
    }
}

impl Coprocessor for Cv32rtUnit {
    fn on_interrupt_entry(&mut self, state: &mut ArchState, _cause: u32) {
        self.stats.interrupts += 1;
        // Single-cycle parallel snapshot of 16 registers (this is the
        // wiring-heavy part the paper's sparse-MUX design avoids).
        for (i, r) in SNAPSHOT_REGS.iter().enumerate() {
            self.buf[i] = state.read_reg(*r);
        }
        // The software ISR allocates its frame at sp - FRAME_BYTES; the
        // hardware writes the snapshot half into that frame.
        self.frame_base = state.read_reg(Reg::Sp).wrapping_sub(FRAME_BYTES);
        self.remaining = SNAPSHOT_REGS.len();
        self.invalidated_lines.clear();
    }

    fn mret_stall(&self) -> bool {
        false
    }

    fn on_mret(&mut self, _state: &mut ArchState) {
        debug_assert_eq!(self.remaining, 0, "mret before the snapshot drained");
    }

    fn custom_stall(&self, _op: CustomOp) -> bool {
        false
    }

    fn exec_custom(&mut self, op: CustomOp, _rs1: u32, _rs2: u32, _state: &mut ArchState) -> u32 {
        panic!("CV32RT does not implement custom instruction {op}")
    }

    fn step<B: DataBus>(&mut self, _state: &mut ArchState, bus: &mut B) {
        if self.remaining > 0 {
            self.drain_word(bus);
        }
    }

    /// The dedicated port is granted on every cycle and its writes depend
    /// on no clock, so a span drains `min(cycles, remaining)` words and
    /// then moves the clock once.
    fn advance<B: DataBus>(&mut self, _state: &mut ArchState, bus: &mut B, cycles: u64) {
        for _ in 0..cycles.min(self.remaining as u64) {
            self.drain_word(bus);
        }
        bus.advance_cycles(cycles.saturating_sub(1));
    }

    fn is_idle(&self) -> bool {
        self.remaining == 0
    }

    fn context_busy(&self) -> bool {
        // The snapshot buffer was filled at entry.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{ctx_reg, DMEM_BASE, DMEM_SIZE};
    use crate::platform::Platform;
    use rvsim_isa::csr;

    #[test]
    fn snapshot_covers_x16_to_x31() {
        for r in SNAPSHOT_REGS {
            assert!(r.number() >= 16);
        }
        assert_eq!(SNAPSHOT_REGS.len(), 16);
    }

    #[test]
    fn snapshot_drains_to_the_stack_frame() {
        let mut u = Cv32rtUnit::new(CoreKind::Cv32e40p);
        let mut state = ArchState::new(0);
        let mut p = Platform::new(CoreKind::Cv32e40p, 1000);
        let sp = DMEM_BASE + DMEM_SIZE / 2;
        state.write_reg(Reg::Sp, sp);
        for (i, r) in SNAPSHOT_REGS.iter().enumerate() {
            state.write_reg(*r, 0xC0DE_0000 + i as u32);
        }
        u.on_interrupt_entry(&mut state, csr::CAUSE_TIMER);
        assert!(u.snapshot_busy());
        for _ in 0..16 {
            p.advance_cycles(1);
            u.step(&mut state, &mut p);
        }
        assert!(!u.snapshot_busy());
        let frame = sp - FRAME_BYTES;
        // a6 is the first word of the hardware snapshot block.
        assert_eq!(p.dmem.read_word(frame + HW_BLOCK_OFF), 0xC0DE_0000);
        // The snapshot region covers context words 13..=28.
        for w in 13..29 {
            let _ = ctx_reg(w); // all indices valid
        }
        assert_eq!(u.stats.snapshot_words, 16);
    }

    #[test]
    fn invalidation_only_on_shared_cache_core() {
        let mut nax = Cv32rtUnit::new(CoreKind::NaxRiscv);
        let mut cv = Cv32rtUnit::new(CoreKind::Cv32e40p);
        let mut state = ArchState::new(0);
        state.write_reg(Reg::Sp, DMEM_BASE + 0x1000);
        let mut p = Platform::new(CoreKind::NaxRiscv, 1000);
        nax.on_interrupt_entry(&mut state, csr::CAUSE_TIMER);
        cv.on_interrupt_entry(&mut state, csr::CAUSE_TIMER);
        for _ in 0..16 {
            p.advance_cycles(1);
            nax.step(&mut state, &mut p);
            cv.step(&mut state, &mut p);
        }
        // The aligned snapshot block occupies a single 64-byte line.
        assert_eq!(nax.stats.invalidations, 1);
        assert_eq!(cv.stats.invalidations, 0);
    }

    #[test]
    fn snapshot_drain_does_not_contend_with_core_port() {
        // The dedicated port always succeeds, even when the core hogs the
        // shared port every cycle.
        let mut u = Cv32rtUnit::new(CoreKind::Cv32e40p);
        let mut state = ArchState::new(0);
        state.write_reg(Reg::Sp, DMEM_BASE + 0x1000);
        let mut p = Platform::new(CoreKind::Cv32e40p, 1000);
        u.on_interrupt_entry(&mut state, csr::CAUSE_TIMER);
        for _ in 0..16 {
            p.advance_cycles(1);
            p.core_access(DMEM_BASE, rvsim_mem::AccessSize::Word, Some(1));
            u.step(&mut state, &mut p);
        }
        assert!(!u.snapshot_busy());
    }
}
