//! The golden architectural executor.
//!
//! A deliberately minimal RV32IM_Zicsr interpreter — no pipeline, no
//! latencies, no caches, no dual issue, no register banks — used as the
//! reference side of the differential lockstep harness (`rvsim-check`).
//! Its execution semantics are written directly against the architecture
//! model documented in `DESIGN.md` and do **not** reuse the engine's one
//! executor (`CoreEngine::issue`, which both the interpreter and block
//! dispatch issue through), its micro-ops, [`Csrs`](crate::csrs::Csrs) or
//! [`ArchState`](crate::state::ArchState): a bug in that executor must
//! show up as a divergence, not be faithfully reproduced on both sides.
//! Only the instruction *decoder* is shared (`rvsim_isa::decode` is
//! itself covered by encode/decode round-trip tests).
//!
//! Timing-dependent architectural state is out of scope by construction:
//! `mcycle` always reads zero here, and the program generator never reads
//! it. Custom RTOSUnit instructions are delegated to a caller-provided
//! functional model so both sides of the lockstep can share one.
//!
//! Interrupts are taken only when the driver asks
//! ([`GoldenCore::take_interrupt`]): which *cycle* an interrupt lands on is
//! timing, so the lockstep driver observes the engine's entry event and
//! demands the same entry — with the cause recomputed independently from
//! this core's own `mip`/`mie`/`mstatus` — at the same retire boundary.

use rvsim_isa::csr;
use rvsim_isa::instr::{AluOp, BranchOp, CsrOp, Instr, LoadOp, MulDivOp, StoreOp};
use rvsim_isa::{decode, CustomOp, Program, Reg};
use rvsim_mem::{AccessSize, Mem};

/// Result of one [`GoldenCore::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenStep {
    /// One instruction retired.
    Retired,
    /// A synchronous exception trapped (nothing retired); the value is the
    /// `mcause` code.
    Trap(u32),
    /// The core halted on `ecall`/`ebreak` (the halting instruction
    /// retires, matching the engine's accounting).
    Halted,
}

/// The functional model for RTOSUnit custom instructions: given the
/// operation and resolved operand values, returns the `rd` result (only
/// used when the op writes `rd`).
pub type CustomModel<'a> = dyn FnMut(CustomOp, u32, u32) -> u32 + 'a;

/// Architectural state and executor of the golden model.
#[derive(Debug, Clone)]
pub struct GoldenCore {
    regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// `mstatus` (raw; only MIE/MPIE/MPP are meaningful).
    pub mstatus: u32,
    /// `mie`.
    pub mie: u32,
    /// `mip` (set by the lockstep driver, mirroring the platform).
    pub mip: u32,
    /// `mtvec` (direct mode, low bits always clear).
    pub mtvec: u32,
    /// `mepc` (bit 0 always clear).
    pub mepc: u32,
    /// `mcause`.
    pub mcause: u32,
    /// `mscratch`.
    pub mscratch: u32,
    /// `mhartid` (read-only from guest code).
    pub mhartid: u32,
    /// Data memory (same window as the engine-side bus RAM).
    pub mem: Mem,
    imem: Mem,
    halted: bool,
    retired: u64,
}

impl GoldenCore {
    /// Creates a golden core with instruction memory at
    /// `imem_base..imem_base+imem_size` and data memory at
    /// `dmem_base..dmem_base+dmem_size`. The PC starts at `imem_base`.
    pub fn new(imem_base: u32, imem_size: u32, dmem_base: u32, dmem_size: u32) -> GoldenCore {
        GoldenCore {
            regs: [0; 32],
            pc: imem_base,
            mstatus: 0,
            mie: 0,
            mip: 0,
            mtvec: 0,
            mepc: 0,
            mcause: 0,
            mscratch: 0,
            mhartid: 0,
            mem: Mem::new(dmem_base, dmem_size),
            imem: Mem::new(imem_base, imem_size),
            halted: false,
            retired: 0,
        }
    }

    /// Loads a program and resets the PC to its base.
    pub fn load_program(&mut self, program: &Program) {
        self.imem.load_words(program.base, &program.words);
        self.pc = program.base;
    }

    /// Register value (`x0` reads zero).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize]
    }

    fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::Zero {
            self.regs[r.number() as usize] = value;
        }
    }

    /// Writes a register from outside the executor (harness use: state
    /// seeding and deliberate fault injection in self-tests). Writes to
    /// `x0` are discarded.
    pub fn write_reg(&mut self, r: Reg, value: u32) {
        self.set_reg(r, value);
    }

    /// Whether the core halted on `ecall`/`ebreak`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Retired-instruction count.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Decodes the instruction the core would execute next, if the PC is
    /// aligned, in range and the word decodes (harness introspection).
    pub fn peek(&self) -> Option<Instr> {
        if self.pc & 3 != 0 || !self.imem.contains(self.pc) {
            return None;
        }
        decode(self.imem.read_word(self.pc)).ok()
    }

    /// Reads a CSR by address (same visibility rules as guest reads).
    pub fn csr(&self, addr: u16) -> u32 {
        self.csr_read(addr)
    }

    fn csr_read(&self, addr: u16) -> u32 {
        match addr {
            csr::MSTATUS => self.mstatus,
            csr::MIE => self.mie,
            csr::MIP => self.mip,
            csr::MTVEC => self.mtvec,
            csr::MEPC => self.mepc,
            csr::MCAUSE => self.mcause,
            csr::MSCRATCH => self.mscratch,
            // mcycle is timing — the golden model has no clock. The
            // generator never reads it; a stray read diverges loudly.
            csr::MCYCLE => 0,
            csr::MHARTID => self.mhartid,
            _ => 0,
        }
    }

    fn csr_write(&mut self, addr: u16, value: u32) {
        match addr {
            csr::MSTATUS => self.mstatus = value,
            csr::MIE => self.mie = value,
            // mip is platform-owned; mcycle and mhartid are read-only.
            csr::MIP | csr::MCYCLE | csr::MHARTID => {}
            csr::MTVEC => self.mtvec = value & !0b11,
            csr::MEPC => self.mepc = value & !0b1,
            csr::MCAUSE => self.mcause = value,
            csr::MSCRATCH => self.mscratch = value,
            _ => {}
        }
    }

    /// Architectural trap entry: `mepc` ← faulting/interrupted PC,
    /// `mcause` ← cause, MIE stashed into MPIE and cleared, MPP set to
    /// machine mode, PC ← `mtvec`.
    fn enter_trap(&mut self, pc: u32, cause: u32) {
        self.mepc = pc & !0b1;
        self.mcause = cause;
        let mie_was = self.mstatus & csr::MSTATUS_MIE != 0;
        self.mstatus &= !(csr::MSTATUS_MIE | csr::MSTATUS_MPIE);
        if mie_was {
            self.mstatus |= csr::MSTATUS_MPIE;
        }
        self.mstatus |= csr::MSTATUS_MPP;
        self.pc = self.mtvec;
    }

    /// Takes a pending-and-enabled interrupt if there is one, returning
    /// its cause. Priority: external > software > timer.
    pub fn take_interrupt(&mut self) -> Option<u32> {
        if self.mstatus & csr::MSTATUS_MIE == 0 {
            return None;
        }
        let active = self.mip & self.mie;
        let cause = if active & csr::MIP_MEIP != 0 {
            csr::CAUSE_EXTERNAL
        } else if active & csr::MIP_MSIP != 0 {
            csr::CAUSE_SOFTWARE
        } else if active & csr::MIP_MTIP != 0 {
            csr::CAUSE_TIMER
        } else {
            return None;
        };
        self.enter_trap(self.pc, cause);
        Some(cause)
    }

    /// Executes one instruction (or takes a misaligned-fetch/load/store
    /// exception). `custom` is the functional model for RTOSUnit
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics on an undecodable instruction word, a fetch outside
    /// instruction memory, or an aligned data access outside data memory —
    /// the constrained generator produces none of these, so any occurrence
    /// is a generator bug, not a counterexample.
    pub fn step(&mut self, custom: &mut CustomModel) -> GoldenStep {
        if self.halted {
            return GoldenStep::Halted;
        }
        let pc = self.pc;
        if pc & 3 != 0 {
            self.enter_trap(pc, csr::CAUSE_MISALIGNED_FETCH);
            return GoldenStep::Trap(csr::CAUSE_MISALIGNED_FETCH);
        }
        assert!(
            self.imem.contains(pc),
            "golden fetch outside instruction memory: {pc:#010x}"
        );
        let instr = decode(self.imem.read_word(pc))
            .unwrap_or_else(|e| panic!("golden decode failure at {pc:#010x}: {e}"));

        let mut next_pc = pc.wrapping_add(4);
        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd, imm),
            Instr::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm)),
            Instr::Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(offset as u32);
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i32) < (b as i32),
                    BranchOp::Ge => (a as i32) >= (b as i32),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if taken {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let size = match op {
                    LoadOp::Lb | LoadOp::Lbu => AccessSize::Byte,
                    LoadOp::Lh | LoadOp::Lhu => AccessSize::Half,
                    LoadOp::Lw => AccessSize::Word,
                };
                if !addr.is_multiple_of(size.bytes()) {
                    self.enter_trap(pc, csr::CAUSE_MISALIGNED_LOAD);
                    return GoldenStep::Trap(csr::CAUSE_MISALIGNED_LOAD);
                }
                let raw = self.mem.read(addr, size);
                let value = match op {
                    LoadOp::Lb => raw as u8 as i8 as i32 as u32,
                    LoadOp::Lbu => raw & 0xff,
                    LoadOp::Lh => raw as u16 as i16 as i32 as u32,
                    LoadOp::Lhu => raw & 0xffff,
                    LoadOp::Lw => raw,
                };
                self.set_reg(rd, value);
            }
            Instr::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let size = match op {
                    StoreOp::Sb => AccessSize::Byte,
                    StoreOp::Sh => AccessSize::Half,
                    StoreOp::Sw => AccessSize::Word,
                };
                if !addr.is_multiple_of(size.bytes()) {
                    self.enter_trap(pc, csr::CAUSE_MISALIGNED_STORE);
                    return GoldenStep::Trap(csr::CAUSE_MISALIGNED_STORE);
                }
                self.mem.write(addr, size, self.reg(rs2));
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let v = Self::alu(op, self.reg(rs1), imm as u32);
                self.set_reg(rd, v);
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let v = Self::alu(op, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let v = Self::muldiv(op, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Instr::Csr { op, rd, csr, src } => {
                let old = self.csr_read(csr);
                let operand = if op.is_immediate() {
                    u32::from(src)
                } else {
                    self.reg(Reg::from_number(src))
                };
                match op {
                    CsrOp::Rw | CsrOp::Rwi => self.csr_write(csr, operand),
                    CsrOp::Rs | CsrOp::Rsi if operand != 0 => self.csr_write(csr, old | operand),
                    CsrOp::Rc | CsrOp::Rci if operand != 0 => self.csr_write(csr, old & !operand),
                    _ => {}
                }
                self.set_reg(rd, old);
            }
            Instr::Mret => {
                let mpie_was = self.mstatus & csr::MSTATUS_MPIE != 0;
                self.mstatus &= !csr::MSTATUS_MIE;
                if mpie_was {
                    self.mstatus |= csr::MSTATUS_MIE;
                }
                self.mstatus |= csr::MSTATUS_MPIE;
                next_pc = self.mepc;
            }
            Instr::Wfi | Instr::Fence => {}
            Instr::Ecall | Instr::Ebreak => {
                self.pc = next_pc;
                self.retired += 1;
                self.halted = true;
                return GoldenStep::Halted;
            }
            Instr::Custom { op, rd, rs1, rs2 } => {
                let result = custom(op, self.reg(rs1), self.reg(rs2));
                if op.writes_rd() {
                    self.set_reg(rd, result);
                }
            }
        }
        self.pc = next_pc;
        self.retired += 1;
        GoldenStep::Retired
    }

    fn alu(op: AluOp, a: u32, b: u32) -> u32 {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a << (b & 0x1f),
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Sltu => u32::from(a < b),
            AluOp::Xor => a ^ b,
            AluOp::Srl => a >> (b & 0x1f),
            AluOp::Sra => ((a as i32) >> (b & 0x1f)) as u32,
            AluOp::Or => a | b,
            AluOp::And => a & b,
        }
    }

    fn muldiv(op: MulDivOp, a: u32, b: u32) -> u32 {
        let (sa, sb) = (a as i32 as i64, b as i32 as i64);
        match op {
            MulDivOp::Mul => a.wrapping_mul(b),
            MulDivOp::Mulh => ((sa * sb) >> 32) as u32,
            MulDivOp::Mulhsu => ((sa * b as i64) >> 32) as u32,
            MulDivOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
            // Division by zero and signed overflow follow the RISC-V
            // M-extension table: q = -1 / MIN, r = a / 0.
            MulDivOp::Div => {
                if b == 0 {
                    u32::MAX
                } else {
                    (sa as i32).wrapping_div(sb as i32) as u32
                }
            }
            MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            MulDivOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (sa as i32).wrapping_rem(sb as i32) as u32
                }
            }
            MulDivOp::Remu => a.checked_rem(b).unwrap_or(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsim_isa::Asm;

    fn no_custom() -> impl FnMut(CustomOp, u32, u32) -> u32 {
        |op, _, _| panic!("unexpected custom op {op}")
    }

    fn run(asm: Asm) -> GoldenCore {
        let prog = asm.finish().expect("assembly");
        let mut g = GoldenCore::new(0, 0x1_0000, 0x2000_0000, 0x1000);
        g.load_program(&prog);
        let mut custom = no_custom();
        for _ in 0..100_000 {
            if let GoldenStep::Halted = g.step(&mut custom) {
                return g;
            }
        }
        panic!("golden program did not halt");
    }

    #[test]
    fn computes_a_sum_loop() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 0);
        a.li(Reg::T0, 1);
        a.li(Reg::T1, 11);
        a.label("loop");
        a.add(Reg::A0, Reg::A0, Reg::T0);
        a.addi(Reg::T0, Reg::T0, 1);
        a.bne(Reg::T0, Reg::T1, "loop");
        a.ebreak();
        let g = run(a);
        assert_eq!(g.reg(Reg::A0), 55);
    }

    #[test]
    fn memory_roundtrip() {
        let mut a = Asm::new(0);
        a.li(Reg::T0, 0x2000_0040u32 as i32);
        a.li(Reg::T1, 0xFFFF_8234u32 as i32);
        a.sw(Reg::T1, 0, Reg::T0);
        a.lh(Reg::A0, 0, Reg::T0); // sign-extended 0x8234
        a.lhu(Reg::A1, 0, Reg::T0);
        a.ebreak();
        let g = run(a);
        assert_eq!(g.reg(Reg::A0), 0xFFFF_8234);
        assert_eq!(g.reg(Reg::A1), 0x8234);
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(GoldenCore::muldiv(MulDivOp::Div, 10, 0), u32::MAX);
        assert_eq!(GoldenCore::muldiv(MulDivOp::Rem, 10, 0), 10);
        assert_eq!(
            GoldenCore::muldiv(MulDivOp::Div, 0x8000_0000, u32::MAX),
            0x8000_0000
        );
        assert_eq!(GoldenCore::muldiv(MulDivOp::Rem, 0x8000_0000, u32::MAX), 0);
    }

    #[test]
    fn misaligned_load_traps_without_retiring() {
        let mut a = Asm::new(0);
        a.la(Reg::T0, "handler");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(Reg::T1, 0x2000_0002u32 as i32);
        a.lw(Reg::A0, 0, Reg::T1);
        a.label("handler");
        a.ebreak();
        let prog = a.finish().unwrap();
        let mut g = GoldenCore::new(0, 0x1_0000, 0x2000_0000, 0x1000);
        g.load_program(&prog);
        let mut custom = no_custom();
        let mut traps = vec![];
        loop {
            match g.step(&mut custom) {
                GoldenStep::Trap(c) => traps.push(c),
                GoldenStep::Halted => break,
                GoldenStep::Retired => {}
            }
        }
        assert_eq!(traps, vec![csr::CAUSE_MISALIGNED_LOAD]);
        assert_eq!(g.mcause, csr::CAUSE_MISALIGNED_LOAD);
        // mepc points at the faulting lw, which never wrote a0.
        assert_eq!(g.reg(Reg::A0), 0);
        assert_eq!(g.mem.read_word(0x2000_0000), 0);
    }

    #[test]
    fn interrupt_entry_respects_priority_and_masks() {
        let mut g = GoldenCore::new(0, 0x100, 0x2000_0000, 0x100);
        g.mtvec = 0x80;
        g.mip = csr::MIP_MTIP | csr::MIP_MEIP;
        g.mie = csr::MIP_MTIP | csr::MIP_MEIP;
        assert_eq!(g.take_interrupt(), None); // MIE off
        g.mstatus = csr::MSTATUS_MIE;
        assert_eq!(g.take_interrupt(), Some(csr::CAUSE_EXTERNAL));
        assert_eq!(g.pc, 0x80);
        assert_eq!(g.mstatus & csr::MSTATUS_MIE, 0);
        assert_ne!(g.mstatus & csr::MSTATUS_MPIE, 0);
    }
}
