//! The engine's one executor: `CoreEngine::issue`.
//!
//! Issuing a micro-op applies its architectural effect, performs its
//! data-bus or coprocessor access, retires it (retire count and trace
//! entry) and charges its timing: the drain cycles it holds the pipeline
//! after its issue cycle, the stall counter they count under, and the
//! profile attribution of all its cycles. A misaligned access traps
//! instead, retiring and recording nothing. Both drivers call it: the
//! per-cycle interpreter ([`CoreEngine::step`]) and translated-block
//! dispatch ([`crate::blockcache`]). Each instruction's semantics and
//! timing are therefore stated once, here; the drivers decide only *when*
//! an op issues (drains, `wfi`, interrupt entry, coprocessor gates,
//! batching) and what the system ops end.

use crate::coproc::Coprocessor;
use crate::engine::{BusResponse, CoreEngine, CoreEvent, DataBus};
use crate::state::ArchState;
use rvsim_isa::instr::{AluOp, BranchOp, CsrOp, LoadOp, MulDivOp, StoreOp};
use rvsim_isa::{csr, Reg, Uop};
use rvsim_mem::AccessSize;

/// What one [`CoreEngine::issue`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Issued {
    /// Cycles the pipeline stays busy after the issue cycle: the op's
    /// latency minus one, or the handler-entry flush when it trapped.
    pub(crate) drain: u32,
    /// The exception entered instead of retiring (a misaligned access).
    pub(crate) trap: Option<CoreEvent>,
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 0x1f),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 0x1f),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

#[allow(
    clippy::manual_div_ceil,
    clippy::if_then_some_else_none,
    clippy::manual_ok_err
)]
#[allow(clippy::collapsible_else_if)]
#[allow(clippy::manual_unwrap_or_default)]
#[allow(clippy::manual_checked_ops)]
#[inline(never)]
fn muldiv(op: MulDivOp, a: u32, b: u32) -> u32 {
    match op {
        MulDivOp::Mul => a.wrapping_mul(b),
        MulDivOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulDivOp::Mulhsu => (((a as i32 as i64) * (b as i64)) >> 32) as u32,
        MulDivOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        MulDivOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulDivOp::Divu => {
            if b == 0 {
                u32::MAX
            } else {
                a / b
            }
        }
        MulDivOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulDivOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

fn branch_taken(op: BranchOp, a: u32, b: u32) -> bool {
    match op {
        BranchOp::Eq => a == b,
        BranchOp::Ne => a != b,
        BranchOp::Lt => (a as i32) < (b as i32),
        BranchOp::Ge => (a as i32) >= (b as i32),
        BranchOp::Ltu => a < b,
        BranchOp::Geu => a >= b,
    }
}

/// A CSR access at `cycle`: reads CSR `addr` into `rd` and applies the
/// op's read-modify-write (the set/clear forms skip the write when the
/// operand is zero). `src` is a register number or a 5-bit immediate;
/// `mcycle` reads the issue cycle.
#[inline(never)]
fn csr_access(s: &mut ArchState, op: CsrOp, rd: Reg, addr: u16, src: u8, cycle: u64) {
    let old = match addr {
        csr::MCYCLE => cycle as u32,
        _ => s.csrs.read(addr),
    };
    let operand = if op.is_immediate() {
        u32::from(src)
    } else {
        s.read_reg(Reg::from_number(src))
    };
    let new = match op {
        CsrOp::Rw | CsrOp::Rwi => Some(operand),
        CsrOp::Rs | CsrOp::Rsi => (operand != 0).then_some(old | operand),
        CsrOp::Rc | CsrOp::Rci => (operand != 0).then_some(old & !operand),
    };
    if let Some(v) = new {
        s.csrs.write(addr, v);
    }
    s.write_reg(rd, old);
}

/// A core data access, after catching the bus clock up by the `lag`
/// cycles block dispatch still owes it.
#[inline(always)]
fn access<B: DataBus>(
    bus: &mut B,
    lag: &mut u64,
    addr: u32,
    size: AccessSize,
    write: Option<u32>,
) -> BusResponse {
    if *lag > 0 {
        bus.advance_cycles(std::mem::take(lag));
    }
    bus.core_access(addr, size, write)
}

impl CoreEngine {
    /// Issues `uop`, the instruction at `pc`, in the current cycle.
    ///
    /// `leads_pair` marks the first op of a dual-issue pair: it retires in
    /// the same cycle as the op after it, which is charged for that cycle.
    /// `lag` is the number of cycles the bus clock is behind the core; it
    /// is paid before any data access (the interpreter passes zero).
    ///
    /// Always inlined: it runs once per simulated instruction, and the
    /// call alone costs block dispatch a measurable share of its time.
    /// The rarely taken bodies (CSR access, multiply/divide, the
    /// misaligned trap) stay out of line to keep the inlined copies small.
    #[inline(always)]
    pub(crate) fn issue<B: DataBus, C: Coprocessor>(
        &mut self,
        uop: Uop,
        pc: u32,
        leads_pair: bool,
        bus: &mut B,
        coproc: &mut C,
        lag: &mut u64,
    ) -> Issued {
        let p = &self.params;
        let s = &mut self.state;
        let fall = pc.wrapping_add(4);
        // The address of the next instruction, and the op's total cycles.
        let (next, latency) = match uop {
            Uop::AluRR { op, rd, rs1, rs2 } => {
                s.write_reg(rd, alu(op, s.read_reg(rs1), s.read_reg(rs2)));
                (fall, 1)
            }
            Uop::AluRI { op, rd, rs1, imm } => {
                s.write_reg(rd, alu(op, s.read_reg(rs1), imm));
                (fall, 1)
            }
            Uop::MovImm { rd, value } => {
                s.write_reg(rd, value);
                (fall, 1)
            }
            Uop::MulDiv { op, rd, rs1, rs2 } => {
                s.write_reg(rd, muldiv(op, s.read_reg(rs1), s.read_reg(rs2)));
                let multiply = matches!(
                    op,
                    MulDivOp::Mul | MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu
                );
                (
                    fall,
                    if multiply {
                        p.mul_latency
                    } else {
                        p.div_latency
                    },
                )
            }
            Uop::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = s.read_reg(rs1).wrapping_add(offset);
                let size = match op {
                    LoadOp::Lb | LoadOp::Lbu => AccessSize::Byte,
                    LoadOp::Lh | LoadOp::Lhu => AccessSize::Half,
                    LoadOp::Lw => AccessSize::Word,
                };
                if addr % size.bytes() != 0 {
                    return self.misaligned(pc, csr::CAUSE_MISALIGNED_LOAD);
                }
                let resp = access(bus, lag, addr, size, None);
                let value = match op {
                    LoadOp::Lb => resp.data as u8 as i8 as i32 as u32,
                    LoadOp::Lbu => resp.data & 0xff,
                    LoadOp::Lh => resp.data as u16 as i16 as i32 as u32,
                    LoadOp::Lhu => resp.data & 0xffff,
                    LoadOp::Lw => resp.data,
                };
                s.write_reg(rd, value);
                (fall, p.load_base_latency + resp.extra_latency)
            }
            Uop::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let addr = s.read_reg(rs1).wrapping_add(offset);
                let size = match op {
                    StoreOp::Sb => AccessSize::Byte,
                    StoreOp::Sh => AccessSize::Half,
                    StoreOp::Sw => AccessSize::Word,
                };
                if addr % size.bytes() != 0 {
                    return self.misaligned(pc, csr::CAUSE_MISALIGNED_STORE);
                }
                let resp = access(bus, lag, addr, size, Some(s.read_reg(rs2)));
                (fall, p.store_latency + resp.extra_latency)
            }
            Uop::Branch {
                op,
                rs1,
                rs2,
                taken_pc,
                fall_pc,
            } => {
                let taken = branch_taken(op, s.read_reg(rs1), s.read_reg(rs2));
                let penalty = p.branch_penalty;
                let penalised = if p.has_predictor {
                    self.predict_taken(pc, taken) != taken
                } else {
                    taken
                };
                (
                    if taken { taken_pc } else { fall_pc },
                    1 + if penalised { penalty } else { 0 },
                )
            }
            Uop::Jal {
                link,
                link_value,
                target,
            } => {
                s.write_reg(link, link_value);
                (target, 1 + p.jump_penalty)
            }
            Uop::Jalr {
                link,
                link_value,
                rs1,
                offset,
            } => {
                let target = s.read_reg(rs1).wrapping_add(offset) & !1;
                s.write_reg(link, link_value);
                (target, 1 + p.jalr_penalty)
            }
            Uop::Csr {
                op,
                rd,
                csr: addr,
                src,
            } => {
                csr_access(s, op, rd, addr, src, self.cycle);
                (fall, p.csr_latency)
            }
            Uop::Mret => (s.csrs.exit_trap(), p.mret_latency),
            Uop::Wfi => {
                self.wfi_wait = true;
                self.wfi_pc = pc;
                (fall, 1)
            }
            Uop::Halt => {
                self.halted = true;
                (fall, 1)
            }
            Uop::Fence => {
                // `fence.i` orders fetch after writes: drop every block
                // translation (the per-word micro-op cache is kept
                // coherent by the IMEM write paths themselves).
                if let Some(cache) = &mut self.blocks {
                    cache.flush();
                }
                (fall, 1)
            }
            Uop::Custom { op, rd, rs1, rs2 } => {
                let result = coproc.exec_custom(op, s.read_reg(rs1), s.read_reg(rs2), s);
                if op.writes_rd() {
                    s.write_reg(rd, result);
                }
                (fall, p.custom_latency)
            }
        };
        self.state.pc = next;
        self.retired += 1;
        self.trace.push((self.cycle, pc));
        let drain = latency.saturating_sub(1);
        // Issue-time stall attribution: the drain is fully decided here,
        // so a driver that bulk-skips it ends with identical counters.
        if drain > 0 {
            let stall = match uop {
                Uop::Load { .. } | Uop::Store { .. } => &mut self.counters.stall_mem,
                Uop::Branch { .. } | Uop::Jal { .. } | Uop::Jalr { .. } => {
                    &mut self.counters.stall_control
                }
                Uop::Mret => &mut self.counters.stall_mret,
                _ => &mut self.counters.stall_exec,
            };
            *stall += u64::from(drain);
        }
        if leads_pair {
            self.counters.issued_pairs += 1;
        } else {
            self.attribute(pc, 1 + u64::from(drain));
        }
        Issued { drain, trap: None }
    }

    /// A misaligned access at `pc` traps before touching the bus: nothing
    /// retires, nothing is recorded, and the core enters the handler.
    #[cold]
    #[inline(never)]
    fn misaligned(&mut self, pc: u32, cause: u32) -> Issued {
        Issued {
            drain: self.enter_handler(pc, cause),
            trap: Some(CoreEvent::ExceptionEntered { cause }),
        }
    }

    /// Trap entry, for interrupts and synchronous exceptions alike: saves
    /// `epc`, jumps to the handler, and returns the pipeline-flush drain.
    /// The whole flush is charged to the handler's first instruction, so
    /// ISR prologues show their true entry cost.
    pub(crate) fn enter_handler(&mut self, epc: u32, cause: u32) -> u32 {
        let target = self.state.csrs.enter_trap(epc, cause);
        self.state.pc = target;
        let drain = self.params.irq_entry_latency.saturating_sub(1);
        self.counters.stall_irq_entry += u64::from(drain);
        self.attribute(target, 1 + u64::from(drain));
        drain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coproc::NullCoprocessor;
    use crate::engine::SramBus;
    use crate::state::ArchState;
    use crate::timing::TimingParams;
    use rvsim_isa::uop::lower;
    use rvsim_isa::{CustomOp, Instr};

    fn fresh() -> CoreEngine {
        CoreEngine::new(TimingParams::cv32e40p(), 0x1000, 0x1000)
    }

    /// Issues `instr` as the instruction at `pc`, on a scratch bus.
    fn issue_with<C: Coprocessor>(
        e: &mut CoreEngine,
        instr: Instr,
        pc: u32,
        coproc: &mut C,
    ) -> Issued {
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        e.issue(lower(&instr, pc), pc, false, &mut bus, coproc, &mut 0)
    }

    fn issue(e: &mut CoreEngine, instr: Instr, pc: u32) -> Issued {
        issue_with(e, instr, pc, &mut NullCoprocessor)
    }

    fn op_imm(op: AluOp, rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm { op, rd, rs1, imm }
    }

    #[test]
    fn alu_basics() {
        let mut e = fresh();
        e.state.write_reg(Reg::A1, 7);
        issue(&mut e, op_imm(AluOp::Add, Reg::A0, Reg::A1, -3), 0x1000);
        assert_eq!(e.state.read_reg(Reg::A0), 4);
        assert_eq!(e.state.pc, 0x1004);
        let sub = Instr::Op {
            op: AluOp::Sub,
            rd: Reg::A2,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        let out = issue(&mut e, sub, 0x1004);
        assert_eq!(e.state.read_reg(Reg::A2) as i32, -3);
        assert_eq!(
            out,
            Issued {
                drain: 0,
                trap: None
            }
        );
        assert_eq!(e.retired(), 2);
    }

    #[test]
    fn shifts_and_compares() {
        let mut e = fresh();
        e.state.write_reg(Reg::A0, 0x8000_0000);
        issue(&mut e, op_imm(AluOp::Sra, Reg::A1, Reg::A0, 4), 0);
        assert_eq!(e.state.read_reg(Reg::A1), 0xF800_0000);
        issue(&mut e, op_imm(AluOp::Srl, Reg::A2, Reg::A0, 4), 0);
        assert_eq!(e.state.read_reg(Reg::A2), 0x0800_0000);
        issue(&mut e, op_imm(AluOp::Slt, Reg::A3, Reg::A0, 0), 0);
        assert_eq!(e.state.read_reg(Reg::A3), 1); // negative < 0
        issue(&mut e, op_imm(AluOp::Sltu, Reg::A4, Reg::A0, 0), 0);
        assert_eq!(e.state.read_reg(Reg::A4), 0);
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(muldiv(MulDivOp::Div, 10, 0), u32::MAX);
        assert_eq!(muldiv(MulDivOp::Rem, 10, 0), 10);
        assert_eq!(muldiv(MulDivOp::Div, 0x8000_0000, u32::MAX), 0x8000_0000);
        assert_eq!(muldiv(MulDivOp::Rem, 0x8000_0000, u32::MAX), 0);
        assert_eq!(muldiv(MulDivOp::Divu, 7, 2), 3);
        assert_eq!(muldiv(MulDivOp::Mulh, 0x8000_0000, 2), 0xFFFF_FFFF);
        // Through the executor, a divide holds the pipeline for its
        // latency and counts as an execution stall.
        let mut e = fresh();
        e.state.write_reg(Reg::A0, 1000);
        e.state.write_reg(Reg::A1, 7);
        let div = Instr::MulDiv {
            op: MulDivOp::Div,
            rd: Reg::A2,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        let out = issue(&mut e, div, 0);
        assert_eq!(e.state.read_reg(Reg::A2), 142);
        assert_eq!(out.drain, e.params.div_latency - 1);
        assert_eq!(e.counters().stall_exec, u64::from(out.drain));
    }

    #[test]
    fn jal_links_and_jumps() {
        let mut e = fresh();
        let jal = Instr::Jal {
            rd: Reg::Ra,
            offset: 0x40,
        };
        let out = issue(&mut e, jal, 0x1000);
        assert_eq!(e.state.read_reg(Reg::Ra), 0x1004);
        assert_eq!(e.state.pc, 0x1040);
        assert_eq!(out.drain, e.params.jump_penalty);
        assert_eq!(e.counters().stall_control, u64::from(out.drain));
    }

    #[test]
    fn jalr_clears_low_bit() {
        let mut e = fresh();
        e.state.write_reg(Reg::A0, 0x2001);
        let jalr = Instr::Jalr {
            rd: Reg::Zero,
            rs1: Reg::A0,
            offset: 0,
        };
        let out = issue(&mut e, jalr, 0);
        assert_eq!(e.state.pc, 0x2000);
        assert_eq!(out.drain, e.params.jalr_penalty);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let mut e = fresh();
        e.state.write_reg(Reg::A0, 1);
        let branch = |op| Instr::Branch {
            op,
            rs1: Reg::A0,
            rs2: Reg::Zero,
            offset: -16,
        };
        // No predictor on CV32E40P: a taken branch pays the penalty.
        let t = issue(&mut e, branch(BranchOp::Ne), 0x1000);
        assert_eq!(e.state.pc, 0x0FF0);
        assert_eq!(t.drain, e.params.branch_penalty);
        let n = issue(&mut e, branch(BranchOp::Eq), 0x1000);
        assert_eq!(e.state.pc, 0x1004);
        assert_eq!(n.drain, 0);
    }

    #[test]
    fn loads_and_stores_go_through_the_bus() {
        let mut e = fresh();
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        e.state.write_reg(Reg::Sp, 0x2000_0100);
        e.state.write_reg(Reg::A1, 0xFFFF_FF85);
        let sb = Instr::Store {
            op: StoreOp::Sb,
            rs1: Reg::Sp,
            rs2: Reg::A1,
            offset: -8,
        };
        let lb = |op| Instr::Load {
            op,
            rd: Reg::A0,
            rs1: Reg::Sp,
            offset: -8,
        };
        let mut lag = 0;
        let mut co = NullCoprocessor;
        e.issue(lower(&sb, 0), 0, false, &mut bus, &mut co, &mut lag);
        assert_eq!(bus.mem.read_word(0x2000_00F8), 0x85);
        e.issue(
            lower(&lb(LoadOp::Lb), 4),
            4,
            false,
            &mut bus,
            &mut co,
            &mut lag,
        );
        assert_eq!(e.state.read_reg(Reg::A0), 0xFFFF_FF85, "lb sign-extends");
        // The test bus charges one extra cycle per load.
        let out = e.issue(
            lower(&lb(LoadOp::Lbu), 8),
            8,
            false,
            &mut bus,
            &mut co,
            &mut lag,
        );
        assert_eq!(e.state.read_reg(Reg::A0), 0x85, "lbu zero-extends");
        assert_eq!(out.drain, e.params.load_base_latency);
        assert_eq!(e.counters().stall_mem, 2);
    }

    #[test]
    fn a_misaligned_access_retires_and_records_nothing() {
        let mut e = fresh();
        e.state.csrs.mtvec = 0x1800;
        e.state.write_reg(Reg::A1, 0x2000_0002);
        let lw = Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0,
        };
        let out = issue(&mut e, lw, 0x1010);
        assert_eq!(
            out.trap,
            Some(CoreEvent::ExceptionEntered {
                cause: csr::CAUSE_MISALIGNED_LOAD
            })
        );
        assert_eq!(out.drain, e.params.irq_entry_latency - 1);
        assert_eq!((e.state.pc, e.state.csrs.mepc), (0x1800, 0x1010));
        assert_eq!(e.retired(), 0);
        assert_eq!(e.recent_pcs().count(), 0);
        assert_eq!(e.state.read_reg(Reg::A0), 0);
    }

    #[test]
    fn csr_read_write() {
        let mut e = fresh();
        e.state.write_reg(Reg::A0, 0xAB);
        let csr_op = |op, rd, src| Instr::Csr {
            op,
            rd,
            csr: csr::MSCRATCH,
            src,
        };
        let out = issue(&mut e, csr_op(CsrOp::Rw, Reg::A1, Reg::A0.number()), 0);
        assert_eq!(e.state.csrs.mscratch, 0xAB);
        assert_eq!(e.state.read_reg(Reg::A1), 0);
        assert_eq!(out.drain, e.params.csr_latency - 1);
        // csrrs with x0 must not write.
        e.state.csrs.mscratch = 0x55;
        issue(&mut e, csr_op(CsrOp::Rs, Reg::A2, 0), 0);
        assert_eq!(e.state.read_reg(Reg::A2), 0x55);
        assert_eq!(e.state.csrs.mscratch, 0x55);
    }

    #[test]
    fn mret_resumes_at_mepc() {
        let mut e = fresh();
        e.state.csrs.enter_trap(0x4444, csr::CAUSE_TIMER);
        let out = issue(&mut e, Instr::Mret, 0x100);
        assert_eq!(e.state.pc, 0x4444);
        assert!(e.state.csrs.mie_enabled() || e.state.csrs.mstatus & csr::MSTATUS_MIE == 0);
        assert_eq!(out.drain, e.params.mret_latency - 1);
        assert_eq!(e.counters().stall_mret, u64::from(out.drain));
    }

    #[test]
    fn custom_forwards_operand_values() {
        /// Records the forwarded operation and answers a fixed result.
        struct Recorder(Option<(CustomOp, u32, u32)>);
        impl Coprocessor for Recorder {
            fn on_interrupt_entry(&mut self, _: &mut ArchState, _: u32) {}
            fn mret_stall(&self) -> bool {
                false
            }
            fn on_mret(&mut self, _: &mut ArchState) {}
            fn custom_stall(&self, _: CustomOp) -> bool {
                false
            }
            fn exec_custom(&mut self, op: CustomOp, a: u32, b: u32, _: &mut ArchState) -> u32 {
                self.0 = Some((op, a, b));
                0x77
            }
            fn step<B: DataBus>(&mut self, _: &mut ArchState, _: &mut B) {}
        }
        let mut e = fresh();
        e.state.write_reg(Reg::A0, 3);
        e.state.write_reg(Reg::A1, 9);
        let custom = |op, rd| Instr::Custom {
            op,
            rd,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        let mut co = Recorder(None);
        let out = issue_with(&mut e, custom(CustomOp::AddReady, Reg::A2), 0, &mut co);
        assert_eq!(co.0, Some((CustomOp::AddReady, 3, 9)));
        assert_eq!(e.state.read_reg(Reg::A2), 0, "ADD_READY writes no rd");
        assert_eq!(out.drain, e.params.custom_latency - 1);
        issue_with(&mut e, custom(CustomOp::GetHwSched, Reg::A2), 4, &mut co);
        assert_eq!(e.state.read_reg(Reg::A2), 0x77);
    }
}
