//! Micro-op representation: what a core executor issues.
//!
//! A [`Uop`] is an architectural micro-operation with everything an
//! executor wants resolved up front: register indices extracted from the
//! encoding, immediates widened and folded, and every PC-relative value
//! (branch targets, fall-through addresses, `auipc` results, link values)
//! pre-computed from the micro-op's address. Timing is deliberately *not*
//! part of the representation — a cycle model applies its own latencies
//! from the op class, so the same `Uop` serves any engine.
//!
//! [`lower`] converts any [`Instr`] at a known PC; [`fuses`] detects the
//! classic macro-op fusion pairs (`lui+addi`, `auipc+jalr`,
//! `slt/sltu+beqz/bnez`), which a block executor may dispatch together.

use crate::custom::CustomOp;
use crate::instr::{AluOp, BranchOp, CsrOp, Instr, LoadOp, MulDivOp, StoreOp};
use crate::reg::Reg;

/// One architectural micro-op. Every instruction has one. The system
/// ops (`mret`, `wfi`, `ecall`/`ebreak`, fences, custom coprocessor ops)
/// end basic blocks, and so does a CSR access that could write the
/// interrupt-gate CSRs (`mstatus`/`mie`, which can unmask a pending
/// interrupt): the executor must return to its interrupt-gate check
/// after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uop {
    /// `rd = op(rs1, rs2)`.
    AluRR {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `rd = op(rs1, imm)` (immediate pre-widened).
    AluRI {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: u32,
    },
    /// `rd = value` — `lui`, and `auipc` with the PC already added.
    MovImm { rd: Reg, value: u32 },
    /// `rd = op(rs1, rs2)` through the multiplier/divider.
    MulDiv {
        op: MulDivOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Load at `rs1 + offset` (offset pre-widened, wrapping add).
    Load {
        op: LoadOp,
        rd: Reg,
        rs1: Reg,
        offset: u32,
    },
    /// Store `rs2` at `rs1 + offset`.
    Store {
        op: StoreOp,
        rs1: Reg,
        rs2: Reg,
        offset: u32,
    },
    /// Conditional branch with both successor addresses pre-computed.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        taken_pc: u32,
        fall_pc: u32,
    },
    /// `jal`: target and link value are static.
    Jal {
        link: Reg,
        link_value: u32,
        target: u32,
    },
    /// `jalr`: target is `(rs1 + offset) & !1`, computed at execution.
    Jalr {
        link: Reg,
        link_value: u32,
        rs1: Reg,
        offset: u32,
    },
    /// CSR access: reads `csr` into `rd` and applies the op's
    /// read-modify-write. `src` is a register number for the register
    /// forms and the zero-extended 5-bit immediate for the `i` forms.
    Csr {
        op: CsrOp,
        rd: Reg,
        csr: u16,
        src: u8,
    },
    /// `mret`: resume at `mepc`.
    Mret,
    /// `wfi`: park until an interrupt is pending.
    Wfi,
    /// `ecall`/`ebreak`: the guest stops the simulation.
    Halt,
    /// `fence`/`fence.i`: orders instruction fetch after earlier writes.
    Fence,
    /// An RTOSUnit instruction, forwarded to the coprocessor with the
    /// values of `rs1` and `rs2`.
    Custom {
        op: CustomOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
}

/// Lowers the instruction at `pc` to its micro-op.
pub fn lower(instr: &Instr, pc: u32) -> Uop {
    match *instr {
        Instr::Lui { rd, imm } => Uop::MovImm { rd, value: imm },
        Instr::Auipc { rd, imm } => Uop::MovImm {
            rd,
            value: pc.wrapping_add(imm),
        },
        Instr::Jal { rd, offset } => Uop::Jal {
            link: rd,
            link_value: pc.wrapping_add(4),
            target: pc.wrapping_add(offset as u32),
        },
        Instr::Jalr { rd, rs1, offset } => Uop::Jalr {
            link: rd,
            link_value: pc.wrapping_add(4),
            rs1,
            offset: offset as u32,
        },
        Instr::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => Uop::Branch {
            op,
            rs1,
            rs2,
            taken_pc: pc.wrapping_add(offset as u32),
            fall_pc: pc.wrapping_add(4),
        },
        Instr::Load {
            op,
            rd,
            rs1,
            offset,
        } => Uop::Load {
            op,
            rd,
            rs1,
            offset: offset as u32,
        },
        Instr::Store {
            op,
            rs1,
            rs2,
            offset,
        } => Uop::Store {
            op,
            rs1,
            rs2,
            offset: offset as u32,
        },
        Instr::OpImm { op, rd, rs1, imm } => Uop::AluRI {
            op,
            rd,
            rs1,
            imm: imm as u32,
        },
        Instr::Op { op, rd, rs1, rs2 } => Uop::AluRR { op, rd, rs1, rs2 },
        Instr::MulDiv { op, rd, rs1, rs2 } => Uop::MulDiv { op, rd, rs1, rs2 },
        Instr::Csr { op, rd, csr, src } => Uop::Csr { op, rd, csr, src },
        Instr::Mret => Uop::Mret,
        Instr::Wfi => Uop::Wfi,
        Instr::Ecall | Instr::Ebreak => Uop::Halt,
        Instr::Fence => Uop::Fence,
        Instr::Custom { op, rd, rs1, rs2 } => Uop::Custom { op, rd, rs1, rs2 },
    }
}

/// Whether `first` and the `second` instruction right after it form a
/// fusible macro-op pair:
///
/// * `lui rd, hi` + `addi rd2, rd, lo` (immediate materialisation),
/// * `auipc rd, hi` + `jalr rd2, lo(rd)` (PC-relative call),
/// * `slt/sltu/slti/sltiu rd, ...` + `beq/bne rd, x0, off` (compare-and-
///   branch).
///
/// The producing destination must not be `x0`: an `x0` write vanishes, so
/// the consumer would read zero, not the produced value.
pub fn fuses(first: &Instr, second: &Instr) -> bool {
    match (*first, *second) {
        (
            Instr::Lui { rd, .. },
            Instr::OpImm {
                op: AluOp::Add,
                rs1,
                ..
            },
        )
        | (Instr::Auipc { rd, .. }, Instr::Jalr { rs1, .. }) => rd != Reg::Zero && rs1 == rd,
        (
            Instr::Op {
                op: AluOp::Slt | AluOp::Sltu,
                rd,
                ..
            }
            | Instr::OpImm {
                op: AluOp::Slt | AluOp::Sltu,
                rd,
                ..
            },
            Instr::Branch {
                op: BranchOp::Eq | BranchOp::Ne,
                rs1,
                rs2,
                ..
            },
        ) => rd != Reg::Zero && rs1 == rd && rs2 == Reg::Zero,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowers_pc_relative_ops_with_static_values() {
        let u = lower(
            &Instr::Auipc {
                rd: Reg::T0,
                imm: 0x1000,
            },
            0x200,
        );
        assert_eq!(
            u,
            Uop::MovImm {
                rd: Reg::T0,
                value: 0x1200
            }
        );
        let u = lower(
            &Instr::Branch {
                op: BranchOp::Ne,
                rs1: Reg::A0,
                rs2: Reg::Zero,
                offset: -8,
            },
            0x100,
        );
        assert_eq!(
            u,
            Uop::Branch {
                op: BranchOp::Ne,
                rs1: Reg::A0,
                rs2: Reg::Zero,
                taken_pc: 0xF8,
                fall_pc: 0x104
            }
        );
    }

    #[test]
    fn lowering_is_total_over_system_ops() {
        assert_eq!(lower(&Instr::Mret, 0), Uop::Mret);
        assert_eq!(lower(&Instr::Wfi, 0), Uop::Wfi);
        assert_eq!(lower(&Instr::Ecall, 0), Uop::Halt);
        assert_eq!(lower(&Instr::Ebreak, 0), Uop::Halt);
        assert_eq!(lower(&Instr::Fence, 0), Uop::Fence);
        let custom = Instr::Custom {
            op: CustomOp::AddReady,
            rd: Reg::Zero,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        assert_eq!(
            lower(&custom, 0),
            Uop::Custom {
                op: CustomOp::AddReady,
                rd: Reg::Zero,
                rs1: Reg::A0,
                rs2: Reg::A1,
            }
        );
    }

    #[test]
    fn fuses_lui_addi() {
        let lui = Instr::Lui {
            rd: Reg::T0,
            imm: 0x12345 << 12,
        };
        let addi = |rd, rs1| Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm: 0x678,
        };
        assert!(fuses(&lui, &addi(Reg::T0, Reg::T0)));
        // A different destination still fuses (both writes kept).
        assert!(fuses(&lui, &addi(Reg::A0, Reg::T0)));
        // addi reading a different register: no fusion.
        assert!(!fuses(&lui, &addi(Reg::A0, Reg::A1)));
        // lui to x0 produces zero, not `hi`: must not fuse.
        let lui_x0 = Instr::Lui {
            rd: Reg::Zero,
            imm: 0x1000,
        };
        assert!(!fuses(&lui_x0, &addi(Reg::A0, Reg::Zero)));
    }

    #[test]
    fn fuses_auipc_jalr() {
        let auipc = Instr::Auipc {
            rd: Reg::T1,
            imm: 0x2000,
        };
        let jalr = |rs1| Instr::Jalr {
            rd: Reg::Ra,
            rs1,
            offset: 0x31,
        };
        assert!(fuses(&auipc, &jalr(Reg::T1)));
        assert!(!fuses(&auipc, &jalr(Reg::T2)));
    }

    #[test]
    fn fuses_cmp_branch_forms() {
        let slt = Instr::Op {
            op: AluOp::Slt,
            rd: Reg::T2,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        let branch = |op, rs1, rs2| Instr::Branch {
            op,
            rs1,
            rs2,
            offset: 0x20,
        };
        assert!(fuses(&slt, &branch(BranchOp::Ne, Reg::T2, Reg::Zero)));
        let sltiu = Instr::OpImm {
            op: AluOp::Sltu,
            rd: Reg::T2,
            rs1: Reg::A0,
            imm: 7,
        };
        assert!(fuses(&sltiu, &branch(BranchOp::Eq, Reg::T2, Reg::Zero)));
        // Branch comparing against a non-zero register: no fusion.
        assert!(!fuses(&slt, &branch(BranchOp::Ne, Reg::T2, Reg::A3)));
        // Branch reading a different register than the comparison wrote.
        assert!(!fuses(&slt, &branch(BranchOp::Ne, Reg::A4, Reg::Zero)));
        // Only equality branches fuse.
        assert!(!fuses(&slt, &branch(BranchOp::Lt, Reg::T2, Reg::Zero)));
    }
}
