//! RV32IM_Zicsr instruction set support for the RTOSUnit simulator.
//!
//! This crate provides everything needed to express guest software for the
//! simulated cores of the RTOSUnit reproduction:
//!
//! * [`Reg`] — the 32 general-purpose registers with ABI names,
//! * [`Instr`] — a typed representation of every RV32IM_Zicsr instruction
//!   plus the six RTOSUnit custom instructions of the paper's Table 1,
//! * [`decode()`](decode::decode)/[`encode()`](encode::encode) — lossless conversion between [`Instr`] and the
//!   32-bit machine encoding,
//! * [`Asm`] — a small assembler with labels, fixups and the usual
//!   pseudo-instructions (`li`, `la`, `call`, `ret`, …),
//! * [`disasm`] — a disassembler used by the WCET reports and for debugging.
//!
//! # Example
//!
//! ```
//! use rvsim_isa::{Asm, Reg};
//!
//! # fn main() -> Result<(), rvsim_isa::AsmError> {
//! let mut a = Asm::new(0x8000_0000);
//! a.label("loop");
//! a.addi(Reg::A0, Reg::A0, 1);
//! a.j("loop");
//! let prog = a.finish()?;
//! assert_eq!(prog.words.len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod csr;
pub mod custom;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod instr;
pub mod progen;
pub mod reg;
pub mod rng;
pub mod uop;

pub use asm::{Asm, AsmError, Program, SymbolTable};
pub use custom::CustomOp;
pub use decode::{decode, DecodeError};
pub use disasm::disassemble;
pub use encode::encode;
pub use instr::{AluOp, BranchOp, CsrOp, Instr, LoadOp, MulDivOp, StoreOp};
pub use progen::{GenConfig, GenOp, ProgramSpec};
pub use reg::Reg;
pub use rng::Rng64;
pub use uop::Uop;
