//! Property tests: every constructible instruction encodes and decodes
//! losslessly, and decode never panics on arbitrary words. Each property
//! runs over fixed `Rng64` seeds; a failure names the seed that
//! reproduces it.

use rvsim_isa::{
    decode, disassemble, encode, AluOp, BranchOp, CsrOp, CustomOp, Instr, LoadOp, MulDivOp, Reg,
    Rng64, StoreOp,
};

const CASES: u64 = 8192;

const ALU: [AluOp; 9] = [
    AluOp::Add,
    AluOp::Sll,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Xor,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Or,
    AluOp::And,
];

fn reg(rng: &mut Rng64) -> Reg {
    Reg::from_number(rng.below(32) as u8)
}

/// A uniform value in `lo..hi`.
fn range(rng: &mut Rng64, lo: i32, hi: i32) -> i32 {
    lo + rng.below((hi - lo) as u64) as i32
}

/// A 12-bit signed immediate.
fn imm12(rng: &mut Rng64) -> i32 {
    range(rng, -2048, 2048)
}

/// Any instruction the model can represent, every variant equally likely
/// and every field drawn over its full encodable range. Custom ops come
/// from `CustomOp::ALL`, so new RTOSUnit instructions are covered as soon
/// as they are declared.
fn random_instr(rng: &mut Rng64) -> Instr {
    match rng.below(17) {
        0 => Instr::Lui {
            rd: reg(rng),
            imm: (rng.below(1 << 20) as u32) << 12,
        },
        1 => Instr::Auipc {
            rd: reg(rng),
            imm: (rng.below(1 << 20) as u32) << 12,
        },
        2 => Instr::Jal {
            rd: reg(rng),
            offset: range(rng, -(1 << 19), 1 << 19) * 2,
        },
        3 => Instr::Jalr {
            rd: reg(rng),
            rs1: reg(rng),
            offset: imm12(rng),
        },
        4 => Instr::Branch {
            op: *rng.pick(&[
                BranchOp::Eq,
                BranchOp::Ne,
                BranchOp::Lt,
                BranchOp::Ge,
                BranchOp::Ltu,
                BranchOp::Geu,
            ]),
            rs1: reg(rng),
            rs2: reg(rng),
            offset: imm12(rng) * 2,
        },
        5 => Instr::Load {
            op: *rng.pick(&[LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu]),
            rd: reg(rng),
            rs1: reg(rng),
            offset: imm12(rng),
        },
        6 => Instr::Store {
            op: *rng.pick(&[StoreOp::Sb, StoreOp::Sh, StoreOp::Sw]),
            rs1: reg(rng),
            rs2: reg(rng),
            offset: imm12(rng),
        },
        7 => {
            let op = *rng.pick(&ALU);
            let imm = match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => rng.below(32) as i32,
                _ => imm12(rng),
            };
            Instr::OpImm {
                op,
                rd: reg(rng),
                rs1: reg(rng),
                imm,
            }
        }
        8 => Instr::Op {
            op: if rng.chance(10) {
                AluOp::Sub
            } else {
                *rng.pick(&ALU)
            },
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
        9 => Instr::MulDiv {
            op: *rng.pick(&[
                MulDivOp::Mul,
                MulDivOp::Mulh,
                MulDivOp::Mulhsu,
                MulDivOp::Mulhu,
                MulDivOp::Div,
                MulDivOp::Divu,
                MulDivOp::Rem,
                MulDivOp::Remu,
            ]),
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
        10 => Instr::Csr {
            op: *rng.pick(&[
                CsrOp::Rw,
                CsrOp::Rs,
                CsrOp::Rc,
                CsrOp::Rwi,
                CsrOp::Rsi,
                CsrOp::Rci,
            ]),
            rd: reg(rng),
            csr: rng.below(4096) as u16,
            src: rng.below(32) as u8,
        },
        11 => Instr::Mret,
        12 => Instr::Wfi,
        13 => Instr::Ecall,
        14 => Instr::Ebreak,
        15 => Instr::Fence,
        _ => Instr::Custom {
            op: *rng.pick(&CustomOp::ALL),
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
    }
}

#[test]
fn encode_decode_roundtrip() {
    for seed in 0..CASES {
        let instr = random_instr(&mut Rng64::new(seed));
        let word = encode(&instr);
        assert_eq!(
            decode(word),
            Ok(instr),
            "seed {seed}: {instr:?} encoded as {word:#010x}"
        );
        let _ = disassemble(&instr, 0x8000_0000);
    }
}

#[test]
fn decode_is_total_and_stable_on_random_words() {
    for seed in 0..CASES {
        let word = Rng64::new(seed).next_u32();
        // Decoding any word returns, never panics; a decodable word
        // re-encodes to an instruction that decodes to itself.
        if let Ok(instr) = decode(word) {
            assert_eq!(
                decode(encode(&instr)),
                Ok(instr),
                "seed {seed}: {word:#010x} decoded as {instr:?}"
            );
        }
    }
}
