//! Timing-order property: on compute programs the superscalar NaxRiscv
//! model is never slower than the in-order CV32E40P, except for branches,
//! where its deeper pipeline pays a higher mispredict penalty. Programs
//! come from a safe subset (forward skips only, memory confined to a
//! scratch window) over fixed `Rng64` seeds; a failure names the seed
//! that reproduces it. Architectural agreement between the engines is
//! checked by the golden-model lockstep (`rvsim_check::lockstep`).

use rvsim_cores::{make_engine, CoreKind, NullCoprocessor, SramBus};
use rvsim_isa::{Asm, Program, Reg, Rng64};

const SCRATCH_BASE: u32 = 0x2000_0000;
const SCRATCH_WORDS: u32 = 64;
const CASES: u64 = 512;

/// One generated operation, lowered to 1–3 instructions.
#[derive(Debug, Clone)]
enum Op {
    Li(Reg, i32),
    Alu(u8, Reg, Reg, Reg),
    AluImm(u8, Reg, Reg, i32),
    MulDiv(u8, Reg, Reg, Reg),
    Store(Reg, u32),
    Load(Reg, u32),
    /// Conditional forward skip over the next op.
    SkipIfZero(Reg),
}

/// Writable computation registers only (keep sp/gp/tp/ra stable).
const REGS: [Reg; 12] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::S0,
    Reg::S1,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::S2,
    Reg::T3,
    Reg::T6,
];

/// One operation, each kind equally likely.
fn random_op(rng: &mut Rng64) -> Op {
    let mut r = || *rng.pick(&REGS);
    let (d, a, b) = (r(), r(), r());
    match rng.below(7) {
        0 => Op::Li(d, rng.next_u32() as i32),
        1 => Op::Alu(rng.below(9) as u8, d, a, b),
        2 => Op::AluImm(rng.below(9) as u8, d, a, rng.below(4096) as i32 - 2048),
        3 => Op::MulDiv(rng.below(8) as u8, d, a, b),
        4 => Op::Store(d, rng.below(u64::from(SCRATCH_WORDS)) as u32),
        5 => Op::Load(d, rng.below(u64::from(SCRATCH_WORDS)) as u32),
        _ => Op::SkipIfZero(d),
    }
}

fn emit(ops: &[Op]) -> Program {
    let mut a = Asm::new(0);
    a.li(Reg::S3, SCRATCH_BASE as i32); // scratch window base
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Li(r, v) => a.li(r, v),
            Op::Alu(k, d, x, y) => match k {
                0 => a.add(d, x, y),
                1 => a.sub(d, x, y),
                2 => a.and(d, x, y),
                3 => a.or(d, x, y),
                4 => a.xor(d, x, y),
                5 => a.sll(d, x, y),
                6 => a.srl(d, x, y),
                7 => a.slt(d, x, y),
                _ => a.sltu(d, x, y),
            },
            Op::AluImm(k, d, x, imm) => match k {
                0 => a.addi(d, x, imm),
                1 => a.andi(d, x, imm),
                2 => a.ori(d, x, imm),
                3 => a.xori(d, x, imm),
                4 => a.slti(d, x, imm),
                5 => a.sltiu(d, x, imm),
                6 => a.slli(d, x, imm.rem_euclid(32)),
                7 => a.srli(d, x, imm.rem_euclid(32)),
                _ => a.srai(d, x, imm.rem_euclid(32)),
            },
            Op::MulDiv(k, d, x, y) => match k {
                0 => a.mul(d, x, y),
                1 => a.div(d, x, y),
                2 => a.divu(d, x, y),
                3 => a.rem(d, x, y),
                4 => a.remu(d, x, y),
                5 => a.mul(d, y, x),
                6 => a.divu(d, y, x),
                _ => a.remu(d, y, x),
            },
            Op::Store(r, w) => a.sw(r, (w * 4) as i32, Reg::S3),
            Op::Load(r, w) => a.lw(r, (w * 4) as i32, Reg::S3),
            Op::SkipIfZero(r) => {
                let label = format!("skip_{i}");
                a.beqz(r, &label);
                a.addi(Reg::T4, Reg::T4, 1);
                a.label(&label);
            }
        }
    }
    a.ebreak();
    a.finish().expect("generated program assembles")
}

/// Cycles `kind` takes to run `prog` to its `ebreak`.
fn cycles(kind: CoreKind, prog: &Program, case: &str) -> u64 {
    let mut e = make_engine(kind, 0, 0x2_0000);
    e.load_program(prog);
    let mut bus = SramBus::new(SCRATCH_BASE, SCRATCH_WORDS * 4);
    e.run_with(&mut bus, &mut NullCoprocessor, 3_000_000);
    assert!(e.halted(), "{case}: {kind} did not halt");
    e.cycle()
}

/// NaxRiscv cycles ≤ CV32E40P cycles + 16 + 12 per generated branch: the
/// mispredict penalties are 11 and 2 cycles, so a branch may cost
/// NaxRiscv that much more.
fn assert_timing_order(case: &str, ops: &[Op]) {
    let prog = emit(ops);
    let branches = ops
        .iter()
        .filter(|o| matches!(o, Op::SkipIfZero(_)))
        .count() as u64;
    let nax = cycles(CoreKind::NaxRiscv, &prog, case);
    let bound = cycles(CoreKind::Cv32e40p, &prog, case) + 16 + branches * 12;
    assert!(
        nax <= bound,
        "{case}: NaxRiscv took {nax} cycles, bound {bound}"
    );
}

#[test]
fn naxriscv_is_never_slower_than_cv32e40p_beyond_branch_slack() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let ops: Vec<Op> = (0..20 + rng.below(80))
            .map(|_| random_op(&mut rng))
            .collect();
        assert_timing_order(&format!("seed {seed}"), &ops);
    }
}

#[test]
fn timing_order_holds_on_the_recorded_branch_heavy_case() {
    // A once-failing input: nine skips over a loaded register, with
    // divides and stores in between.
    use Op::*;
    let ops = [
        Store(Reg::T0, 0),
        SkipIfZero(Reg::T0),
        SkipIfZero(Reg::T0),
        SkipIfZero(Reg::T0),
        SkipIfZero(Reg::T0),
        SkipIfZero(Reg::T0),
        SkipIfZero(Reg::T0),
        SkipIfZero(Reg::T0),
        SkipIfZero(Reg::T0),
        Li(Reg::A0, 0),
        Li(Reg::A0, 0),
        SkipIfZero(Reg::T0),
        Load(Reg::S1, 29),
        Store(Reg::T6, 0),
        MulDiv(0, Reg::T0, Reg::T1, Reg::T2),
        Store(Reg::A2, 49),
        Store(Reg::S1, 16),
        Store(Reg::A3, 58),
        MulDiv(3, Reg::S0, Reg::T6, Reg::T2),
        Load(Reg::A2, 37),
    ];
    assert_timing_order("recorded case", &ops);
}
