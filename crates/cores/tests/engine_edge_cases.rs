//! Edge-case tests for the core engine: CSR behaviour under interrupts,
//! byte/half memory semantics, predictor behaviour, and coprocessor
//! stall interactions.

use rvsim_cores::{
    make_engine, ArchState, Bank, Coprocessor, CoreEvent, CoreKind, DataBus, NullCoprocessor,
    SramBus,
};
use rvsim_isa::{csr, Asm, CustomOp, Reg};

fn bus() -> SramBus {
    SramBus::new(0x2000_0000, 0x1000)
}

fn run(asm: Asm, kind: CoreKind) -> rvsim_cores::CoreEngine {
    let prog = asm.finish().expect("assembles");
    let mut e = make_engine(kind, 0, 0x1_0000);
    e.load_program(&prog);
    let mut b = bus();
    e.run_with(&mut b, &mut NullCoprocessor, 1_000_000);
    assert!(e.halted(), "program did not halt");
    e
}

#[test]
fn signed_and_unsigned_subword_loads() {
    let mut a = Asm::new(0);
    a.li(Reg::T0, 0x2000_0000);
    a.li(Reg::T1, 0xFFFF_FF80u32 as i32);
    a.sw(Reg::T1, 0, Reg::T0);
    a.lb(Reg::A0, 0, Reg::T0); // sign-extended 0x80
    a.lbu(Reg::A1, 0, Reg::T0); // zero-extended 0x80
    a.lh(Reg::A2, 0, Reg::T0); // sign-extended 0xFF80
    a.lhu(Reg::A3, 0, Reg::T0);
    a.ebreak();
    let e = run(a, CoreKind::Cv32e40p);
    assert_eq!(e.state.read_reg(Reg::A0) as i32, -128);
    assert_eq!(e.state.read_reg(Reg::A1), 0x80);
    assert_eq!(e.state.read_reg(Reg::A2) as i32, -128);
    assert_eq!(e.state.read_reg(Reg::A3), 0xFF80);
}

#[test]
fn sub_word_stores_preserve_neighbours() {
    let mut a = Asm::new(0);
    a.li(Reg::T0, 0x2000_0000);
    a.li(Reg::T1, 0x1122_3344u32 as i32);
    a.sw(Reg::T1, 0, Reg::T0);
    a.li(Reg::T2, 0xAB);
    a.sb(Reg::T2, 1, Reg::T0);
    a.li(Reg::T2, 0xCDEF);
    a.sh(Reg::T2, 2, Reg::T0);
    a.lw(Reg::A0, 0, Reg::T0);
    a.ebreak();
    let e = run(a, CoreKind::Cv32e40p);
    assert_eq!(e.state.read_reg(Reg::A0), 0xCDEF_AB44);
}

#[test]
fn mscratch_roundtrip_and_mcycle_reads() {
    let mut a = Asm::new(0);
    a.li(Reg::T0, 0x1234);
    a.csrw(csr::MSCRATCH, Reg::T0);
    a.csrr(Reg::A0, csr::MSCRATCH);
    a.csrr(Reg::A1, csr::MCYCLE);
    a.ebreak();
    let e = run(a, CoreKind::Cv32e40p);
    assert_eq!(e.state.read_reg(Reg::A0), 0x1234);
    assert!(e.state.read_reg(Reg::A1) > 0, "mcycle must tick");
}

#[test]
fn predictor_learns_a_regular_loop_on_cva6() {
    // A long loop: after warm-up, the backward branch predicts taken and
    // iterations get cheaper than the static-not-taken core would pay.
    let mut a = Asm::new(0);
    a.li(Reg::T0, 400);
    a.label("l");
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "l");
    a.ebreak();
    let cva6 = run(a.clone(), CoreKind::Cva6).cycle();
    let cv32 = run(a, CoreKind::Cv32e40p).cycle();
    // CV32E40P pays 3 cycles per taken branch; CVA6's predictor converges
    // to ~1, so despite the higher mispredict penalty it ends up cheaper.
    assert!(
        cva6 < cv32,
        "predictor should win on a hot loop: cva6={cva6} cv32={cv32}"
    );
}

/// A coprocessor that stalls `SWITCH_RF` a fixed number of cycles and
/// records what it saw.
#[derive(Default)]
struct StallingCoproc {
    stall_left: u32,
    switches: u32,
    mrets: u32,
}

impl Coprocessor for StallingCoproc {
    fn on_interrupt_entry(&mut self, state: &mut ArchState, _cause: u32) {
        state.set_active_bank(Bank::Isr);
        self.stall_left = 10;
    }

    fn mret_stall(&self) -> bool {
        false
    }

    fn on_mret(&mut self, _state: &mut ArchState) {
        self.mrets += 1;
    }

    fn custom_stall(&self, op: CustomOp) -> bool {
        op == CustomOp::SwitchRf && self.stall_left > 0
    }

    fn exec_custom(&mut self, op: CustomOp, _rs1: u32, _rs2: u32, state: &mut ArchState) -> u32 {
        assert_eq!(op, CustomOp::SwitchRf);
        state.set_active_bank(Bank::App);
        self.switches += 1;
        0
    }

    fn step(&mut self, _state: &mut ArchState, _bus: &mut dyn DataBus) {
        self.stall_left = self.stall_left.saturating_sub(1);
    }
}

#[test]
fn switch_rf_stall_delays_issue_until_coproc_releases() {
    let mut a = Asm::new(0);
    a.la(Reg::T0, "isr");
    a.csrw(csr::MTVEC, Reg::T0);
    a.li(Reg::T0, csr::MIP_MTIP as i32);
    a.csrw(csr::MIE, Reg::T0);
    a.enable_interrupts();
    a.label("spin");
    a.j("spin");
    a.label("isr");
    a.switch_rf();
    a.ebreak();
    let prog = a.finish().expect("assembles");
    let mut e = make_engine(CoreKind::Cv32e40p, 0, 0x1_0000);
    e.load_program(&prog);
    let mut b = bus();
    let mut co = StallingCoproc::default();
    let mut entered_at = 0;
    for cycle in 0..200u64 {
        e.state.csrs.mip = if cycle > 20 { csr::MIP_MTIP } else { 0 };
        let out = e.step(&mut b, &mut co);
        // The platform normally steps the coprocessor once per cycle.
        co.step(&mut e.state, &mut b);
        if let Some(CoreEvent::InterruptEntered { .. }) = out.event {
            entered_at = cycle;
        }
        if e.halted() {
            // SWITCH_RF had to wait out the 10-cycle stall.
            assert!(cycle >= entered_at + 10, "stall was not honoured");
            assert_eq!(co.switches, 1);
            assert_eq!(e.state.active_bank(), Bank::App);
            return;
        }
    }
    panic!("ISR never completed");
}

#[test]
fn interrupts_are_not_taken_while_masked() {
    let mut a = Asm::new(0);
    a.la(Reg::T0, "isr");
    a.csrw(csr::MTVEC, Reg::T0);
    a.li(Reg::T0, csr::MIP_MTIP as i32);
    a.csrw(csr::MIE, Reg::T0);
    // MIE stays off: the pending timer must never fire.
    a.li(Reg::T1, 200);
    a.label("l");
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, "l");
    a.ebreak();
    a.label("isr");
    a.li(Reg::A7, 0xBAD);
    a.mret();
    let prog = a.finish().expect("assembles");
    let mut e = make_engine(CoreKind::Cv32e40p, 0, 0x1_0000);
    e.load_program(&prog);
    let mut b = bus();
    let mut co = NullCoprocessor;
    while !e.halted() {
        e.state.csrs.mip = csr::MIP_MTIP;
        e.step(&mut b, &mut co);
        assert!(e.cycle() < 10_000);
    }
    assert_eq!(e.state.read_reg(Reg::A7), 0, "masked interrupt was taken");
}

#[test]
fn auipc_and_jalr_form_long_calls() {
    // A classic auipc+jalr pair must land on the target.
    let mut a = Asm::new(0);
    a.auipc(Reg::T0, 0); // t0 = pc of this instruction
    a.jalr(Reg::Ra, Reg::T0, 12); // jump to pc + 12 = "target"
    a.ebreak(); // skipped
    a.label("target");
    a.li(Reg::A0, 77);
    a.ebreak();
    let e = run(a, CoreKind::NaxRiscv);
    assert_eq!(e.state.read_reg(Reg::A0), 77);
    assert_eq!(
        e.state.read_reg(Reg::Ra),
        8,
        "link register holds return address"
    );
}

#[test]
fn recent_pc_trace_covers_last_instructions() {
    let mut a = Asm::new(0);
    for _ in 0..100 {
        a.nop();
    }
    a.ebreak();
    let e = run(a, CoreKind::Cv32e40p);
    let pcs: Vec<u32> = e.recent_pcs().map(|(_, pc)| pc).collect();
    assert_eq!(pcs.len(), 64, "trace ring keeps the last 64 entries");
    assert_eq!(
        *pcs.last().expect("non-empty"),
        100 * 4,
        "last pc is the ebreak"
    );
}
