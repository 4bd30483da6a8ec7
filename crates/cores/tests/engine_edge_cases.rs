//! Edge-case tests for the core engine: CSR behaviour under interrupts,
//! byte/half memory semantics, predictor behaviour, and coprocessor
//! stall interactions.

use rvsim_cores::{
    make_engine, ArchState, Bank, Coprocessor, CoreEngine, CoreEvent, CoreKind, DataBus,
    NullCoprocessor, SramBus,
};
use rvsim_isa::{csr, Asm, CustomOp, Program, Reg};

fn bus() -> SramBus {
    SramBus::new(0x2000_0000, 0x1000)
}

fn run(asm: Asm, kind: CoreKind) -> CoreEngine {
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

    fn step<B: DataBus>(&mut self, _state: &mut ArchState, _bus: &mut B) {
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
        let event = e.step(&mut b, &mut co);
        // The platform normally steps the coprocessor once per cycle.
        co.step(&mut e.state, &mut b);
        if let Some(CoreEvent::InterruptEntered { .. }) = event {
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

/// A coprocessor with background work that never stalls an op: it counts
/// its busy steps and `mret`s, is idle once it has taken `busy_for` busy
/// steps, and an `mret` or `GET_HW_SCHED` (which returns the busy steps so
/// far) keeps it busy for at least `rearm` more. Stepping it while idle
/// changes nothing, as `Coprocessor::is_idle` requires.
#[derive(Debug, Clone, Copy)]
struct CountingCoproc {
    busy_for: u64,
    rearm: u64,
    steps: u64,
    mrets: u32,
}

impl Coprocessor for CountingCoproc {
    fn on_interrupt_entry(&mut self, _state: &mut ArchState, _cause: u32) {}

    fn mret_stall(&self) -> bool {
        false
    }

    fn on_mret(&mut self, _state: &mut ArchState) {
        self.mrets += 1;
        self.busy_for = self.busy_for.max(self.steps + self.rearm);
    }

    fn custom_stall(&self, _op: CustomOp) -> bool {
        false
    }

    fn exec_custom(&mut self, op: CustomOp, _rs1: u32, _rs2: u32, _state: &mut ArchState) -> u32 {
        assert_eq!(op, CustomOp::GetHwSched, "unexpected custom op");
        self.busy_for = self.busy_for.max(self.steps + self.rearm);
        self.steps as u32
    }

    fn step<B: DataBus>(&mut self, _state: &mut ArchState, _bus: &mut B) {
        if !self.is_idle() {
            self.steps += 1;
        }
    }

    fn is_idle(&self) -> bool {
        self.steps >= self.busy_for
    }
}

/// Runs `prog` to its halt in `run_until` batches of `budget` cycles, each
/// ending at an event or its budget, and checks every exit against
/// per-cycle stepping (the core's step, then the coprocessor's while it
/// has work). Returns the engine, its coprocessor and the batch count.
fn batched_against_per_cycle(
    kind: CoreKind,
    prog: &Program,
    co: CountingCoproc,
    budget: u64,
) -> (CoreEngine, CountingCoproc, u64) {
    let fresh = || {
        let mut e = make_engine(kind, 0, 0x1_0000);
        e.load_program(prog);
        (e, co, bus())
    };
    let (mut fast, mut fast_co, mut fast_bus) = fresh();
    let (mut slow, mut slow_co, mut slow_bus) = fresh();
    let at = |e: &CoreEngine| format!("{kind:?} {co:?} budget {budget} cycle {}", e.cycle());
    let mut batches = 0;
    while !fast.halted() {
        let exit = fast.run_until(&mut fast_bus, &mut fast_co, budget);
        batches += 1;
        let ended = exit.cycles == budget || (exit.cycles < budget && exit.event.is_some());
        assert!(ended, "{}: ended at {:?}", at(&fast), exit.reason);
        let mut event = None;
        while slow.cycle() < fast.cycle() {
            assert_eq!(event, None, "{}: missed event", at(&slow));
            event = slow.step(&mut slow_bus, &mut slow_co);
            if !slow_co.is_idle() {
                slow_co.step(&mut slow.state, &mut slow_bus);
            }
        }
        assert_eq!(fast.cycle(), slow.cycle(), "{}: exit cycle", at(&slow));
        assert_eq!(exit.event, event, "{}: event", at(&slow));
        assert_eq!(
            fast.counters().without_host_stats(),
            slow.counters().without_host_stats(),
            "{}: counters",
            at(&slow)
        );
        assert_eq!(fast_co.steps, slow_co.steps, "{}: co-steps", at(&slow));
        assert_eq!(fast_co.mrets, slow_co.mrets, "{}: mrets", at(&slow));
        assert_eq!(fast.state.pc, slow.state.pc, "{}: pc", at(&slow));
    }
    (fast, fast_co, batches)
}

#[test]
fn run_until_co_steps_exactly_where_per_cycle_stepping_does() {
    // Six ops of one translated block, the last a `div` whose drain the
    // batch loop takes, then an `mret` whose drain ends in its
    // completion.
    let mut a = Asm::new(0);
    a.li(Reg::A0, 1000);
    a.li(Reg::A1, 7);
    a.la(Reg::T0, "after");
    a.csrw(csr::MEPC, Reg::T0);
    a.div(Reg::A2, Reg::A0, Reg::A1);
    a.mret();
    a.label("after");
    a.addi(Reg::A3, Reg::A3, 1);
    a.ebreak();
    let drains = a.finish().expect("assembles");
    // Busy for two steps, then idle through the first ALU run. The
    // custom op re-arms the unit, so the block after it (a `div` and the
    // loop's first pass) is co-stepped; once the unit drains, the loop
    // runs plain again. `a1` reads the busy steps taken before it.
    let mut a = Asm::new(0);
    a.li(Reg::S2, 0x13);
    a.li(Reg::S3, 7);
    a.add(Reg::S4, Reg::S2, Reg::S3);
    a.xor(Reg::S5, Reg::S4, Reg::S3);
    a.get_hw_sched(Reg::A1);
    a.div(Reg::A2, Reg::S5, Reg::S3);
    a.li(Reg::T0, 20);
    a.label("loop");
    a.add(Reg::S4, Reg::S2, Reg::S3);
    a.xor(Reg::S5, Reg::S4, Reg::A2);
    a.addi(Reg::S3, Reg::S3, 3);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.ebreak();
    let rearms = a.finish().expect("assembles");
    let counting = |busy_for, rearm| CountingCoproc {
        busy_for,
        rearm,
        steps: 0,
        mrets: 0,
    };
    for kind in [CoreKind::Cv32e40p, CoreKind::Cva6, CoreKind::NaxRiscv] {
        // Budget 1 000 never binds: every batch ends at an event.
        for budget in (1..=40).chain([1_000]) {
            // Busy throughout, or idle from every cycle of the program on:
            // mid-`div`-drain and mid-`mret`-drain among them; and re-armed
            // by the `mret`, or not.
            for (busy_for, rearm) in (1..=45).chain([u64::MAX]).flat_map(|b| [(b, 0), (b, 3)]) {
                let (e, co, batches) =
                    batched_against_per_cycle(kind, &drains, counting(busy_for, rearm), budget);
                assert_eq!((co.mrets, e.state.read_reg(Reg::A2)), (1, 142));
                assert!(e.counters().stall_exec >= 19, "{kind:?}: div drain");
                assert!(budget < 1_000 || batches == 2, "{kind:?}: to mret, to halt");
            }
            // Drained on the custom op's own cycle, inside the `div`, and a
            // few loop iterations in; always before the halt, so at budget
            // 1 000 one batch runs plain, co-stepped and plain again.
            for rearm in [1, 3, 8, 25, 50] {
                let (e, co, batches) =
                    batched_against_per_cycle(kind, &rearms, counting(2, rearm), budget);
                assert_eq!((co.steps, e.state.read_reg(Reg::A1)), (2 + rearm, 2));
                assert!(budget < 1_000 || batches == 1, "{kind:?}: one batch");
            }
        }
    }
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
