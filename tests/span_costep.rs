//! Span co-stepping (tier-1): the RTOSUnit and CV32RT take a whole span
//! of port-free cycles in one `Coprocessor::advance`, and a guest that
//! runs on the application bank while a restore writes it stays exact.
//!
//! * `advance(n)` against `n` stepwise cycles (the unit's step, then the
//!   bus clock and the unit's step per further cycle), and
//!   `advance_held` against stepping until the held op is released, from
//!   states sampled mid-run on real campaign cells of every unit preset
//!   on all three cores: store, memory restore, lockstep restore,
//!   preload and sort phases, CVA6 refill traffic pending, a full
//!   NaxRiscv ctxQueue. Each is taken with the port free and behind a
//!   core load or store on its first cycle; the unit, the platform (the
//!   event trace included) and the architectural state must match.
//! * A guest that `SWITCH_RF`s to the application bank while a memory
//!   restore is still writing it, and one that reads and writes `mepc`
//!   and reads `mstatus` while the store and the restore run: batched
//!   and per-cycle runs must leave the same state and trace.

use rtosunit_suite::bench::campaign::{self, Booted, RunSpec, WorkloadSpec};
use rtosunit_suite::bench::workloads;
use rtosunit_suite::cores::{ArchState, Coprocessor, CoreKind, DataBus, Gate};
use rtosunit_suite::isa::{csr, Asm, CustomOp, Reg};
use rtosunit_suite::mem::AccessSize;
use rtosunit_suite::snapshot::{self as snap, Json};
use rtosunit_suite::unit::layout::{
    ctx_word_addr, CTX_MSTATUS_IDX, CTX_WORDS, DMEM_BASE, IMEM_BASE, MMIO_HALT,
};
use rtosunit_suite::unit::{Cv32rtUnit, Platform, Preset, RtosUnit, RtosUnitConfig, System};

/// What a span's first cycle holds before the unit's step: the core's
/// work on that cycle.
#[derive(Debug, Clone, Copy)]
enum Claim {
    /// No port request.
    Free,
    /// A core load (a miss on the cached cores).
    Load,
    /// A core store (a write-through on CVA6).
    Store,
}

/// A unit model rebuilt from a system's state snapshot.
trait Unit: Coprocessor + Sized {
    fn rebuild(doc: &Json, kind: CoreKind, preset: Preset) -> Self;
    fn snap(&self) -> Json;
}

impl Unit for RtosUnit {
    fn rebuild(doc: &Json, _kind: CoreKind, preset: Preset) -> Self {
        let list_len = snap::get_usize(doc, "list_len").unwrap();
        let cfg = RtosUnitConfig::from_preset(preset).unwrap();
        RtosUnit::from_snap(doc, cfg.with_list_len(list_len).unwrap()).unwrap()
    }
    fn snap(&self) -> Json {
        self.to_snap()
    }
}

impl Unit for Cv32rtUnit {
    fn rebuild(doc: &Json, kind: CoreKind, _preset: Preset) -> Self {
        Cv32rtUnit::from_snap(doc, kind).unwrap()
    }
    fn snap(&self) -> Json {
        self.to_snap()
    }
}

/// The unit's side of a sampled system: architectural state, platform
/// and unit, the bus moved on to the next cycle and `claim` done on it.
fn parts<U: Unit>(
    doc: &Json,
    kind: CoreKind,
    preset: Preset,
    claim: Claim,
) -> (ArchState, Platform, U) {
    let field = |v: &Json, k: &str| snap::field(v, k).unwrap().clone();
    let state = ArchState::from_snap(&field(&field(doc, "core"), "state")).unwrap();
    let mut platform =
        Platform::from_snap(kind, preset.has_sched(), &field(doc, "platform")).unwrap();
    let unit = U::rebuild(&field(doc, "unit"), kind, preset);
    platform.advance_cycles(1);
    // A line no kernel touches, so the cached cores miss.
    let addr = DMEM_BASE + 0x6_0000 + (platform.cycle() as u32 % 64) * 64;
    match claim {
        Claim::Free => {}
        Claim::Load => {
            platform.core_access(addr, AccessSize::Word, None);
        }
        Claim::Store => {
            platform.core_access(addr, AccessSize::Word, Some(0x5A5A));
        }
    }
    (state, platform, unit)
}

fn render<U: Unit>(p: &(ArchState, Platform, U)) -> [Json; 3] {
    [p.0.to_snap(), p.1.to_snap(), p.2.snap()]
}

/// Checks `advance` and `advance_held` against stepping from `doc`.
fn check_sample<U: Unit>(doc: &Json, kind: CoreKind, preset: Preset, ctx: &str) {
    for claim in [Claim::Free, Claim::Load, Claim::Store] {
        for n in [2, 5, 150] {
            let mut fast = parts::<U>(doc, kind, preset, claim);
            fast.2.advance(&mut fast.0, &mut fast.1, n);
            let mut slow = parts::<U>(doc, kind, preset, claim);
            slow.2.step(&mut slow.0, &mut slow.1);
            for _ in 1..n {
                slow.1.advance_cycles(1);
                slow.2.step(&mut slow.0, &mut slow.1);
            }
            assert_eq!(
                render(&fast),
                render(&slow),
                "{ctx} {claim:?}: advance({n})"
            );
        }
        let gates = [
            Gate::Mret,
            Gate::Custom(CustomOp::SwitchRf),
            Gate::Custom(CustomOp::GetHwSched),
        ];
        for gate in gates {
            let mut fast = parts::<U>(doc, kind, preset, claim);
            if !fast.2.holds(gate) {
                continue;
            }
            let held = fast.2.advance_held(&mut fast.0, &mut fast.1, gate, 400);
            let mut slow = parts::<U>(doc, kind, preset, claim);
            let mut steps = 0;
            while steps < 400 {
                if steps > 0 {
                    slow.1.advance_cycles(1);
                }
                slow.2.step(&mut slow.0, &mut slow.1);
                steps += 1;
                if !slow.2.holds(gate) {
                    break;
                }
            }
            assert_eq!(held, steps, "{ctx} {claim:?}: {gate:?} held");
            assert_eq!(render(&fast), render(&slow), "{ctx} {claim:?}: {gate:?}");
        }
    }
}

/// The phases a sample can be drawn from, by what the unit is doing and
/// what holds the port.
fn phases(sys: &System) -> Vec<&'static str> {
    let mut out = Vec::new();
    if let Some(u) = sys.rtos_unit() {
        if u.store_busy() {
            out.push("store");
        }
        if u.restore_busy() {
            // Only a preloading unit restores in lockstep.
            let lockstep = u.config().preload
                && snap::get_str(&u.to_snap(), "restore_mode").unwrap() == "lockstep";
            out.push(if lockstep { "lockstep" } else { "restore" });
        }
        if u.scheduler().is_some_and(|s| s.sort_busy() > 0) {
            out.push("sort");
        }
        if sys.isr_cause().is_none() && !u.store_busy() && !u.restore_busy() {
            out.push("outside an ISR");
        }
    } else if sys.cv32rt_unit().is_some_and(Cv32rtUnit::snapshot_busy) {
        out.push("snapshot drain");
    }
    if out.is_empty() {
        return out;
    }
    if sys.platform.unit_port_wait().is_some_and(|w| w > 1) {
        out.push("refill pending");
    }
    if sys.platform.unit_pending() >= 8 {
        out.push("ctxQueue full");
    }
    out
}

#[test]
fn unit_advance_matches_stepwise_cycles_from_sampled_states() {
    let cells = [
        (CoreKind::Cv32e40p, "pingpong_semaphore"),
        (CoreKind::Cva6, "mutex_workload"),
        (CoreKind::NaxRiscv, "priority_chain"),
    ];
    for (kind, workload) in cells {
        for preset in Preset::LATENCY_SET {
            if preset == Preset::Vanilla {
                continue;
            }
            let w = workloads::by_name(workload).expect("suite workload");
            let spec = RunSpec::new(kind, preset, WorkloadSpec::Suite(w));
            let Booted::Single(mut sys) = campaign::boot(&spec).expect("workload builds") else {
                panic!("a single-hart spec boots a System");
            };
            sys.enable_tracing(1 << 14);
            // A few samples of every phase, spread over the run.
            let mut seen: Vec<(&str, u32)> = Vec::new();
            let mut sampled = Vec::new();
            for _ in 0..25_000 {
                sys.step();
                for phase in phases(&sys) {
                    let count = match seen.iter_mut().find(|(p, _)| *p == phase) {
                        Some((_, c)) => c,
                        None => {
                            seen.push((phase, 0));
                            &mut seen.last_mut().unwrap().1
                        }
                    };
                    *count += 1;
                    if [1, 40].contains(count) {
                        sampled.push(phase);
                        let ctx = format!(
                            "{kind:?}/{preset}/{workload} cycle {} ({phase})",
                            sys.platform.cycle()
                        );
                        let doc = sys.state_snap();
                        match preset {
                            Preset::Cv32rt => check_sample::<Cv32rtUnit>(&doc, kind, preset, &ctx),
                            _ => check_sample::<RtosUnit>(&doc, kind, preset, &ctx),
                        }
                    }
                }
            }
            let ctx = format!("{kind:?}/{preset}/{workload}");
            let mut want = Vec::new();
            match RtosUnitConfig::from_preset(preset) {
                None => want.push("snapshot drain"),
                Some(cfg) => {
                    let phases = [
                        (cfg.store, "store"),
                        (cfg.load && !cfg.preload, "restore"),
                        (cfg.preload, "lockstep"),
                        (cfg.sched, "sort"),
                        (cfg.preload, "outside an ISR"),
                    ];
                    want.extend(phases.iter().filter(|p| p.0).map(|p| p.1));
                }
            }
            for phase in want {
                assert!(sampled.contains(&phase), "{ctx}: no {phase} sample");
            }
            if kind == CoreKind::Cva6 && preset != Preset::Cv32rt {
                assert!(
                    sampled.contains(&"refill pending"),
                    "{ctx}: no refill sample"
                );
            }
            if kind == CoreKind::NaxRiscv && preset != Preset::Cv32rt && preset != Preset::T {
                assert!(
                    sampled.contains(&"ctxQueue full"),
                    "{ctx}: no full-queue sample"
                );
            }
        }
    }
}

/// A `Preset::Sl` guest on `kind` whose ISR schedules task 2 — the store
/// FSM saves the interrupted context and the memory restore then loads
/// task 2's — runs `body` and halts.
fn guest_under_restore(kind: CoreKind, body: impl FnOnce(&mut Asm)) -> System {
    let mut a = Asm::new(IMEM_BASE);
    a.la(Reg::T0, "isr");
    a.csrw(csr::MTVEC, Reg::T0);
    a.li(Reg::T0, csr::MIP_MTIP as i32);
    a.csrw(csr::MIE, Reg::T0);
    for (i, r) in [Reg::A0, Reg::A1, Reg::S2, Reg::S3, Reg::S4]
        .into_iter()
        .enumerate()
    {
        a.li(r, 0x100 + i as i32);
    }
    a.enable_interrupts();
    a.label("spin");
    a.addi(Reg::A0, Reg::A0, 1);
    a.j("spin");
    a.label("isr");
    a.li(Reg::T1, 2);
    a.set_context_id(Reg::T1);
    body(&mut a);
    a.li(Reg::Gp, MMIO_HALT as i32);
    a.sw(Reg::Zero, 0, Reg::Gp);
    a.label("hang");
    a.j("hang");
    let mut sys = System::new(kind, Preset::Sl);
    sys.load_program(&a.finish().expect("assembles"));
    sys.set_timer_period(300);
    sys.enable_tracing(1 << 14);
    // Task 2's saved context; its `mstatus` keeps interrupts masked, as
    // every context the kernel saves does.
    for w in 0..CTX_WORDS {
        let value = match w {
            CTX_MSTATUS_IDX => csr::MSTATUS_MPIE | csr::MSTATUS_MPP,
            w => 0x7000 + w as u32,
        };
        sys.platform.dmem.write_word(ctx_word_addr(2, w), value);
    }
    sys
}

/// The ISR leaves the ISR bank with `SWITCH_RF` once the store is done —
/// while the memory restore still writes the application bank — and
/// computes, loads and stores on that bank.
fn switch_rf_during_restore(kind: CoreKind) -> System {
    guest_under_restore(kind, |a| {
        a.switch_rf();
        // A block of ALU work on registers the restore is writing: the
        // restore lands in the middle of it.
        for _ in 0..48 {
            a.addi(Reg::S2, Reg::S2, 1);
        }
        // `gp` and `tp` are outside the context, so the restore leaves
        // the loop count and the buffer address alone.
        a.li(Reg::Gp, 40);
        a.li(Reg::Tp, (DMEM_BASE + 0x8000) as i32);
        a.label("loop");
        a.add(Reg::S2, Reg::S2, Reg::A0);
        a.xor(Reg::S3, Reg::S3, Reg::S2);
        a.addi(Reg::A1, Reg::A1, 3);
        a.sw(Reg::S3, 0, Reg::Tp);
        a.lw(Reg::S4, 0, Reg::Tp);
        a.addi(Reg::Gp, Reg::Gp, -1);
        a.bnez(Reg::Gp, "loop");
    })
}

/// The ISR stays on the ISR bank and reads and writes `mepc` and reads
/// `mstatus` — the words the store saves last and the restore loads
/// last — between ALU work, with no data access, while both FSMs run.
fn csr_ops_during_store_and_restore(kind: CoreKind) -> System {
    guest_under_restore(kind, |a| {
        a.li(Reg::Gp, 60);
        a.label("loop");
        a.csrr(Reg::T0, csr::MEPC);
        a.add(Reg::S2, Reg::S2, Reg::T0);
        a.xor(Reg::S3, Reg::S3, Reg::S2);
        a.addi(Reg::S4, Reg::S4, 5);
        a.add(Reg::S5, Reg::S5, Reg::S3);
        a.csrr(Reg::T2, csr::MSTATUS);
        a.xor(Reg::S6, Reg::S6, Reg::T2);
        a.addi(Reg::T0, Reg::T0, 4);
        a.csrw(csr::MEPC, Reg::T0);
        a.addi(Reg::Gp, Reg::Gp, -1);
        a.bnez(Reg::Gp, "loop");
    })
}

/// Batched runs of `build`'s guest, in chunks of 1, 7 and a whole
/// budget, leave the event trace and the whole state per-cycle stepping
/// leaves, on every core.
fn assert_batched_matches_stepwise(build: fn(CoreKind) -> System) {
    for kind in CoreKind::ALL {
        let mut slow = build(kind);
        slow.run_stepwise(4_000);
        assert!(slow.halted(), "{kind:?}: the guest did not halt");
        let unit = slow.unit_stats().expect("a unit");
        assert_eq!(unit.load_words, CTX_WORDS as u64, "{kind:?}: restore");
        for chunk in [1, 7, 4_000] {
            let mut fast = build(kind);
            while !fast.halted() && fast.platform.cycle() < 4_000 {
                fast.run(chunk);
            }
            let ctx = format!("{kind:?}, chunks of {chunk}");
            let events = |s: &System| s.platform.trace().unwrap().iter().collect::<Vec<_>>();
            assert_eq!(events(&fast), events(&slow), "{ctx}: event trace");
            assert_eq!(fast.state_snap(), slow.state_snap(), "{ctx}: state");
        }
    }
}

#[test]
fn csr_ops_during_a_store_and_a_restore_match_per_cycle_stepping() {
    assert_batched_matches_stepwise(csr_ops_during_store_and_restore);
}

#[test]
fn switch_rf_during_a_restore_matches_per_cycle_stepping() {
    assert_batched_matches_stepwise(switch_rf_during_restore);
}
