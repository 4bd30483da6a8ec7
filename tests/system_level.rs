//! System-level integration tests: determinism, instrumentation
//! consistency, and agreement between the analytical models and the
//! simulator.

use rtosunit_suite::asic::{area_report, power_report};
use rtosunit_suite::bench::campaign::{self, RunSpec, WorkloadSpec};
use rtosunit_suite::bench::{run_workload, workloads};
use rtosunit_suite::cores::{CoreKind, FaultEvent, FaultKind, FaultPlan};
use rtosunit_suite::isa::{decode, Instr};
use rtosunit_suite::kernel::{GuestImage, KernelBuilder, KernelError};
use rtosunit_suite::unit::{Preset, System};
use rtosunit_suite::wcet::analyze_preset;

#[test]
fn simulation_is_deterministic() {
    // Two identical runs must produce byte-identical switch records —
    // a prerequisite for the zero-jitter claims to be meaningful.
    let run = || {
        let w = workloads::by_name("mutex_workload").expect("exists");
        let mut short = w;
        short.run_cycles = 150_000;
        run_workload(CoreKind::NaxRiscv, Preset::Split, &short).latencies
    };
    assert_eq!(run(), run());
}

/// `n` periodic tasks on a kernel built for 16 hardware list slots.
fn periodic_tasks_on_sixteen_slots(n: u32, preset: Preset) -> Result<GuestImage, KernelError> {
    let mut k = KernelBuilder::new(preset);
    k.tick_period(2500).hw_list_len(16);
    for i in 0..n as usize {
        let period = (i % 3 + 1) as u32;
        k.task(&format!("t{i}"), (i % 6 + 1) as u8, move |t| {
            t.compute(6);
            t.delay(period);
        });
    }
    k.build()
}

#[test]
fn the_image_sizes_the_hardware_lists() {
    // The list capacity is stated once, on the kernel builder: a 12-task
    // image built for 16 slots boots on (T) with nothing else to set.
    let spec = RunSpec::new(
        CoreKind::Cv32e40p,
        Preset::T,
        WorkloadSpec::Custom {
            name: "tick_periodic",
            param: 12,
            build: periodic_tasks_on_sixteen_slots,
            run_cycles: 100_000,
        },
    );
    let out = campaign::simulate(&spec, None).expect("kernel builds");
    assert!(
        out.raw_records.len() > 20,
        "{} switches",
        out.raw_records.len()
    );
}

#[test]
fn switch_records_are_well_formed() {
    let mut k = KernelBuilder::new(Preset::Sl);
    k.task("a", 4, |t| t.yield_now());
    k.task("b", 4, |t| t.yield_now());
    let image = k.build().expect("builds");
    let mut sys = System::new(CoreKind::Cva6, Preset::Sl);
    image.install(&mut sys);
    sys.run(150_000);
    assert!(sys.records().len() > 10);
    let mut last_end = 0;
    for r in sys.records() {
        assert!(
            r.trigger_cycle <= r.entry_cycle,
            "trigger after entry: {r:?}"
        );
        assert!(r.entry_cycle < r.mret_cycle, "entry after mret: {r:?}");
        assert!(r.entry_cycle >= last_end, "overlapping ISR episodes: {r:?}");
        last_end = r.mret_cycle;
    }
}

#[test]
fn wcet_bound_dominates_simulation_for_cached_contexts() {
    // The §6.2 analysis is for CV32E40P; it must dominate the measured
    // maxima of every workload for the configurations it covers.
    for preset in [Preset::Vanilla, Preset::Sl, Preset::St, Preset::Sdlot] {
        let bound = analyze_preset(preset).total_cycles;
        for w in workloads::ALL {
            let mut short = w;
            short.run_cycles = 150_000;
            let r = run_workload(CoreKind::Cv32e40p, preset, &short);
            let max = r.latencies.iter().max().copied().unwrap_or(0);
            assert!(max <= bound, "{preset}/{}: {max} > bound {bound}", w.name);
        }
    }
}

#[test]
fn power_total_orders_with_area_within_a_core() {
    // §6.3: strong area-power correlation. For each core, the most
    // area-hungry configuration must also draw the most power.
    for kind in CoreKind::ALL {
        let mut by_area: Vec<Preset> = Preset::ASIC_SET.to_vec();
        by_area.sort_by(|a, b| {
            area_report(kind, *a)
                .added_um2()
                .partial_cmp(&area_report(kind, *b).added_um2())
                .expect("finite")
        });
        let biggest = *by_area.last().expect("non-empty");
        let smallest = by_area[0];
        let p_big = power_report(kind, biggest).total_mw();
        let p_small = power_report(kind, smallest).total_mw();
        assert!(
            p_big > p_small,
            "{kind}: area-max {biggest} ({p_big:.2} mW) must out-draw {smallest} ({p_small:.2} mW)"
        );
    }
}

#[test]
fn unit_traffic_accounts_for_context_words() {
    // In (SLT) every switch stores and loads exactly 31 words (modulo
    // omissions/warm-up); totals must be consistent with interrupt count.
    let mut k = KernelBuilder::new(Preset::Slt);
    k.task("a", 4, |t| t.yield_now());
    k.task("b", 4, |t| t.yield_now());
    let image = k.build().expect("builds");
    let mut sys = System::new(CoreKind::Cv32e40p, Preset::Slt);
    image.install(&mut sys);
    sys.run(150_000);
    let u = sys.unit_stats().expect("unit");
    assert_eq!(
        u.store_words,
        u.interrupts * 31,
        "store words per interrupt"
    );
    // Loads may lag stores by at most one in-flight switch at shutdown.
    assert!(u.load_words <= u.store_words);
    assert!(u.store_words - u.load_words <= 31);
}

#[test]
fn hardware_and_software_schedulers_agree_on_order() {
    // The same workload must produce the same task alternation whether
    // the ready lists live in software (vanilla) or hardware (T).
    let run = |preset: Preset| {
        let mut k = KernelBuilder::new(preset);
        k.task("a", 5, |t| {
            t.trace_mark(0xA);
            t.yield_now();
        });
        k.task("b", 5, |t| {
            t.trace_mark(0xB);
            t.yield_now();
        });
        k.task("c", 5, |t| {
            t.trace_mark(0xC);
            t.yield_now();
        });
        let image = k.build().expect("builds");
        let mut sys = System::new(CoreKind::Cv32e40p, preset);
        image.install(&mut sys);
        sys.run(120_000);
        let marks: Vec<u32> = sys
            .platform
            .mmio
            .trace_marks
            .iter()
            .map(|m| m.code)
            .take(30)
            .collect();
        marks
    };
    let sw = run(Preset::Vanilla);
    let hw = run(Preset::T);
    assert!(sw.len() >= 30 && hw.len() >= 30);
    // The ISR lengths differ, so timer preemptions land at different
    // phases and exact traces may diverge; the *scheduling discipline*
    // must match: no task runs twice in a row, and over the window each
    // task gets a fair share.
    for (name, marks) in [("software", &sw), ("hardware", &hw)] {
        for w in marks.windows(2) {
            assert_ne!(w[0], w[1], "{name}: task ran twice in a row: {marks:?}");
        }
        for task in [0xA, 0xB, 0xC] {
            let n = marks.iter().filter(|&&m| m == task).count();
            assert!(
                (8..=12).contains(&n),
                "{name}: unfair share for {task:#x}: {n}/30 ({marks:?})"
            );
        }
    }
}

#[test]
fn imem_flip_fault_invalidates_live_translated_blocks() {
    // A fault-injected instruction-memory bit flip lands in the middle of
    // a run while the block translation cache holds a live block covering
    // that word. The coherent imem-write path must kill the stale
    // translation, so the batched run stays bit-identical to the
    // per-cycle interpreter seeing the same flip.
    let w = workloads::by_name("delay_periodic").expect("exists");
    let core = CoreKind::Cv32e40p;
    let preset = Preset::Slt;

    // Batched scout run with no fault: pick the hottest profiled
    // block that the cache actually translated — its entry word is
    // guaranteed to be covered by a live block again in the real runs.
    // Restrict to entries whose flipped word still decodes to a plain ALU
    // op: the corrupted guest computes garbage (which both runs must agree
    // on) but never dereferences a wild pointer or jumps out of IMEM.
    let flip_addr = {
        let image = workloads::build(&w, preset).expect("builds");
        let mut sys = System::new(core, preset);
        image.install(&mut sys);
        sys.set_profiling(true);
        sys.run(w.run_cycles);
        let profile = sys.take_profile().expect("profiling was enabled");
        let hot = sys.core.hot_blocks(&profile);
        hot.iter()
            .find(|b| {
                let flipped = sys.core.imem_word(b.start).expect("hot block in imem") ^ (1 << 7);
                sys.block_stats_in(b.start, b.end).builds > 0
                    && matches!(
                        decode(flipped),
                        Ok(Instr::Op { .. }
                            | Instr::OpImm { .. }
                            | Instr::Lui { .. }
                            | Instr::Auipc { .. })
                    )
            })
            .expect("some hot translated block survives the flip benignly")
            .start
    };

    let run = |batched: bool| {
        let image = workloads::build(&w, preset).expect("builds");
        let mut sys = System::new(core, preset);
        image.install(&mut sys);
        sys.set_profiling(true);
        sys.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            at_cycle: w.run_cycles / 2,
            kind: FaultKind::ImemFlip {
                addr: flip_addr,
                bit: 7,
            },
        }]));
        if batched {
            sys.run(w.run_cycles);
        } else {
            sys.run_stepwise(w.run_cycles);
        }
        sys
    };
    let mut fast = run(true);
    let mut slow = run(false);
    assert_eq!(fast.faults_applied(), 1, "flip never fired");
    assert_eq!(slow.faults_applied(), 1, "flip never fired");
    assert_eq!(
        fast.take_profile(),
        slow.take_profile(),
        "profiles diverged"
    );
    assert_eq!(fast.records(), slow.records(), "switch episodes diverged");
    assert_eq!(
        fast.platform.cycle(),
        slow.platform.cycle(),
        "cycles diverged"
    );
    assert_eq!(fast.core.retired(), slow.core.retired(), "retires diverged");
    assert_eq!(
        fast.core.counters().without_host_stats(),
        slow.core.counters().without_host_stats(),
        "activity counters diverged"
    );
    assert!(fast.core.counters().block_hits > 0, "cache never engaged");
    // The killed translation was rebuilt (now decoding the flipped word)
    // when the guest next reached it.
    let stats = fast.block_stats_in(flip_addr, flip_addr);
    assert!(
        stats.retranslations() >= 1,
        "no retranslation after the flip: {stats:?}"
    );
}
