//! Behavioural tests for the RTOSUnit at the System level: configuration
//! semantics that only show up when the unit, core and kernel interact
//! over thousands of cycles.

use freertos_lite::KernelBuilder;
use rtosunit::{Preset, System};
use rvsim_cores::CoreKind;

fn yield_pair(preset: Preset, kind: CoreKind, cycles: u64) -> System {
    let mut k = KernelBuilder::new(preset);
    k.tick_period(3000);
    k.task("a", 5, |t| {
        t.compute(10);
        t.yield_now();
    });
    k.task("b", 5, |t| {
        t.compute(10);
        t.yield_now();
    });
    let img = k.build().expect("builds");
    let mut sys = System::new(kind, preset);
    img.install(&mut sys);
    sys.run(cycles);
    sys
}

#[test]
fn store_traffic_scales_with_dirty_bits() {
    // (SDLO) stores only dirty registers: fewer words per interrupt than
    // the full 31 of (SL).
    let full = yield_pair(Preset::Sl, CoreKind::Cv32e40p, 200_000);
    let dirty = yield_pair(Preset::Sdlo, CoreKind::Cv32e40p, 200_000);
    let f = full.unit_stats().expect("unit");
    let d = dirty.unit_stats().expect("unit");
    let full_rate = f.store_words as f64 / f.interrupts as f64;
    let dirty_rate = d.store_words as f64 / d.interrupts as f64;
    assert!(
        (30.9..=31.1).contains(&full_rate),
        "SL must store 31 words: {full_rate}"
    );
    assert!(
        dirty_rate < 25.0,
        "dirty bits should cut store traffic: {dirty_rate} words/interrupt"
    );
}

#[test]
fn preload_traffic_exists_only_with_p() {
    let slt = yield_pair(Preset::Slt, CoreKind::Cv32e40p, 200_000);
    assert_eq!(slt.unit_stats().expect("unit").preload_words, 0);
    let split = yield_pair(Preset::Split, CoreKind::Cv32e40p, 200_000);
    assert!(split.unit_stats().expect("unit").preload_words > 0);
}

#[test]
fn t_only_never_touches_the_port() {
    // (T) has no context FSMs: the unit must make zero memory accesses.
    let sys = yield_pair(Preset::T, CoreKind::Cv32e40p, 200_000);
    let u = sys.unit_stats().expect("unit");
    assert_eq!(u.store_words + u.load_words + u.preload_words, 0);
    assert_eq!(
        sys.platform.port_occupancy().2,
        0,
        "no unit port cycles in (T)"
    );
    assert!(u.custom_instrs > 10, "GET_HW_SCHED must run");
}

#[test]
fn load_omission_fires_when_a_task_is_reselected() {
    // Single user task + idle: most timer ticks re-select the same task.
    let mut k = KernelBuilder::new(Preset::Sdlo);
    k.tick_period(1500);
    k.task("solo", 5, |t| {
        t.compute(40);
    });
    let img = k.build().expect("builds");
    let mut sys = System::new(CoreKind::Cv32e40p, Preset::Sdlo);
    img.install(&mut sys);
    sys.run(200_000);
    let u = sys.unit_stats().expect("unit");
    assert!(
        u.omitted_loads as f64 > u.interrupts as f64 * 0.8,
        "reselecting the same task should omit loads: {u:?}"
    );
}

#[test]
fn switch_latency_breaks_down_into_entry_and_isr() {
    let sys = yield_pair(Preset::Slt, CoreKind::Cv32e40p, 150_000);
    // Voluntary yields are taken promptly; timer triggers may land while
    // another ISR runs and legitimately wait it out.
    for r in sys
        .records()
        .iter()
        .skip(2)
        .filter(|r| r.cause == rvsim_isa::csr::CAUSE_SOFTWARE)
    {
        let entry = r.entry_latency();
        assert!(entry <= 16, "entry wait too long for a yield: {r:?}");
        assert!(r.latency() >= entry + 40, "ISR phase missing: {r:?}");
    }
}

#[test]
fn trace_module_summarises_a_real_run() {
    use rtosunit::trace;
    // A sparse workload (one computing task, timer-only switches) so the
    // timeline shows both task time and ISR time.
    let mut k = KernelBuilder::new(Preset::Slt);
    k.tick_period(1500);
    k.task("solo", 5, |t| t.compute(60));
    let img = k.build().expect("builds");
    let mut sys = System::new(CoreKind::Cv32e40p, Preset::Slt);
    img.install(&mut sys);
    sys.run(150_000);
    let per_cause = trace::per_cause_stats(sys.records().iter().map(|r| (r.cause, r.latency())));
    assert!(!per_cause.is_empty());
    let overhead = trace::isr_overhead(sys.records(), sys.platform.cycle());
    assert!(
        overhead > 0.01 && overhead < 0.5,
        "ISR overhead fraction out of range: {overhead}"
    );
    let line = trace::render_timeline(sys.records(), sys.platform.cycle(), 120);
    assert_eq!(line.len(), 120);
    assert!(line.contains('#') && line.contains('.'));
}

#[test]
fn rtos_overhead_shrinks_with_acceleration() {
    use rtosunit::trace;
    let vanilla = yield_pair(Preset::Vanilla, CoreKind::Cv32e40p, 200_000);
    let slt = yield_pair(Preset::Slt, CoreKind::Cv32e40p, 200_000);
    let ov_v = trace::isr_overhead(vanilla.records(), vanilla.platform.cycle());
    let ov_s = trace::isr_overhead(slt.records(), slt.platform.cycle());
    // Careful: faster switches mean *more* switches fit in the budget, so
    // compare overhead per switch instead of per run.
    let per_v = ov_v * vanilla.platform.cycle() as f64 / vanilla.records().len() as f64;
    let per_s = ov_s * slt.platform.cycle() as f64 / slt.records().len() as f64;
    assert!(
        per_s < per_v * 0.5,
        "per-switch ISR occupancy must halve: vanilla {per_v:.1}, slt {per_s:.1}"
    );
}

#[test]
fn cva6_and_nax_units_work_with_their_memory_hierarchies() {
    for kind in [CoreKind::Cva6, CoreKind::NaxRiscv] {
        let sys = yield_pair(Preset::Slt, kind, 200_000);
        let u = sys.unit_stats().expect("unit");
        assert!(u.interrupts > 20, "{kind}: {u:?}");
        assert_eq!(u.store_words, u.interrupts * 31, "{kind}: store accounting");
        // The cache must have seen traffic on cached platforms.
        let (hits, misses) = sys.platform.dcache().expect("cache").stats();
        assert!(hits + misses > 0, "{kind}: cache untouched");
    }
}
