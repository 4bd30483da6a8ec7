//! Snapshot round-trip determinism battery (tier-1).
//!
//! The snapshot contract (DESIGN.md §14): a restored system is
//! cycle-for-cycle, counter-for-counter and trace-for-trace identical to
//! one that never stopped. This battery enforces it across the full
//! matrix — every timing engine × both execution paths (per-cycle
//! stepping, batched translated blocks) × {1, 2, 4} harts × fault
//! injection on/off — and checks the envelope itself: tampered or
//! truncated documents are rejected, and serialization is byte-stable
//! so digests can be pinned.

use rtosunit_suite::bench::workloads;
use rtosunit_suite::check::{smp_scenario_for_seed, smp_scenario_system};
use rtosunit_suite::cores::{CoreKind, FaultEvent, FaultKind, FaultPlan};
use rtosunit_suite::isa::Reg;
use rtosunit_suite::snapshot;
use rtosunit_suite::unit::layout::CTX_WORDS;
use rtosunit_suite::unit::{Preset, SmpSystem, System};

/// The two ways the simulator executes; the snapshot codec must be
/// invisible under each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Stepwise,
    Batched,
}

const MODES: [Mode; 2] = [Mode::Stepwise, Mode::Batched];

/// Pairs every engine with a different ISR variant so the battery also
/// crosses unit models (RTOS unit, vanilla, split lanes).
const CELLS: [(CoreKind, Preset); 3] = [
    (CoreKind::Cv32e40p, Preset::Vanilla),
    (CoreKind::Cva6, Preset::Slt),
    (CoreKind::NaxRiscv, Preset::Split),
];

/// A two-fault plan straddling the snapshot point: the first fault has
/// fired (cursor state must survive the round-trip), the second is still
/// pending (and must fire identically on both sides).
fn battery_faults() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            at_cycle: 12_000,
            kind: FaultKind::RegFlip {
                reg: Reg::T4,
                bit: 5,
            },
        },
        FaultEvent {
            at_cycle: 35_000,
            kind: FaultKind::SpuriousIrq,
        },
    ])
}

fn single_hart_system(core: CoreKind, preset: Preset, faults: bool) -> System {
    let w = workloads::by_name("pingpong_semaphore").expect("suite workload exists");
    let image = workloads::build(&w, preset).expect("workload builds");
    let mut sys = System::new(core, preset);
    image.install(&mut sys);
    sys.enable_tracing(1 << 12);
    if faults {
        sys.attach_fault_plan(battery_faults());
    }
    sys
}

fn advance(sys: &mut System, mode: Mode, cycles: u64) {
    match mode {
        Mode::Stepwise => {
            sys.run_stepwise(cycles);
        }
        Mode::Batched => {
            sys.run(cycles);
        }
    }
}

#[test]
fn single_hart_roundtrip_battery() {
    // 3 engines × 2 execution modes × faults on/off: snapshot mid-run,
    // restore into a fresh system, and demand the restored side finish
    // byte-identically to the side that never stopped — and to a cold
    // system that ran the whole budget in one call, so no snapshot
    // depends on where a run was chunked.
    for (core, preset) in CELLS {
        for mode in MODES {
            for faults in [false, true] {
                let label = format!("{core}/{} {mode:?} faults={faults}", preset.tag());
                let mut original = single_hart_system(core, preset, faults);
                advance(&mut original, mode, 25_000);

                let doc = original.snapshot();
                assert_eq!(
                    doc.render(),
                    original.snapshot().render(),
                    "{label}: serialization is unstable"
                );
                let mut restored =
                    System::from_snapshot(&doc).unwrap_or_else(|e| panic!("{label}: {e}"));

                advance(&mut original, mode, 25_000);
                advance(&mut restored, mode, 25_000);

                assert_eq!(
                    original.platform.cycle(),
                    restored.platform.cycle(),
                    "{label}: cycles diverged"
                );
                assert_eq!(
                    original.records(),
                    restored.records(),
                    "{label}: switch records diverged"
                );
                assert_eq!(
                    original.state_snap().render(),
                    restored.state_snap().render(),
                    "{label}: machine state diverged after restore"
                );
                let mut cold = single_hart_system(core, preset, faults);
                advance(&mut cold, mode, 50_000);
                assert_eq!(
                    cold.state_snap().render(),
                    restored.state_snap().render(),
                    "{label}: restored state differs from one uninterrupted run"
                );
                if faults {
                    assert_eq!(original.faults_applied(), 2, "{label}: plan never fired");
                }
            }
        }
    }
}

#[test]
fn smp_roundtrip_battery() {
    // The same contract for whole multi-core compositions: {2, 4} harts,
    // every engine, faults on/off. Shared bus arbitration and in-flight
    // IPI mailboxes must survive the round-trip. (SMP always steps
    // per-cycle in lockstep, so there is no execution-mode axis.)
    for harts in [2usize, 4] {
        for (i, (core, preset)) in CELLS.into_iter().enumerate() {
            for faults in [false, true] {
                let label = format!("{harts}x {core}/{} faults={faults}", preset.tag());
                let spec = smp_scenario_for_seed(core, preset, harts, 17 + i as u64);
                let mut original = smp_scenario_system(&spec);
                if faults {
                    original.hart_mut(0).attach_fault_plan(FaultPlan::new(vec![
                        FaultEvent {
                            at_cycle: 1_000,
                            kind: FaultKind::RegFlip {
                                reg: Reg::T4,
                                bit: 5,
                            },
                        },
                        FaultEvent {
                            at_cycle: 4_000,
                            kind: FaultKind::SpuriousIpi,
                        },
                    ]));
                }
                original.run(2_500);

                let doc = original.snapshot();
                assert_eq!(
                    doc.render(),
                    original.snapshot().render(),
                    "{label}: serialization is unstable"
                );
                let mut restored =
                    SmpSystem::from_snapshot(&doc).unwrap_or_else(|e| panic!("{label}: {e}"));

                original.run(2_500);
                restored.run(2_500);

                assert_eq!(
                    original.snapshot().render(),
                    restored.snapshot().render(),
                    "{label}: composition diverged after restore"
                );
            }
        }
    }
}

#[test]
fn snapshot_digests_are_stable_across_identical_runs() {
    // Two independent boots of the same configuration must serialize to
    // the same bytes — the guard against host time, pointer values, or
    // hash-map iteration order leaking into the snapshot (and therefore
    // into pinned digests).
    let run = || {
        let mut sys = single_hart_system(CoreKind::Cva6, Preset::Slt, true);
        sys.run(40_000);
        sys.snapshot().render()
    };
    assert_eq!(run(), run());
}

#[test]
fn tampered_and_truncated_snapshots_are_rejected() {
    let mut sys = single_hart_system(CoreKind::Cv32e40p, Preset::Vanilla, false);
    sys.run(10_000);
    let text = sys.snapshot().render();

    // The pristine document opens.
    assert!(snapshot::open(&text).is_ok(), "pristine snapshot rejected");

    // Truncation is caught.
    assert!(
        snapshot::open(&text[..text.len() / 2]).is_err(),
        "truncated snapshot accepted"
    );

    // A single flipped payload value breaks the sealed digest.
    let needle = "\"cycle\": 10000";
    assert!(text.contains(needle), "tamper target missing from payload");
    let tampered = text.replace(needle, "\"cycle\": 10001");
    assert_ne!(tampered, text);
    assert!(
        snapshot::open(&tampered).is_err(),
        "tampered snapshot accepted"
    );

    // A wrong schema tag is refused before any state parsing.
    let wrong = text.replace(snapshot::SCHEMA, "rtosunit-snapshot-v0");
    assert!(
        snapshot::open(&wrong).is_err(),
        "wrong-schema snapshot accepted"
    );
}

/// The value under `key` in a snapshot object, for mutation tests.
fn field_mut<'a>(obj: &'a mut snapshot::Json, key: &str) -> &'a mut snapshot::Json {
    match obj {
        snapshot::Json::Object(pairs) => pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no `{key}` field")),
        _ => panic!("`{key}`: not an object"),
    }
}

#[test]
fn restore_rejects_an_active_unit_fsm_past_the_context() {
    // An active store or restore FSM moves its cursor's context word on
    // the next step. A cursor past the last word would index out of the
    // context on resume, so restore must refuse it up front.
    let mut sys = single_hart_system(CoreKind::Cva6, Preset::Sdlot, false);
    sys.run(20_000);
    let state = sys.state_snap();
    assert!(
        System::from_state_snap(&state).is_ok(),
        "pristine state rejected"
    );
    for (active, cursor) in [
        ("store_active", "store_word"),
        ("restore_active", "restore_word"),
    ] {
        let mut bad = state.clone();
        let unit = field_mut(field_mut(&mut bad, "unit"), "state");
        *field_mut(unit, active) = snapshot::Json::Bool(true);
        *field_mut(unit, cursor) = snapshot::Json::UInt(CTX_WORDS as u64);
        assert!(
            System::from_state_snap(&bad).is_err(),
            "active `{active}` with `{cursor}` {CTX_WORDS} accepted"
        );
    }
}

/// The items of a snapshot array, for mutation tests.
fn items_mut(value: &mut snapshot::Json) -> &mut Vec<snapshot::Json> {
    match value {
        snapshot::Json::Array(items) => items,
        _ => panic!("not an array"),
    }
}

#[test]
fn restore_rejects_a_data_cache_that_is_not_the_cores() {
    // The data-cache configuration is wiring that comes from the core
    // kind. A document with another geometry, or without the cache the
    // core has, must be refused rather than reach the cache constructor's
    // asserts.
    let mut sys = single_hart_system(CoreKind::Cva6, Preset::Slt, false);
    sys.run(20_000);
    let state = sys.state_snap();
    assert!(
        System::from_state_snap(&state).is_ok(),
        "pristine state rejected"
    );
    for (key, value) in [("sets", 3), ("ways", 0), ("line_words", 6)] {
        let mut bad = state.clone();
        let dcache = field_mut(field_mut(&mut bad, "platform"), "dcache");
        *field_mut(dcache, key) = snapshot::Json::UInt(value);
        assert!(
            System::from_state_snap(&bad).is_err(),
            "data cache with `{key}` {value} accepted"
        );
    }
    let mut missing = state.clone();
    *field_mut(field_mut(&mut missing, "platform"), "dcache") = snapshot::Json::Null;
    assert!(
        System::from_state_snap(&missing).is_err(),
        "CVA6 state without its data cache accepted"
    );
}

#[test]
fn a_failed_restore_leaves_the_system_untouched() {
    // Documents that pass the identity checks but hold a malformed
    // payload: the engine parses before the platform fails, so a restore
    // that committed piecewise would show here.
    let mut source = single_hart_system(CoreKind::Cva6, Preset::Slt, false);
    source.run(10_000);
    let state = source.state_snap();
    assert!(!source.records().is_empty(), "no episode to corrupt");
    let mut live = single_hart_system(CoreKind::Cva6, Preset::Slt, false);
    live.run(20_000);
    let before = live.state_snap().render();

    type Mutation = fn(&mut snapshot::Json);
    let mutations: [(&str, Mutation); 4] = [
        ("a DMEM run longer than DMEM", |s| {
            let dmem = field_mut(field_mut(s, "platform"), "dmem");
            let len = match field_mut(dmem, "len_words") {
                snapshot::Json::UInt(len) => *len,
                other => panic!("len_words is {other:?}"),
            };
            items_mut(field_mut(dmem, "words"))[0] = snapshot::Json::UInt(len + 1);
        }),
        ("a trace-mark list of odd length", |s| {
            let mmio = field_mut(field_mut(s, "platform"), "mmio");
            items_mut(field_mut(mmio, "trace_marks")).push(snapshot::Json::UInt(1));
        }),
        ("a record list that is not whole records", |s| {
            items_mut(field_mut(s, "records")).pop();
        }),
        ("a record cause beyond u32", |s| {
            items_mut(field_mut(s, "records"))[3] = snapshot::Json::UInt(u64::MAX);
        }),
    ];
    for (what, mutate) in mutations {
        let mut bad = state.clone();
        mutate(&mut bad);
        assert!(live.restore_snap(&bad).is_err(), "{what} accepted");
        assert_eq!(
            live.state_snap().render(),
            before,
            "a failed restore with {what} changed the system"
        );
    }
    // The pristine document still restores, and does replace the state.
    live.restore_snap(&state).expect("pristine state restores");
    assert_eq!(live.state_snap().render(), state.render());
}
