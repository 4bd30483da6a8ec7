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
use rtosunit_suite::unit::layout::{CTX_WORDS, DMEM_SIZE};
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

/// Runs `build()` for 25k cycles in `mode`, snapshots it, restores the
/// snapshot, runs both sides 25k more, and demands the restored side
/// finish byte-identically to the side that never stopped — and to a
/// cold system that ran the whole budget in one call, so no snapshot
/// depends on where a run was chunked. Returns the side that never
/// stopped.
fn assert_invisible_roundtrip(label: &str, mode: Mode, build: impl Fn() -> System) -> System {
    let mut original = build();
    advance(&mut original, mode, 25_000);

    let doc = original.snapshot();
    assert_eq!(
        doc.render(),
        original.snapshot().render(),
        "{label}: serialization is unstable"
    );
    let mut restored = System::from_snapshot(&doc).unwrap_or_else(|e| panic!("{label}: {e}"));

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
    let mut cold = build();
    advance(&mut cold, mode, 50_000);
    assert_eq!(
        cold.state_snap().render(),
        restored.state_snap().render(),
        "{label}: restored state differs from one uninterrupted run"
    );
    original
}

#[test]
fn single_hart_roundtrip_battery() {
    // 3 engines × 2 execution modes × faults on/off: snapshot mid-run,
    // restore into a fresh system, and demand the restored side finish
    // byte-identically to the side that never stopped and to a cold run.
    for (core, preset) in CELLS {
        for mode in MODES {
            for faults in [false, true] {
                let label = format!("{core}/{} {mode:?} faults={faults}", preset.tag());
                let original = assert_invisible_roundtrip(&label, mode, || {
                    single_hart_system(core, preset, faults)
                });
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
    obj.get_mut(key)
        .unwrap_or_else(|| panic!("no `{key}` field"))
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
        let unit = field_mut(&mut bad, "unit");
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
    // The data-cache configuration comes from the core kind, not from the
    // document. A line array of another length, a CVA6 document without
    // its data cache, or a CV32E40P one with a data cache must be refused
    // rather than reach the cache constructor's asserts.
    fn dcache(state: &mut snapshot::Json) -> &mut snapshot::Json {
        field_mut(field_mut(state, "platform"), "dcache")
    }
    let state = |core| {
        let mut sys = single_hart_system(core, Preset::Slt, false);
        sys.run(20_000);
        let state = sys.state_snap();
        assert!(
            System::from_state_snap(&state).is_ok(),
            "pristine {core} state rejected"
        );
        state
    };
    let mut cva6 = state(CoreKind::Cva6);
    let mut short = cva6.clone();
    let lines = items_mut(field_mut(dcache(&mut short), "lines"));
    lines.truncate(lines.len() - 4);
    let mut missing = cva6.clone();
    *dcache(&mut missing) = snapshot::Json::Null;
    let mut cached = state(CoreKind::Cv32e40p);
    *dcache(&mut cached) = dcache(&mut cva6).clone();
    for (what, bad) in [
        ("a data cache one line short", short),
        ("CVA6 state without its data cache", missing),
        ("CV32E40P state with a data cache", cached),
    ] {
        assert!(System::from_state_snap(&bad).is_err(), "{what} accepted");
    }
}

#[test]
fn restore_rejects_an_external_irq_schedule_out_of_order() {
    // The schedule is kept latest-first and the run only ever reads its
    // back, so an earlier arrival behind a later one would never be
    // raised. Restore must refuse such a document.
    let schedule = |cycles: &[u64]| {
        snapshot::Json::Array(cycles.iter().map(|&c| snapshot::Json::UInt(c)).collect())
    };
    let state = |arrivals: &[u64]| {
        let mut sys = single_hart_system(CoreKind::Cv32e40p, Preset::Vanilla, false);
        for &at in arrivals {
            sys.schedule_external_irq(at);
        }
        sys.state_snap()
    };
    // Equal neighbours (two arrivals on one cycle) stay legal.
    let ties = state(&[300, 2_000, 300, 900, 600]);
    assert_eq!(
        ties.get("ext_schedule"),
        Some(&schedule(&[2_000, 900, 600, 300, 300]))
    );
    assert!(
        System::from_state_snap(&ties).is_ok(),
        "a schedule with a tie rejected"
    );
    let mut state = state(&[1_000, 3_000, 5_000]);
    assert_eq!(
        state.get("ext_schedule"),
        Some(&schedule(&[5_000, 3_000, 1_000]))
    );
    assert!(
        System::from_state_snap(&state).is_ok(),
        "pristine state rejected"
    );
    for order in [[1_000, 3_000, 5_000], [5_000, 1_000, 3_000]] {
        *field_mut(&mut state, "ext_schedule") = schedule(&order);
        assert!(
            System::from_state_snap(&state).is_err(),
            "schedule {order:?} accepted"
        );
    }
}

#[test]
fn a_failed_restore_leaves_the_system_untouched() {
    // Documents that pass the identity checks but hold a malformed
    // payload are refused; a rewind replaces its live system only with a
    // restore that succeeded, so a failed one leaves it as it was.
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
            let len = u64::from(DMEM_SIZE / 4);
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
        if let Ok(restored) = System::from_state_snap(&bad) {
            live = restored;
        }
        assert_eq!(
            live.state_snap().render(),
            before,
            "a failed restore with {what} changed the system"
        );
    }
    // The pristine document still restores, and does replace the state.
    live = System::from_state_snap(&state).expect("pristine state restores");
    assert_eq!(live.state_snap().render(), state.render());
}

#[test]
fn restore_takes_the_unit_from_the_preset_not_the_document() {
    // Relabelling a document's preset to one whose unit lacks state the
    // document holds — a scheduler, the semaphore bank, the preloader —
    // must be refused: the restored machine would assert on its next
    // custom instruction or run a unit no preset builds.
    for (core, from, to) in [
        (CoreKind::Cv32e40p, Preset::Slt, Preset::S),
        (CoreKind::Cva6, Preset::Slt, Preset::Sl),
        (CoreKind::Cv32e40p, Preset::SltHs, Preset::Slt),
        (CoreKind::NaxRiscv, Preset::Split, Preset::Slt),
    ] {
        let mut sys = single_hart_system(core, from, false);
        sys.run(30_000);
        let tag = |p: Preset| format!("\"preset\": \"{}\"", p.tag());
        let text = sys.state_snap().render();
        let relabelled = snapshot::Json::parse(&text.replacen(&tag(from), &tag(to), 1));
        let restored = System::from_state_snap(&relabelled.expect("relabelled state parses"));
        let label = format!("{core} {} state relabelled {}", from.tag(), to.tag());
        assert_eq!(restored.map(|s| s.preset()).ok(), None, "{label}");
    }
}

#[test]
fn overridden_configuration_survives_a_roundtrip() {
    // The configuration a campaign override changes is the only
    // configuration the payload keeps: the unit's list length and the
    // ctxQueue (absent, or with its depth).
    type Override = fn(&mut System);
    let cells: [(CoreKind, Preset, &str, Override); 4] = [
        (CoreKind::Cv32e40p, Preset::Slt, "list length 16", |s| {
            s.set_unit_list_len(16)
        }),
        (CoreKind::NaxRiscv, Preset::Split, "ctxQueue depth 4", |s| {
            s.platform.set_ctx_queue_depth(4)
        }),
        (
            CoreKind::NaxRiscv,
            Preset::Slt,
            "arbitration at the bus",
            |s| s.platform.set_unit_arbitration(false),
        ),
        (
            CoreKind::Cv32e40p,
            Preset::Slt,
            "arbitration in the LSU",
            |s| s.platform.set_unit_arbitration(true),
        ),
    ];
    for (core, preset, what, apply) in cells {
        let label = format!("{core}/{} with {what}", preset.tag());
        let original = assert_invisible_roundtrip(&label, Mode::Batched, || {
            let mut sys = single_hart_system(core, preset, false);
            apply(&mut sys);
            sys
        });
        assert!(!original.records().is_empty(), "{label}: no episodes");
    }
}

#[test]
fn payloads_hold_no_configuration_the_machine_fixes() {
    // What the core kind, the preset or the memory map fix — geometry,
    // unit features, capacities, wiring — and mirrors of other fields
    // stay out of the payload.
    const FIXED: &str = "len_words sets ways line_words policy hit_latency miss_penalty \
        cfg model depth unit_shares_cache masters bypass_invalidate auto_timer_reset mhartid \
        mcycle prev_mask core_used_this_cycle console_len ext_len inflight_len lines_len";
    let mut texts = Vec::new();
    for (core, preset) in [
        (CoreKind::Cva6, Preset::Slt),
        (CoreKind::NaxRiscv, Preset::Split),
    ] {
        let mut sys = single_hart_system(core, preset, false);
        sys.run(20_000);
        texts.push(sys.snapshot().render());
    }
    let spec = smp_scenario_for_seed(CoreKind::Cva6, Preset::Slt, 2, 17);
    let mut smp = smp_scenario_system(&spec);
    smp.run(2_500);
    texts.push(smp.snapshot().render());
    for (text, key) in texts
        .iter()
        .flat_map(|t| FIXED.split_whitespace().map(move |k| (t, k)))
    {
        assert!(
            !text.contains(&format!("\"{key}\":")),
            "payload holds `{key}`"
        );
    }
}
