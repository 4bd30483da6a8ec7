//! Tier-1 verification gates (DESIGN.md §9), run from the root suite so
//! plain `cargo test` enforces them:
//!
//! * every timing engine executes ≥ 10 000 random instructions in
//!   lockstep with the golden architectural executor;
//! * every ISR variant survives 1 000 randomized kernel schedules
//!   checked event-by-event against the host-side scheduler oracle;
//! * 500 randomized *multi-core* schedules pass the per-hart oracle plus
//!   the IPI conservation check (no cross-core wakeup lost);
//! * batched single-hart runs of generated kernels, on every core and
//!   latency preset, leave exactly what per-cycle runs leave;
//! * the single-core campaign artifact is byte-identical to the
//!   pre-SMP-refactor baseline (pinned digest), and a multi-hart one to
//!   the per-cycle lockstep baseline, on both SMP paths.
//!
//! Seeds are fixed, so all gates are deterministic; failure messages
//! name the seed for replay via the `checkfuzz` bin.

use rtosunit_suite::bench::campaign::{Campaign, CampaignSpec, RunSpec, WorkloadSpec};
use rtosunit_suite::bench::workloads;
use rtosunit_suite::check::{
    check_batching, check_lazy_lockstep, episode_for_seed, run_episode, run_scenario,
    run_smp_scenario, scenario_for_seed, smp_scenario_for_seed, OracleStats, ORACLE_PRESETS,
};
use rtosunit_suite::cores::CoreKind;
use rtosunit_suite::isa::progen::GenConfig;
use rtosunit_suite::unit::snap::fnv1a;
use rtosunit_suite::unit::Preset;

#[test]
fn lockstep_ten_thousand_random_instructions_per_engine() {
    let cfg = GenConfig {
        len: 256,
        ..GenConfig::default()
    };
    for core in CoreKind::ALL {
        let mut retired = 0u64;
        let mut seed = 0u64;
        while retired < 10_000 {
            assert!(
                seed < 64,
                "{core}: seed budget exhausted at {retired} retires"
            );
            let ep = episode_for_seed(core, seed, cfg);
            let stats = run_episode(&ep).unwrap_or_else(|m| panic!("{core} seed {seed}: {m}"));
            retired += stats.retired;
            seed += 1;
        }
    }
}

#[test]
fn lockstep_ten_thousand_random_instructions_per_engine_with_blocks() {
    // The same gate a second time with the block translation cache
    // enabled: the engine executes through batched translated blocks and
    // must still match the golden executor at every batch boundary.
    let cfg = GenConfig {
        len: 256,
        ..GenConfig::default()
    };
    for core in CoreKind::ALL {
        let mut retired = 0u64;
        let mut block_hits = 0u64;
        let mut seed = 0u64;
        while retired < 10_000 {
            assert!(
                seed < 64,
                "{core}: seed budget exhausted at {retired} retires"
            );
            let mut ep = episode_for_seed(core, seed, cfg);
            ep.blocks = true;
            let stats =
                run_episode(&ep).unwrap_or_else(|m| panic!("{core} seed {seed} (blocks): {m}"));
            retired += stats.retired;
            block_hits += stats.block_hits;
            seed += 1;
        }
        assert!(block_hits > 0, "{core}: block cache never engaged");
    }
}

#[test]
fn oracle_thousand_schedules_per_isr_variant() {
    for preset in ORACLE_PRESETS {
        let mut total = OracleStats::default();
        for seed in 0..1_000u64 {
            let core = CoreKind::ALL[(seed % 3) as usize];
            let spec = scenario_for_seed(core, preset, seed);
            let stats = run_scenario(&spec)
                .unwrap_or_else(|v| panic!("{preset} core={core} seed={seed}: {v}"));
            total.merge(&stats);
        }
        // The gate is only meaningful if the schedules actually exercised
        // the kernel: thousands of checked scheduling decisions and every
        // probe kind observed.
        assert!(total.scheds > 10_000, "{preset}: scheds {}", total.scheds);
        assert!(total.task_marks > 10_000, "{preset}: few marks");
        assert!(total.takes_ok > 100, "{preset}: few takes");
        assert!(total.takes_blocked > 100, "{preset}: few blocking takes");
        assert!(total.gives > 100, "{preset}: few gives");
        assert!(total.isr_gives > 10, "{preset}: few ISR gives");
        assert!(total.delays > 100, "{preset}: few delays");
    }
}

#[test]
fn oracle_five_hundred_multicore_schedules() {
    // 300 two-hart plus 200 four-hart schedules, rotating every timing
    // engine and every ISR variant. Each schedule replays every hart's
    // trace against its own model AND checks IPI conservation: every
    // send matched by a drain or still visibly queued — a lost
    // cross-core wakeup fails the gate.
    let mut total = OracleStats::default();
    for seed in 0..500u64 {
        let harts = if seed < 300 { 2 } else { 4 };
        let core = CoreKind::ALL[(seed % 3) as usize];
        let preset = ORACLE_PRESETS[(seed % ORACLE_PRESETS.len() as u64) as usize];
        let spec = smp_scenario_for_seed(core, preset, harts, seed);
        let stats = run_smp_scenario(&spec)
            .unwrap_or_else(|v| panic!("{preset} core={core} harts={harts} seed={seed}: {v}"));
        total.merge(&stats);
    }
    // The gate must have exercised the cross-core path, not just n
    // independent kernels: thousands of scheduling decisions and a
    // healthy population of IPIs drained into deferred gives.
    assert!(total.scheds > 5_000, "scheds {}", total.scheds);
    assert!(total.ipi_sends > 500, "ipi_sends {}", total.ipi_sends);
    assert!(total.ipi_recvs > 500, "ipi_recvs {}", total.ipi_recvs);
    assert!(
        total.isr_gives >= total.ipi_recvs,
        "every drained IPI defers a give"
    );
    assert!(
        total.takes_blocked > 100,
        "takes_blocked {}",
        total.takes_blocked
    );
}

#[test]
fn lazy_smp_lockstep_matches_per_cycle_lockstep() {
    // Every core with every ISR variant once, the hart count rotating
    // through 2, 3 and 4 so each core meets each: the lazy lockstep, run
    // for three budgets in uneven chunks, must leave every hart's trace,
    // bus and mailbox statistics and whole state exactly as per-cycle
    // lockstep does. `checkfuzz smp` runs the same check on fresh seeds.
    for seed in 0..18u64 {
        let core = CoreKind::ALL[(seed % 3) as usize];
        let preset = ORACLE_PRESETS[(seed / 3) as usize];
        let harts = 2 + ((seed / 3 + seed) % 3) as usize;
        let spec = smp_scenario_for_seed(core, preset, harts, seed);
        check_lazy_lockstep(&spec, seed)
            .unwrap_or_else(|m| panic!("{preset} core={core} harts={harts} seed={seed}: {m}"));
    }
}

#[test]
fn batched_runs_of_generated_kernels_match_per_cycle_runs() {
    // Every core with every latency preset once: `System::run`, for three
    // budgets in uneven chunks, must leave the exit, records, event trace,
    // unit statistics and whole state exactly as `run_stepwise` does.
    // `checkfuzz batch` runs the same check on fresh seeds.
    let mut seed = 0u64;
    for core in CoreKind::ALL {
        for preset in Preset::LATENCY_SET {
            let spec = scenario_for_seed(core, preset, seed);
            check_batching(&spec, seed)
                .unwrap_or_else(|m| panic!("{preset} core={core} seed={seed}: {m}"));
            seed += 1;
        }
    }
}

/// The fixed single-core matrix both artifact pins run: every core with
/// and without the unit on one suite workload, on the chosen path.
fn pinned_matrix_campaign(stepwise: bool) -> Campaign {
    let w = workloads::by_name("pingpong_semaphore").expect("suite workload exists");
    let mut spec = CampaignSpec::new("smp_equiv");
    for core in CoreKind::ALL {
        for preset in [Preset::Vanilla, Preset::Slt] {
            let mut run = RunSpec::new(core, preset, WorkloadSpec::Suite(w));
            run.stepwise = stepwise;
            spec.runs.push(run);
        }
    }
    spec.run(4)
}

/// The fixed multi-hart matrix the SMP pin runs: the measured workload on
/// hart 0 of a 2- and a 4-hart system, every other hart pounding the
/// shared bus, at a reduced budget, on the chosen path.
fn pinned_smp_campaign(stepwise: bool) -> Campaign {
    let mut w = workloads::by_name("pingpong_semaphore").expect("suite workload exists");
    w.run_cycles = 60_000;
    let mut spec = CampaignSpec::new("smp_pin");
    for core in CoreKind::ALL {
        for preset in [Preset::Vanilla, Preset::Slt] {
            for harts in [2, 4] {
                let mut run = RunSpec::new(core, preset, WorkloadSpec::Suite(w)).with_harts(harts);
                run.stepwise = stepwise;
                spec.runs.push(run);
            }
        }
    }
    spec.run(2)
}

fn assert_matches_pre_smp_pin(campaign: &Campaign, path: &str) {
    let rendered = campaign.to_json().render();
    assert_eq!(rendered.len(), 35753, "{path}: artifact length drifted");
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        0xa270_a007_f9dc_103d,
        "{path}: artifact bytes drifted from the pre-refactor baseline"
    );
}

#[test]
fn single_core_campaign_artifact_is_byte_identical_to_pre_smp_baseline() {
    // Pinned on the commit immediately before the SMP refactor: the
    // rendered campaign JSON for this fixed matrix hashed to the value
    // below. Single-core users must see bit-for-bit identical
    // measurements and artifacts after the refactor — a drift here means
    // the SMP plumbing leaked into the classic path (e.g. an extra JSON
    // key, a changed timing) and must be fixed, not re-pinned. This test
    // holds the cycle-by-cycle reference path to the pin; the batched
    // fast path is held to it below.
    let campaign = pinned_matrix_campaign(true);
    for o in &campaign.outcomes {
        let sim = o.sim.as_ref().expect("suite run simulates");
        assert_eq!(
            sim.counters.block_hits, 0,
            "{}: reference path used blocks",
            o.label
        );
    }
    assert_matches_pre_smp_pin(&campaign, "stepwise");
}

#[test]
fn block_cache_campaign_artifact_matches_the_pinned_baseline() {
    // Batched runs execute through the block translation cache, and the
    // same fixed matrix must hash to the very same pre-refactor pin: the
    // cache is host-side execution speed only, invisible in every
    // measured cycle, every counter and every byte of the rendered
    // artifact. The host-side counters prove the cache really served
    // every run.
    let campaign = pinned_matrix_campaign(false);
    for o in &campaign.outcomes {
        let sim = o.sim.as_ref().expect("suite run simulates");
        assert!(
            sim.counters.block_builds > 0,
            "{}: no blocks built",
            o.label
        );
        assert!(sim.counters.block_hits > 0, "{}: no block hits", o.label);
    }
    assert_matches_pre_smp_pin(&campaign, "block cache");
}

#[test]
fn smp_campaign_artifact_matches_the_pinned_lockstep_baseline() {
    // Pinned from per-cycle lockstep before harts caught up over their
    // drains: 2- and 4-hart systems on every core, with and without the
    // unit. The per-cycle reference and the lazy default path must both
    // render these bytes, and no hart-0 run may build a block cache (a
    // catch-up only drains).
    for (stepwise, path) in [(true, "per-cycle lockstep"), (false, "lazy lockstep")] {
        let campaign = pinned_smp_campaign(stepwise);
        assert!(
            campaign.failures.is_empty(),
            "{path}: {:?}",
            campaign.failures
        );
        for o in &campaign.outcomes {
            let sim = o.sim.as_ref().expect("suite run simulates");
            assert_eq!(
                sim.counters.block_builds, 0,
                "{path} {}: an SMP hart built blocks",
                o.label
            );
        }
        let rendered = campaign.to_json().render();
        assert_eq!(rendered.len(), 21064, "{path}: artifact length drifted");
        assert_eq!(
            fnv1a(rendered.as_bytes()),
            0x88ca_248d_c5fe_3b84,
            "{path}: artifact bytes drifted from the lockstep baseline"
        );
    }
}
