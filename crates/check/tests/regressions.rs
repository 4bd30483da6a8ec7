//! Replays the checked-in regression seeds (tier-1).
//!
//! `regression_seeds.txt` pins seeds that once exposed a bug — in an
//! engine, the kernel, or the harness itself — so fixes stay covered
//! deterministically after the nightly fuzz range moves past them.

use rtosunit::Preset;
use rvsim_check::faultcamp::{classify_fault_events, fault_plan_for, FaultOutcome};
use rvsim_check::{episode_for_seed, run_episode, run_scenario, scenario_for_seed};
use rvsim_cores::CoreKind;
use rvsim_isa::progen::GenConfig;

const SEEDS: &str = include_str!("regression_seeds.txt");

fn parse_core(tag: &str) -> CoreKind {
    CoreKind::from_tag(tag).unwrap_or_else(|| panic!("unknown core {tag:?}"))
}

fn parse_preset(tag: &str) -> Preset {
    Preset::from_tag(tag).unwrap_or_else(|| panic!("unknown preset {tag:?}"))
}

#[test]
fn regression_seeds_stay_clean() {
    let mut ran = 0;
    for line in SEEDS.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["lockstep", core, seed] => {
                let core = parse_core(core);
                let seed: u64 = seed.parse().expect("seed");
                let cfg = GenConfig {
                    len: 256,
                    ..GenConfig::default()
                };
                let ep = episode_for_seed(core, seed, cfg);
                if let Err(m) = run_episode(&ep) {
                    panic!("regression lockstep {core} seed={seed}: {m}");
                }
            }
            ["lockstep-snap", core, seed] => {
                let core = parse_core(core);
                let seed: u64 = seed.parse().expect("seed");
                let cfg = GenConfig {
                    len: 256,
                    ..GenConfig::default()
                };
                let mut ep = episode_for_seed(core, seed, cfg);
                ep.snap = true;
                if let Err(m) = run_episode(&ep) {
                    panic!("regression lockstep-snap {core} seed={seed}: {m}");
                }
            }
            ["oracle", preset, core, seed] => {
                let preset = parse_preset(preset);
                let core = parse_core(core);
                let seed: u64 = seed.parse().expect("seed");
                let spec = scenario_for_seed(core, preset, seed);
                if let Err(v) = run_scenario(&spec) {
                    panic!("regression oracle {preset} {core} seed={seed}: {v}");
                }
            }
            ["faultcamp", preset, core, scenario_seed, fault_seed, outcome] => {
                let preset = parse_preset(preset);
                let core = parse_core(core);
                let scenario_seed: u64 = scenario_seed.parse().expect("scenario seed");
                let fault_seed: u64 = fault_seed.parse().expect("fault seed");
                let expected = FaultOutcome::from_name(outcome)
                    .unwrap_or_else(|| panic!("unknown fault outcome {outcome:?}"));
                let spec = scenario_for_seed(core, preset, scenario_seed);
                let plan = fault_plan_for(&spec, fault_seed, 2);
                let report = classify_fault_events(&spec, plan.events().to_vec());
                assert_eq!(
                    report.outcome, expected,
                    "regression faultcamp {preset} {core} scen={scenario_seed} \
                     fault={fault_seed}: {}",
                    report.detail
                );
            }
            _ => panic!("malformed regression line {line:?}"),
        }
        ran += 1;
    }
    assert!(ran >= 10, "regression corpus shrank to {ran} entries");
}
