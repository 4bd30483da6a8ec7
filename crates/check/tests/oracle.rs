//! Sanity check that the scheduler oracle can fail: a real kernel trace
//! replayed against a model with the wrong task priorities is rejected. The
//! randomized oracle gates themselves (1 000 schedules per ISR variant,
//! 500 multi-core schedules) run from the root suite
//! (`tests/verification.rs`).

use rvsim_check::{oracle, scenario_for_seed, trace_scenario, ORACLE_PRESETS};
use rvsim_cores::CoreKind;

#[test]
fn oracle_rejects_a_trace_checked_against_the_wrong_priorities() {
    // Replay a real trace against a model whose task priorities are
    // swapped. Some seeds never make the two tasks contend, so scan a few
    // until the oracle objects.
    let preset = ORACLE_PRESETS[0];
    for seed in 0..50 {
        let spec = scenario_for_seed(CoreKind::Cv32e40p, preset, seed);
        if spec.tasks.len() < 2 {
            continue;
        }
        let trace = trace_scenario(&spec);
        let mut wrong = spec.clone();
        let p0 = wrong.tasks[0].prio;
        wrong.tasks[0].prio = wrong.tasks[1].prio;
        wrong.tasks[1].prio = p0;
        if oracle::check(&wrong, &trace).is_err() {
            return;
        }
    }
    panic!("no seed produced a violation under swapped priorities");
}
