//! Delta-debugging shrink for failing lockstep episodes and oracle
//! scenarios.
//!
//! The generator's item-index branch targets make [`ProgramSpec`]s closed
//! under deletion: removing any subset of items still emits a valid
//! program (dangling targets clamp to the final `ebreak`). Shrinking is
//! therefore plain ddmin over the op list — remove chunks, keep the
//! removal when the episode still diverges, halve the chunk size — and a
//! final pass dropping interrupt-plan events one at a time. The result is
//! the minimal counterexample that CI failures arrive as.
//!
//! Scenario specs are likewise deletion-closed: tasks, script steps and
//! external interrupts can be removed independently (task ids are
//! positional, scripts reference only semaphores), so
//! [`shrink_scenario`] applies the same strategy across those three axes.
//! Fault plans shrink the same way
//! ([`shrink_fault_events`](crate::shrink_fault_events)); all three call
//! the one `ddmin` loop.

use crate::lockstep::{run_episode, EpisodeSpec};
use crate::scenario::{run_scenario, ScenarioSpec};
use rvsim_isa::progen::ProgramSpec;

/// Upper bound on candidate episodes one shrink may run (keeps a
/// pathological failure from stalling the fuzz loop).
const MAX_CANDIDATES: usize = 3000;

/// Shrinks a failing episode to a (locally) minimal one that still fails.
/// The input must fail; the output is guaranteed to fail.
///
/// # Panics
///
/// Panics if `ep` does not fail — shrinking a passing episode is a
/// harness bug.
pub fn shrink_episode(ep: &EpisodeSpec) -> EpisodeSpec {
    assert!(
        run_episode(ep).is_err(),
        "shrink_episode called on a passing episode"
    );
    let mut budget = MAX_CANDIDATES;
    let mut fails = |cand: &EpisodeSpec| -> bool {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        run_episode(cand).is_err()
    };

    // ddmin over the program items.
    let with_ops = |ops: &[_]| EpisodeSpec {
        spec: ProgramSpec::from_parts(ep.spec.cfg, ops.to_vec()),
        ..ep.clone()
    };
    let ops = ddmin(ep.spec.ops.clone(), false, |ops| fails(&with_ops(ops)));
    let mut cur = with_ops(&ops);

    // Drop interrupt events that are not needed for the failure.
    let mut i = 0;
    while i < cur.irqs.len() {
        let mut cand = cur.clone();
        cand.irqs.remove(i);
        if fails(&cand) {
            cur = cand;
        } else {
            i += 1;
        }
    }

    cur
}

/// Shrinks a failing oracle scenario to a (locally) minimal one that
/// still fails: drops whole tasks, then ddmin over each surviving task's
/// script, then drops external interrupts.
///
/// # Panics
///
/// Panics if `spec` does not fail.
pub fn shrink_scenario(spec: &ScenarioSpec) -> ScenarioSpec {
    assert!(
        run_scenario(spec).is_err(),
        "shrink_scenario called on a passing scenario"
    );
    let mut budget = 400usize; // scenario runs are ~ms each
    shrink_scenario_with(spec, |cand| {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        run_scenario(cand).is_err()
    })
}

/// The shrink strategy of [`shrink_scenario`] against an arbitrary
/// failure predicate (`true` = still fails, keep the reduction).
pub fn shrink_scenario_with(
    spec: &ScenarioSpec,
    mut fails: impl FnMut(&ScenarioSpec) -> bool,
) -> ScenarioSpec {
    let mut cur = spec.clone();

    // Drop whole tasks (at least one must remain).
    let mut i = 0;
    while i < cur.tasks.len() && cur.tasks.len() > 1 {
        let mut cand = cur.clone();
        cand.tasks.remove(i);
        if fails(&cand) {
            cur = cand;
        } else {
            i += 1;
        }
    }

    // ddmin over each task's script (scripts may not become empty: the
    // oracle needs at least one mark per loop iteration).
    for t in 0..cur.tasks.len() {
        let script = ddmin(cur.tasks[t].script.clone(), false, |script| {
            let mut cand = cur.clone();
            cand.tasks[t].script = script.to_vec();
            fails(&cand)
        });
        cur.tasks[t].script = script;
    }

    // Drop external interrupts.
    let mut i = 0;
    while i < cur.ext_irqs.len() {
        let mut cand = cur.clone();
        cand.ext_irqs.remove(i);
        if cand.ext_irqs.is_empty() {
            cand.ext_sem = None;
        }
        if fails(&cand) {
            cur = cand;
        } else {
            i += 1;
        }
    }

    cur
}

/// Plain ddmin over a deletion-closed list: delete a chunk whenever the
/// rest still `fails`, and halve the chunk once a full pass deletes
/// nothing, down to single items. The empty list is a candidate only
/// with `allow_empty`. Returns the (locally) minimal list.
pub(crate) fn ddmin<T: Clone>(
    mut items: Vec<T>,
    allow_empty: bool,
    mut fails: impl FnMut(&[T]) -> bool,
) -> Vec<T> {
    let mut chunk = (items.len() / 2).max(1);
    loop {
        let mut reduced = false;
        let mut start = 0;
        while start < items.len() {
            let end = (start + chunk).min(items.len());
            let mut cand = items.clone();
            cand.drain(start..end);
            if (allow_empty || !cand.is_empty()) && fails(&cand) {
                items = cand;
                reduced = true;
                // The next chunk slid into `start`; retry the same window.
            } else {
                start = end;
            }
        }
        if !reduced {
            if chunk == 1 {
                return items;
            }
            chunk /= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::{episode_for_seed, Fault};
    use rvsim_cores::CoreKind;
    use rvsim_isa::instr::AluOp;
    use rvsim_isa::progen::{GenConfig, GenOp};

    #[test]
    fn shrinks_injected_fault_to_a_minimal_sltu_witness() {
        let cfg = GenConfig {
            len: 200,
            ..GenConfig::default()
        };
        let failing = (0..20).find_map(|seed| {
            let mut ep = episode_for_seed(CoreKind::Cv32e40p, seed, cfg);
            ep.fault = Some(Fault::GoldenSltuFlip);
            run_episode(&ep).is_err().then_some(ep)
        });
        let ep = failing.expect("no failing seed found");
        let small = shrink_episode(&ep);
        assert!(run_episode(&small).is_err(), "shrunk episode must fail");
        assert!(
            small.spec.ops.len() < ep.spec.ops.len() / 4,
            "shrink barely reduced: {} -> {}",
            ep.spec.ops.len(),
            small.spec.ops.len()
        );
        // The witness must still contain an unsigned set-less-than.
        assert!(
            small.spec.ops.iter().any(|op| matches!(
                op,
                GenOp::Alu {
                    op: AluOp::Sltu,
                    ..
                } | GenOp::AluImm {
                    op: AluOp::Sltu,
                    ..
                }
            )),
            "minimal counterexample lost the sltu: {:?}",
            small.spec.ops
        );
    }

    #[test]
    fn scenario_shrink_finds_the_guilty_step() {
        use crate::scenario::{scenario_for_seed, Action};
        use rtosunit::Preset;

        // Find a generated scenario containing a SemGive and shrink it
        // against a synthetic predicate ("fails while any SemGive
        // survives") — exercises all three reduction axes without
        // needing a real kernel bug.
        let spec = (0..50)
            .map(|seed| scenario_for_seed(CoreKind::Cva6, Preset::Slt, seed))
            .find(|s| {
                s.tasks
                    .iter()
                    .any(|t| t.script.iter().any(|a| matches!(a, Action::SemGive(_))))
                    && s.tasks.len() > 1
            })
            .expect("some scenario contains a give");
        let has_give = |s: &crate::scenario::ScenarioSpec| {
            s.tasks
                .iter()
                .any(|t| t.script.iter().any(|a| matches!(a, Action::SemGive(_))))
        };
        let small = crate::shrink::shrink_scenario_with(&spec, has_give);
        assert!(has_give(&small), "shrink lost the failure");
        assert_eq!(small.tasks.len(), 1, "only the giving task survives");
        assert_eq!(small.tasks[0].script.len(), 1, "only the give survives");
        assert!(small.ext_irqs.is_empty(), "irqs dropped");
    }
}
