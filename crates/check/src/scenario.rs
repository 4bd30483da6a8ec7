//! Randomized kernel scenarios for the scheduler oracle.
//!
//! A scenario is a small multitasking workload drawn from a seed: a handful
//! of tasks with *distinct* priorities (so every scheduling decision has a
//! unique correct answer), each running a short cyclic script of syscalls
//! (`busy_work`, `delay`, semaphore take/give, `yield`), plus an optional
//! external-interrupt schedule feeding a deferred `sem_give` in the ISR.
//!
//! The generated image is built with [`KernelBuilder::probe`] on, so the
//! kernel announces every scheduler-relevant transition on the TRACE
//! register from inside its critical sections, and each task marks the top
//! of every script step ([`probe::task_mark`]). [`run_scenario`] executes
//! the image on the full timing simulator and feeds the resulting event
//! trace to the host-side model in [`crate::oracle`].

use freertos_lite::{probe, KernelBuilder};
use rtosunit::{Preset, System};
use rvsim_cores::CoreKind;
use rvsim_isa::rng::Rng64;

use crate::oracle::{self, OracleStats, Violation};

/// The ISR variants the oracle exercises: software-heaviest to
/// hardware-heaviest, skipping pure latency ablations. The §7 hw-sync
/// preset is excluded — its semaphore paths bypass the probed software
/// lists entirely.
pub const ORACLE_PRESETS: [Preset; 6] = [
    Preset::Vanilla,
    Preset::S,
    Preset::T,
    Preset::Slt,
    Preset::Sdlot,
    Preset::Split,
];

/// One step of a task script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Burn roughly this many loop iterations.
    Busy(u32),
    /// `k_delay(ticks)`.
    Delay(u32),
    /// Blocking `k_sem_take` of semaphore `.0`.
    SemTake(usize),
    /// `k_sem_give` of semaphore `.0`.
    SemGive(usize),
    /// Voluntary `k_yield`.
    Yield,
    /// Cross-hart give (SMP scenarios only, see [`crate::smp`]): ring
    /// hart `target`'s doorbell with the code of semaphore `sem`; the
    /// target's ISR drain performs the give against its local copy.
    IpiGive {
        /// Destination hart id.
        target: usize,
        /// Semaphore index the IPI code resolves to on the target.
        sem: usize,
    },
}

/// One generated task: a distinct priority and a cyclic script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskScript {
    /// Task priority (`1..NUM_PRIOS`, unique within the scenario).
    pub prio: u8,
    /// Script steps, repeated forever (task bodies never return).
    pub script: Vec<Action>,
}

/// A complete randomized scenario; self-contained and replayable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Timing engine to run on.
    pub core: CoreKind,
    /// ISR variant under test.
    pub preset: Preset,
    /// Timer tick period in cycles.
    pub tick_period: u32,
    /// User tasks; index is the task id (idle gets the next id).
    pub tasks: Vec<TaskScript>,
    /// Initial counts of the declared semaphores.
    pub sems: Vec<u32>,
    /// Semaphore given by the ISR on external interrupts, if bound.
    pub ext_sem: Option<usize>,
    /// Cycles at which to raise the external interrupt line.
    pub ext_irqs: Vec<u64>,
    /// Simulation budget.
    pub max_cycles: u64,
}

/// Draws a scenario for `(core, preset, seed)`. Deterministic.
pub fn scenario_for_seed(core: CoreKind, preset: Preset, seed: u64) -> ScenarioSpec {
    let mut rng = Rng64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5C3A_11DA);
    let n_tasks = 2 + (rng.next_u64() % 3) as usize; // 2..=4
    let n_sems = 1 + (rng.next_u64() % 2) as usize; // 1..=2

    // Distinct priorities: partial Fisher-Yates over 1..=7.
    let mut prios: Vec<u8> = (1..8).collect();
    for i in 0..n_tasks {
        let j = i + (rng.next_u64() as usize) % (prios.len() - i);
        prios.swap(i, j);
    }

    let sems: Vec<u32> = (0..n_sems).map(|_| (rng.next_u64() % 3) as u32).collect();
    let tasks = (0..n_tasks)
        .map(|i| {
            let len = 3 + (rng.next_u64() % 4) as usize; // 3..=6 steps
            let script = (0..len)
                .map(|_| match rng.next_u64() % 10 {
                    0..=2 => Action::Busy(10 + (rng.next_u64() % 150) as u32),
                    3..=4 => Action::Delay(1 + (rng.next_u64() % 3) as u32),
                    5..=6 => Action::SemTake((rng.next_u64() as usize) % n_sems),
                    7..=8 => Action::SemGive((rng.next_u64() as usize) % n_sems),
                    _ => Action::Yield,
                })
                .collect();
            TaskScript {
                prio: prios[i],
                script,
            }
        })
        .collect();

    let max_cycles = 6_000;
    let (ext_sem, ext_irqs) = if rng.next_u64().is_multiple_of(2) {
        let n_irqs = 1 + (rng.next_u64() % 3);
        let irqs = (0..n_irqs)
            .map(|_| 200 + rng.next_u64() % (max_cycles - 1_000))
            .collect();
        (Some(0), irqs)
    } else {
        (None, Vec::new())
    };

    ScenarioSpec {
        core,
        preset,
        tick_period: 400,
        tasks,
        sems,
        ext_sem,
        ext_irqs,
        max_cycles,
    }
}

/// Emits one task body: a loop-top mark per script step, then the step's
/// action. The builder wraps the body in an endless loop, so the script
/// repeats cyclically. Shared with the SMP scenario runner, hence
/// `pub(crate)`.
pub(crate) fn emit_task(ctx: &mut freertos_lite::TaskCtx, task_id: u32, script: &[Action]) {
    for (step, act) in script.iter().enumerate() {
        ctx.trace_mark(probe::task_mark(task_id, step as u32));
        match *act {
            Action::Busy(iters) => ctx.busy_work(iters),
            Action::Delay(ticks) => ctx.delay(ticks),
            Action::SemTake(s) => ctx.sem_take(&format!("s{s}")),
            Action::SemGive(s) => ctx.sem_give(&format!("s{s}")),
            Action::Yield => ctx.yield_now(),
            Action::IpiGive { target, sem } => ctx.ipi_give(target as u32, &format!("s{sem}")),
        }
    }
}

/// Builds one scenario into a ready-to-run [`System`]: kernel generated
/// and installed, probes on, tracing enabled, external interrupts
/// scheduled — but not yet run a single cycle. [`trace_scenario`] runs
/// it to the budget; the time-travel harness instead drives it in
/// checkpointed slices.
///
/// # Panics
///
/// Panics if the generated kernel fails to build — a harness bug, not a
/// kernel bug.
pub fn scenario_system(spec: &ScenarioSpec) -> System {
    build_system(spec, false)
}

/// [`scenario_system`] with the kernel's self-protection
/// ([`KernelBuilder::protect`]) switched on or off. The fault campaign
/// builds its scenarios here too, so they cannot drift from the oracle's.
pub(crate) fn build_system(spec: &ScenarioSpec, protect: bool) -> System {
    let mut k = KernelBuilder::new(spec.preset);
    k.tick_period(spec.tick_period).probe(true).protect(protect);
    for (j, initial) in spec.sems.iter().enumerate() {
        k.semaphore(&format!("s{j}"), *initial);
    }
    if let Some(j) = spec.ext_sem {
        k.ext_irq_gives(&format!("s{j}"));
    }
    for (i, t) in spec.tasks.iter().enumerate() {
        let script = t.script.clone();
        k.task(&format!("t{i}"), t.prio, move |ctx| {
            emit_task(ctx, i as u32, &script);
        });
    }
    let image = k.build().expect("generated scenario builds");

    let mut sys = System::new(spec.core, spec.preset);
    image.install(&mut sys);
    sys.enable_tracing(1 << 15);
    for &cycle in &spec.ext_irqs {
        sys.schedule_external_irq(cycle);
    }
    sys
}

/// Builds and runs one scenario on the timing simulator, returning the
/// probed event trace.
///
/// # Panics
///
/// Panics if the generated kernel fails to build or the event-trace ring
/// overflows — both harness bugs, not kernel bugs.
pub fn trace_scenario(spec: &ScenarioSpec) -> rtosunit::EventTrace {
    let mut sys = scenario_system(spec);
    sys.run(spec.max_cycles);

    let trace = sys.platform.take_trace().expect("tracing was enabled");
    assert_eq!(trace.dropped(), 0, "event ring too small for scenario");
    trace
}

/// Builds, runs and checks one scenario against the oracle model.
///
/// # Panics
///
/// See [`trace_scenario`].
pub fn run_scenario(spec: &ScenarioSpec) -> Result<OracleStats, Violation> {
    oracle::check(spec, &trace_scenario(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic() {
        let a = scenario_for_seed(CoreKind::Cva6, Preset::Slt, 42);
        let b = scenario_for_seed(CoreKind::Cva6, Preset::Slt, 42);
        assert_eq!(a, b);
        let c = scenario_for_seed(CoreKind::Cva6, Preset::Slt, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn priorities_are_distinct() {
        for seed in 0..50 {
            let s = scenario_for_seed(CoreKind::Cv32e40p, Preset::Vanilla, seed);
            let mut prios: Vec<u8> = s.tasks.iter().map(|t| t.prio).collect();
            prios.sort_unstable();
            prios.dedup();
            assert_eq!(prios.len(), s.tasks.len(), "seed {seed}: duplicate prio");
        }
    }
}
