//! Fault-injection campaigns: run kernel scenarios under a seeded
//! [`FaultPlan`] and classify what each injection did.
//!
//! The classification lattice (DESIGN.md §12) is evaluated in strict
//! priority order per run:
//!
//! 1. **Crashed** — the simulation itself panicked (wild pointer left
//!    DMEM, PC left IMEM, a harness assert tripped). Caught with
//!    `catch_unwind`; no fault is ever lost to a raw panic.
//! 2. **Detected by the guest** — the self-protecting kernel announced a
//!    canary, watchdog or checksum hit on the TRACE register before
//!    responding (kill or halt).
//! 3. **Detected by the oracle** — the guest noticed nothing, but the
//!    host-side scheduler model ([`crate::oracle`]) rejects the probe
//!    stream: the corruption changed *scheduling semantics*.
//! 4. **Silent corruption** — guest and oracle are both happy, yet the
//!    run's observable behaviour (every guest mark, with its cycle)
//!    differs from the fault-free reference run. Only the differential
//!    layer sees these.
//! 5. **Masked** — bit-identical observable behaviour; the fault landed
//!    in dead state.
//!
//! Reference and faulted runs are both built with
//! [`KernelBuilder::protect`] on, so the protection overhead is part of
//! the baseline and a timing difference always means the *fault* caused
//! it.

use crate::oracle;
use crate::scenario::{self, ScenarioSpec};
use crate::shrink::ddmin;
use freertos_lite::klayout::{canary_addr, tcb, KernelLayout, NUM_PRIOS};
use freertos_lite::KernelBuilder;
use rtosbench::campaign::panic_message;
use rtosunit::events::{DETECT_CANARY, DETECT_CHECKSUM, DETECT_WATCHDOG};
use rtosunit::{EventTrace, System, TraceEvent};
use rvsim_cores::{CoreKind, FaultEvent, FaultPlan, FaultTargets};
use rvsim_isa::csr;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What one injected fault (plan) did to one scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// No observable difference from the fault-free reference run.
    Masked,
    /// A stack canary check fired in the guest.
    DetectedCanary,
    /// The guest watchdog expired (idle starved / counter corrupted).
    DetectedWatchdog,
    /// The TCB checksum self-check fired in the guest.
    DetectedChecksum,
    /// The host scheduler oracle rejected the probe stream.
    DetectedOracle,
    /// Observable behaviour changed and *nothing* noticed.
    SilentCorruption,
    /// The simulation panicked (caught; the campaign keeps going).
    Crashed,
}

impl FaultOutcome {
    /// Every outcome, in lattice order.
    pub const ALL: [FaultOutcome; 7] = [
        FaultOutcome::Masked,
        FaultOutcome::DetectedCanary,
        FaultOutcome::DetectedWatchdog,
        FaultOutcome::DetectedChecksum,
        FaultOutcome::DetectedOracle,
        FaultOutcome::SilentCorruption,
        FaultOutcome::Crashed,
    ];

    /// Stable short name (artifacts, regression seeds, figures).
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::DetectedCanary => "detected_canary",
            FaultOutcome::DetectedWatchdog => "detected_watchdog",
            FaultOutcome::DetectedChecksum => "detected_checksum",
            FaultOutcome::DetectedOracle => "detected_oracle",
            FaultOutcome::SilentCorruption => "silent_corruption",
            FaultOutcome::Crashed => "crashed",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<FaultOutcome> {
        Self::ALL.into_iter().find(|o| o.name() == name)
    }

    /// Whether some layer (guest, oracle or differential) observed the
    /// fault — everything except a clean mask.
    pub fn is_detected(self) -> bool {
        !matches!(self, FaultOutcome::Masked)
    }
}

/// Full result of classifying one faulted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRunReport {
    /// The lattice verdict.
    pub outcome: FaultOutcome,
    /// Guest detector codes seen on the trace, in order (see
    /// [`rtosunit::events::detector_name`]).
    pub detections: Vec<u32>,
    /// How many planned faults were actually applied before the run
    /// ended (a halt can cut a plan short).
    pub faults_applied: usize,
    /// Human-readable detail: the oracle violation, panic message, or
    /// first signature divergence.
    pub detail: String,
}

/// One guest run with protection on and an optional fault plan attached:
/// the probed event trace, the number of faults applied, and whether the
/// guest halted itself.
pub fn trace_protected(spec: &ScenarioSpec, plan: Option<FaultPlan>) -> (EventTrace, usize, bool) {
    let mut k = KernelBuilder::new(spec.preset);
    k.tick_period(spec.tick_period).probe(true).protect(true);
    for (j, initial) in spec.sems.iter().enumerate() {
        k.semaphore(&format!("s{j}"), *initial);
    }
    if let Some(j) = spec.ext_sem {
        k.ext_irq_gives(&format!("s{j}"));
    }
    for (i, t) in spec.tasks.iter().enumerate() {
        let script = t.script.clone();
        k.task(&format!("t{i}"), t.prio, move |ctx| {
            scenario::emit_task(ctx, i as u32, &script);
        });
    }
    let image = k.build().expect("protected scenario builds");

    let mut sys = System::new(spec.core, spec.preset);
    image.install(&mut sys);
    sys.enable_tracing(1 << 15);
    for &cycle in &spec.ext_irqs {
        sys.schedule_external_irq(cycle);
    }
    if let Some(p) = plan {
        sys.attach_fault_plan(p);
    }
    sys.run(spec.max_cycles);
    let halted = sys.halted();
    let applied = sys.faults_applied();
    let trace = sys.platform.take_trace().expect("tracing was enabled");
    (trace, applied, halted)
}

/// The observable behaviour of a run: every guest mark with its cycle.
/// Probe marks, task marks and benchmark marks all land here; host-side
/// events (fault injections, cache activity) are excluded so a faulted
/// run is compared purely on what the *guest* did and when.
pub fn signature(trace: &EventTrace) -> Vec<(u64, u32)> {
    trace
        .iter()
        .filter_map(|(c, e)| match e {
            TraceEvent::GuestMark { value } => Some((c, value)),
            _ => None,
        })
        .collect()
}

/// Guest detector codes on a trace, in order.
pub fn detections(trace: &EventTrace) -> Vec<u32> {
    trace
        .iter()
        .filter_map(|(_, e)| match e {
            TraceEvent::FaultDetected { detector } => Some(detector),
            _ => None,
        })
        .collect()
}

fn first_divergence(reference: &[(u64, u32)], got: &[(u64, u32)]) -> Option<String> {
    for (i, (r, g)) in reference.iter().zip(got.iter()).enumerate() {
        if r != g {
            return Some(format!(
                "mark {i}: reference ({}, {:#x}) vs faulted ({}, {:#x})",
                r.0, r.1, g.0, g.1
            ));
        }
    }
    if reference.len() != got.len() {
        return Some(format!(
            "mark count: reference {} vs faulted {}",
            reference.len(),
            got.len()
        ));
    }
    None
}

/// Classifies one faulted run against a precomputed reference signature
/// (from a fault-free [`trace_protected`] run of the same spec). Never
/// panics for in-run failures: simulation panics classify as
/// [`FaultOutcome::Crashed`].
pub fn classify_with_reference(
    spec: &ScenarioSpec,
    reference: &[(u64, u32)],
    events: Vec<FaultEvent>,
) -> FaultRunReport {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (trace, applied, _halted) = trace_protected(spec, Some(FaultPlan::new(events)));
        let dets = detections(&trace);
        if let Some(&first) = dets.first() {
            let outcome = match first {
                DETECT_CANARY => FaultOutcome::DetectedCanary,
                DETECT_WATCHDOG => FaultOutcome::DetectedWatchdog,
                DETECT_CHECKSUM => FaultOutcome::DetectedChecksum,
                // A kill mark can only follow a canary mark, so an
                // unknown-first code is a harness bug worth surfacing.
                other => panic!("unexpected leading detector code {other}"),
            };
            return FaultRunReport {
                outcome,
                detail: format!(
                    "guest detector `{}` fired",
                    rtosunit::events::detector_name(first)
                ),
                detections: dets,
                faults_applied: applied,
            };
        }
        // The oracle sees scheduling semantics; a violation means the
        // corruption produced *wrong* decisions, not just different
        // timing.
        if let Err(v) = oracle::check(spec, &trace) {
            return FaultRunReport {
                outcome: FaultOutcome::DetectedOracle,
                detections: dets,
                faults_applied: applied,
                detail: format!("oracle violation at cycle {}: {}", v.cycle, v.message),
            };
        }
        match first_divergence(reference, &signature(&trace)) {
            Some(d) => FaultRunReport {
                outcome: FaultOutcome::SilentCorruption,
                detections: dets,
                faults_applied: applied,
                detail: d,
            },
            None => FaultRunReport {
                outcome: FaultOutcome::Masked,
                detections: dets,
                faults_applied: applied,
                detail: String::new(),
            },
        }
    }));
    result.unwrap_or_else(|e| FaultRunReport {
        outcome: FaultOutcome::Crashed,
        detections: Vec::new(),
        faults_applied: 0,
        detail: panic_message(e),
    })
}

/// The fault-free reference signature for `spec`: one protected run,
/// verified against the scheduler oracle.
///
/// # Panics
///
/// Panics if the *fault-free* run fails the oracle — that is a harness
/// bug, not an injection outcome.
pub fn oracle_reference(spec: &ScenarioSpec) -> Vec<(u64, u32)> {
    let (trace, _, _) = trace_protected(spec, None);
    oracle::check(spec, &trace).expect("fault-free protected run passes the oracle");
    signature(&trace)
}

/// Convenience wrapper computing the reference run itself. Campaigns
/// should compute the reference once per scenario
/// ([`oracle_reference`]) and use [`classify_with_reference`].
///
/// # Panics
///
/// Panics if the *fault-free* reference run fails — that is a harness
/// bug, not an injection outcome.
pub fn classify_fault_events(spec: &ScenarioSpec, events: Vec<FaultEvent>) -> FaultRunReport {
    classify_with_reference(spec, &oracle_reference(spec), events)
}

/// Fault targets covering the kernel's interesting state for `spec`:
/// globals, ready/delay lists, lookup table, TCB fields, semaphore
/// control blocks, stack canaries and the protection globals themselves.
pub fn fault_targets(spec: &ScenarioSpec) -> FaultTargets {
    let n = spec.tasks.len() + 1; // + idle
    let layout = KernelLayout::new(n, spec.sems.len().max(1));
    let mut mem = vec![
        KernelLayout::CURRENT_TCB,
        KernelLayout::TICK_COUNT,
        KernelLayout::DELAY_HEAD,
        KernelLayout::WATCHDOG,
        KernelLayout::TCB_CHECKSUM,
    ];
    for p in 0..NUM_PRIOS {
        mem.push(KernelLayout::ready_head_addr(p));
    }
    for i in 0..n {
        mem.push(KernelLayout::lookup_addr(i));
        let t = layout.tcb_addr(i);
        for off in [tcb::SAVED_SP, tcb::ID, tcb::PRIO, tcb::NEXT, tcb::WAKE_TICK] {
            mem.push(t.wrapping_add(off as u32));
        }
        mem.push(canary_addr(i));
        // A word in the live frame region near the stack top.
        mem.push(layout.stack_top(i) - 32);
    }
    for j in 0..spec.sems.len() {
        mem.push(layout.sem_addr(j));
        mem.push(layout.sem_addr(j) + 4);
    }
    FaultTargets {
        mem_words: mem,
        csrs: vec![csr::MSTATUS, csr::MTVEC, csr::MSCRATCH, csr::MEPC],
    }
}

/// Draws the fault plan for `(spec, seed)`: `count` faults over the
/// middle of the run window, aimed at [`fault_targets`]. Deterministic.
pub fn fault_plan_for(spec: &ScenarioSpec, seed: u64, count: usize) -> FaultPlan {
    let lo = 300.min(spec.max_cycles / 4);
    let hi = spec.max_cycles.saturating_sub(500).max(lo + 1);
    FaultPlan::generate(seed, count, lo..hi, &fault_targets(spec))
}

/// One campaign run: which configuration, which seeds, what happened.
#[derive(Debug, Clone)]
pub struct FaultRunRecord {
    /// Timing engine.
    pub core: CoreKind,
    /// ISR variant.
    pub preset: rtosunit::Preset,
    /// Seed of the scenario the fault was injected into.
    pub scenario_seed: u64,
    /// Seed of the fault plan.
    pub fault_seed: u64,
    /// The injected events (replayable without the generator).
    pub events: Vec<FaultEvent>,
    /// The classification.
    pub report: FaultRunReport,
}

/// A completed fault campaign.
#[derive(Debug, Clone, Default)]
pub struct FaultCampaign {
    /// Every classified run.
    pub runs: Vec<FaultRunRecord>,
}

impl FaultCampaign {
    /// Outcome tally in lattice order (only non-zero entries).
    pub fn tally(&self) -> Vec<(FaultOutcome, usize)> {
        FaultOutcome::ALL
            .into_iter()
            .filter_map(|o| {
                let n = self.runs.iter().filter(|r| r.report.outcome == o).count();
                (n > 0).then_some((o, n))
            })
            .collect()
    }

    /// Tally restricted to one `(core, preset)` cell.
    pub fn tally_for(
        &self,
        core: CoreKind,
        preset: rtosunit::Preset,
    ) -> Vec<(FaultOutcome, usize)> {
        FaultOutcome::ALL
            .into_iter()
            .filter_map(|o| {
                let n = self
                    .runs
                    .iter()
                    .filter(|r| r.core == core && r.preset == preset && r.report.outcome == o)
                    .count();
                (n > 0).then_some((o, n))
            })
            .collect()
    }
}

/// Runs a seeded fault campaign: for every `(core, preset)` cell, one
/// scenario (from `scenario_seed`) is run fault-free as the reference,
/// then `fault_seeds` plans of `faults_per_run` injections each are
/// classified against it. Total runs = cells × `fault_seeds`.
pub fn run_fault_campaign(
    cores: &[CoreKind],
    presets: &[rtosunit::Preset],
    scenario_seed: u64,
    fault_seeds: u64,
    faults_per_run: usize,
) -> FaultCampaign {
    let mut campaign = FaultCampaign::default();
    for &core in cores {
        for &preset in presets {
            let spec = scenario::scenario_for_seed(core, preset, scenario_seed);
            let reference = oracle_reference(&spec);
            for fault_seed in 0..fault_seeds {
                let plan = fault_plan_for(&spec, fault_seed, faults_per_run);
                let events = plan.events().to_vec();
                let report = classify_with_reference(&spec, &reference, events.clone());
                campaign.runs.push(FaultRunRecord {
                    core,
                    preset,
                    scenario_seed,
                    fault_seed,
                    events,
                    report,
                });
            }
        }
    }
    campaign
}

/// Delta-debugs a fault event list to a (locally) minimal one whose
/// classification still matches `target`: plain ddmin over the event
/// list, using `classify` against the caller's reference. The input must
/// already classify as `target`.
pub fn shrink_fault_events(
    spec: &ScenarioSpec,
    reference: &[(u64, u32)],
    events: &[FaultEvent],
    target: FaultOutcome,
) -> Vec<FaultEvent> {
    let still = |cand: &[FaultEvent]| {
        classify_with_reference(spec, reference, cand.to_vec()).outcome == target
    };
    assert!(still(events), "shrink input must classify as {target:?}");
    ddmin(events.to_vec(), target == FaultOutcome::Masked, still)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtosunit::Preset;

    #[test]
    fn outcome_names_roundtrip() {
        for o in FaultOutcome::ALL {
            assert_eq!(FaultOutcome::from_name(o.name()), Some(o));
        }
        assert_eq!(FaultOutcome::from_name("bogus"), None);
    }

    #[test]
    fn clean_protected_run_is_masked_with_empty_plan() {
        let spec = scenario::scenario_for_seed(CoreKind::Cv32e40p, Preset::Vanilla, 3);
        let report = classify_fault_events(&spec, Vec::new());
        assert_eq!(report.outcome, FaultOutcome::Masked);
        assert!(report.detections.is_empty());
    }
}
