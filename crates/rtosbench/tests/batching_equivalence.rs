//! Differential test for the batched execution path.
//!
//! `System::run` burns through quiescent stretches with the engine's
//! batched `run_until`, which executes translated blocks and steps the
//! unit on every cycle it has work; `System::run_stepwise` is the
//! cycle-by-cycle reference. The two must be cycle-exact: identical switch
//! episodes (trigger, entry and `mret` timestamps), cycle counts,
//! retirement counts, port occupancy and event traces (in-cycle order
//! included), for every core model and unit preset — including the
//! presets with background FSM activity (preloading, hardware scheduling,
//! CV32RT snapshots), whose unit a batch must co-step.
//!
//! The same holds for SMP runs: `SmpSystem::run`'s lazy lockstep, whose
//! draining harts catch up in batches, against the per-cycle
//! `SmpSystem::run_stepwise`, hart by hart on `fig_smp`'s cells.

use rtosbench::campaign::{self, Booted, CampaignSpec, RunSpec, WorkloadSpec};
use rtosbench::workloads;
use rtosunit::{Preset, SmpSystem, System, TraceEvent};
use rvsim_cores::{CoreKind, FaultEvent, FaultKind, FaultPlan};
use rvsim_isa::Reg;

/// A tame deterministic fault plan scaled to the workload's run length:
/// one of each benign kind, none of which can wedge the guest (they
/// perturb timing and values, not control flow).
fn tame_plan(run_cycles: u64) -> FaultPlan {
    let at = |f: u64| run_cycles * f / 10;
    FaultPlan::new(vec![
        FaultEvent {
            at_cycle: at(1),
            kind: FaultKind::SpuriousIpi,
        },
        FaultEvent {
            at_cycle: at(2),
            kind: FaultKind::MemFlip {
                addr: rtosunit::layout::DMEM_BASE + 4, // kernel tick count
                bit: 1,
            },
        },
        FaultEvent {
            at_cycle: at(3),
            kind: FaultKind::SpuriousIrq,
        },
        FaultEvent {
            at_cycle: at(4),
            kind: FaultKind::CacheUpset {
                addr: rtosunit::layout::DMEM_BASE,
            },
        },
        FaultEvent {
            at_cycle: at(5),
            kind: FaultKind::RegFlip {
                reg: Reg::S3,
                bit: 0,
            },
        },
        FaultEvent {
            at_cycle: at(6),
            kind: FaultKind::BusError,
        },
        FaultEvent {
            at_cycle: at(7),
            kind: FaultKind::DelayIrq { delay: 64 },
        },
    ])
}

fn run_one(
    core: CoreKind,
    preset: Preset,
    workload: &str,
    stepwise: bool,
    faulted: bool,
) -> System {
    let w = workloads::by_name(workload).expect("workload exists");
    let spec = RunSpec::new(core, preset, WorkloadSpec::Suite(w));
    let Booted::Single(mut sys) = campaign::boot(&spec).expect("workload builds") else {
        panic!("a single-hart spec boots a System");
    };
    if faulted {
        sys.attach_fault_plan(tame_plan(w.run_cycles));
    }
    // Profile and trace every run: the per-PC cycle attribution and the
    // event trace must be path-exact too (asserted below), and enabling
    // them must not perturb any of the other equivalences.
    sys.set_profiling(true);
    sys.enable_tracing(1 << 20);
    if stepwise {
        sys.run_stepwise(w.run_cycles);
    } else {
        sys.run(w.run_cycles);
    }
    *sys
}

fn assert_equivalent_inner(core: CoreKind, preset: Preset, workload: &str, faulted: bool) {
    let mut fast = run_one(core, preset, workload, false, faulted);
    let mut slow = run_one(core, preset, workload, true, faulted);
    let ctx = format!("{core:?}/{preset}/{workload}/faulted={faulted}");
    assert_same_run(&mut fast, &mut slow, &ctx);
    assert!(
        fast.core.counters().block_hits > 0,
        "{ctx}: block cache never engaged"
    );
    if faulted {
        assert!(fast.faults_applied() > 0, "{ctx}: plan never fired");
    }
}

/// The fast and the reference run of one system measured the same:
/// profiles, episodes, event traces, cycles, retirements, port
/// occupancy, trace marks, unit and core counters and applied faults.
fn assert_same_run(fast: &mut System, slow: &mut System, ctx: &str) {
    assert_eq!(
        fast.take_profile(),
        slow.take_profile(),
        "{ctx}: guest PC profiles diverged"
    );
    assert_eq!(
        fast.records(),
        slow.records(),
        "{ctx}: switch episodes diverged"
    );
    assert_same_trace(fast, slow, ctx);
    assert_eq!(
        fast.platform.cycle(),
        slow.platform.cycle(),
        "{ctx}: cycle counts diverged"
    );
    assert_eq!(
        fast.core.retired(),
        slow.core.retired(),
        "{ctx}: retirement diverged"
    );
    assert_eq!(
        fast.platform.port_occupancy(),
        slow.platform.port_occupancy(),
        "{ctx}: port occupancy diverged"
    );
    assert_eq!(
        fast.platform.mmio.trace_marks, slow.platform.mmio.trace_marks,
        "{ctx}: trace marks diverged"
    );
    assert_eq!(
        fast.unit_stats(),
        slow.unit_stats(),
        "{ctx}: unit counters diverged"
    );
    // Every simulated counter matches the per-cycle reference exactly;
    // only the host-cache counters (`CoreCounters::HOST_STATS`) differ.
    assert_eq!(
        fast.core.counters().without_host_stats(),
        slow.core.counters().without_host_stats(),
        "{ctx}: core activity counters diverged"
    );
    assert_eq!(
        fast.faults_applied(),
        slow.faults_applied(),
        "{ctx}: applied fault counts diverged"
    );
}

/// The two runs traced the same events in the same order, none dropped;
/// a mismatch names the first differing index and its neighbours.
fn assert_same_trace(fast: &System, slow: &System, ctx: &str) {
    let [f, s] = [fast, slow].map(|sys| sys.platform.trace().expect("tracing is on"));
    assert!(
        f.dropped() + s.dropped() == 0,
        "{ctx}: trace ring overflowed"
    );
    let (f, s): (Vec<_>, Vec<_>) = (f.iter().collect(), s.iter().collect());
    if let Some(i) = (0..f.len().max(s.len())).find(|&i| f.get(i) != s.get(i)) {
        let near = |t: &[(u64, TraceEvent)]| t[i.saturating_sub(3)..t.len().min(i + 4)].to_vec();
        let (f, s) = (near(&f), near(&s));
        panic!("{ctx}: event traces diverge at event {i}\nbatched  {f:?}\nstepwise {s:?}");
    }
}

fn assert_equivalent(core: CoreKind, preset: Preset, workload: &str) {
    assert_equivalent_inner(core, preset, workload, false);
}

#[test]
fn batched_run_matches_stepwise_across_the_latency_matrix() {
    // Workloads chosen to cover the interrupt sources: voluntary yields
    // (MSIP), periodic ticks (MTIP) and external IRQs (MEIP).
    for core in CoreKind::ALL {
        for preset in [
            Preset::Vanilla,
            Preset::Cv32rt,
            Preset::S,
            Preset::Slt,
            Preset::Split,
        ] {
            for workload in ["roundrobin_yield", "delay_periodic", "interrupt_latency"] {
                assert_equivalent(core, preset, workload);
            }
        }
    }
}

#[test]
fn batched_run_matches_stepwise_for_remaining_presets() {
    for preset in [
        Preset::Sl,
        Preset::T,
        Preset::St,
        Preset::Sdlo,
        Preset::Sdlot,
        Preset::SltHs,
    ] {
        assert_equivalent(CoreKind::Cv32e40p, preset, "pingpong_semaphore");
        // CVA6's refills and write-throughs hold the port (`bus_busy`)
        // while its unit, which has no ctxQueue, waits for it.
        assert_equivalent(CoreKind::Cva6, preset, "mutex_workload");
        assert_equivalent(CoreKind::NaxRiscv, preset, "priority_chain");
    }
}

#[test]
fn batched_run_matches_stepwise_with_a_fault_plan() {
    // Injection must not break the batching contract: the quiescent
    // horizon stops short of every planned fault, so batched and
    // stepwise runs stay bit-identical *with faults firing* — faults
    // perturb registers, memory, IRQ lines and the cache while
    // translated blocks are live.
    for core in CoreKind::ALL {
        for preset in [Preset::Vanilla, Preset::Slt] {
            for workload in ["delay_periodic", "interrupt_latency"] {
                assert_equivalent_inner(core, preset, workload, true);
            }
        }
    }
}

/// Boots a `fig_smp` cell — the ping-pong workload on hart 0 of a
/// `harts`-hart system, the other harts pounding the shared bus — with
/// every hart traced and profiled and a tame fault plan on hart 0, and
/// runs its budget on the path [`RunSpec::stepwise`] names.
fn run_smp_cell(core: CoreKind, preset: Preset, harts: usize, stepwise: bool) -> SmpSystem {
    let w = workloads::by_name("pingpong_semaphore").expect("workload exists");
    let mut spec = RunSpec::new(core, preset, WorkloadSpec::Suite(w)).with_harts(harts);
    spec.stepwise = stepwise;
    let Booted::Smp(mut smp) = campaign::boot(&spec).expect("workload builds") else {
        panic!("a multi-hart spec boots an SmpSystem");
    };
    smp.hart_mut(0).attach_fault_plan(tame_plan(w.run_cycles));
    smp.set_profiling(true);
    for h in 0..harts {
        smp.hart_mut(h).enable_tracing(1 << 20);
    }
    if spec.stepwise {
        smp.run_stepwise(w.run_cycles);
    } else {
        smp.run(w.run_cycles);
    }
    smp
}

#[test]
fn lazy_smp_run_matches_per_cycle_lockstep_on_fig_smp_cells() {
    // Every core × {vanilla, SLT} × {2, 4} harts: each hart of the lazy
    // lockstep measures exactly what per-cycle lockstep measures, the
    // shared bus and mailboxes end alike, and no hart on either path
    // builds a block cache (a catch-up only drains).
    for core in CoreKind::ALL {
        for preset in [Preset::Vanilla, Preset::Slt] {
            for harts in [2, 4] {
                let mut fast = run_smp_cell(core, preset, harts, false);
                let mut slow = run_smp_cell(core, preset, harts, true);
                let cell = format!("{core:?}/{preset}/{harts} harts");
                assert!(
                    fast.hart(0).faults_applied() > 0,
                    "{cell}: plan never fired"
                );
                for h in 0..harts {
                    let ctx = format!("{cell}, hart {h}");
                    assert_same_run(fast.hart_mut(h), slow.hart_mut(h), &ctx);
                    for (smp, path) in [(&fast, "lazy"), (&slow, "per-cycle")] {
                        let builds = smp.hart(h).core.counters().block_builds;
                        assert_eq!(builds, 0, "{ctx}: the {path} run built blocks");
                    }
                    let [a, b] = [&fast, &slow].map(|smp| {
                        let shared = smp.shared();
                        let shared = shared.borrow();
                        (
                            shared.bus_stats(h),
                            shared.ipi_counts(h),
                            shared.mailbox_depth(h),
                        )
                    });
                    assert_eq!(a, b, "{ctx}: bus and mailbox statistics diverged");
                }
            }
        }
    }
}

#[test]
fn fig9_matrix_renders_one_artifact_stepwise_batched_and_in_parallel() {
    // All 210 cells of the Fig. 9 matrix, through the campaign layer: the
    // per-cycle reference on one worker, the fast path on one worker and
    // the fast path on several workers must render the same v1 artifact.
    let matrix = |stepwise: bool| {
        let mut spec = CampaignSpec::matrix(
            "fig9",
            &CoreKind::ALL,
            &Preset::LATENCY_SET,
            &workloads::ALL,
        );
        for run in &mut spec.runs {
            run.stepwise = stepwise;
        }
        spec
    };
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let stepwise = matrix(true).run(1);
    let batched = matrix(false).run(1);
    let parallel = matrix(false).run(workers);
    for (campaign, what, translated) in [
        (&stepwise, "stepwise", false),
        (&batched, "batched", true),
        (&parallel, "parallel", true),
    ] {
        assert!(
            campaign.failures.is_empty(),
            "{what}: {:?}",
            campaign.failures
        );
        assert_eq!(campaign.outcomes.len(), 210, "{what}: matrix size");
        for o in &campaign.outcomes {
            let hits = o.sim.as_ref().expect("simulated cell").counters.block_hits;
            assert_eq!(
                hits > 0,
                translated,
                "{what} {}: {hits} block hits",
                o.label
            );
        }
    }
    let reference = stepwise.to_json().render();
    assert!(
        batched.to_json().render() == reference,
        "batched execution must reproduce the stepwise artifact"
    );
    assert!(
        parallel.to_json().render() == reference,
        "parallel execution must reproduce the stepwise artifact"
    );
}
