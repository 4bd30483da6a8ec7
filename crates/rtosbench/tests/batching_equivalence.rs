//! Differential test for the batched execution path.
//!
//! `System::run` burns through quiescent stretches with the engine's
//! batched `run_until`/`run_costep`, which execute translated blocks;
//! `System::run_stepwise` is the cycle-by-cycle reference.
//! The two must be cycle-exact: identical switch episodes (trigger, entry
//! and `mret` timestamps), cycle counts, retirement counts and port
//! occupancy, for every core model and unit preset — including the
//! presets with background FSM activity (preloading, hardware
//! scheduling, CV32RT snapshots) where batching must correctly fall back
//! to per-cycle stepping.

use rtosbench::campaign::{self, Booted, RunSpec, WorkloadSpec};
use rtosbench::workloads;
use rtosunit::{Preset, System};
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
    // Profile every run: the per-PC cycle attribution must be path-exact
    // too (asserted below), and enabling it must not perturb any of the
    // other equivalences.
    sys.set_profiling(true);
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
    assert!(
        fast.core.counters().block_hits > 0,
        "{ctx}: block cache never engaged"
    );
    assert_eq!(
        fast.faults_applied(),
        slow.faults_applied(),
        "{ctx}: applied fault counts diverged"
    );
    if faulted {
        assert!(fast.faults_applied() > 0, "{ctx}: plan never fired");
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
