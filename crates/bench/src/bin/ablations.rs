//! Ablation studies for the design decisions called out in `DESIGN.md`:
//!
//! 1. **ctxQueue depth** (paper §5.3): the paper evaluated different
//!    queue sizes and found eight entries Pareto-optimal — smaller
//!    queues hurt context-switch latency, larger ones add area for no
//!    performance gain.
//! 2. **Arbitration level** (paper §5): LSU-level arbitration lets the
//!    unit share the cache (lower mean latency with warm contexts, more
//!    hit/miss variability); bus-level arbitration bypasses the cache
//!    (more predictable, slower on a high-latency memory core).
//! 3. **Delay-list cost**: tick-switch latency vs periodic task count.
//!
//! All three studies are declared in one [`CampaignSpec`] (custom guest
//! kernels, config overrides, non-standard episode filters) and executed
//! in parallel; `results/ablations.json` holds the machine-readable data.

use freertos_lite::{GuestImage, KernelBuilder, KernelError};
use rtosbench::{
    workloads, CampaignSpec, ConfigOverride, FilterPolicy, RunSpec, SimOutcome, WorkloadSpec,
};
use rtosunit::layout::DMEM_BASE;
use rtosunit::Preset;
use rvsim_cores::CoreKind;
use rvsim_isa::Reg;

/// Builds a cache-thrashing workload: each task streams over a 24 KiB
/// buffer between yields, evicting the other tasks' context lines, so
/// context restores actually miss and the ctxQueue's pipelining matters.
fn thrash_kernel(_depth: u32, preset: Preset) -> Result<GuestImage, KernelError> {
    let mut k = KernelBuilder::new(preset);
    k.tick_period(6000);
    for name in ["ta", "tb", "tc"] {
        k.task(name, 4, |t| {
            let loop_l = t.fresh_label("stream");
            let a = t.asm_mut();
            a.li(Reg::S4, (DMEM_BASE + 0x4_0000) as i32);
            a.li(Reg::S5, (DMEM_BASE + 0x4_0000 + 24 * 1024) as i32);
            a.label(&loop_l);
            a.lw(Reg::S6, 0, Reg::S4);
            a.addi(Reg::S4, Reg::S4, 64);
            a.blt(Reg::S4, Reg::S5, &loop_l);
            t.yield_now();
        });
    }
    k.build()
}

/// All tasks sleep on short periods, so every timer tick walks the
/// delay list and wakes tasks — the task-count-dependent kernel path
/// (the paper's WCET scenario assumes 8 such tasks, §6.2).
fn tick_kernel(n: u32, preset: Preset) -> Result<GuestImage, KernelError> {
    let mut k = KernelBuilder::new(preset);
    k.tick_period(2500);
    k.hw_list_len(16);
    for i in 0..n as usize {
        let period = (i % 3 + 1) as u32;
        k.task(&format!("t{i}"), ((i % 6) + 1) as u8, move |t| {
            t.compute(6);
            t.delay(period);
        });
    }
    k.build()
}

const DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];
const TASK_COUNTS: [u32; 5] = [2, 4, 8, 12, 15];

fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("ablations");
    for depth in DEPTHS {
        let mut run = RunSpec::new(
            CoreKind::NaxRiscv,
            Preset::Slt,
            WorkloadSpec::Custom {
                name: "ctx_thrash",
                param: depth as u32,
                build: thrash_kernel,
                run_cycles: 500_000,
            },
        );
        run.label = Some(format!("ctx_queue/depth_{depth}"));
        run.overrides.push(ConfigOverride::CtxQueueDepth(depth));
        run.filter = FilterPolicy::WarmupOnly;
        spec.runs.push(run);
    }
    let w = workloads::by_name("roundrobin_yield").expect("exists");
    for (label, shares) in [("arbitration/bus", false), ("arbitration/lsu", true)] {
        let mut run = RunSpec::new(CoreKind::Cva6, Preset::Slt, WorkloadSpec::Suite(w));
        run.label = Some(label.to_string());
        run.overrides.push(ConfigOverride::UnitArbitration(shares));
        spec.runs.push(run);
    }
    for n in TASK_COUNTS {
        for preset in [Preset::Vanilla, Preset::T] {
            let mut run = RunSpec::new(
                CoreKind::Cv32e40p,
                preset,
                WorkloadSpec::Custom {
                    name: "tick_periodic",
                    param: n,
                    build: tick_kernel,
                    run_cycles: 400_000,
                },
            );
            run.label = Some(format!("tick/{}/tasks_{n}", preset.label()));
            run.filter = FilterPolicy::WarmupTimerTicks;
            spec.runs.push(run);
        }
    }
    spec
}

fn main() {
    rtosunit_bench::flags("ablations", []);
    let campaign = spec().run(rtosunit_bench::default_workers());
    let sim = |label: &str| -> &SimOutcome {
        campaign
            .find(label)
            .and_then(|o| o.sim.as_ref())
            .expect("ablation run is in the spec")
    };

    let mut out = String::new();
    out.push_str("## Ablation 1: ctxQueue depth (NaxRiscv, SLT, cache-thrashing tasks)\n\n");
    out.push_str(&format!(
        "{:>6} {:>8} {:>8} {:>8} {:>12}\n",
        "depth", "mean", "max", "jitter", "queue_stalls"
    ));
    for depth in DEPTHS {
        let r = sim(&format!("ctx_queue/depth_{depth}"));
        let s = r.stats().expect("switches");
        out.push_str(&format!(
            "{:>6} {:>8.1} {:>8} {:>8} {:>12}\n",
            depth,
            s.mean,
            s.max,
            s.jitter(),
            r.ctx_queue.map(|(_, st)| st).unwrap_or(0)
        ));
    }
    out.push_str(
        "\n(§5.3: the paper finds 8 entries Pareto-optimal. Our thrashing setup\n\
         misses on every line, so capacity beyond 8 still helps a little; with\n\
         the paper's workloads a 31-word context produces only 2-3 outstanding\n\
         misses and the curve saturates at 8 — visible in the collapsing\n\
         queue-full stall counts.)\n\n",
    );

    out.push_str("## Ablation 2: arbitration level (CVA6, SLT)\n\n");
    out.push_str(&format!(
        "{:<22} {:>8} {:>8} {:>8}\n",
        "arbitration", "mean", "max", "jitter"
    ));
    for (label, key) in [
        ("bus (bypass cache)", "arbitration/bus"),
        ("LSU (share cache)", "arbitration/lsu"),
    ] {
        let s = sim(key).stats().expect("switches");
        out.push_str(&format!(
            "{:<22} {:>8.1} {:>8} {:>8}\n",
            label,
            s.mean,
            s.max,
            s.jitter()
        ));
    }
    out.push_str("\n(§5: sharing the cache trades predictability for mean latency.)\n\n");

    out.push_str("## Ablation 3: tick-switch latency vs periodic task count (CV32E40P)\n\n");
    out.push_str(&format!(
        "{:>6} {:>16} {:>16}\n",
        "tasks", "(vanilla) tick µ", "(T) tick µ"
    ));
    for n in TASK_COUNTS {
        let mean = |preset: Preset| {
            sim(&format!("tick/{}/tasks_{n}", preset.label()))
                .stats()
                .expect("tick switches")
                .mean
        };
        out.push_str(&format!(
            "{:>6} {:>16.1} {:>16.1}\n",
            n,
            mean(Preset::Vanilla),
            mean(Preset::T)
        ));
    }
    out.push_str(
        "\n(Software tick handling walks the delay list and re-inserts every\n\
         woken task, so the cost grows with the periodic task count; the\n\
         hardware delay list handles expiry in parallel — §4.4/§6.2.)\n",
    );
    rtosunit_bench::emit("ablations.txt", &out);

    match campaign.write_json("results") {
        Ok(path) => println!("# campaign artifact: {}", path.display()),
        Err(e) => eprintln!("# campaign artifact not written: {e}"),
    }
    println!("# {}", campaign.throughput_summary());
}
