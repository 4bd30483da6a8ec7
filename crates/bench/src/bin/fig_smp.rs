//! SMP contention sweep: context-switch latency vs. core count on the
//! shared memory bus.
//!
//! For every core model and a software-heavy vs. hardware-heavy preset
//! pair, the ping-pong semaphore workload runs on hart 0 of a 1-, 2- and
//! 4-hart [`SmpSystem`](rtosunit::SmpSystem) while the remaining harts
//! pound the shared bus with load/store traffic. Mean latency and jitter
//! per hart count — plus the arbiter's wait-cycle telemetry — quantify
//! how much of the switch path is exposed to bus arbitration, and how
//! much of that exposure the hardware-assisted presets hide (their
//! context traffic moves to the RTOSUnit's dedicated SRAM ports).
//!
//! The machine-readable campaign artifact lands in `results/fig_smp.json`.

use rtosbench::{workloads, CampaignSpec, Json, RunSpec, WorkloadSpec};
use rtosunit::Preset;
use rvsim_check::{run_smp_scenario, smp_scenario_for_seed};
use rvsim_cores::CoreKind;

/// Hart counts of the sweep (1 = the uncontended baseline).
const HART_COUNTS: [usize; 3] = [1, 2, 4];

/// Presets compared: full-software vs. the paper's all-round
/// hardware-assisted configuration.
const PRESETS: [Preset; 2] = [Preset::Vanilla, Preset::Slt];

fn main() {
    rtosunit_bench::flags("fig_smp", []);
    let w = workloads::by_name("pingpong_semaphore").expect("suite workload exists");
    let mut spec = CampaignSpec::new("fig_smp")
        .with_telemetry()
        .with_progress();
    for core in CoreKind::ALL {
        for preset in PRESETS {
            for harts in HART_COUNTS {
                spec.runs
                    .push(RunSpec::new(core, preset, WorkloadSpec::Suite(w)).with_harts(harts));
            }
        }
    }
    let mut campaign = spec.run(rtosunit_bench::default_workers());
    let bus = bus_section(&campaign);
    campaign.attach_section("verification", verification_section());
    campaign.attach_section("bus_contention", bus);

    let mut out = String::new();
    out.push_str("# Switch latency vs. cores contending on the shared bus\n");
    out.push_str("# (pingpong_semaphore on hart 0; other harts pound memory)\n\n");
    for core in CoreKind::ALL {
        out.push_str(&format!(
            "## {core}\n| preset | harts | mean | max | jitter | bus wait (hart 0) |\n|---|---|---|---|---|---|\n"
        ));
        for preset in PRESETS {
            let mut base_mean = None;
            for harts in HART_COUNTS {
                let o = campaign
                    .outcomes
                    .iter()
                    .find(|o| o.core == core && o.preset == preset && o.harts == harts)
                    .expect("matrix covers every (core, preset, harts)");
                let sim = o.sim.as_ref().expect("simulated run");
                let s = sim.stats().expect("switches measured");
                let wait = sim.bus.as_ref().map_or(0, |b| b[0].wait_cycles);
                let slowdown = match base_mean {
                    None => {
                        base_mean = Some(s.mean);
                        String::new()
                    }
                    Some(b) if b > 0.0 => format!(" ({:+.1}%)", (s.mean / b - 1.0) * 100.0),
                    Some(_) => String::new(),
                };
                out.push_str(&format!(
                    "| {} | {harts} | {:.1}{slowdown} | {} | {} | {wait} |\n",
                    preset.label(),
                    s.mean,
                    s.max,
                    s.jitter(),
                ));
            }
        }
        out.push('\n');
    }
    out.push_str(&rtosunit_bench::paper_note(&[
        "1 hart reproduces the single-core baseline exactly (lone master never waits)",
        "software-heavy presets expose the most bus wait: every save/restore word arbitrates",
        "hardware-assisted (SLT) context traffic uses the unit's SRAM ports, shrinking the contention delta",
    ]));
    rtosunit_bench::emit("fig_smp.txt", &out);

    match campaign.write_json("results") {
        Ok(path) => println!("# campaign artifact: {}", path.display()),
        Err(e) => eprintln!("# campaign artifact not written: {e}"),
    }
    println!("# {}", campaign.throughput_summary());
}

/// Runs the SMP scheduler oracle on a representative configuration per
/// hart count and exports its coverage counters — the artifact carries
/// its own verification context next to the measured latencies.
fn verification_section() -> Json {
    let mut section = Json::object();
    for harts in HART_COUNTS.iter().filter(|&&h| h > 1) {
        let scenario = smp_scenario_for_seed(CoreKind::Cv32e40p, Preset::Slt, *harts, 7);
        let entry = match run_smp_scenario(&scenario) {
            Ok(stats) => {
                let mut j = Json::object().with("pass", true);
                for (name, value) in stats.named() {
                    j.push(name, value);
                }
                j
            }
            Err(v) => Json::object()
                .with("pass", false)
                .with("violation", v.to_string()),
        };
        section.push(&format!("oracle_{harts}harts"), entry);
    }
    section
}

/// Aggregates every SMP run's per-hart
/// [`BusMasterStats`](rvsim_mem::BusMasterStats) into one
/// contention summary: grants and wait cycles summed per hart index,
/// worst-case single wait across the whole campaign.
fn bus_section(campaign: &rtosbench::Campaign) -> Json {
    let max_harts = HART_COUNTS.iter().copied().max().unwrap_or(1);
    let mut grants = vec![0u64; max_harts];
    let mut waits = vec![0u64; max_harts];
    let mut max_wait = vec![0u64; max_harts];
    for sim in campaign.outcomes.iter().filter_map(|o| o.sim.as_ref()) {
        if let Some(bus) = &sim.bus {
            for (h, m) in bus.iter().enumerate() {
                grants[h] += m.grants;
                waits[h] += m.wait_cycles;
                max_wait[h] = max_wait[h].max(m.max_wait);
            }
        }
    }
    Json::object().with(
        "per_hart",
        (0..max_harts)
            .map(|h| {
                Json::object()
                    .with("hart", h)
                    .with("grants", grants[h])
                    .with("wait_cycles", waits[h])
                    .with("max_wait", max_wait[h])
            })
            .collect::<Vec<_>>(),
    )
}
