//! Fault-vulnerability figure: what a soft error does to each ISR
//! variant.
//!
//! A seeded fault campaign ([`rvsim_check::run_fault_campaign`]) injects
//! register, CSR, memory, cache, bus and interrupt upsets into the same
//! protected kernel scenario on every core × {vanilla, SLT, SDLOT} cell
//! and classifies each run on the detection lattice (DESIGN.md §12):
//! masked, caught by a guest self-check (canary / watchdog / checksum),
//! caught by the host scheduler oracle, silent corruption, or a crash.
//! The per-cell tallies compare how the hardware-assisted ISR variants
//! shift the vulnerability profile: the shorter the software switch
//! path, the less architectural state a stray bit flip can land in.
//!
//! `--quick` shrinks the plan count for CI smoke runs. The
//! machine-readable artifact lands in `results/fig_faults.json`
//! (`results/fig_faults_quick.json` with `--quick`).

use rtosbench::Json;
use rtosunit::Preset;
use rvsim_check::{run_fault_campaign, FaultCampaign, FaultOutcome};
use rvsim_cores::CoreKind;

/// ISR variants compared: full-software baseline, the paper's all-round
/// configuration, and the deepest hardware-assisted variant the
/// scheduling oracle models.
const PRESETS: [Preset; 3] = [Preset::Vanilla, Preset::Slt, Preset::Sdlot];

/// Scenario seed every cell shares, so tallies differ only by
/// configuration.
const SCENARIO_SEED: u64 = 1;

/// Faults per plan (each plan is one classified run).
const FAULTS_PER_RUN: usize = 2;

fn main() {
    let quick = rtosunit_bench::quick_arg("fig_faults");
    let fault_seeds: u64 = if quick { 8 } else { 64 };
    // Crashed runs are a *classification*, not an error: silence the
    // default panic hook so `catch_unwind` inside the campaign does not
    // spray backtraces over the report.
    std::panic::set_hook(Box::new(|_| {}));
    let campaign = run_fault_campaign(
        &CoreKind::ALL,
        &PRESETS,
        SCENARIO_SEED,
        fault_seeds,
        FAULTS_PER_RUN,
    );
    let _ = std::panic::take_hook();

    let mut out = String::new();
    out.push_str("# Fault-injection vulnerability by ISR variant\n");
    out.push_str(&format!(
        "# ({} plans x {} faults per (core, preset) cell, scenario seed {})\n\n",
        fault_seeds, FAULTS_PER_RUN, SCENARIO_SEED
    ));
    out.push_str("| core | preset | ");
    for o in FaultOutcome::ALL {
        out.push_str(&format!("{} | ", o.name()));
    }
    out.push_str("detected % |\n|---|---|");
    out.push_str(&"---|".repeat(FaultOutcome::ALL.len() + 1));
    out.push('\n');
    for core in CoreKind::ALL {
        for preset in PRESETS {
            let cell: Vec<_> = campaign
                .runs
                .iter()
                .filter(|r| r.core == core && r.preset == preset)
                .collect();
            out.push_str(&format!("| {} | {} | ", core.name(), preset.label()));
            let mut detected = 0usize;
            for o in FaultOutcome::ALL {
                let n = cell.iter().filter(|r| r.report.outcome == o).count();
                if o.is_detected() {
                    detected += n;
                }
                out.push_str(&format!("{n} | "));
            }
            let pct = 100.0 * detected as f64 / cell.len().max(1) as f64;
            out.push_str(&format!("{pct:.1} |\n"));
        }
    }
    out.push('\n');
    out.push_str(&rtosunit_bench::paper_note(&[
        "every run is classified -- crashes are caught and counted, never lost",
        "guest self-checks (canary/watchdog/checksum) and the host oracle split the detected mass",
        "silent corruption is only visible to the differential layer; its share is the residual risk",
    ]));
    rtosunit_bench::emit(
        if quick {
            "fig_faults_quick.txt"
        } else {
            "fig_faults.txt"
        },
        &out,
    );

    let name = if quick {
        "fig_faults_quick"
    } else {
        "fig_faults"
    };
    match write_artifact(name, &campaign, fault_seeds) {
        Ok(path) => println!("# campaign artifact: {path}"),
        Err(e) => eprintln!("# campaign artifact not written: {e}"),
    }
    match quarantine_crashes(name, &campaign) {
        Ok(0) => {}
        Ok(n) => println!("# {n} crashed runs quarantined under results/quarantine/"),
        Err(e) => eprintln!("# quarantine not written: {e}"),
    }
    println!(
        "# fig_faults: {} runs classified ({} cells)",
        campaign.runs.len(),
        CoreKind::ALL.len() * PRESETS.len()
    );
}

/// Writes one standalone replay artifact per crashed run into
/// `results/quarantine/` — the scenario seeds plus the exact fault
/// events, so the crash re-runs without the generator (and shrinks via
/// [`rvsim_check::shrink_fault_events`]). Returns the number written.
fn quarantine_crashes(name: &str, campaign: &FaultCampaign) -> std::io::Result<usize> {
    let crashed: Vec<_> = campaign
        .runs
        .iter()
        .filter(|r| r.report.outcome == FaultOutcome::Crashed)
        .collect();
    if crashed.is_empty() {
        return Ok(0);
    }
    std::fs::create_dir_all("results/quarantine")?;
    for r in &crashed {
        let doc = Json::object()
            .with("schema", "rtosunit-fault-quarantine-v1")
            .with("campaign", name)
            .with("core", r.core.name())
            .with("preset", r.preset.label())
            .with("scenario_seed", r.scenario_seed)
            .with("fault_seed", r.fault_seed)
            .with(
                "events",
                r.events
                    .iter()
                    .map(|e| {
                        Json::object()
                            .with("at_cycle", e.at_cycle)
                            .with("kind", e.kind.name())
                            .with("code", e.kind.code())
                    })
                    .collect::<Vec<_>>(),
            )
            .with("detail", r.report.detail.as_str());
        let path = format!(
            "results/quarantine/{name}_{}_{}_s{}_f{}.json",
            r.core.name(),
            r.preset.label().trim_matches(|c| c == '(' || c == ')'),
            r.scenario_seed,
            r.fault_seed
        );
        std::fs::write(path, doc.render())?;
    }
    Ok(crashed.len())
}

/// Renders the campaign as `results/<name>.json`: the per-cell tallies
/// plus one replayable record per run (seeds and explicit events, so a
/// verdict can be re-derived without the generator).
fn write_artifact(
    name: &str,
    campaign: &FaultCampaign,
    fault_seeds: u64,
) -> std::io::Result<String> {
    let mut cells = Vec::new();
    for core in CoreKind::ALL {
        for preset in PRESETS {
            let mut tally = Json::object();
            for (o, n) in campaign.tally_for(core, preset) {
                tally.push(o.name(), n);
            }
            cells.push(
                Json::object()
                    .with("core", core.name())
                    .with("preset", preset.label())
                    .with("tally", tally),
            );
        }
    }
    let runs = campaign
        .runs
        .iter()
        .map(|r| {
            Json::object()
                .with("core", r.core.name())
                .with("preset", r.preset.label())
                .with("scenario_seed", r.scenario_seed)
                .with("fault_seed", r.fault_seed)
                .with(
                    "events",
                    r.events
                        .iter()
                        .map(|e| {
                            Json::object()
                                .with("at_cycle", e.at_cycle)
                                .with("kind", e.kind.name())
                                .with("code", e.kind.code())
                        })
                        .collect::<Vec<_>>(),
                )
                .with("outcome", r.report.outcome.name())
                .with("detail", r.report.detail.as_str())
        })
        .collect::<Vec<_>>();
    let doc = Json::object()
        .with("schema", "rtosunit-faultcamp-v1")
        .with("campaign", name)
        .with("scenario_seed", SCENARIO_SEED)
        .with("fault_seeds", fault_seeds)
        .with("faults_per_run", FAULTS_PER_RUN as u64)
        .with("cells", cells)
        .with("runs", runs);
    std::fs::create_dir_all("results")?;
    let path = format!("results/{name}.json");
    std::fs::write(&path, doc.render())?;
    Ok(path)
}
