//! Regenerates the §6.2 WCET table (the "x" marks of Fig. 9):
//! worst-case context-switch latency per configuration on CV32E40P.
//!
//! Each configuration's static analysis is an analytic campaign run, so
//! `results/wcet_table.json` carries the same rows machine-readably.

use rtosbench::{CampaignSpec, Json, RunSpec, WorkloadSpec};
use rtosunit::Preset;
use rvsim_cores::CoreKind;
use rvsim_wcet::wcet_table;

fn wcet_row(_param: u32, _core: CoreKind, preset: Preset) -> Json {
    let r = wcet_table()
        .into_iter()
        .find(|r| r.preset == preset)
        .expect("analysed preset");
    Json::object()
        .with("software_cycles", r.software_cycles)
        .with("fsm_stall_cycles", r.fsm_stall_cycles)
        .with("total_cycles", r.total_cycles)
        .with("paths", r.paths)
}

fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("wcet_table");
    for r in wcet_table() {
        spec.runs.push(RunSpec::new(
            CoreKind::Cv32e40p,
            r.preset,
            WorkloadSpec::Analytic {
                name: "wcet",
                param: 0,
                eval: wcet_row,
            },
        ));
    }
    spec
}

fn main() {
    rtosunit_bench::flags("wcet_table", []);
    let campaign = spec().run(rtosunit_bench::default_workers());
    let mut out = String::new();
    out.push_str("## CV32E40P worst-case context-switch latency (static analysis)\n\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>12} {:>10} {:>8}\n",
        "config", "sw_cycles", "fsm_stalls", "WCET", "paths"
    ));
    for r in wcet_table() {
        out.push_str(&format!(
            "{:<10} {:>10} {:>12} {:>10} {:>8}\n",
            r.preset.label(),
            r.software_cycles,
            r.fsm_stall_cycles,
            r.total_cycles,
            r.paths
        ));
    }
    out.push_str(&rtosunit_bench::paper_note(&[
        "paper (real FreeRTOS, so software paths are heavier than freertos-lite):",
        "vanilla 1649, SL 1442, T 202, SLT 70 cycles",
        "shape: SLT << T << SL < vanilla; SLT bounded by the 62-cycle FSM drain",
    ]));
    rtosunit_bench::emit("wcet_table.txt", &out);

    match campaign.write_json("results") {
        Ok(path) => println!("# campaign artifact: {}", path.display()),
        Err(e) => eprintln!("# campaign artifact not written: {e}"),
    }
}
