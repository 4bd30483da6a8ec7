//! Regenerates Figure 9: context-switch latency (mean µ) and jitter (Δ)
//! for every core × configuration over the RTOSBench-style suite.
//!
//! The full `cores × presets × workloads` matrix is declared as one
//! [`CampaignSpec`] and executed in parallel; the human-readable tables
//! are derived from the in-memory outcomes and the machine-readable
//! artifact lands in `results/fig9.json`.
//!
//! `--quick` restricts the matrix to one core (CI smoke; artifact
//! `results/fig9_quick.json` so the full figure is never clobbered).

use rtosbench::{report, workloads, CampaignSpec, Fig9Row};
use rtosunit::{trace, Preset};
use rvsim_cores::CoreKind;

fn main() {
    let quick = rtosunit_bench::quick_arg("fig9");
    let cores: &[CoreKind] = if quick {
        &CoreKind::ALL[..1]
    } else {
        &CoreKind::ALL
    };
    let name = if quick { "fig9_quick" } else { "fig9" };
    let campaign = CampaignSpec::matrix(name, cores, &Preset::LATENCY_SET, &workloads::ALL)
        .run(rtosunit_bench::default_workers());

    let mut out = String::new();
    for &core in cores {
        let rows: Vec<_> = Preset::LATENCY_SET
            .into_iter()
            .map(|p| Fig9Row::pool(&campaign, core, p))
            .collect();
        out.push_str(&report::fig9_table(core.name(), &rows));
        out.push('\n');
        for r in &rows {
            out.push_str(&report::workload_breakdown(r));
        }
        // Per-cause breakdown for the paper's all-round configuration:
        // the cause-dispatch paths differ in length, which is where the
        // residual (SLT) jitter lives.
        let label = format!("{}/{}/interrupt_latency", core.name(), Preset::Slt.label());
        let slt = campaign
            .find(&label)
            .and_then(|o| o.sim.as_ref())
            .expect("SLT interrupt_latency is in the matrix");
        out.push_str(&format!("### {core} (SLT) per-cause (interrupt_latency)\n"));
        out.push_str(&trace::summary_table(&slt.records));
        out.push('\n');
    }
    out.push_str(&rtosunit_bench::paper_note(&[
        "CV32RT: mean -3%..-12% vs vanilla; jitter comparable",
        "S: mean -17%..-27%",
        "T: mean -23% (CV32E40P), -29% (CVA6), -9% (NaxRiscv); CV32E40P jitter 188 -> 16",
        "SLT: zero jitter on CV32E40P (latency 70); jitter -88% on CVA6/NaxRiscv",
        "SDLO ~ SL (sw scheduling dominates); SDLOT adds jitter, some cases < 50 cycles",
        "SPLIT: lowest mean (bimodal: correct preloads save up to 31 cycles vs SLT)",
    ]));
    rtosunit_bench::emit(if quick { "fig9_quick.txt" } else { "fig9.txt" }, &out);

    match campaign.write_json("results") {
        Ok(path) => println!("# campaign artifact: {}", path.display()),
        Err(e) => eprintln!("# campaign artifact not written: {e}"),
    }
    println!("# {}", campaign.throughput_summary());
}
