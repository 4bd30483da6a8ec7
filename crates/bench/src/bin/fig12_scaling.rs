//! Regenerates Figure 12: ASIC area of the scheduling-only (T)
//! configuration on CV32E40P as the hardware list length grows.
//!
//! The sweep is declared as analytic campaign runs (no simulation), so
//! the data also lands in `results/fig12_scaling.json` in the same
//! artifact format as the simulated figures.

use asic_model::scaling::FIG12_LENGTHS;
use asic_model::scaling_sweep;
use rtosbench::{CampaignSpec, Json, RunSpec, WorkloadSpec};
use rtosunit::Preset;
use rvsim_cores::CoreKind;

fn area_point(len: u32, _core: CoreKind, _preset: Preset) -> Json {
    let p = scaling_sweep(&[len as usize]).remove(0);
    Json::object()
        .with("list_len", p.list_len)
        .with("total_um2", p.total_um2)
        .with("overhead", p.overhead)
}

fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("fig12_scaling");
    for &len in &FIG12_LENGTHS {
        let mut run = RunSpec::new(
            CoreKind::Cv32e40p,
            Preset::T,
            WorkloadSpec::Analytic {
                name: "area_scaling",
                param: len as u32,
                eval: area_point,
            },
        );
        run.label = Some(format!("area/slots_{len}"));
        spec.runs.push(run);
    }
    spec
}

fn main() {
    rtosunit_bench::flags("fig12_scaling", []);
    let campaign = spec().run(rtosunit_bench::default_workers());
    let mut out = String::new();
    out.push_str("## CV32E40P (T): area vs scheduler list length\n\n");
    out.push_str(&format!(
        "{:>6} {:>12} {:>10}\n",
        "slots", "total_um2", "overhead"
    ));
    for p in scaling_sweep(&FIG12_LENGTHS) {
        out.push_str(&format!(
            "{:>6} {:>12.0} {:>9.1}%\n",
            p.list_len,
            p.total_um2,
            p.overhead * 100.0
        ));
    }
    out.push_str(&rtosunit_bench::paper_note(&[
        "area increases approximately linearly with list length",
        "reaching ~14% overhead at 64 slots; small sizes within tool noise",
    ]));
    rtosunit_bench::emit("fig12_scaling.txt", &out);

    match campaign.write_json("results") {
        Ok(path) => println!("# campaign artifact: {}", path.display()),
        Err(e) => eprintln!("# campaign artifact not written: {e}"),
    }
}
