//! Regenerates Figure 11: achievable maximum frequency per core ×
//! configuration.

use asic_model::fmax_report;
use rtosunit::Preset;
use rvsim_cores::CoreKind;

fn main() {
    rtosunit_bench::flags("fig11_fmax", []);
    let mut out = String::new();
    for core in CoreKind::ALL {
        out.push_str(&format!("## {core}: f_max (MHz)\n\n"));
        out.push_str(&format!(
            "{:<10} {:>10} {:>8}\n",
            "config", "fmax_MHz", "drop"
        ));
        for preset in Preset::ASIC_SET {
            let r = fmax_report(core, preset);
            out.push_str(&format!(
                "{:<10} {:>10.0} {:>7.1}%\n",
                preset.label(),
                r.fmax_mhz,
                r.drop * 100.0
            ));
        }
        out.push('\n');
    }
    out.push_str(&rtosunit_bench::paper_note(&[
        "CV32E40P: ~-15% across configurations except CV32RT; still well above embedded targets",
        "CVA6: ~-8% across configurations",
        "NaxRiscv: stable, except SPLIT -4%",
    ]));
    rtosunit_bench::emit("fig11_fmax.txt", &out);
}
