//! Regenerates Figure 10: normalized ASIC area per core × configuration,
//! with absolute totals, from the structural cost model.

use asic_model::area_report;
use rtosunit::Preset;
use rvsim_cores::CoreKind;

fn main() {
    rtosunit_bench::flags("fig10_area", []);
    let mut out = String::new();
    for core in CoreKind::ALL {
        out.push_str(&format!("## {core}: area (µm², 22 nm-class model)\n\n"));
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>10}\n",
            "config", "total_um2", "added_um2", "overhead"
        ));
        for preset in Preset::ASIC_SET {
            let r = area_report(core, preset);
            out.push_str(&format!(
                "{:<10} {:>12.0} {:>12.0} {:>9.1}%\n",
                preset.label(),
                r.total_um2(),
                r.added_um2(),
                r.overhead() * 100.0
            ));
        }
        out.push('\n');
        // Itemised components of the full configuration.
        let split = area_report(core, Preset::Split);
        out.push_str(&format!("components of {} (SPLIT):\n", core));
        for (name, a) in &split.components {
            out.push_str(&format!("  {name:<38} {a:>8.0} µm²\n"));
        }
        out.push('\n');
    }
    out.push_str(&rtosunit_bench::paper_note(&[
        "CV32E40P: S +21.9%, CV32RT +21.2%, T ~0 (tool noise), ST +33%, SLT ~+31..33%, SPLIT +44%",
        "CVA6: S +3..5%, CV32RT +2%, advanced configs up to +8%, SPLIT +14%",
        "NaxRiscv: S +15%, CV32RT +19% (16 extra read ports), accel ~+13%, SPLIT ~+15%",
        "dirty bits within EDA heuristics noise on every core",
    ]));
    rtosunit_bench::emit("fig10_area.txt", &out);
}
