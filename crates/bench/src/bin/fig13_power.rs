//! Regenerates Figure 13: average power for the mutex workload at
//! 500 MHz, per core × configuration (activity from actual simulation).

use asic_model::power_report;
use rtosunit::Preset;
use rvsim_cores::CoreKind;

fn main() {
    rtosunit_bench::flags("fig13_power", []);
    let mut out = String::new();
    for core in CoreKind::ALL {
        out.push_str(&format!(
            "## {core}: average power, mutex_workload @ 500 MHz (mW)\n\n"
        ));
        out.push_str(&format!(
            "{:<10} {:>8} {:>9} {:>9} {:>8} {:>8}\n",
            "config", "static", "core_dyn", "unit_dyn", "total", "vs_van"
        ));
        let base = power_report(core, Preset::Vanilla).total_mw();
        for preset in Preset::ASIC_SET {
            let r = power_report(core, preset);
            out.push_str(&format!(
                "{:<10} {:>8.2} {:>9.2} {:>9.2} {:>8.2} {:>+7.0}%\n",
                preset.label(),
                r.static_mw,
                r.core_dynamic_mw,
                r.unit_dynamic_mw,
                r.total_mw(),
                (r.total_mw() / base - 1.0) * 100.0
            ));
        }
        out.push('\n');
    }
    out.push_str(&rtosunit_bench::paper_note(&[
        "strong area-power correlation (static power dominates at 22 nm)",
        "CV32E40P: up to +72% relative (SPLIT highest); absolute increases small",
        "CVA6: up to +33%; (S) power close to (CV32RT) with much better latency",
        "NaxRiscv: up to +13% (excluding CV32RT, which is highest there); (T) < 2 mW extra",
    ]));
    rtosunit_bench::emit("fig13_power.txt", &out);
}
