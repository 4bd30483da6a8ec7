//! Configuration selection (paper §6.4): for one core, print the full
//! latency / jitter / area / f_max / power trade-off per configuration so
//! a designer can pick a point in the design space.
//!
//! Run with: `cargo run --example config_explorer --release [core]`
//! where `core` is one of `cv32e40p` (default), `cva6`, `naxriscv`.

use rtosunit_suite::asic::{area_report, fmax_report, power_report};
use rtosunit_suite::bench::{workloads, CampaignSpec, Fig9Row};
use rtosunit_suite::cores::CoreKind;
use rtosunit_suite::unit::Preset;

fn main() {
    let kind = match std::env::args().nth(1) {
        None => CoreKind::Cv32e40p,
        Some(tag) => CoreKind::from_tag(&tag).unwrap_or_else(|| panic!("unknown core `{tag}`")),
    };
    println!("# {kind}: configuration trade-offs (paper §6.4)\n");
    println!(
        "{:<10} {:>8} {:>8} {:>9} {:>10} {:>9}",
        "config", "µ (cyc)", "Δ (cyc)", "area ovh", "fmax (MHz)", "power(mW)"
    );
    let campaign = CampaignSpec::matrix(
        "config_explorer",
        &[kind],
        &Preset::LATENCY_SET,
        &workloads::ALL,
    )
    .run(1);
    for preset in Preset::LATENCY_SET {
        let row = Fig9Row::pool(&campaign, kind, preset);
        let area = area_report(kind, preset);
        let fmax = fmax_report(kind, preset);
        let power = power_report(kind, preset);
        println!(
            "{:<10} {:>8.1} {:>8} {:>8.1}% {:>10.0} {:>9.2}",
            preset.label(),
            row.mean(),
            row.jitter(),
            area.overhead() * 100.0,
            fmax.fmax_mhz,
            power.total_mw()
        );
    }
    println!("\nGuidance from the paper: (SLT) is the all-rounder, (SPLIT) minimises");
    println!("mean latency at the highest cost, (T) is near-free silicon, and (SL)");
    println!("sits between (T) and (SLT).");
}
