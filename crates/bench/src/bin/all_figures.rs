//! Runs every figure/table regeneration in sequence (Fig. 9–13 plus the
//! §6.2 WCET table). Results are echoed and stored under `results/`.

use std::process::Command;

fn main() {
    rtosunit_bench::flags("all_figures", []);
    let bins = [
        "fig9",
        "wcet_table",
        "fig10_area",
        "fig11_fmax",
        "fig12_scaling",
        "fig13_power",
    ];
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("bin dir");
    for bin in bins {
        println!("==== {bin} ====");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
}
