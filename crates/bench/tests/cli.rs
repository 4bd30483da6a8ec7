//! Every bench binary refuses an argument it does not take: it exits
//! non-zero before doing any work, so nothing reaches stdout.

use std::process::Command;

/// Each binary, an argument it does not take, and the status it must
/// exit with: 2 with a usage line for the figure binaries and the tools
/// that print usage, 1 for `snap`, which reports every error alike.
const CASES: [(&str, &str, i32); 16] = [
    (env!("CARGO_BIN_EXE_ablations"), "--quick", 2),
    (env!("CARGO_BIN_EXE_all_figures"), "--quick", 2),
    (env!("CARGO_BIN_EXE_checkfuzz"), "--bogus", 2),
    (env!("CARGO_BIN_EXE_extension_sync"), "--quick", 2),
    (env!("CARGO_BIN_EXE_fig9"), "--bogus", 2),
    (env!("CARGO_BIN_EXE_fig10_area"), "--bogus", 2),
    (env!("CARGO_BIN_EXE_fig11_fmax"), "--bogus", 2),
    (env!("CARGO_BIN_EXE_fig12_scaling"), "--quick", 2),
    (env!("CARGO_BIN_EXE_fig13_power"), "--bogus", 2),
    (env!("CARGO_BIN_EXE_fig_faults"), "--bogus", 2),
    (env!("CARGO_BIN_EXE_fig_smp"), "--quick", 2),
    (env!("CARGO_BIN_EXE_fig_tail"), "--bogus", 2),
    (env!("CARGO_BIN_EXE_guest_profile"), "--bogus", 2),
    (env!("CARGO_BIN_EXE_snap"), "--bogus", 1),
    (env!("CARGO_BIN_EXE_trace_dump"), "no_such_workload", 2),
    (env!("CARGO_BIN_EXE_wcet_table"), "--quick", 2),
];

#[test]
fn every_bench_binary_refuses_an_argument_it_does_not_take() {
    let mut wrong = Vec::new();
    for (bin, arg, status) in CASES {
        // A binary that ignores the argument writes its artifacts here,
        // not into the source tree.
        let out = Command::new(bin)
            .arg(arg)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        if out.status.code() != Some(status) || !out.stdout.is_empty() {
            wrong.push(format!(
                "{bin} {arg}: {}, {} bytes of stdout",
                out.status,
                out.stdout.len()
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
