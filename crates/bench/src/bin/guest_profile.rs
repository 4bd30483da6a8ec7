//! Cycle-attributed guest PC profile of a workload run — flamegraph
//! input plus the ranked hot-block report.
//!
//! ```text
//! guest_profile [WORKLOAD] [--core NAME] [--preset LABEL] [--harts N]
//! ```
//!
//! Runs the workload with the [`PcProfile`]
//! enabled (attribution is issue-time exact — batched and stepwise runs
//! produce bit-identical profiles), then emits:
//!
//! * `results/flamegraph.folded` — folded-stack lines, one per basic
//!   block, ready for `flamegraph.pl` / speedscope / inferno;
//! * `results/guest_profile.txt` — the ranked hot-block table that
//!   seeded the translation-cache work (ROADMAP item 1).
//!
//! A single-hart run executes through the block translation cache, so
//! its hot-block table carries per-block cache columns: dispatches, hit
//! rate and retranslations. The SMP path steps each hart per cycle
//! where its core can issue and only drains in batches, so it builds no
//! cache and its tables omit them.
//!
//! The run boots exactly as a campaign run does ([`campaign::boot`]),
//! external-interrupt arrivals included. With `--harts N` (N > 1) the
//! workload runs on hart 0 of an [`SmpSystem`](rtosunit::SmpSystem)
//! while the other harts pound the shared bus; every hart is profiled,
//! and the folded output keeps one root per hart so the flamegraph shows
//! per-hart attribution side by side.

use rtosbench::campaign::{self, Booted, RunSpec, WorkloadSpec};
use rtosbench::workloads;
use rtosunit::{Preset, System};
use rvsim_cores::{hot_block_report, hot_block_report_with_blocks, CoreKind, PcProfile};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: guest_profile [WORKLOAD] [--core NAME] [--preset LABEL] [--harts N]");
    eprintln!(
        "  workloads: {}",
        names(workloads::ALL.iter().map(|w| w.name))
    );
    eprintln!(
        "  cores:     {}",
        names(CoreKind::ALL.iter().map(|c| c.name()))
    );
    eprintln!(
        "  presets:   {}",
        Preset::LATENCY_SET
            .iter()
            .map(|p| plain_label(*p))
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

/// Preset label without the paper's parentheses, e.g. `(SLT)` → `SLT` —
/// friendlier on a command line.
fn plain_label(p: Preset) -> String {
    p.label().trim_matches(['(', ')']).to_string()
}

fn names<'a>(it: impl Iterator<Item = &'a str>) -> String {
    it.collect::<Vec<_>>().join(", ")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = "interrupt_latency".to_string();
    let mut core = CoreKind::Cv32e40p;
    let mut preset = Preset::Slt;
    let mut harts = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--core" => {
                i += 1;
                let Some(c) = args
                    .get(i)
                    .and_then(|n| CoreKind::ALL.into_iter().find(|c| c.name() == n))
                else {
                    return usage();
                };
                core = c;
            }
            "--preset" => {
                i += 1;
                let Some(p) = args.get(i).and_then(|n| {
                    Preset::LATENCY_SET
                        .into_iter()
                        .find(|p| plain_label(*p).eq_ignore_ascii_case(n))
                }) else {
                    return usage();
                };
                preset = p;
            }
            "--harts" => {
                i += 1;
                let Some(h) = args.get(i).and_then(|s| s.parse::<usize>().ok()) else {
                    return usage();
                };
                if h == 0 {
                    return usage();
                }
                harts = h;
            }
            flag if flag.starts_with("--") => return usage(),
            name => workload = name.to_string(),
        }
        i += 1;
    }
    let Some(w) = workloads::by_name(&workload) else {
        eprintln!("guest_profile: unknown workload `{workload}`");
        return usage();
    };
    let spec = RunSpec::new(core, preset, WorkloadSpec::Suite(w)).with_harts(harts);

    let mut folded = String::new();
    let mut report = format!(
        "# Guest PC profile: {workload} on {core}/{} ({} harts)\n\n",
        preset.label(),
        harts
    );
    match campaign::boot(&spec).expect("workload builds") {
        Booted::Single(mut sys) => {
            sys.set_profiling(true);
            sys.run(w.run_cycles);
            let profile = sys.take_profile().expect("profiling was enabled");
            append_hart(&mut folded, &mut report, &mut sys, &profile, 0, true);
        }
        Booted::Smp(mut smp) => {
            smp.set_profiling(true);
            smp.run(w.run_cycles);
            let profiles = smp.take_profiles();
            for (h, profile) in profiles.iter().enumerate() {
                let profile = profile.as_ref().expect("profiling was enabled");
                append_hart(&mut folded, &mut report, smp.hart_mut(h), profile, h, false);
            }
        }
    }

    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("guest_profile: cannot create results/: {e}");
        return ExitCode::from(2);
    }
    let folded_path = dir.join("flamegraph.folded");
    let report_path = dir.join("guest_profile.txt");
    if let Err(e) =
        std::fs::write(&folded_path, &folded).and_then(|()| std::fs::write(&report_path, &report))
    {
        eprintln!("guest_profile: write failed: {e}");
        return ExitCode::from(2);
    }
    print!("{report}");
    println!("# folded stacks: {}", folded_path.display());
    println!("# hot-block report: {}", report_path.display());
    ExitCode::SUCCESS
}

/// Appends one hart's folded stacks and hot-block table — with the
/// per-block translation-cache columns when the hart ran batched.
fn append_hart(
    folded: &mut String,
    report: &mut String,
    sys: &mut System,
    profile: &PcProfile,
    hart: usize,
    batched: bool,
) {
    let root = format!("hart{hart}");
    folded.push_str(&sys.core.folded_profile(profile, &root));
    let blocks = sys.core.hot_blocks(profile);
    report.push_str(&format!("## {root}\n\n"));
    if batched {
        report.push_str(&hot_block_report_with_blocks(
            profile,
            &blocks,
            10,
            |start, end| sys.core.block_stats_in(start, end),
        ));
    } else {
        report.push_str(&hot_block_report(profile, &blocks, 10));
    }
    report.push('\n');
}
