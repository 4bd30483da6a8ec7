//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary regenerates one table/figure of the paper; see the
//! per-experiment index in `DESIGN.md` and the recorded results in
//! `EXPERIMENTS.md`.

pub mod chrome_trace;

/// Writes `content` to `results/<name>` (best effort) and echoes it to
/// stdout, so figure data survives the run.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(name), content);
    }
}

/// The paper's qualitative expectations for a figure, printed alongside
/// measured data so a reader can judge the reproduction at a glance.
pub fn paper_note(lines: &[&str]) -> String {
    let mut s = String::from("\n# Paper expectations (shape targets):\n");
    for l in lines {
        s.push_str(&format!("#   {l}\n"));
    }
    s
}

/// Parses the command line of a figure binary whose only option is
/// `--quick`. Any other argument prints a usage line and exits with
/// status 2, so a removed or mistyped flag fails loudly instead of being
/// ignored.
pub fn quick_arg(bin: &str) -> bool {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg != "--quick" {
            eprintln!("{bin}: unknown argument `{arg}`\nusage: {bin} [--quick]");
            std::process::exit(2);
        }
        quick = true;
    }
    quick
}

/// Worker-thread count for campaign execution: the host's available
/// parallelism (the artifact is worker-count independent, so this only
/// affects wall-clock time).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
