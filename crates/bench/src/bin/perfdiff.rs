//! Compares two campaign/bench JSON artifacts — the CI regression gate.
//!
//! ```text
//! perfdiff <baseline.json> <current.json> [--tolerance 0.10]
//!          [--no-throughput] [--relative]
//! ```
//!
//! Exit status: 0 when the gate passes, 1 on a regression or a missing
//! baseline run, 2 on usage/IO/parse errors. `--no-throughput` restricts
//! the diff to deterministic simulated-cycle metrics (the mode used
//! against committed baselines); `--relative` normalises host-dependent
//! throughput by each artifact's geometric mean so a uniformly slower
//! CI machine doesn't trip the gate.

use rtosbench::{compare, DiffOptions, Json};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfdiff <baseline.json> <current.json> \
         [--tolerance FRACTION] [--no-throughput] [--relative]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut opts = DiffOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                let Some(t) = args.get(i).and_then(|s| s.parse::<f64>().ok()) else {
                    return usage();
                };
                if !(t.is_finite() && t >= 0.0) {
                    return usage();
                }
                opts.tolerance = t;
            }
            "--no-throughput" => opts.check_throughput = false,
            "--relative" => opts.relative = true,
            flag if flag.starts_with("--") => return usage(),
            path => paths.push(path.to_string()),
        }
        i += 1;
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return usage();
    };

    let load = |path: &str| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        Json::parse(&text).map_err(|e| format!("`{path}`: {e}"))
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfdiff: {e}");
            return ExitCode::from(2);
        }
    };

    match compare(&baseline, &current, &opts) {
        Ok(report) => {
            print!("{}", report.human());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfdiff: {e}");
            ExitCode::from(2)
        }
    }
}
