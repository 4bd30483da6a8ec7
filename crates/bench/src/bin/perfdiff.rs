//! Compares the simulated metrics of two campaign JSON artifacts — the CI
//! regression gate.
//!
//! ```text
//! perfdiff <baseline.json> <current.json>
//! ```
//!
//! Exit status: 0 when the gate passes, 1 when any metric got worse or a
//! baseline run is missing, 2 on usage/IO/parse errors and when either
//! document has no `runs` array or the baseline has no gated metric (an
//! emptied baseline never passes). Every compared metric is a
//! simulated-cycle figure, so the gate has zero tolerance.

use rtosbench::{compare, Json};
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Json::parse(&text).map_err(|e| format!("`{path}`: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: perfdiff <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    match load(baseline_path).and_then(|baseline| compare(&baseline, &load(current_path)?)) {
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
