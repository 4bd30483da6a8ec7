//! Output checks against reference executions: sampled single-hart cells
//! rerun on the cycle-by-cycle loop, and sampled rewinds compared with a
//! cold run stopped at the same cycle.

use crate::cell::{self, CellResult};
use crate::workload::{Cells, Inputs, TRAVEL_INTERVAL};
use rvsim_check::TimeTravel;

/// Runs the seeded sample of checks; returns one message per mismatch.
pub fn sampled(inputs: &Inputs, reference: &[Option<CellResult>]) -> Vec<String> {
    let mut failures = Vec::new();
    for &(i, r) in &inputs.samples {
        let outcome = match &inputs.cells {
            Cells::Campaign(spec) => {
                let run = &spec.runs[i];
                stepwise_matches(run, run.slo.or(spec.slo), reference[i].as_ref())
                    .map_err(|e| format!("{}: stepwise: {e}", run.label()))
            }
            Cells::Travel(cells) => {
                let c = &cells[i];
                rewind_matches_cold(&c.run, c.targets[r])
                    .map_err(|e| format!("{}: rewind to {}: {e}", c.run.label(), c.targets[r]))
            }
        };
        if let Err(e) = outcome {
            failures.push(e);
        }
    }
    failures
}

fn stepwise_matches(
    run: &rtosbench::campaign::RunSpec,
    slo: Option<u64>,
    reference: Option<&CellResult>,
) -> Result<(), String> {
    let reference = reference.ok_or("no batched result to compare")?;
    cell::drive_stepwise(run, slo)?.same_outputs(reference)
}

/// A rewound fork must render its full state snapshot byte-identically
/// to a cold run stopped at the same cycle.
fn rewind_matches_cold(run: &rtosbench::campaign::RunSpec, target: u64) -> Result<(), String> {
    let image = cell::build_image(run)?;
    let irqs = cell::irq_schedule(run);
    let mut tt = TimeTravel::new(cell::new_system(run, &image, &irqs)?, TRAVEL_INTERVAL);
    tt.run(cell::run_cycles(run));
    let rewound = tt.rewind(target)?;
    let mut cold = cell::new_system(run, &image, &irqs)?;
    cold.run(target);
    if rewound.state_snap().render() != cold.state_snap().render() {
        return Err("state differs from the cold run".into());
    }
    Ok(())
}
