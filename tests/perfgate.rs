//! Performance-regression gate (DESIGN.md §11): re-runs the quick
//! tail-latency campaign and diffs every deterministic metric — means,
//! maxima, the full percentile ladder and SLO miss rates — against the
//! committed baseline in `ci/perf_baseline.json` with **zero**
//! tolerance. All of those metrics are simulated-cycle figures, so any
//! delta is a behavioural change in the simulator, not host noise.
//!
//! When a change is intentional, regenerate the baseline:
//! `cargo run --release -p rtosunit-bench --bin fig_tail -- --quick`
//! then copy `results/fig_tail_quick.json` over the baseline file.

use rtosunit_suite::bench::json::Json;
use rtosunit_suite::bench::perfdiff::compare;
use rtosunit_suite::bench::tail::tail_spec;

#[test]
fn quick_tail_campaign_matches_the_committed_baseline() {
    let baseline_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/ci/perf_baseline.json"
    ))
    .expect("committed baseline exists");
    let baseline = Json::parse(&baseline_text).expect("baseline parses");

    let current = tail_spec(true).run(1).to_json();

    let report = compare(&baseline, &current).expect("artifacts are comparable");
    assert!(
        !report.deltas.is_empty(),
        "the gate must actually compare metrics"
    );
    assert!(
        report.passed(),
        "deterministic metrics drifted from ci/perf_baseline.json:\n{}",
        report.human()
    );
}
