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
//!
//! `perfdiff` compares the latency summaries only, so the same run also
//! pins the whole rendered v3 artifact (host fields zeroed) by length and
//! digest: counters, phase histograms and waterfall summaries included.

use rtosunit_suite::bench::json::Json;
use rtosunit_suite::bench::perfdiff::compare;
use rtosunit_suite::bench::tail::tail_spec;
use rtosunit_suite::unit::snap::fnv1a;

#[test]
fn quick_tail_campaign_matches_the_committed_baseline() {
    let baseline_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/ci/perf_baseline.json"
    ))
    .expect("committed baseline exists");
    let baseline = Json::parse(&baseline_text).expect("baseline parses");

    let mut campaign = tail_spec(true).run(1);
    let current = campaign.to_json();

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

    // Host wall time and worker count are the artifact's only
    // host-dependent fields.
    campaign.host_nanos = 0;
    campaign.workers = 0;
    for o in &mut campaign.outcomes {
        o.host_nanos = 0;
    }
    let rendered = campaign.to_json().render();
    assert_eq!(rendered.len(), 88249, "v3 artifact length drifted");
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        0x7b57_3564_0971_c96c,
        "v3 artifact bytes drifted"
    );
}
