//! The tail-campaign pin (DESIGN.md §11): re-runs the quick tail-latency
//! campaign and asserts that its rendered v3 artifact, with the three
//! host-dependent fields zeroed, equals `ci/perf_baseline.json` byte for
//! byte. Every other field is a simulated-cycle figure or a simulator
//! counter — latencies, the percentile ladder, SLO miss rates, counters,
//! phase histograms and waterfall summaries — so any difference is a
//! behavioural change in the simulator, not host noise.
//!
//! On a mismatch the test names the first differing line and the run it
//! belongs to, and writes the actual render to the git-ignored
//! `results/perf_baseline.json`. When the change is intended, copy that
//! file over `ci/perf_baseline.json`: the diff of the pin then shows
//! exactly which numbers moved.

use rtosunit_suite::bench::tail::tail_spec;

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/perf_baseline.json");
const ACTUAL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/perf_baseline.json");

#[test]
fn quick_tail_campaign_matches_the_committed_baseline() {
    let mut campaign = tail_spec(true).run(1);
    // Host wall time and worker count are the artifact's only
    // host-dependent fields.
    campaign.host_nanos = 0;
    campaign.workers = 0;
    for o in &mut campaign.outcomes {
        o.host_nanos = 0;
    }
    let rendered = campaign.to_json().render();
    let baseline = std::fs::read_to_string(BASELINE).expect("committed baseline exists");
    if rendered == baseline {
        return;
    }
    let written = std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
        .and_then(|()| std::fs::write(ACTUAL, &rendered));
    let next = match written {
        Ok(()) => "the actual render is in results/perf_baseline.json; \
                   if the change is intended, copy it over ci/perf_baseline.json"
            .to_string(),
        Err(e) => format!("the actual render could not be written to {ACTUAL}: {e}"),
    };
    panic!(
        "the quick tail campaign drifted from ci/perf_baseline.json at {}\n{next}",
        first_difference(&baseline, &rendered)
    );
}

/// The first line where `expected` and `actual` differ: its number, the
/// part of the artifact it lies in (the run whose `"label"` is the
/// nearest above it, or the aggregate) and both versions of the line.
fn first_difference(expected: &str, actual: &str) -> String {
    let (mut expected_lines, mut actual_lines) = (expected.lines(), actual.lines());
    let mut place = "the campaign header".to_string();
    let mut n = 0;
    loop {
        n += 1;
        let (e, a) = (expected_lines.next(), actual_lines.next());
        if e != a {
            return format!(
                "line {n}, in {place}:\n  baseline: {}\n  actual:   {}",
                excerpt(e, a),
                excerpt(a, e)
            );
        }
        let Some(line) = e else {
            return "no line: the two differ only in line endings".to_string();
        };
        if let Some(label) = line.trim_start().strip_prefix("\"label\": ") {
            place = format!("run {}", label.trim_end_matches(','));
        } else if line.starts_with("  \"aggregate\"") {
            place = "the aggregate".to_string();
        }
    }
}

/// `line` from 40 bytes before where it first differs from `other`, cut
/// to 120 characters; `(end of file)` when there is no line.
fn excerpt(line: Option<&str>, other: Option<&str>) -> String {
    let Some(line) = line else {
        return "(end of file)".to_string();
    };
    let same = line
        .bytes()
        .zip(other.unwrap_or("").bytes())
        .take_while(|(a, b)| a == b)
        .count();
    let mut start = same.saturating_sub(40);
    while !line.is_char_boundary(start) {
        start -= 1;
    }
    let shown: String = line[start..].chars().take(120).collect();
    format!("{}{shown}", if start > 0 { "..." } else { "" })
}
