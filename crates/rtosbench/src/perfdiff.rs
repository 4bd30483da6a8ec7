//! Artifact-level performance comparison — the CI regression gate.
//!
//! [`compare`] diffs two machine-readable artifacts produced by this
//! repo — campaign JSON (`rtosunit-campaign-v1`/`v3`) or benchmark JSON
//! (`rtosunit-bench-v1`) — and reports per-metric deltas against a
//! configurable tolerance. Runs are matched by label (campaigns) or
//! benchmark name (bench groups), so reordering never produces spurious
//! diffs; baseline runs missing from the current artifact fail the gate
//! (a silently dropped benchmark is a regression too).
//!
//! Metrics split into two classes:
//!
//! * **Deterministic** (simulated-cycle latencies: mean, max,
//!   percentiles, SLO miss rate) — identical on every host, so the gate
//!   can run with a near-zero tolerance against a committed baseline.
//! * **Host** (`units_per_second`, `ns_per_iter`, campaign throughput) —
//!   machine-dependent. [`DiffOptions::relative`] normalises each value
//!   by the geometric mean of its metric across the same artifact, so
//!   the gate tracks *relative* shifts (one benchmark regressing against
//!   its siblings) and stays meaningful when the baseline was recorded
//!   on different hardware. [`DiffOptions::check_throughput`] = `false`
//!   skips host metrics entirely (the deterministic-latency gate).

use crate::json::Json;

/// Gate configuration.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Allowed fractional change for the worse before a metric counts as
    /// a regression (0.10 = 10%).
    pub tolerance: f64,
    /// Compare host-dependent metrics (wall-clock throughput). Disable
    /// for a deterministic gate on committed baselines.
    pub check_throughput: bool,
    /// Normalise host metrics by the geometric mean of the same metric
    /// within each artifact before diffing (cross-machine comparisons).
    pub relative: bool,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            tolerance: 0.10,
            check_throughput: true,
            relative: false,
        }
    }
}

/// Whether a bigger value is better or worse for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Run label (campaign) or benchmark name (bench group).
    pub run: String,
    /// Metric name (`mean`, `p99`, `units_per_second`, ...).
    pub metric: String,
    /// Baseline value (after optional normalisation).
    pub baseline: f64,
    /// Current value (after optional normalisation).
    pub current: f64,
    /// Signed fractional change *for the worse*: positive means the
    /// current artifact regressed (slower / higher latency), negative
    /// means it improved.
    pub worse: f64,
    /// `worse > tolerance`.
    pub regression: bool,
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every matched metric, in baseline order.
    pub deltas: Vec<MetricDelta>,
    /// Baseline runs absent from the current artifact (gate failure).
    pub missing: Vec<String>,
    /// Current runs absent from the baseline (informational).
    pub added: Vec<String>,
    /// The tolerance the deltas were judged against.
    pub tolerance: f64,
}

impl DiffReport {
    /// Metrics that regressed beyond the tolerance.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.regression)
    }

    /// Gate verdict: no regressions and no baseline run went missing.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.regressions().next().is_none()
    }

    /// Human-readable table (stdout of the `perfdiff` bin).
    pub fn human(&self) -> String {
        let mut out = format!(
            "{:<44} {:<18} {:>14} {:>14} {:>9}\n",
            "run", "metric", "baseline", "current", "delta"
        );
        for d in &self.deltas {
            out.push_str(&format!(
                "{:<44} {:<18} {:>14.3} {:>14.3} {:>+8.2}%{}\n",
                d.run,
                d.metric,
                d.baseline,
                d.current,
                d.worse * 100.0,
                if d.regression { "  REGRESSION" } else { "" },
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("MISSING from current artifact: {m}\n"));
        }
        for a in &self.added {
            out.push_str(&format!("new in current artifact: {a}\n"));
        }
        out.push_str(&format!(
            "verdict: {} ({} metrics, {} regressions beyond {:.1}%, {} missing)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.deltas.len(),
            self.regressions().count(),
            self.tolerance * 100.0,
            self.missing.len(),
        ));
        out
    }
}

/// One extracted `(run, metric)` measurement.
struct Row {
    run: String,
    metric: &'static str,
    direction: Direction,
    host: bool,
    value: f64,
}

/// Compares two artifacts. Both must be the same *kind* (campaign or
/// bench); campaign schema versions may differ — v1 baselines gate v3
/// artifacts on their shared metrics.
///
/// # Errors
///
/// Returns a message when either document lacks a recognised `schema`
/// or the kinds differ.
pub fn compare(baseline: &Json, current: &Json, opts: &DiffOptions) -> Result<DiffReport, String> {
    let bk = artifact_kind(baseline)?;
    let ck = artifact_kind(current)?;
    if bk != ck {
        return Err(format!(
            "artifact kinds differ: baseline is {bk}, current is {ck}"
        ));
    }
    let mut base_rows = extract(baseline, bk);
    let mut cur_rows = extract(current, ck);
    if !opts.check_throughput {
        base_rows.retain(|r| !r.host);
        cur_rows.retain(|r| !r.host);
    } else if opts.relative {
        normalise(&mut base_rows);
        normalise(&mut cur_rows);
    }

    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for b in &base_rows {
        match cur_rows
            .iter()
            .find(|c| c.run == b.run && c.metric == b.metric)
        {
            Some(c) => {
                let worse = worse_fraction(b, c.value);
                deltas.push(MetricDelta {
                    run: b.run.clone(),
                    metric: b.metric.to_string(),
                    baseline: b.value,
                    current: c.value,
                    worse,
                    regression: worse > opts.tolerance,
                });
            }
            None => missing.push(format!("{} :: {}", b.run, b.metric)),
        }
    }
    let added = cur_rows
        .iter()
        .filter(|c| {
            !base_rows
                .iter()
                .any(|b| b.run == c.run && b.metric == c.metric)
        })
        .map(|c| format!("{} :: {}", c.run, c.metric))
        .collect();
    Ok(DiffReport {
        deltas,
        missing,
        added,
        tolerance: opts.tolerance,
    })
}

/// Signed fractional change for the worse, guarding zero baselines (a
/// zero→zero metric is unchanged; zero→nonzero latency is judged
/// against a baseline of 1 to stay finite).
fn worse_fraction(b: &Row, current: f64) -> f64 {
    let base = if b.value == 0.0 { 1.0 } else { b.value };
    match b.direction {
        Direction::LowerIsBetter => (current - b.value) / base,
        Direction::HigherIsBetter => (b.value - current) / base,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Campaign,
    Bench,
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kind::Campaign => "campaign",
            Kind::Bench => "bench",
        })
    }
}

fn artifact_kind(doc: &Json) -> Result<Kind, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s.starts_with("rtosunit-campaign-") => Ok(Kind::Campaign),
        Some(s) if s.starts_with("rtosunit-bench-") => Ok(Kind::Bench),
        Some(s) => Err(format!("unrecognised artifact schema `{s}`")),
        None => Err("document carries no `schema` field".to_string()),
    }
}

fn extract(doc: &Json, kind: Kind) -> Vec<Row> {
    match kind {
        Kind::Campaign => extract_campaign(doc),
        Kind::Bench => extract_bench(doc),
    }
}

fn extract_campaign(doc: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    let runs = doc.get("runs").and_then(Json::as_array).unwrap_or(&[]);
    let mut total_cycles = 0.0;
    for run in runs {
        let Some(label) = run.get("label").and_then(Json::as_str) else {
            continue;
        };
        let Some(sim) = run.get("sim").filter(|s| !matches!(s, Json::Null)) else {
            continue;
        };
        if let Some(c) = sim.get("cycles").and_then(Json::as_f64) {
            total_cycles += c;
        }
        let mut det = |metric: &'static str, value: Option<f64>| {
            if let Some(v) = value {
                rows.push(Row {
                    run: label.to_string(),
                    metric,
                    direction: Direction::LowerIsBetter,
                    host: false,
                    value: v,
                });
            }
        };
        det("mean", sim.get("mean").and_then(Json::as_f64));
        det("max", sim.get("max").and_then(Json::as_f64));
        // v3 telemetry: percentiles and the SLO miss rate.
        let pcts = sim
            .get("latency_hist")
            .and_then(|h| h.get("latency"))
            .and_then(|l| l.get("percentiles"));
        if let Some(Json::Object(pairs)) = pcts {
            for (name, v) in pairs {
                if let (Some(v), Some(name)) = (v.as_f64(), percentile_name(name)) {
                    det(name, Some(v));
                }
            }
        }
        det(
            "slo_miss_rate",
            sim.get("latency_hist")
                .and_then(|h| h.get("slo"))
                .and_then(|s| s.get("miss_rate"))
                .and_then(Json::as_f64),
        );
    }
    // Host throughput: simulated cycles per host second, v3 docs only.
    if let Some(nanos) = doc.get("host_nanos").and_then(Json::as_f64) {
        if nanos > 0.0 && total_cycles > 0.0 {
            rows.push(Row {
                run: "<campaign>".to_string(),
                metric: "cycles_per_second",
                direction: Direction::HigherIsBetter,
                host: true,
                value: total_cycles / (nanos / 1e9),
            });
        }
    }
    rows
}

/// Interns a percentile key to the static names [`MetricDelta`] uses —
/// unknown keys are skipped rather than invented.
fn percentile_name(name: &str) -> Option<&'static str> {
    rtosunit::hist::REPORTED_PERCENTILES
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
}

fn extract_bench(doc: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    for b in benches {
        let Some(name) = b.get("name").and_then(Json::as_str) else {
            continue;
        };
        if let Some(rate) = b.get("units_per_second").and_then(Json::as_f64) {
            rows.push(Row {
                run: name.to_string(),
                metric: "units_per_second",
                direction: Direction::HigherIsBetter,
                host: true,
                value: rate,
            });
        } else if let Some(ns) = b.get("ns_per_iter").and_then(Json::as_f64) {
            rows.push(Row {
                run: name.to_string(),
                metric: "ns_per_iter",
                direction: Direction::LowerIsBetter,
                host: true,
                value: ns,
            });
        }
    }
    rows
}

/// Divides each host metric by the geometric mean of the same metric
/// across the artifact, making the values host-speed-invariant ratios.
fn normalise(rows: &mut [Row]) {
    let metrics: Vec<&'static str> = {
        let mut m: Vec<&'static str> = rows.iter().filter(|r| r.host).map(|r| r.metric).collect();
        m.dedup();
        m
    };
    for metric in metrics {
        let logs: Vec<f64> = rows
            .iter()
            .filter(|r| r.host && r.metric == metric && r.value > 0.0)
            .map(|r| r.value.ln())
            .collect();
        if logs.is_empty() {
            continue;
        }
        let geomean = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
        for r in rows
            .iter_mut()
            .filter(|r| r.host && r.metric == metric && r.value > 0.0)
        {
            r.value /= geomean;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign_doc(mean: f64, max: u64) -> Json {
        Json::object()
            .with("schema", "rtosunit-campaign-v1")
            .with("campaign", "t")
            .with(
                "runs",
                vec![Json::object().with("label", "a/b/c").with(
                    "sim",
                    Json::object()
                        .with("cycles", 1000u64)
                        .with("mean", mean)
                        .with("max", max),
                )],
            )
    }

    fn bench_doc(rates: &[(&str, f64)]) -> Json {
        Json::object()
            .with("schema", "rtosunit-bench-v1")
            .with("group", "g")
            .with(
                "benchmarks",
                rates
                    .iter()
                    .map(|(name, r)| {
                        Json::object()
                            .with("name", *name)
                            .with("ns_per_iter", 10.0)
                            .with("units_per_second", *r)
                    })
                    .collect::<Vec<_>>(),
            )
    }

    #[test]
    fn identical_campaigns_pass() {
        let r = compare(
            &campaign_doc(70.0, 90),
            &campaign_doc(70.0, 90),
            &DiffOptions::default(),
        )
        .expect("compare");
        assert!(r.passed());
        assert_eq!(r.deltas.len(), 2);
        assert!(r.deltas.iter().all(|d| d.worse == 0.0));
    }

    #[test]
    fn latency_increase_beyond_tolerance_fails() {
        let r = compare(
            &campaign_doc(70.0, 90),
            &campaign_doc(80.0, 90),
            &DiffOptions {
                tolerance: 0.10,
                ..DiffOptions::default()
            },
        )
        .expect("compare");
        assert!(!r.passed());
        let reg: Vec<_> = r.regressions().collect();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].metric, "mean");
        // A latency *decrease* is an improvement, never a regression.
        let better = compare(
            &campaign_doc(70.0, 90),
            &campaign_doc(40.0, 50),
            &DiffOptions::default(),
        )
        .expect("compare");
        assert!(better.passed());
        assert!(better.deltas.iter().all(|d| d.worse < 0.0));
    }

    #[test]
    fn missing_baseline_run_fails_the_gate() {
        let mut cur = campaign_doc(70.0, 90);
        if let Json::Object(pairs) = &mut cur {
            pairs.retain(|(k, _)| k != "runs");
        }
        cur.push("runs", Vec::<Json>::new());
        let r = compare(&campaign_doc(70.0, 90), &cur, &DiffOptions::default()).expect("compare");
        assert!(!r.passed());
        assert_eq!(r.missing.len(), 2);
    }

    #[test]
    fn throughput_drop_is_a_regression_and_relative_mode_ignores_uniform_slowdowns() {
        let base = bench_doc(&[("x", 100.0), ("y", 200.0)]);
        // One benchmark slows 40%: absolute and relative both fail.
        let skewed = bench_doc(&[("x", 60.0), ("y", 200.0)]);
        for relative in [false, true] {
            let r = compare(
                &base,
                &skewed,
                &DiffOptions {
                    relative,
                    ..DiffOptions::default()
                },
            )
            .expect("compare");
            assert!(!r.passed(), "relative={relative} must catch the skew");
        }
        // The whole host is 40% slower: absolute fails, relative passes.
        let uniform = bench_doc(&[("x", 60.0), ("y", 120.0)]);
        let abs = compare(&base, &uniform, &DiffOptions::default()).expect("compare");
        assert!(!abs.passed());
        let rel = compare(
            &base,
            &uniform,
            &DiffOptions {
                relative: true,
                ..DiffOptions::default()
            },
        )
        .expect("compare");
        assert!(rel.passed(), "uniform slowdown is host speed, not code");
    }

    #[test]
    fn deterministic_gate_skips_host_metrics() {
        let base = bench_doc(&[("x", 100.0)]);
        let slow = bench_doc(&[("x", 10.0)]);
        let r = compare(
            &base,
            &slow,
            &DiffOptions {
                check_throughput: false,
                ..DiffOptions::default()
            },
        )
        .expect("compare");
        assert!(r.passed());
        assert!(r.deltas.is_empty());
    }

    #[test]
    fn mismatched_kinds_are_an_error() {
        let e = compare(
            &campaign_doc(1.0, 1),
            &bench_doc(&[("x", 1.0)]),
            &DiffOptions::default(),
        )
        .expect_err("kinds differ");
        assert!(e.contains("kinds differ"), "{e}");
    }

    #[test]
    fn report_renders_human_and_json() {
        let r = compare(
            &campaign_doc(70.0, 90),
            &campaign_doc(80.0, 90),
            &DiffOptions::default(),
        )
        .expect("compare");
        let human = r.human();
        assert!(human.contains("REGRESSION"));
        assert!(human.contains("verdict: FAIL"));
    }
}
