//! Artifact-level comparison of simulated metrics — the CI regression
//! gate.
//!
//! [`compare`] diffs two campaign artifacts (`rtosunit-campaign-v1`/`v3`)
//! run by run and metric by metric. Every metric it reads is a
//! simulated-cycle figure — mean, max, the percentile ladder and the SLO
//! miss rate — so it is identical on every host, and any change for the
//! worse is a regression: the gate has zero tolerance. Runs are matched
//! by label, so reordering never produces spurious diffs; baseline runs
//! missing from the current artifact fail the gate (a silently dropped
//! run is a regression too). Host time is not gated here; perfbench
//! measures it.

use crate::json::Json;

/// One compared metric. Every gated metric is lower-is-better.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Run label.
    pub run: String,
    /// Metric name (`mean`, `max`, `p99`, `slo_miss_rate`, ...).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed fractional change *for the worse*: positive means the
    /// current artifact regressed (higher latency or miss rate),
    /// negative means it improved.
    pub worse: f64,
}

impl MetricDelta {
    /// Whether the metric got worse at all (the gate's zero tolerance).
    pub fn is_regression(&self) -> bool {
        self.worse > 0.0
    }
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
}

impl DiffReport {
    /// Metrics that got worse.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.is_regression())
    }

    /// Gate verdict: no metric got worse and no baseline run went
    /// missing.
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
                if d.is_regression() {
                    "  REGRESSION"
                } else {
                    ""
                },
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("MISSING from current artifact: {m}\n"));
        }
        for a in &self.added {
            out.push_str(&format!("new in current artifact: {a}\n"));
        }
        out.push_str(&format!(
            "verdict: {} ({} metrics, {} regressions, {} missing)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.deltas.len(),
            self.regressions().count(),
            self.missing.len(),
        ));
        out
    }
}

/// One extracted `(run, metric)` measurement.
struct Row {
    run: String,
    metric: &'static str,
    value: f64,
}

/// Compares two campaign artifacts. Their schema versions may differ —
/// v1 baselines gate v3 artifacts on their shared metrics.
///
/// # Errors
///
/// Returns a message when either document is not a campaign artifact.
pub fn compare(baseline: &Json, current: &Json) -> Result<DiffReport, String> {
    let base_rows = extract(baseline)?;
    let cur_rows = extract(current)?;

    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for b in &base_rows {
        match cur_rows
            .iter()
            .find(|c| c.run == b.run && c.metric == b.metric)
        {
            Some(c) => deltas.push(MetricDelta {
                run: b.run.clone(),
                metric: b.metric.to_string(),
                baseline: b.value,
                current: c.value,
                worse: worse_fraction(b.value, c.value),
            }),
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
    })
}

/// Signed fractional change for the worse of a lower-is-better metric,
/// guarding zero baselines (zero→zero is unchanged; zero→nonzero is
/// judged against a baseline of 1 to stay finite).
fn worse_fraction(baseline: f64, current: f64) -> f64 {
    let base = if baseline == 0.0 { 1.0 } else { baseline };
    (current - baseline) / base
}

fn extract(doc: &Json) -> Result<Vec<Row>, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s.starts_with("rtosunit-campaign-") => {}
        Some(s) => return Err(format!("`{s}` is not a campaign artifact schema")),
        None => return Err("document carries no `schema` field".to_string()),
    }
    let mut rows = Vec::new();
    let runs = doc.get("runs").and_then(Json::as_array).unwrap_or(&[]);
    for run in runs {
        let Some(label) = run.get("label").and_then(Json::as_str) else {
            continue;
        };
        let Some(sim) = run.get("sim").filter(|s| !matches!(s, Json::Null)) else {
            continue;
        };
        let mut push = |metric: &'static str, value: Option<f64>| {
            if let Some(value) = value {
                rows.push(Row {
                    run: label.to_string(),
                    metric,
                    value,
                });
            }
        };
        push("mean", sim.get("mean").and_then(Json::as_f64));
        push("max", sim.get("max").and_then(Json::as_f64));
        // v3 telemetry: percentiles and the SLO miss rate.
        let pcts = sim
            .get("latency_hist")
            .and_then(|h| h.get("latency"))
            .and_then(|l| l.get("percentiles"));
        if let Some(Json::Object(pairs)) = pcts {
            for (name, v) in pairs {
                if let (Some(v), Some(name)) = (v.as_f64(), percentile_name(name)) {
                    push(name, Some(v));
                }
            }
        }
        push(
            "slo_miss_rate",
            sim.get("latency_hist")
                .and_then(|h| h.get("slo"))
                .and_then(|s| s.get("miss_rate"))
                .and_then(Json::as_f64),
        );
    }
    Ok(rows)
}

/// Interns a percentile key to the static names [`MetricDelta`] uses —
/// unknown keys are skipped rather than invented.
fn percentile_name(name: &str) -> Option<&'static str> {
    rtosunit::hist::REPORTED_PERCENTILES
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
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

    #[test]
    fn identical_campaigns_pass() {
        let r = compare(&campaign_doc(70.0, 90), &campaign_doc(70.0, 90)).expect("compare");
        assert!(r.passed());
        assert_eq!(r.deltas.len(), 2);
        assert!(r.deltas.iter().all(|d| d.worse == 0.0));
    }

    #[test]
    fn any_latency_increase_fails() {
        for mean in [80.0, 70.001] {
            let r = compare(&campaign_doc(70.0, 90), &campaign_doc(mean, 90)).expect("compare");
            assert!(!r.passed(), "mean 70 -> {mean} must fail");
            let reg: Vec<_> = r.regressions().collect();
            assert_eq!(reg.len(), 1);
            assert_eq!(reg[0].metric, "mean");
        }
        // A latency *decrease* is an improvement, never a regression.
        let better = compare(&campaign_doc(70.0, 90), &campaign_doc(40.0, 50)).expect("compare");
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
        let r = compare(&campaign_doc(70.0, 90), &cur).expect("compare");
        assert!(!r.passed());
        assert_eq!(r.missing.len(), 2);
    }

    #[test]
    fn non_campaign_documents_are_an_error() {
        let bench = Json::object().with("schema", "rtosunit-bench-v1");
        let e = compare(&campaign_doc(1.0, 1), &bench).expect_err("not a campaign");
        assert!(e.contains("not a campaign artifact"), "{e}");
        let e = compare(&Json::object(), &campaign_doc(1.0, 1)).expect_err("no schema");
        assert!(e.contains("no `schema`"), "{e}");
    }

    #[test]
    fn report_renders_a_human_table() {
        let r = compare(&campaign_doc(70.0, 90), &campaign_doc(80.0, 90)).expect("compare");
        let human = r.human();
        assert!(human.contains("REGRESSION"));
        assert!(human.contains("verdict: FAIL"));
    }
}
