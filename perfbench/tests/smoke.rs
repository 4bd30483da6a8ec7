//! Smoke test: a shortened run (`--smoke`: a few cells of each shape, one
//! pass) of every workload in BENCHMARK.json, untraced and traced. Each
//! must pass its output checks and print exactly the metrics, with the
//! units, that BENCHMARK.json declares.

use rtosbench::Json;
use std::process::{Command, Output};

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {value:?}"))
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench starts")
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    let doc = benchmark();
    for workload in list(&doc, "workloads") {
        let workload = text(workload, "name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perfbench(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the result line is JSON");
            let keys: Vec<&str> = match &result {
                Json::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("result is not an object: {other:?}"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));

            let Some(Json::Object(metrics)) = result.get("metrics") else {
                panic!("no metrics object in {last}");
            };
            let printed: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{name} has no finite value"
                    );
                    (name.as_str(), text(m, "unit"))
                })
                .collect();
            let declared: Vec<(&str, &str)> = list(&doc, section)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect();
            assert_eq!(printed, declared, "{workload} trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "fig9_matrix", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
