//! Self-test of the benchmark: every workload, run for one second in both
//! modes, prints exactly the metrics `BENCHMARK.json` names for that mode
//! (with their units) and passes its output checks.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use llc_sharing::json::{self, Value};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
}

/// `(name, unit)` of every entry of one metric list in `BENCHMARK.json`.
fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.field(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.field(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric_and_checks_out() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = doc
        .field("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.field("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
                .current_dir(repo_root())
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} trace={trace}: {stdout}");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the result line is JSON");
            assert_eq!(
                result.field("correct"),
                Some(&Value::Bool(true)),
                "{workload} trace={trace}: {stdout}"
            );
            assert_eq!(result.field("failed").and_then(Value::as_u64), Some(0));
            assert!(result.field("attempted").and_then(Value::as_u64) >= Some(1));
            let Some(Value::Object(metrics)) = result.field("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.field("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut want = declared(&doc, list);
            want.sort();
            got.sort();
            assert_eq!(got, want, "{workload} trace={trace}");
            if trace == "0" {
                for (name, m) in metrics {
                    let Some(&Value::Num(v)) = m.field("value") else {
                        panic!("{workload}: {name} has no numeric value");
                    };
                    assert!(v > 0.0, "{workload}: end-to-end {name} = {v}");
                }
            }
        }
    }
}
