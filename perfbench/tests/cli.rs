//! Tiny-scale runs of every workload, untraced and traced, print every
//! metric `BENCHMARK.json` names, with its unit, and pass their checks.

use mknn_util::Json;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in the `key` table of BENCHMARK.json.
fn table(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(|t| t.as_arr().ok())
        .expect("metric table")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str().ok()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads(spec: &Json) -> Vec<String> {
    spec.get("workloads")
        .and_then(|t| t.as_arr().ok())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|v| v.as_str().ok())
                .unwrap()
                .to_string()
        })
        .collect()
}

/// Runs the benchmark binary; returns its exit code and stdout lines.
fn run(args: &[&str]) -> (i32, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        out.status.code().unwrap_or(-1),
        stdout.lines().map(str::to_string).collect(),
    )
}

fn check_run(workload: &str, trace: &str, expected: &[(String, String)]) {
    let (code, lines) = run(&[
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--scale",
        "tiny",
    ]);
    assert_eq!(code, 0, "{workload} trace {trace}: {lines:?}");
    let detail = Json::parse(&lines[lines.len() - 2]).expect("detail line parses");
    assert_eq!(
        detail
            .get("detail")
            .and_then(|d| d.get("pinned"))
            .and_then(|p| p.as_bool().ok()),
        Some(true),
        "{workload}: the tiny default-seed run is pinned in pins.txt"
    );
    let result = Json::parse(lines.last().unwrap()).expect("result line parses");
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").unwrap().as_bool().ok(), Some(true));
    assert!(result.get("attempted").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(result.get("failed").unwrap().as_u64().ok(), Some(0));
    let metrics = result.get("metrics").unwrap().as_obj().unwrap();
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").unwrap().as_f64().unwrap().is_finite());
            (
                name.clone(),
                m.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(got, expected, "{workload} trace {trace}");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let spec = benchmark_json();
    let expected = table(&spec, "end_to_end");
    for w in workloads(&spec) {
        check_run(&w, "0", &expected);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let spec = benchmark_json();
    let expected = table(&spec, "per_layer");
    for w in workloads(&spec) {
        check_run(&w, "1", &expected);
    }
}

#[test]
fn the_tables_match_benchmark_json() {
    let spec = benchmark_json();
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        table(&spec, "end_to_end"),
        own(&perfbench::report::END_TO_END)
    );
    assert_eq!(
        table(&spec, "per_layer"),
        own(&perfbench::report::PER_LAYER)
    );
    let names: Vec<&str> = perfbench::workload::WORKLOADS
        .iter()
        .map(|w| w.name)
        .collect();
    assert_eq!(workloads(&spec), names);
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--seed", "1"],
        &["--workload", "dknn-1m", "--trace", "2"],
        &["--workload", "dknn-1m", "--seconds", "0"],
    ] {
        let (code, lines) = run(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(lines.is_empty(), "{args:?}: {lines:?}");
    }
}
