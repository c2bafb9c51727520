//! One smoke pass per workload and trace mode, through the built binary
//! (each in its own process, as the driver runs them): the run succeeds,
//! its last line is the result object the contract describes, and the
//! metric names are exactly the lists of `BENCHMARK.json`.

use std::process::Command;

fn contract_names(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    // The file lists one `{"name": "...", ...}` object per line under
    // each key; no JSON crate resolves offline, and the binary's own
    // parser is private to it.
    let mut names = Vec::new();
    let mut inside = false;
    for line in text.lines() {
        if line.trim_start().starts_with(&format!("\"{list}\"")) {
            inside = true;
        } else if inside && line.trim_start().starts_with(']') {
            break;
        } else if inside {
            let rest = line
                .split("\"name\": \"")
                .nth(1)
                .expect("one named object per line");
            names.push(rest.split('"').next().expect("closing quote").to_string());
        }
    }
    assert!(!names.is_empty(), "{list} is listed in BENCHMARK.json");
    names
}

/// Names of the `metrics` object on a result line, in order.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = result
        .split("\"metrics\": {")
        .nth(1)
        .expect("result has metrics");
    metrics
        .split("\": {\"value\"")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(str::to_string)
        .collect()
}

fn smoke(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("SMOKE RUN"),
        "smoke numbers are flagged meaningless"
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_emits_exactly_the_contract_metrics() {
    let end_to_end = contract_names("end_to_end");
    let per_layer = contract_names("per_layer");
    for workload in contract_names("workloads") {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = smoke(&workload, trace);
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {result}"
            );
            assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
            assert_eq!(
                &metric_names(&result),
                expected,
                "{workload} --trace {trace}"
            );
        }
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
