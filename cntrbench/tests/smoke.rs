//! Self-test of the benchmark: every workload at a tiny size, in its own
//! process, exactly as the benchmark command runs it.
//!
//! Run with `cargo test --release --manifest-path cntrbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "attach-churn",
    "plane-stream",
    "tools-read",
    "writeback-spill",
];

struct Run {
    exit_ok: bool,
    stdout: String,
}

impl Run {
    /// The result object: the last line of stdout.
    fn result(&self) -> &str {
        self.stdout.lines().last().unwrap_or_default()
    }

    fn correct(&self) -> bool {
        self.result().starts_with("{\"correct\": true,")
    }

    /// The inputs digest the benchmark prints with its summary.
    fn digest(&self) -> String {
        let line = self
            .stdout
            .lines()
            .find(|l| l.contains("inputs digest"))
            .expect("summary line");
        let after = &line[line.find("inputs digest ").expect("digest") + 14..];
        after[..16].to_string()
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_cntrbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run cntrbench");
    Run {
        exit_ok: out.status.success(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 output"),
    }
}

/// `(name, unit)` of every metric in one list of BENCHMARK.json.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{list}\""))
        .expect("list in BENCHMARK.json");
    let body = &json[start..json[start..].find(']').expect("list end") + start];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("value") + 1;
                let close = rest[open..].find('"').expect("value end") + open;
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Asserts the result line reports every declared metric with its unit
/// and a numeric value.
fn assert_reports(run: &Run, metrics: &[(String, String)]) {
    let result = run.result();
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {result}"))
            + key.len();
        let rest = &result[at..];
        let value = &rest[..rest.find(',').expect("value end")];
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{name}: {value} is not a number"));
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
            "{name} should be in {unit}: {rest}"
        );
    }
}

#[test]
fn every_workload_passes_its_oracle_and_prints_every_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let mut failures = vec![];
    for workload in WORKLOADS {
        for (trace, metrics) in [(false, &end_to_end), (true, &per_layer)] {
            let r = run(workload, 1, trace);
            assert_reports(&r, metrics);
            if !(r.exit_ok && r.correct()) {
                failures.push(format!("{workload} (trace {trace})"));
            }
        }
    }
    assert!(failures.is_empty(), "oracle failed: {failures:?}");
}

#[test]
fn seed_changes_inputs_but_not_the_outcome() {
    for workload in WORKLOADS {
        let a = run(workload, 1, false);
        let again = run(workload, 1, false);
        let b = run(workload, 2, false);
        assert_eq!(a.digest(), again.digest(), "{workload}: same seed");
        assert_ne!(a.digest(), b.digest(), "{workload}: different seeds");
        assert_eq!(a.correct(), b.correct(), "{workload}: outcome");
        assert_eq!(a.exit_ok, b.exit_ok, "{workload}: exit status");
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_cntrbench"))
        .args(["--workload", "no-such", "--seed", "1", "--seconds", "1"])
        .output()
        .expect("run cntrbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
