//! Self-tests of the benchmark: every declared metric is printed with its
//! unit on every workload, a non-default seed passes the output check,
//! and the output check catches a perturbed cell.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::bench::{check_campaign, Report};
use perfbench::workload::{Kind, Workload, DEFAULT_SEED};
use rtosbench::{Json, WorkloadSpec};
use std::process::Command;

/// `(name, unit)` of every metric of `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark binary and returns its parsed result line.
fn run(kind: Kind, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{}: {stdout}", kind.name());
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

fn assert_prints(kind: Kind, seed: u64, trace: bool, section: &str) {
    let result = run(kind, seed, trace);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{} seed {seed} trace {trace} failed its output check",
        kind.name()
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let metrics = result.get("metrics").expect("metrics object");
    let declared = declared(section);
    for (name, unit) in &declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{}: `{name}` not printed", kind.name()));
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
    }
    let Json::Object(printed) = metrics else {
        panic!("metrics is not an object");
    };
    assert_eq!(
        printed.len(),
        declared.len(),
        "{}: undeclared metrics printed",
        kind.name()
    );
}

#[test]
fn every_declared_metric_is_printed_on_every_workload() {
    for kind in Kind::ALL {
        assert_prints(kind, DEFAULT_SEED, false, "end_to_end");
        // A held-out seed through the output check, in the traced run.
        assert_prints(kind, 7, true, "per_layer");
    }
}

#[test]
fn a_shortened_cycle_budget_fails_the_output_check() {
    let wl = Workload::new(Kind::SmpContention, DEFAULT_SEED);
    let mut spec = wl.setup().expect("set-up");
    let mut clean = Report::new();
    check_campaign(wl.kind, wl.seed, &mut spec.run(1), None, &mut clean).expect("check");
    assert!(clean.correct);
    assert_eq!(clean.failed_frac(), 0.0);

    let WorkloadSpec::Suite(w) = spec.runs[3].workload else {
        panic!("smp_contention runs suite workloads");
    };
    spec.runs[3].workload = WorkloadSpec::Suite(rtosbench::Workload {
        run_cycles: w.run_cycles - 1_000,
        ..w
    });
    let mut report = Report::new();
    check_campaign(wl.kind, wl.seed, &mut spec.run(1), None, &mut report).expect("check");
    assert!(!report.correct);
    assert_eq!(report.failed, 1, "exactly the perturbed cell fails");
    assert!(report.failed_frac() > 0.0);
}
