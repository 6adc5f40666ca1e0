//! Smoke size of every workload: each run takes seconds, must print every
//! named metric with its unit, and must pass every output check.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::catalog::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::Workload;

/// The checkout root: the benchmark runs from there.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// The value of `name` in a result line, if printed with `unit`.
fn metric(line: &str, def: &MetricDef) -> Option<f64> {
    let prefix = format!("\"{}\": {{\"value\": ", def.name);
    let rest = &line[line.find(&prefix)? + prefix.len()..];
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    rest.starts_with(&format!("{}\"}}", def.unit))
        .then(|| value.parse().ok())
        .flatten()
}

fn smoke(workload: Workload, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} trace={trace} failed: {}\n{stdout}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{line}");
    let defs = if trace { PER_LAYER } else { END_TO_END };
    for def in defs {
        let value = metric(line, def)
            .unwrap_or_else(|| panic!("{} missing or without unit {}: {line}", def.name, def.unit));
        assert!(value.is_finite());
        if !trace {
            assert!(value > 0.0, "end-to-end metric {} reads 0", def.name);
        }
    }
    assert_eq!(line.matches("\"unit\": ").count(), defs.len(), "{line}");
}

#[test]
fn plan_paper6_smoke() {
    smoke(Workload::PlanPaper6, false);
    smoke(Workload::PlanPaper6, true);
}

#[test]
fn serve_cold_smoke() {
    smoke(Workload::ServeCold, false);
    smoke(Workload::ServeCold, true);
}

#[test]
fn fleet_warm_smoke() {
    smoke(Workload::FleetWarm, false);
    smoke(Workload::FleetWarm, true);
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
