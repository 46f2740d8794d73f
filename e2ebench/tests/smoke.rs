//! Smoke test: the three workload shapes on c17/c432-like circuits, in
//! seconds. Every run must pass its output checks (and, traced, replay
//! every served response byte for byte) and print exactly the metric
//! names `BENCHMARK.json` declares for its mode.

use std::process::Command;

/// The `name`s listed in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_owned()
        })
        .collect()
}

#[test]
fn every_workload_shape_passes_its_checks_and_reports_every_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = declared(section);
        assert!(!names.is_empty());
        for workload in declared("workloads") {
            let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
                .args(["--workload", &workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} trace={trace}: {stderr}");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\":true,") && last.contains("\"failed\":0,"),
                "{workload} trace={trace}: {last}\n{stderr}"
            );
            for name in &names {
                assert!(
                    last.contains(&format!("\"{name}\":{{\"value\":")),
                    "{workload} trace={trace}: metric `{name}` missing"
                );
            }
            assert_eq!(last.matches("{\"value\":").count(), names.len(), "{last}");
            for context in ["nproc=", "profile=", "commit=", "seed=7", "latency samples"] {
                assert!(
                    stdout.contains(context),
                    "{workload}: context `{context}` missing"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "c6288_flow", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
