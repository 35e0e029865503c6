//! Runs the whole suite at smoke size through the real binary: every
//! workload, untraced and traced, with all correctness checks and no
//! bounds.

use std::process::Command;

#[test]
fn run_all_smoke_passes_every_check() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run-all", "--smoke", "--seconds", "4", "--seed", "7"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run-all --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in [
        "kmedoids_exact",
        "kmedoids_approx",
        "serve_distinct",
        "serve_repeat",
        "serve_churn",
    ] {
        assert!(
            stdout.contains(&format!("workload={workload} ")),
            "{workload} did not run"
        );
    }
    assert!(stdout.contains("failed_ratio"));
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    assert!(out_dir.join("kmedoids_exact.trace.json").is_file());
    assert!(out_dir.join("serve_churn.trace.json").is_file());
}

#[test]
fn unknown_workload_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
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
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
