//! `scenario-run` command-line contract: a malformed command line is a
//! usage error (exit code 2, usage line on stderr) — including the
//! `--threads` flag the sharded engine no longer has — and what the
//! binary prints is the in-process report, byte for byte up to the
//! wall-clock block.

use std::process::{Command, Output};

use shs_harness::{scenario_run_document, RunMetrics};
use slingshot_k8s::{parallel_by_name, run_fabric_scenario};

fn scenario_run(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_scenario-run");
    Command::new(bin).args(args).output().expect("spawn scenario-run")
}

/// The determinism-checked part of a `scenario-run` document.
fn up_to_run_metrics(doc: &str) -> &str {
    &doc[..doc.find("\"run_metrics\"").expect("run_metrics key")]
}

#[test]
fn malformed_command_lines_are_usage_errors() {
    for (args, reason) in [
        (&["dragonfly-1024", "--threads", "2"][..], "unknown flag --threads"),
        (&["no-such-scenario"], "unknown scenario \"no-such-scenario\""),
        (&["all", "--shards", "0"], "--shards must be >= 1"),
        (&["all", "--seed"], "--seed needs a value"),
    ] {
        let out = scenario_run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2, stderr: {stderr}");
        assert!(stderr.contains(reason), "{args:?} must say {reason:?}: {stderr}");
        assert!(stderr.contains("usage: scenario-run"), "{args:?} must print usage: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not print a report");
    }
}

#[test]
fn list_names_the_whole_library() {
    let out = scenario_run(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 21, "15 scenarios + 4 sweeps + 2 stress runs:\n{stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("dragonfly-256-trunkcut ")));
}

#[test]
fn a_sweep_prints_the_in_process_report() {
    let out = scenario_run(&["dragonfly-256-valiant", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);

    let sweep = parallel_by_name("dragonfly-256-valiant", 7).expect("library sweep");
    let report = run_fabric_scenario(&sweep, 1);
    let metrics = RunMetrics::from_run(&[], std::slice::from_ref(&report), &[], 1.0);
    let doc = scenario_run_document(&[], std::slice::from_ref(&report), &[], &metrics);
    let expected = serde_json::to_string_pretty(&doc).expect("serializes");
    assert_eq!(up_to_run_metrics(&stdout), up_to_run_metrics(&expected));
}
