//! Drives the real `sysbench` binary over every workload at `--smoke`
//! scale (1/50 of the work, as few repeats as the protocol allows):
//! the output schema, the names `BENCHMARK.json` pins, exact
//! repeatability of everything deterministic, and the `--agree` tool.
//!
//! Run with `cargo test --release --manifest-path sysbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

use serde_json::Value;

fn sysbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sysbench"))
        .args(args)
        .output()
        .expect("sysbench runs")
}

fn pinned() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON")
}

fn names(list: &Value) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = list
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let unit = m["unit"].as_str().unwrap_or_default().to_string();
            (m["name"].as_str().expect("a name").to_string(), unit)
        })
        .collect();
    v.sort();
    v
}

/// `(name, unit)` of every metric a result object printed.
fn printed(metrics: &Value) -> Vec<(String, String)> {
    metrics
        .as_object()
        .expect("metrics is an object")
        .iter()
        .map(|(k, v)| {
            assert!(
                v["value"].as_f64().is_some_and(f64::is_finite),
                "{k} is a finite number"
            );
            (k.clone(), v["unit"].as_str().expect("a unit").to_string())
        })
        .collect()
}

/// One `--all --smoke` pass, written to `file` under the test tmpdir.
fn result_set(file: &str) -> (PathBuf, Value) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    let out = sysbench(&[
        "--all",
        "--smoke",
        "--seed",
        "7",
        "--seconds",
        "0",
        "--out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "--all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = serde_json::from_str(&std::fs::read_to_string(&path).expect("result set written"))
        .expect("result set is JSON");
    (path, doc)
}

#[test]
fn result_sets_print_the_pinned_names_and_repeat_exactly() {
    let pinned = pinned();
    let (a_path, a) = result_set("smoke_a.json");
    let (b_path, _) = result_set("smoke_b.json");

    let workloads = a["workloads"].as_array().expect("workloads");
    let printed_names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    let pinned_names: Vec<&str> = pinned["workloads"]
        .as_array()
        .expect("pinned workloads")
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    assert_eq!(printed_names, pinned_names);

    for w in workloads {
        let name = w["name"].as_str().expect("name");
        let mut end_to_end = printed(&w["end_to_end"]);
        end_to_end.sort();
        assert_eq!(
            end_to_end,
            names(&pinned["end_to_end"]),
            "{name}: end-to-end names and units"
        );
        assert!(
            end_to_end
                .iter()
                .all(|(k, _)| w["end_to_end"][k.as_str()]["value"].as_f64() > Some(0.0)),
            "{name}: end-to-end metrics are never 0"
        );
        let mut per_layer = printed(&w["per_layer"]);
        per_layer.sort();
        assert_eq!(
            per_layer,
            names(&pinned["per_layer"]),
            "{name}: per-layer names and units"
        );
        for key in ["end_to_end_result", "per_layer_result"] {
            let r = w[key].as_object().expect("a result object");
            let keys: Vec<&str> = r.keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{name} {key}"
            );
            assert_eq!(r["correct"].as_bool(), Some(true), "{name} {key}");
            assert_eq!(r["failed"].as_u64(), Some(0), "{name} {key}");
            assert!(r["attempted"].as_u64() >= Some(1), "{name} {key}");
        }
        // The traced loops must reproduce the untraced digest.
        let digest = w["end_to_end_detail"]["sim_digest"]
            .as_str()
            .expect("digest");
        assert_eq!(
            w["per_layer_detail"]["sim_digest"].as_str(),
            Some(digest),
            "{name}"
        );
        assert_eq!(
            w["per_layer"]["failed_share"]["value"].as_f64(),
            Some(0.0),
            "{name}"
        );
    }
    let denied = &a["workloads"][1]["per_layer"]["cxi.cross_tenant_denied_share"]["value"];
    assert_eq!(
        denied.as_f64(),
        Some(1.0),
        "tenant-traffic denies every cross-tenant probe"
    );

    // Two passes of one seed: every digest, count and simulated figure
    // equal. Host-time rows may disagree at this scale; nothing else may.
    let out = sysbench(&[
        "--agree",
        a_path.to_str().unwrap(),
        b_path.to_str().unwrap(),
    ]);
    let rows = String::from_utf8_lossy(&out.stdout).to_string();
    for row in rows.lines().filter(|l| l.starts_with("DISAGREE")) {
        assert!(
            row.contains("apart, bound"),
            "deterministic output differed: {row}"
        );
    }

    // A changed count is a disagreement.
    let tampered = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke_tampered.json");
    let text = std::fs::read_to_string(&b_path).unwrap();
    let digest = a["workloads"][0]["end_to_end_detail"]["sim_digest"]
        .as_str()
        .unwrap();
    std::fs::write(&tampered, text.replace(digest, "0000000000000000")).unwrap();
    let out = sysbench(&[
        "--agree",
        a_path.to_str().unwrap(),
        tampered.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("sim_digest"));
}

#[test]
fn bad_invocations_exit_2_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--trace", "2"],
        &[],
    ] {
        let out = sysbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
