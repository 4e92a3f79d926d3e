//! `bench-run` command-line contract: a malformed command line — and a
//! `--baseline` that cannot be gated against — is a usage error (exit
//! code 2, usage line on stderr) found before anything is timed.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bench_run(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_bench-run");
    Command::new(bin).args(args).output().expect("spawn bench-run")
}

/// A scratch file private to this test process.
fn scratch(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench_run_cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write scratch file");
    path
}

#[test]
fn malformed_command_lines_are_usage_errors() {
    let empty = scratch("empty.json", "{}");
    let empty = empty.to_str().expect("utf-8 temp path");
    let garbled = scratch("garbled.json", "{\"benchmarks\": [");
    let garbled = garbled.to_str().expect("utf-8 temp path");
    let missing = std::env::temp_dir().join("bench_run_cli-no-such-baseline.json");
    let missing = missing.to_str().expect("utf-8 temp path");
    for (args, reason) in [
        (&["--threads", "2"][..], "unknown flag --threads"),
        (&["--gate"], "--gate needs --baseline"),
        (&["--shards", "0"], "--shards entries must be integers >= 1"),
        (&["--baseline", missing], "cannot read baseline"),
        (&["--baseline", garbled], "is not valid JSON"),
        (&["--gate", "--baseline", empty], "shares no row with this run"),
    ] {
        let out = bench_run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2, stderr: {stderr}");
        assert!(stderr.contains(reason), "{args:?} must say {reason:?}: {stderr}");
        assert!(stderr.contains("usage: bench-run"), "{args:?} must print usage: {stderr}");
        assert!(!stderr.contains("timing"), "{args:?} must not time anything: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not print a document");
    }
    for path in [empty, garbled] {
        std::fs::remove_file(path).expect("remove scratch file");
    }
}
