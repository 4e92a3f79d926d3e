//! `repro` command-line contract: a bad flag value is a usage error
//! (exit code 2, usage line on stderr) — never a panic, and never a
//! figure computed from zero runs (which used to print rows of `NaN`
//! and exit 0).

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_flag_values_are_usage_errors() {
    for args in [
        &["fig7", "--runs", "0", "--no-out"][..],
        &["fig7", "--runs", "many", "--no-out"],
        &["fig7", "--seed", "x", "--no-out"],
        &["fig11", "--spike-jobs", "0", "--no-out"],
        &["fig11", "--spike-jobs", "-3", "--no-out"],
        &["fig7", "--runs"],
        &["fig7", "--frobnicate"],
        &["fig99", "--no-out"],
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2, stderr: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?} must print the usage line: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} must not panic: {stderr}");
    }
}

#[test]
fn well_formed_flags_still_run() {
    let (code, stderr) = repro(&["table1", "--seed", "0", "--runs", "1", "--no-out"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}
