//! Build-graph smoke test: every example must at least type-check, so a
//! broken example fails the tier-1 suite, not just CI.

use std::path::Path;
use std::process::Command;

/// The workspace root (the root package's manifest dir IS the root).
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn examples_typecheck() {
    let root = workspace_root();
    for (name, path) in [
        ("quickstart", "examples/quickstart.rs"),
        ("multi_tenant_isolation", "examples/multi_tenant_isolation.rs"),
        ("vni_claims", "examples/vni_claims.rs"),
        ("coscheduling_traffic_classes", "examples/coscheduling_traffic_classes.rs"),
        ("system_monitoring", "examples/system_monitoring.rs"),
    ] {
        assert!(
            root.join(path).is_file(),
            "expected target `{name}` at {path}; was it moved without updating this test?"
        );
    }

    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(root)
        .args(["check", "--workspace", "--examples", "--quiet"])
        .output()
        .expect("spawn cargo check");
    assert!(
        output.status.success(),
        "`cargo check --workspace --examples` failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
