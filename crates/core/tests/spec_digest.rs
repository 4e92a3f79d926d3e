//! Refactor oracle for the scenario library: an FNV-1a digest of every
//! library spec's `Debug` rendering, captured on the commit *before*
//! the constructors were rebuilt from shared parts (PR 14). The report
//! fixtures in `report_identity.rs` catch a drift that changes a run;
//! this catches one that does not — a description, a horizon past the
//! last event, a pin list on an idle job — and names the scenario.
//!
//! A deliberate spec change updates the digest here, in the same commit.

use slingshot_k8s::scenario::{library, stress_by_name, stress_library};

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `specs` is `(name, Debug rendering)` per library entry, in order.
fn assert_digests(specs: Vec<(String, String)>, pinned: &[(&str, u64)]) {
    assert_eq!(specs.len(), pinned.len(), "library size changed");
    for ((name, rendering), (pinned_name, pinned)) in specs.iter().zip(pinned) {
        assert_eq!(name, pinned_name, "library order changed");
        let got = fnv1a(rendering);
        assert_eq!(got, *pinned, "spec of `{name}` drifted: digest {got:#018x}");
    }
}

#[test]
fn library_specs_match_their_pinned_digests() {
    assert_digests(
        library(42).iter().map(|s| (s.name.clone(), format!("{s:?}"))).collect(),
        &[
            ("steady-state", 0x0dcb1df5b231894f),
            ("churn", 0xf0f769309ba4e0ea),
            ("quarantine-pressure", 0xbed55ccea291f78a),
            ("node-drain", 0xd17bd94dfdc9183c),
            ("oversubscribed", 0x3ab2029d6ecf669c),
            ("noisy-neighbor", 0xb89a3c61a92a08d5),
            ("incast", 0x8909970dc824de04),
            ("collective-noisy-neighbor", 0x43a7c3f2bdbcc539),
            ("cross-group-allreduce", 0xc9a7e944643aaa21),
            ("trunk-cut-allreduce", 0x94e783f4fafb5c63),
            ("flapping-link-incast", 0xf76150c8cb25787e),
            ("adaptive-incast", 0x2d8b3084e0b63057),
            ("service-mesh-allreduce", 0xf847ce975f3f3180),
            ("autoscale-burst", 0x4ac043410c2fc847),
            ("rolling-update-allreduce", 0x996cd139e3338c2f),
        ],
    );
}

#[test]
fn stress_specs_match_their_pinned_digests() {
    let specs = stress_library(42).into_iter().chain(stress_by_name("vni-stress-1m", 42));
    assert_digests(
        specs.map(|s| (s.name.clone(), format!("{s:?}"))).collect(),
        &[("vni-stress-10k", 0x1c49ab9a57087054), ("vni-stress-1m", 0xdc0564a7427c0ed6)],
    );
}
