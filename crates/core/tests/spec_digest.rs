//! Refactor oracle for the scenario library: an FNV-1a digest of every
//! library spec's `Debug` rendering, captured on the commit *before*
//! the constructors were rebuilt from shared parts (PR 14). The report
//! fixtures in `report_identity.rs` catch a drift that changes a run;
//! this catches one that does not — a description, a horizon past the
//! last event, a pin list on an idle job — and names the scenario.
//!
//! A deliberate spec change updates the digest here, in the same commit.
//! The fifteen library digests were re-pinned once since: `ClusterConfig`
//! lost its `max_pods_per_node` field (nodes advertise the bridge IPAM
//! pool size instead), which every spec's rendering carried. Putting
//! `max_pods_per_node: 256, ` back in front of `nic_params:` reproduced
//! each PR 14 digest, so nothing else in any spec moved.

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
            ("steady-state", 0xd7ee330ae6cc230a),
            ("churn", 0xea915b4947b273a3),
            ("quarantine-pressure", 0x31d8545c6b97b7e7),
            ("node-drain", 0x209204d3ca8be2b5),
            ("oversubscribed", 0x90033f3dc73473a9),
            ("noisy-neighbor", 0x0d1ca62aa4d9cec6),
            ("incast", 0xe7702916a2f497a9),
            ("collective-noisy-neighbor", 0xca77cbfca6c196cc),
            ("cross-group-allreduce", 0xe909332443538a32),
            ("trunk-cut-allreduce", 0xbcc5cef1f9acbb24),
            ("flapping-link-incast", 0x0a2bc32f997c40c9),
            ("adaptive-incast", 0xc9173bcd5819e904),
            ("service-mesh-allreduce", 0xfd4275261fbdb665),
            ("autoscale-burst", 0x6678985359ab078c),
            ("rolling-update-allreduce", 0xcfb4bab706328df6),
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
