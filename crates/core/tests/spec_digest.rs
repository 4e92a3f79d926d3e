//! Refactor oracle for the scenario library: an FNV-1a digest of every
//! library spec's `Debug` rendering, captured on the commit *before*
//! the constructors were rebuilt from shared parts (PR 14). The report
//! fixtures in `report_identity.rs` catch a drift that changes a run;
//! this catches one that does not — a description, a horizon past the
//! last event, a pin list on an idle job — and names the scenario.
//!
//! A deliberate spec change updates the digest here, in the same commit.
//! The fifteen library digests were re-pinned three times since, each
//! time for a `ClusterConfig` field every spec carried:
//! `max_pods_per_node`, `vni_shards`, then `placement`. Putting
//! `max_pods_per_node: 256, ` back in front of `nic_params:`,
//! `vni_shards: 1, ` after `vni_resync: …, `, then
//! `placement: RoundRobin, ` in front of `routing:`, reproduced each
//! digest pinned before, so nothing else moved.

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
            ("steady-state", 0x95364cef9f38a119),
            ("churn", 0x7d30594330762fa8),
            ("quarantine-pressure", 0x5928293bc84deaf8),
            ("node-drain", 0x2d1b04395bad0502),
            ("oversubscribed", 0xc613c48204c59446),
            ("noisy-neighbor", 0x5f314d53152874b3),
            ("incast", 0xdc2c43b5c0cf4dc6),
            ("collective-noisy-neighbor", 0xc2035bd42768c8d3),
            ("cross-group-allreduce", 0x754fa864afee47fb),
            ("trunk-cut-allreduce", 0xc9c8af9e7154b477),
            ("flapping-link-incast", 0x96a94f4cb3905fd2),
            ("adaptive-incast", 0x22e35ca7ad7b88a3),
            ("service-mesh-allreduce", 0x958d5bf597d7605a),
            ("autoscale-burst", 0x7608245a3fdd25f9),
            ("rolling-update-allreduce", 0x29f4f52e0fa72cc1),
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
