//! Refactor oracle for the scenario library: an FNV-1a digest of every
//! library spec's `Debug` rendering, captured on the commit *before*
//! the constructors were rebuilt from shared parts (PR 14). The report
//! fixtures in `report_identity.rs` catch a drift that changes a run;
//! this catches one that does not — a description, a horizon past the
//! last event, a pin list on an idle job — and names the scenario.
//!
//! A deliberate spec change updates the digest here, in the same commit.
//! The fifteen library digests were re-pinned twice since, each time for
//! a `ClusterConfig` field every spec carried: `max_pods_per_node`, then
//! `vni_shards`. Putting `max_pods_per_node: 256, ` back in front of
//! `nic_params:`, then `vni_shards: 1, ` after `vni_resync: …, `,
//! reproduced each digest pinned before, so nothing else moved.

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
            ("steady-state", 0x2d370d128c202296),
            ("churn", 0x1fa45bd064168b19),
            ("quarantine-pressure", 0x422429676fb6d503),
            ("node-drain", 0xbe0ea64ba66e2771),
            ("oversubscribed", 0x722f96e5049b989d),
            ("noisy-neighbor", 0xd1a4232876787ef2),
            ("incast", 0x12ef74c4e0e4304f),
            ("collective-noisy-neighbor", 0x5296cc4c517424c2),
            ("cross-group-allreduce", 0x45558425b6562526),
            ("trunk-cut-allreduce", 0x159bb08198add4b0),
            ("flapping-link-incast", 0xffed24f265213805),
            ("adaptive-incast", 0xa21e1a59bad1f2f0),
            ("service-mesh-allreduce", 0x61aeb9f02aa4e411),
            ("autoscale-burst", 0xcfe7b50494a70270),
            ("rolling-update-allreduce", 0x825f569f06e7ab8a),
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
