//! Byte-identity of serialized reports. A control-plane stress run
//! executed at 1, 2 and 4 store shards must emit **byte-identical**
//! JSON — the facade's global-minimum allocation and global audit
//! sequencing guarantee it. The k8s scenarios run on one `VniDb`, which
//! `tests/vni_sharded_oracle.rs` proves equal to the 1-shard facade they
//! ran on before.
//!
//! The committed fixtures under `tests/fixtures/` additionally freeze
//! every library report at seed 42: the twelve job-only reports were
//! generated *before* the serving plane existed, so matching them today
//! proves that merging Services/PLEG changed no byte of any pre-existing
//! report (no new JSON fields, no counter drift). The four fabric-sweep
//! fixtures were rendered by the threaded engine at 1 and 2 workers
//! (identical bytes) before it was reduced to one thread, and
//! `dragonfly-1024-256B` by the engine that still scheduled every
//! launch up front, before injection was streamed.

use shs_fabric::{CostModel, RoutingPolicy, SweepConfig, TopologySpec};
use slingshot_k8s::{
    library, parallel_library, run_fabric_scenario, run_scenario, run_vni_stress, FabricScenario,
    VniStressScenario,
};

/// The `fabric-sweep-t1` benchmark shape (`sysbench/src/workloads.rs`)
/// at one tenth of its length: hundred-deep per-node launch chains at
/// 256 B, where equal-instant ties are dense. The library sweeps queue
/// 12–16 messages per node.
fn dragonfly_1024_256b(seed: u64) -> FabricScenario {
    FabricScenario {
        name: "dragonfly-1024-256B",
        description: "1024-node 4-group dragonfly sweep, 256 B messages, 50% cross-group",
        config: SweepConfig {
            spec: TopologySpec { groups: 4, switches_per_group: 8, edge_ports: 32 },
            policy: RoutingPolicy::Minimal,
            nodes_per_switch: 32,
            messages_per_node: 100,
            payload_bytes: 256,
            interval_ns: 2_000,
            cross_group_every: 2,
            seed,
            model: CostModel::default(),
            faults: Vec::new(),
        },
    }
}

/// Every library report at seed 42 must match its committed fixture
/// byte for byte. The twelve job-only fixtures predate the serving
/// plane, so this is the regression pin that services, the PLEG cache,
/// and the service Metacontroller are invisible to scenarios that don't
/// plan them; the three service fixtures freeze the serving-plane
/// reports themselves, and the five sweep fixtures (the library's four
/// and the benchmark shape) freeze the sharded fabric engine's.
#[test]
fn library_reports_match_their_committed_fixtures() {
    let scenarios = library(42).into_iter().map(|s| {
        (s.name.clone(), serde_json::to_string_pretty(&run_scenario(&s)).expect("serializes"))
    });
    let sweeps = parallel_library(42).into_iter().chain([dragonfly_1024_256b(42)]).map(|s| {
        let report = run_fabric_scenario(&s, 1);
        (s.name.to_string(), serde_json::to_string_pretty(&report).expect("serializes"))
    });
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut seen = 0;
    for (name, got) in scenarios.chain(sweeps) {
        let expected = std::fs::read_to_string(dir.join(format!("{name}.json")))
            .unwrap_or_else(|e| panic!("fixture for {name}: {e}"));
        assert_eq!(got + "\n", expected, "{name} diverged from its committed fixture");
        seen += 1;
    }
    assert_eq!(seen, 15 + 4 + 1, "every library scenario and sweep has a fixture");
}

/// Job-only scenarios must not grow a `services` key (the serde
/// skip-if-empty contract the fixture pin depends on), and the three
/// serving-plane scenarios must carry one.
#[test]
fn services_section_appears_only_when_planned() {
    for scenario in library(42) {
        let has_services = !scenario.services.is_empty();
        let json = serde_json::to_string(&run_scenario(&scenario)).expect("serializes");
        assert_eq!(
            json.contains("\"services\""),
            has_services,
            "{}: services key presence mismatch",
            scenario.name
        );
    }
}

/// Control-plane stress reports (direct database churn under group
/// commit, ending in a crash-recovery audit).
#[test]
fn stress_reports_are_byte_identical_across_shard_counts() {
    let render = |shards: usize| {
        let scenario = VniStressScenario {
            name: "vni-stress-identity".into(),
            description: "shard-invariance fixture".into(),
            seed: 42,
            tenants: 2_000,
            ops: 6_000,
            shards,
        };
        let report = run_vni_stress(&scenario);
        assert!(report.passed, "stress run failed at shards={shards}");
        serde_json::to_string_pretty(&report).expect("serializes")
    };
    let one = render(1);
    assert_eq!(one, render(2), "shards=2 diverged from shards=1");
    assert_eq!(one, render(4), "shards=4 diverged from shards=1");
}
