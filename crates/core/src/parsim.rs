//! Cluster-scale fabric scenarios (§IV-D scale-out).
//!
//! The k8s scenario engine ([`crate::scenario`]) exercises the full
//! control plane per message and tops out around a hundred nodes per
//! affordable run. This module is the other end of the trade: named
//! **fabric sweeps** over 128–1024-node dragonfly topologies
//! (`shs_fabric::shardsim`: one `shs_des::Sim` whose world holds one
//! net per dragonfly group), reported in the same style as
//! [`crate::ScenarioReport`].
//!
//! Every field of a [`FabricSweepReport`] is derived from
//! [`SweepStats`], a function of the [`SweepConfig`] alone; the four
//! library reports at seed 42 are pinned byte for byte by the fixtures
//! of `tests/report_identity.rs`. The `parallel_*` names and the
//! `"parallel_reports"` JSON key predate the one-`Sim` engine and are
//! kept as the output schema.

use serde::Serialize;
use shs_fabric::{
    run_sweep, CostModel, FaultKind, RoutingPolicy, SweepConfig, SweepFault, SweepStats, SwitchId,
    TopologySpec, TrafficClass,
};

/// A named cluster-scale fabric sweep: the fabric-only counterpart of
/// [`crate::Scenario`].
#[derive(Debug, Clone)]
pub struct FabricScenario {
    /// Scenario name (stable; used by `scenario-run` and `bench-run`).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The sweep to run.
    pub config: SweepConfig,
}

/// Delivered/dropped counts for one traffic class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FabricClassReport {
    /// Traffic class name.
    pub class: String,
    /// Messages of this class delivered.
    pub delivered: u64,
    /// Messages of this class congestion-dropped.
    pub congestion_drops: u64,
}

/// One dragonfly group's slice of the sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FabricGroupReport {
    /// Group id.
    pub group: usize,
    /// Messages launched by this group's nodes.
    pub sent: u64,
    /// Messages delivered to this group's nodes.
    pub delivered: u64,
    /// Congestion drops on trunks this group owns.
    pub congestion_drops: u64,
}

/// The serialized outcome of one [`FabricScenario`] — every field comes
/// from [`SweepStats`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FabricSweepReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Nodes in the topology.
    pub nodes: u64,
    /// Routing policy.
    pub policy: String,
    /// Messages launched.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages congestion-dropped.
    pub congestion_drops: u64,
    /// Messages dropped `NoRoute` by a fault (absent when zero, so
    /// healthy sweeps serialize byte-identically to earlier releases).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub route_drops: Option<u64>,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Mean end-to-end latency of delivered messages (ns).
    pub mean_latency_ns: u64,
    /// Worst end-to-end latency (ns).
    pub max_latency_ns: u64,
    /// Switch hops over all delivered messages.
    pub switch_hops: u64,
    /// Per-class delivery counts, [`TrafficClass::ALL`] order.
    pub by_class: Vec<FabricClassReport>,
    /// Per-group counters, group order.
    pub per_group: Vec<FabricGroupReport>,
    /// DES events executed.
    pub events_executed: u64,
    /// Always 0 and never serialized: the sweep has no windows since it
    /// runs on one `Sim`. Retained only for the pinned benchmark, which
    /// reads it; the benchmark change that drops its `des.parallel.*`
    /// rows drops the field with them.
    #[serde(skip_serializing_if = "never_serialized")]
    pub windows: u64,
    /// Messages handed across a group boundary (one per boundary
    /// crossed).
    pub cross_group_injected: u64,
    /// Conservation held and something was delivered.
    pub passed: bool,
}

/// The `skip_serializing_if` predicate of a field kept out of the JSON.
fn never_serialized(_: &u64) -> bool {
    true
}

/// Fold [`SweepStats`] into the serialized report.
fn report_from(sc: &FabricScenario, stats: &SweepStats) -> FabricSweepReport {
    FabricSweepReport {
        scenario: sc.name.to_string(),
        description: sc.description.to_string(),
        nodes: stats.nodes,
        policy: format!("{:?}", sc.config.policy),
        sent: stats.totals.sent,
        delivered: stats.totals.delivered,
        congestion_drops: stats.totals.congestion_drops,
        route_drops: (stats.totals.route_drops > 0).then_some(stats.totals.route_drops),
        payload_bytes: stats.totals.payload_bytes,
        mean_latency_ns: stats.mean_latency_ns(),
        max_latency_ns: stats.totals.latency_max_ns,
        switch_hops: stats.totals.switch_hops,
        by_class: TrafficClass::ALL
            .iter()
            .map(|tc| FabricClassReport {
                class: tc.to_string(),
                delivered: stats.totals.class_delivered[tc.index()],
                congestion_drops: stats.totals.class_drops[tc.index()],
            })
            .collect(),
        per_group: stats
            .per_group
            .iter()
            .enumerate()
            .map(|(g, c)| FabricGroupReport {
                group: g,
                sent: c.sent,
                delivered: c.delivered,
                congestion_drops: c.congestion_drops,
            })
            .collect(),
        events_executed: stats.events_executed,
        windows: 0,
        cross_group_injected: stats.handoffs,
        passed: stats.conserved() && stats.totals.delivered > 0,
    }
}

/// Run one fabric scenario and report it. `_workers` is ignored — the
/// sweep runs on the calling thread — and is retained only for the
/// pinned benchmark: `sysbench/` calls this function with two
/// arguments, and the benchmark change that drops its 2-worker probes
/// drops the parameter with them. In-tree callers pass `1`.
pub fn run_fabric_scenario(sc: &FabricScenario, _workers: usize) -> FabricSweepReport {
    report_from(sc, &run_sweep(&sc.config))
}

/// The headline scenario: a 4-group × 8-switch × 32-node (1024-node)
/// dragonfly, every other message crossing a group boundary.
fn dragonfly_1024(seed: u64) -> FabricScenario {
    FabricScenario {
        name: "dragonfly-1024",
        description: "1024-node 4-group dragonfly sweep, minimal routing, 50% cross-group",
        config: SweepConfig {
            spec: TopologySpec { groups: 4, switches_per_group: 8, edge_ports: 32 },
            policy: RoutingPolicy::Minimal,
            nodes_per_switch: 32,
            messages_per_node: 12,
            payload_bytes: 8192,
            interval_ns: 2_000,
            cross_group_every: 2,
            seed,
            model: CostModel::default(),
            faults: Vec::new(),
        },
    }
}

/// Valiant routing at 256 nodes: every message crosses groups, most via
/// a detour group, so every group both forwards and delivers.
fn dragonfly_256_valiant(seed: u64) -> FabricScenario {
    FabricScenario {
        name: "dragonfly-256-valiant",
        description: "256-node 4-group dragonfly, Valiant routing, all messages cross-group",
        config: SweepConfig {
            spec: TopologySpec { groups: 4, switches_per_group: 4, edge_ports: 16 },
            policy: RoutingPolicy::Valiant,
            nodes_per_switch: 16,
            messages_per_node: 16,
            payload_bytes: 4096,
            interval_ns: 2_000,
            cross_group_every: 1,
            seed,
            model: CostModel::default(),
            faults: Vec::new(),
        },
    }
}

/// Contention pressure: large bursts into finite trunk queues so the
/// congestion-drop path shows up in the report.
fn trunk_contended_128(seed: u64) -> FabricScenario {
    FabricScenario {
        name: "trunk-contended-128",
        description: "128-node 2-group dragonfly under burst load; finite trunk queues drop",
        config: SweepConfig {
            spec: TopologySpec { groups: 2, switches_per_group: 4, edge_ports: 16 },
            policy: RoutingPolicy::Minimal,
            nodes_per_switch: 16,
            messages_per_node: 16,
            payload_bytes: 262_144,
            interval_ns: 500,
            cross_group_every: 1,
            seed,
            model: CostModel::default(),
            faults: Vec::new(),
        },
    }
}

/// Runtime resilience at 256 nodes: adaptive (UGAL) routing with a
/// trunk cut mid-sweep and restored near the end. Messages reroute
/// deterministically; in-flight ones on the dead trunk are route-
/// dropped.
fn dragonfly_256_trunkcut(seed: u64) -> FabricScenario {
    // Gateway pair of the (0, 1) group trunk: local switch 1 in group 0,
    // local switch 0 in group 1 (4 switches per group).
    let gw01 = SwitchId(1);
    let gw10 = SwitchId(4);
    FabricScenario {
        name: "dragonfly-256-trunkcut",
        description: "256-node 4-group dragonfly, adaptive routing, trunk cut mid-sweep then restored",
        config: SweepConfig {
            spec: TopologySpec { groups: 4, switches_per_group: 4, edge_ports: 16 },
            policy: RoutingPolicy::Adaptive,
            nodes_per_switch: 16,
            messages_per_node: 16,
            payload_bytes: 4096,
            interval_ns: 2_000,
            cross_group_every: 1,
            seed,
            model: CostModel::default(),
            faults: vec![
                SweepFault { at_ns: 8_000, kind: FaultKind::LinkDown(gw01, gw10) },
                SweepFault { at_ns: 24_000, kind: FaultKind::LinkUp(gw01, gw10) },
            ],
        },
    }
}

/// The fabric sweep library, smallest first. `dragonfly-1024` is the
/// headline scale target.
pub fn parallel_library(seed: u64) -> Vec<FabricScenario> {
    vec![
        trunk_contended_128(seed),
        dragonfly_256_valiant(seed),
        dragonfly_256_trunkcut(seed),
        dragonfly_1024(seed),
    ]
}

/// Look up one fabric sweep by name.
pub fn parallel_by_name(name: &str, seed: u64) -> Option<FabricScenario> {
    parallel_library(seed).into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_names_are_unique_and_resolvable() {
        let lib = parallel_library(42);
        for (i, a) in lib.iter().enumerate() {
            assert!(parallel_by_name(a.name, 42).is_some(), "{}", a.name);
            for b in &lib[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
        assert!(parallel_by_name("no-such-sweep", 42).is_none());
    }

    #[test]
    fn headline_scenario_is_1024_nodes_on_4_shards() {
        let sc = parallel_by_name("dragonfly-1024", 42).expect("headline scenario");
        let report = run_fabric_scenario(&sc, 1);
        assert_eq!(report.nodes, 1024);
        assert_eq!(report.per_group.len(), 4);
        assert!(report.passed, "{report:?}");
        assert!(report.delivered > 0);
        assert_eq!(report.sent, report.delivered + report.congestion_drops);
        assert!(report.cross_group_injected > 0, "cross-group traffic happened");
        assert_eq!(report.windows, 0);
    }

    #[test]
    fn contended_scenario_exercises_the_drop_path() {
        let sc = parallel_by_name("trunk-contended-128", 42).expect("contended scenario");
        let report = run_fabric_scenario(&sc, 1);
        assert!(report.passed, "drops are conserved, not failures: {report:?}");
        assert!(report.congestion_drops > 0, "burst load must overflow a finite trunk queue");
        let by_class_drops: u64 = report.by_class.iter().map(|c| c.congestion_drops).sum();
        assert_eq!(by_class_drops, report.congestion_drops);
    }

    #[test]
    fn trunkcut_scenario_reroutes_and_conserves() {
        let sc = parallel_by_name("dragonfly-256-trunkcut", 42).expect("fault scenario");
        let base = run_fabric_scenario(&sc, 1);
        assert!(base.passed, "{base:?}");
        assert!(base.delivered > 0, "adaptive fallback keeps routing around the cut");
        assert_eq!(
            base.sent,
            base.delivered + base.congestion_drops + base.route_drops.unwrap_or(0),
        );
        assert!(base.route_drops.unwrap_or(0) > 0, "in-flight messages died with the trunk");
    }

    #[test]
    fn healthy_sweep_reports_omit_route_drops() {
        let sc = parallel_by_name("dragonfly-1024", 42).unwrap();
        let json = serde_json::to_string_pretty(&run_fabric_scenario(&sc, 1)).unwrap();
        assert!(!json.contains("route_drops"), "absent-when-zero keeps legacy bytes");
    }
}
