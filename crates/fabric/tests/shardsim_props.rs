//! Conservation property for fabric sweeps: over arbitrary dragonfly
//! topologies (≤ 4 groups), routing policies and sweep workloads, every
//! launched message is accounted for (delivered or congestion-dropped),
//! and the per-group counters follow the partition.

use proptest::prelude::*;
use shs_fabric::{run_sweep, RoutingPolicy, SweepConfig, TopologySpec};

fn config_strategy() -> impl Strategy<Value = SweepConfig> {
    (
        (1usize..=4, 1usize..=3, 1usize..=3), // groups, switches/group, nodes/switch
        (
            prop_oneof![Just(RoutingPolicy::Minimal), Just(RoutingPolicy::Valiant)],
            1u32..=6,                                        // messages per node
            prop_oneof![Just(64u64), Just(4096), Just(262_144)], // payload
        ),
        (1u64..=5_000, 0u32..=3, 0u64..=(1 << 48)), // interval ns, cross cadence, seed
    )
        .prop_map(|((groups, spg, nps), (policy, mpn, payload), (interval, cross, seed))| {
            SweepConfig {
                spec: TopologySpec {
                    groups,
                    switches_per_group: spg,
                    // At least as many edge ports as attached nodes.
                    edge_ports: nps.max(2),
                },
                policy,
                nodes_per_switch: nps,
                messages_per_node: mpn,
                payload_bytes: payload,
                interval_ns: interval,
                cross_group_every: cross,
                seed,
                ..SweepConfig::default()
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_sweep_conserves_its_messages(cfg in config_strategy()) {
        let base = run_sweep(&cfg);
        // Message conservation: launched = delivered + dropped.
        prop_assert!(base.conserved(), "{:?}", base.totals);
        // One counter set per group.
        prop_assert_eq!(base.per_group.len(), cfg.spec.groups);
    }
}
