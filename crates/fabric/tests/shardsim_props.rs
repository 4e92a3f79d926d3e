//! Lookahead-safety property for the sharded fabric engine: over
//! arbitrary dragonfly topologies (≤ 4 groups), routing policies and
//! sweep workloads, **no shard ever receives a cross-group event with a
//! timestamp below its local clock** — the conservative-sync invariant
//! `min_inject_slack ≥ 0` — and every launched message is accounted
//! for (delivered or congestion-dropped).
//!
//! The slack is measured at the injection point by the coordinator
//! itself (`ShardedSim::min_inject_slack`), so a violation cannot hide
//! behind the debug-only clamp in `Sim::at`.

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
    fn no_shard_receives_an_event_below_its_clock(cfg in config_strategy()) {
        let base = run_sweep(&cfg);
        // The conservative-sync invariant, measured at injection.
        if let Some(slack) = base.min_inject_slack {
            prop_assert!(slack >= 0, "conservative violation: slack {}ns", slack);
        }
        // Message conservation: launched = delivered + dropped.
        prop_assert!(base.conserved(), "{:?}", base.totals);
        // Shard count follows the partition.
        prop_assert_eq!(base.shards, cfg.spec.groups);
    }
}
