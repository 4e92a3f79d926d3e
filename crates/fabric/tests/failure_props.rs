//! Fault-schedule oracle for the sharded fabric engine: over arbitrary
//! dragonfly sweeps (≤ 4 groups, minimal/Valiant/adaptive routing) with
//! **random runtime fault schedules** — link cuts, link recoveries,
//! switch deaths at arbitrary instants — every launched message must be
//! accounted for (`sent == delivered + congestion_drops + route_drops`,
//! the packet-conservation invariant), no packet may traverse a dead
//! link (killing every global link up front must zero the cross-group
//! delivery count), and the sharded engine must agree with the serial
//! [`Fabric`] under the same schedule.
//!
//! The last property is the executable form of "the serial `Fabric` is
//! the one-shard instance of the packet path": on single-group
//! topologies (no cross-shard handoff, so both engines reserve hops in
//! the same order) replaying a sweep's messages through a `Fabric`
//! reproduces `run_sweep`'s totals exactly, healthy and across a link
//! cut.

use proptest::prelude::*;
use shs_fabric::{
    run_sweep, sweep_messages, DropReason, Fabric, FaultKind, GroupCounters, NicAddr,
    RoutingPolicy, SweepConfig, SweepFault, SweepMsg, SwitchId, Topology, TopologySpec,
    TransferOutcome, Vni,
};

/// A sweep shape with at least two groups, so fault schedules have
/// global links to kill.
fn config_strategy() -> impl Strategy<Value = SweepConfig> {
    (
        (2usize..=4, 1usize..=3, 1usize..=3), // groups, switches/group, nodes/switch
        (
            prop_oneof![
                Just(RoutingPolicy::Minimal),
                Just(RoutingPolicy::Valiant),
                Just(RoutingPolicy::Adaptive),
            ],
            1u32..=6,                                            // messages per node
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

/// Up to 6 raw fault events; switch indices and instants are drawn wide
/// and folded into the config's actual topology/timeline by
/// [`schedule`].
fn faults_strategy() -> impl Strategy<Value = Vec<(u64, u8, usize, usize)>> {
    prop::collection::vec(
        (0u64..=60_000, 0u8..3, 0usize..64, 0usize..64),
        0..=6,
    )
}

/// Fold raw fault draws into events valid for `cfg`: indices wrap into
/// the switch count, self-links skew to a neighbour, and `LinkUp`
/// events mirror the cut of the same pair so flap schedules genuinely
/// flap.
fn schedule(cfg: &SweepConfig, raw: &[(u64, u8, usize, usize)]) -> Vec<SweepFault> {
    let n = cfg.spec.total_switches();
    raw.iter()
        .map(|&(at_ns, kind, a, b)| {
            let a = SwitchId(a % n);
            let b = SwitchId(if b % n == a.0 { (a.0 + 1) % n } else { b % n });
            let kind = match kind {
                0 => FaultKind::LinkDown(a, b),
                1 => FaultKind::LinkUp(a, b),
                _ => FaultKind::SwitchDown(a),
            };
            SweepFault { at_ns, kind }
        })
        .collect()
}

/// Replay `cfg`'s messages and fault schedule through a serial
/// [`Fabric`] in the order the sweep's event queue runs them (by
/// instant; at equal instants faults first, then messages in generation
/// order) and collect the counters `run_sweep` reports.
fn replay_on_serial_fabric(cfg: &SweepConfig) -> GroupCounters {
    let mut fabric = Fabric::with_topology(cfg.model, cfg.spec, cfg.policy);
    let vni = Vni(1);
    let nodes = cfg.spec.total_switches() * cfg.nodes_per_switch;
    for node in 0..nodes {
        fabric.attach_to(NicAddr(node as u32), SwitchId(node / cfg.nodes_per_switch));
        fabric.grant_vni(NicAddr(node as u32), vni).unwrap();
    }
    let mut msgs: Vec<SweepMsg> = sweep_messages(cfg).collect();
    msgs.sort_by_key(|m| m.t0); // stable: generation order breaks ties
    let mut faults = cfg.faults.clone();
    faults.sort_by_key(|f| f.at_ns);
    let mut faults = faults.into_iter().peekable();
    let mut c = GroupCounters::default();
    for m in msgs {
        while let Some(f) = faults.next_if(|f| f.at_ns <= m.t0.as_nanos()) {
            fabric.apply_fault(f.kind);
        }
        c.sent += 1;
        match fabric.transfer(m.t0, NicAddr(m.src), NicAddr(m.dst), vni, m.tc, m.len, m.id) {
            TransferOutcome::Delivered { arrival, .. } => {
                let lat = (arrival - m.t0).as_nanos();
                c.delivered += 1;
                c.latency_sum_ns += lat;
                c.latency_max_ns = c.latency_max_ns.max(lat);
            }
            TransferOutcome::Dropped(DropReason::Congested) => c.congestion_drops += 1,
            TransferOutcome::Dropped(DropReason::NoRoute) => c.route_drops += 1,
            other => panic!("enforcement is satisfied by construction: {other:?}"),
        }
    }
    c.switch_hops = fabric.traffic(vni).switch_hops;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation + lookahead safety under arbitrary fault schedules:
    /// no message is ever lost unaccounted and no cross-group handoff
    /// lands below a destination clock.
    #[test]
    fn random_fault_schedules_conserve_and_stay_lookahead_safe(
        cfg in config_strategy(),
        raw in faults_strategy(),
    ) {
        let mut cfg = cfg;
        cfg.faults = schedule(&cfg, &raw);
        let base = run_sweep(&cfg);
        prop_assert!(
            base.conserved(),
            "sent {} != delivered {} + congestion {} + route {}",
            base.totals.sent,
            base.totals.delivered,
            base.totals.congestion_drops,
            base.totals.route_drops
        );
        if let Some(slack) = base.min_inject_slack {
            prop_assert!(slack >= 0, "conservative violation: slack {}ns", slack);
        }
    }

    /// No packet traverses a dead link: with **every** global link cut
    /// at t=0 (faults apply before any injection at equal instants) and
    /// every message forced cross-group, nothing can be delivered — the
    /// entire load must surface as `NoRoute` drops, with zero switch
    /// hops paid. Per-hop enforcement is the same `link_live` check
    /// mid-flight cuts go through, so this pins the strongest
    /// observable form of the invariant.
    #[test]
    fn cutting_every_global_link_zeroes_cross_group_delivery(
        cfg in config_strategy(),
    ) {
        // Every message of every node goes cross-group.
        let mut cfg = cfg;
        cfg.cross_group_every = 1;
        let topo = Topology::new(cfg.spec, cfg.policy);
        cfg.faults = topo
            .trunk_links()
            .iter()
            .filter(|&&(a, b)| topo.group_of(a) != topo.group_of(b))
            .map(|&(a, b)| SweepFault { at_ns: 0, kind: FaultKind::LinkDown(a, b) })
            .collect();
        let healthy = run_sweep(&SweepConfig { faults: Vec::new(), ..cfg.clone() });
        let cut = run_sweep(&cfg);
        prop_assert!(cut.conserved());
        prop_assert_eq!(cut.totals.sent, healthy.totals.sent, "faults must not change the load");
        prop_assert_eq!(cut.totals.delivered, 0, "a dead link must never carry a packet");
        prop_assert_eq!(cut.totals.switch_hops, 0);
        prop_assert_eq!(cut.totals.congestion_drops, 0);
        prop_assert_eq!(cut.totals.route_drops, cut.totals.sent);
    }

    /// The serial fabric is the one-shard instance: same deliveries,
    /// drops, hops and latencies as the sharded engine on one group,
    /// on a healthy fabric and with one local link cut mid-run (which
    /// partitions a 2-switch group and forces a repair detour in a
    /// larger one).
    #[test]
    fn serial_fabric_matches_the_one_shard_sweep(
        cfg in config_strategy(),
        spg in 2usize..=4,
        cut in (0usize..4, 1usize..4),
    ) {
        let mut cfg = cfg;
        cfg.spec.groups = 1;
        cfg.spec.switches_per_group = spg;
        // A trunk queue a handful of large messages overflow, so the
        // congestion-drop path is compared too.
        cfg.model.trunk_queue_ns = 15_000;
        let a = cut.0 % spg;
        let link_down = SweepFault {
            at_ns: cfg.messages_per_node as u64 * cfg.interval_ns / 2,
            kind: FaultKind::LinkDown(SwitchId(a), SwitchId((a + cut.1 % (spg - 1) + 1) % spg)),
        };
        for faults in [Vec::new(), vec![link_down]] {
            cfg.faults = faults;
            let sharded = run_sweep(&cfg).totals;
            let serial = replay_on_serial_fabric(&cfg);
            prop_assert_eq!(serial.sent, sharded.sent);
            prop_assert_eq!(serial.delivered, sharded.delivered);
            prop_assert_eq!(serial.congestion_drops, sharded.congestion_drops);
            prop_assert_eq!(serial.route_drops, sharded.route_drops);
            prop_assert_eq!(serial.switch_hops, sharded.switch_hops);
            prop_assert_eq!(serial.latency_sum_ns, sharded.latency_sum_ns);
            prop_assert_eq!(serial.latency_max_ns, sharded.latency_max_ns);
        }
    }
}
