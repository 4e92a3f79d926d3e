//! Property tests for the dragonfly topology: routing must be
//! deterministic, loop-free, link-valid and hop-bounded for arbitrary
//! (groups, switches/group, edge ports) within bounds, under the
//! minimal, Valiant and adaptive (UGAL) policies — and, with a fault
//! mask in play, the crate's deterministic failure fallback
//! (`fallback_route`, the function both engines route through) must
//! keep every pair routable across any single link cut.

use proptest::prelude::*;
use shs_fabric::{
    fallback_route, FaultKind, LivenessMask, RoutingPolicy, SwitchId, Topology, TopologySpec,
    MAX_REPAIR_PATH,
};

fn spec_strategy() -> impl Strategy<Value = TopologySpec> {
    (1usize..6, 1usize..5, 1usize..8).prop_map(|(groups, switches_per_group, edge_ports)| {
        TopologySpec { groups, switches_per_group, edge_ports }
    })
}

/// Specs where a single link cut can never partition the fabric: ≥3
/// groups give every group pair a detour through a third group, and the
/// intra-group mesh keeps local pairs connected (for 2-switch groups,
/// via their trunks and the group graph).
fn resilient_spec_strategy() -> impl Strategy<Value = TopologySpec> {
    (3usize..6, 1usize..4, 1usize..5).prop_map(|(groups, switches_per_group, edge_ports)| {
        TopologySpec { groups, switches_per_group, edge_ports }
    })
}

fn check_route(topo: &Topology, path: &[SwitchId], from: SwitchId, to: SwitchId, max_len: usize) {
    assert_eq!(path.first(), Some(&from), "route starts at the source");
    assert_eq!(path.last(), Some(&to), "route ends at the destination");
    assert!(path.len() <= max_len, "route too long: {path:?}");
    let mut seen = std::collections::BTreeSet::new();
    for s in path {
        assert!(seen.insert(*s), "loop: {path:?} revisits {s}");
    }
    for w in path.windows(2) {
        assert!(topo.connected(w[0], w[1]), "{:?}: {} and {} not linked", path, w[0], w[1]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Minimal routing: every switch pair gets a deterministic,
    /// loop-free route over existing links of at most 4 switches.
    #[test]
    fn minimal_routes_are_deterministic_and_loop_free(
        spec in spec_strategy(),
        salt in any::<u64>(),
    ) {
        let topo = Topology::new(spec, RoutingPolicy::Minimal);
        let rebuilt = Topology::new(spec, RoutingPolicy::Minimal);
        let n = topo.switch_count();
        for s in 0..n {
            for d in 0..n {
                let (from, to) = (SwitchId(s), SwitchId(d));
                let path = topo.route(from, to, salt);
                check_route(&topo, path, from, to, 4);
                // Deterministic: independent of the salt and of the
                // Topology instance (the table is a pure function of the
                // spec).
                prop_assert_eq!(&path, &topo.route(from, to, salt.wrapping_add(1)));
                prop_assert_eq!(&path, &rebuilt.route(from, to, salt));
            }
        }
    }

    /// Valiant routing: loop-free over existing links, at most 6
    /// switches, and deterministic in the salt.
    #[test]
    fn valiant_routes_are_deterministic_and_loop_free(
        spec in spec_strategy(),
        salt in any::<u64>(),
    ) {
        let topo = Topology::new(spec, RoutingPolicy::Valiant);
        let n = topo.switch_count();
        for s in 0..n {
            for d in 0..n {
                let (from, to) = (SwitchId(s), SwitchId(d));
                let path = topo.route(from, to, salt);
                check_route(&topo, path, from, to, 6);
                prop_assert_eq!(&path, &topo.route(from, to, salt));
            }
        }
    }

    /// Adaptive (UGAL) routing decides per packet between exactly two
    /// candidates — the minimal route and the salted Valiant detour —
    /// based on live queue depths at injection. Whatever the queue
    /// state, the chosen route is therefore one of these two, so any
    /// live-queue state yields a deterministic, loop-free route over
    /// existing links of at most 6 switches; and the policy's static
    /// primary table is the minimal one.
    #[test]
    fn adaptive_candidates_are_loop_free_for_any_queue_state(
        spec in spec_strategy(),
        salt in any::<u64>(),
    ) {
        let topo = Topology::new(spec, RoutingPolicy::Adaptive);
        let n = topo.switch_count();
        for s in 0..n {
            for d in 0..n {
                let (from, to) = (SwitchId(s), SwitchId(d));
                check_route(&topo, topo.route_minimal(from, to), from, to, 4);
                check_route(&topo, topo.route_valiant(from, to, salt), from, to, 6);
                prop_assert_eq!(topo.route(from, to, salt), topo.route_minimal(from, to));
            }
        }
    }

    /// Any **single global-link** failure on a ≥3-group dragonfly
    /// leaves every switch pair routable: the deterministic fallback
    /// chain finds a live, loop-free route of ≤ `MAX_REPAIR_PATH`
    /// switches that never crosses the dead link. (Only inter-group
    /// links are cut: an intra-group link can be a bridge — e.g. to a
    /// switch the `h % a` gateway assignment gives no trunk — so its
    /// loss legitimately partitions, which the engines report as
    /// `NoRoute` drops rather than hiding.)
    #[test]
    fn single_global_link_failure_leaves_all_pairs_routable(
        spec in resilient_spec_strategy(),
        salt in any::<u64>(),
    ) {
        let topo = Topology::new(spec, RoutingPolicy::Adaptive);
        let n = topo.switch_count();
        // Each undirected inter-group link once.
        let cuts: std::collections::BTreeSet<(usize, usize)> = topo
            .trunk_links()
            .iter()
            .filter(|&&(a, b)| topo.group_of(a) != topo.group_of(b))
            .map(|&(a, b)| (a.0.min(b.0), a.0.max(b.0)))
            .collect();
        for &(a, b) in &cuts {
            let mut mask = LivenessMask::default();
            mask.apply(FaultKind::LinkDown(SwitchId(a), SwitchId(b)));
            for s in 0..n {
                for d in 0..n {
                    let (from, to) = (SwitchId(s), SwitchId(d));
                    let path = fallback_route(&topo, &mask, from, to, salt)
                        .unwrap_or_else(|| {
                            panic!("cut ({a},{b}) partitioned {from}->{to}")
                        });
                    check_route(&topo, &path, from, to, MAX_REPAIR_PATH);
                    prop_assert!(
                        mask.route_live(&path),
                        "cut ({},{}): route {:?} crosses the dead link", a, b, path
                    );
                }
            }
        }
    }

    /// The trunk-link set is symmetric and exactly matches `connected`.
    #[test]
    fn trunk_links_match_connectivity(spec in spec_strategy()) {
        let topo = Topology::new(spec, RoutingPolicy::Minimal);
        let links = topo.trunk_links();
        for &(a, b) in &links {
            prop_assert!(topo.connected(a, b));
            prop_assert!(links.contains(&(b, a)), "asymmetric link {a}->{b}");
        }
        let n = topo.switch_count();
        let listed: std::collections::BTreeSet<_> =
            links.iter().map(|&(a, b)| (a.0, b.0)).collect();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    listed.contains(&(a, b)),
                    topo.connected(SwitchId(a), SwitchId(b))
                );
            }
        }
    }
}
