//! Runtime fabric faults: link and switch failures, the liveness mask
//! route selection consults, and the deterministic failure fallback
//! ([`fallback_route`]) used when a message's primary route is dead.
//!
//! Faults never rebuild the interned route arenas — they are filtered.
//! A [`LivenessMask`] records which trunks and switches are down; route
//! selection checks the primary route against it and otherwise falls
//! back in a fixed order that ignores queue state (minimal, then every
//! Valiant salt class, then a BFS over the live graph), so every
//! instance of the packet path picks the same detour.
//!
//! The serial [`crate::Fabric`] applies [`FaultKind`] events directly;
//! the sharded engine ([`crate::shardsim`]) schedules the same
//! globally-known fault schedule into **every** shard's local event
//! queue — liveness views never diverge between shards, so no
//! cross-shard fault notification exists and the conservative lookahead
//! is untouched by failures.

use std::collections::BTreeSet;

use crate::topology::Topology;
use crate::types::SwitchId;

/// One runtime fault event. Links are undirected here (a physical cable
/// cut kills both directions of the trunk pair); switch faults take the
/// switch and every trunk touching it out of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The trunk between two switches goes down (both directions).
    LinkDown(SwitchId, SwitchId),
    /// The trunk between two switches comes back up.
    LinkUp(SwitchId, SwitchId),
    /// A whole switch goes down (and stays down; recovery of a switch
    /// is modeled as node replacement, not a fabric event).
    SwitchDown(SwitchId),
}

/// Longest path the failure repair will accept: two intermediate groups
/// (`src → gw → land → gw → land → gw → land → dst`). A live pair whose
/// shortest path exceeds this counts as partitioned (`NoRoute`) — on a
/// dragonfly that takes a pathological multi-fault schedule.
pub const MAX_REPAIR_PATH: usize = 8;

/// Which trunks and switches are currently dead. Empty (the common
/// case) means the fabric is healthy and route selection takes the
/// interned fast path untouched.
#[derive(Debug, Clone, Default)]
pub struct LivenessMask {
    /// Dead trunks as canonical `(lo, hi)` switch-id pairs.
    dead_trunks: BTreeSet<(u32, u32)>,
    /// Dead switches.
    dead_switches: BTreeSet<u32>,
}

impl LivenessMask {
    #[inline]
    fn key(a: SwitchId, b: SwitchId) -> (u32, u32) {
        let (a, b) = (a.0 as u32, b.0 as u32);
        (a.min(b), a.max(b))
    }

    /// Apply one fault event. `LinkUp` on a live link and `LinkDown` on
    /// a dead one are idempotent (flap schedules may repeat an edge).
    pub fn apply(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown(a, b) => {
                self.dead_trunks.insert(Self::key(a, b));
            }
            FaultKind::LinkUp(a, b) => {
                self.dead_trunks.remove(&Self::key(a, b));
            }
            FaultKind::SwitchDown(s) => {
                self.dead_switches.insert(s.0 as u32);
            }
        }
    }

    /// Whether the fabric is fully healthy (fast-path guard).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dead_trunks.is_empty() && self.dead_switches.is_empty()
    }

    /// Whether a switch is up.
    #[inline]
    pub fn switch_live(&self, s: SwitchId) -> bool {
        self.dead_switches.is_empty() || !self.dead_switches.contains(&(s.0 as u32))
    }

    /// Whether the trunk between `a` and `b` is up, including both
    /// endpoint switches.
    #[inline]
    pub fn link_live(&self, a: SwitchId, b: SwitchId) -> bool {
        self.switch_live(a)
            && self.switch_live(b)
            && (self.dead_trunks.is_empty() || !self.dead_trunks.contains(&Self::key(a, b)))
    }

    /// Whether every switch and trunk of `path` is live.
    pub fn route_live(&self, path: &[SwitchId]) -> bool {
        if self.is_empty() {
            return true;
        }
        path.iter().all(|&s| self.switch_live(s))
            && path.windows(2).all(|w| self.link_live(w[0], w[1]))
    }
}

/// Deterministic shortest-path repair over the live graph: BFS from
/// `from` to `to`, expanding neighbours in ascending switch-id order,
/// rejecting dead switches and trunks. Returns the path (endpoints
/// included, ≤ [`MAX_REPAIR_PATH`] switches) or `None` when the pair is
/// partitioned (or only pathologically-long paths remain).
pub fn repair_route(
    topo: &Topology,
    mask: &LivenessMask,
    from: SwitchId,
    to: SwitchId,
) -> Option<Vec<SwitchId>> {
    if !mask.switch_live(from) || !mask.switch_live(to) {
        return None;
    }
    if from == to {
        return Some(vec![from]);
    }
    let n = topo.switch_count();
    // prev[s] = predecessor on the BFS tree, usize::MAX = unvisited.
    let mut prev = vec![usize::MAX; n];
    prev[from.0] = from.0;
    let mut frontier = vec![from.0];
    let mut next = Vec::new();
    // BFS depth = edges; a path of MAX_REPAIR_PATH switches has
    // MAX_REPAIR_PATH - 1 edges.
    for _depth in 0..MAX_REPAIR_PATH - 1 {
        for &cur in &frontier {
            for cand in 0..n {
                if prev[cand] != usize::MAX {
                    continue;
                }
                let (a, b) = (SwitchId(cur), SwitchId(cand));
                if !topo.connected(a, b) || !mask.link_live(a, b) {
                    continue;
                }
                prev[cand] = cur;
                if cand == to.0 {
                    let mut path = vec![to];
                    let mut s = to.0;
                    while s != from.0 {
                        s = prev[s];
                        path.push(SwitchId(s));
                    }
                    path.reverse();
                    return Some(path);
                }
                next.push(cand);
            }
        }
        if next.is_empty() {
            return None;
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
    None
}

/// The deterministic failure fallback, tried when a message's primary
/// route is dead: the minimal route, then every Valiant salt class
/// starting from the message's own and wrapping (skipped below 3
/// groups, where every class degrades to the minimal route just
/// rejected), then [`repair_route`]. Depends on `salt` only through
/// `salt % topo.salt_classes()`. `None` means the pair is partitioned.
pub fn fallback_route(
    topo: &Topology,
    mask: &LivenessMask,
    from: SwitchId,
    to: SwitchId,
    salt: u64,
) -> Option<Vec<SwitchId>> {
    let min = topo.route_minimal(from, to);
    if mask.route_live(min) {
        return Some(min.to_vec());
    }
    if topo.groups() >= 3 {
        let classes = topo.salt_classes() as u64;
        for k in 0..classes {
            let val = topo.route_valiant(from, to, (salt % classes + k) % classes);
            if mask.route_live(val) {
                return Some(val.to_vec());
            }
        }
    }
    repair_route(topo, mask, from, to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{RoutingPolicy, TopologySpec};

    fn topo3() -> Topology {
        Topology::new(
            TopologySpec { groups: 3, switches_per_group: 1, edge_ports: 4 },
            RoutingPolicy::Minimal,
        )
    }

    #[test]
    fn empty_mask_is_all_live() {
        let m = LivenessMask::default();
        assert!(m.is_empty());
        assert!(m.route_live(&[SwitchId(0), SwitchId(1), SwitchId(2)]));
        assert!(m.link_live(SwitchId(0), SwitchId(1)));
    }

    #[test]
    fn link_faults_are_undirected_and_reversible() {
        let mut m = LivenessMask::default();
        m.apply(FaultKind::LinkDown(SwitchId(1), SwitchId(0)));
        assert!(!m.link_live(SwitchId(0), SwitchId(1)));
        assert!(!m.link_live(SwitchId(1), SwitchId(0)));
        assert!(m.link_live(SwitchId(0), SwitchId(2)));
        m.apply(FaultKind::LinkUp(SwitchId(0), SwitchId(1)));
        assert!(m.link_live(SwitchId(0), SwitchId(1)));
        assert!(m.is_empty());
    }

    #[test]
    fn switch_down_kills_its_trunks() {
        let mut m = LivenessMask::default();
        m.apply(FaultKind::SwitchDown(SwitchId(1)));
        assert!(!m.switch_live(SwitchId(1)));
        assert!(!m.link_live(SwitchId(0), SwitchId(1)));
        assert!(!m.route_live(&[SwitchId(0), SwitchId(1), SwitchId(2)]));
        assert!(m.link_live(SwitchId(0), SwitchId(2)));
    }

    #[test]
    fn repair_detours_around_a_cut_trunk() {
        let t = topo3();
        let mut m = LivenessMask::default();
        m.apply(FaultKind::LinkDown(SwitchId(0), SwitchId(1)));
        let p = repair_route(&t, &m, SwitchId(0), SwitchId(1)).expect("group 2 detour");
        assert_eq!(p, vec![SwitchId(0), SwitchId(2), SwitchId(1)]);
        assert!(m.route_live(&p));
    }

    #[test]
    fn repair_reports_partitions() {
        // 2 groups × 1 switch: the only trunk is (0, 1); cutting it
        // genuinely partitions the fabric.
        let t = Topology::new(
            TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 },
            RoutingPolicy::Minimal,
        );
        let mut m = LivenessMask::default();
        m.apply(FaultKind::LinkDown(SwitchId(0), SwitchId(1)));
        assert!(repair_route(&t, &m, SwitchId(0), SwitchId(1)).is_none());
        // Intra-switch still works.
        assert_eq!(repair_route(&t, &m, SwitchId(0), SwitchId(0)), Some(vec![SwitchId(0)]));
    }

    #[test]
    fn repair_is_shortest_and_deterministic() {
        // 4 groups × 2 switches: cut the (0,1)-group trunk, repair from
        // a non-gateway switch.
        let t = Topology::new(
            TopologySpec { groups: 4, switches_per_group: 2, edge_ports: 4 },
            RoutingPolicy::Minimal,
        );
        let gw01 = t.gateway(0, 1);
        let gw10 = t.gateway(1, 0);
        let mut m = LivenessMask::default();
        m.apply(FaultKind::LinkDown(gw01, gw10));
        let p = repair_route(&t, &m, SwitchId(0), SwitchId(2)).expect("alternate group path");
        assert_eq!(p.first(), Some(&SwitchId(0)));
        assert_eq!(p.last(), Some(&SwitchId(2)));
        assert!(p.len() <= MAX_REPAIR_PATH);
        assert!(m.route_live(&p));
        for w in p.windows(2) {
            assert!(t.connected(w[0], w[1]));
        }
        assert_eq!(p, repair_route(&t, &m, SwitchId(0), SwitchId(2)).unwrap());
    }
}
