//! Dragonfly-style multi-switch topology with a routing table computed
//! at build time.
//!
//! The shape mirrors Slingshot's dragonfly (§II-B of the paper): NICs
//! attach to edge ports of a switch; the switches of one *group* are
//! fully connected by local links; every pair of groups is connected by
//! one bidirectional *global* link between deterministic gateway
//! switches. Routing is deterministic and loop-free:
//!
//! * **minimal** — at most `src → gateway(src group) → landing(dst
//!   group) → dst`, i.e. ≤ 3 inter-switch hops;
//! * **non-minimal (Valiant)** — detour through the landing switch of a
//!   deterministically chosen intermediate group (keyed by the caller's
//!   salt, typically the message id), the classic congestion-avoidance
//!   route with ≤ 5 inter-switch hops.
//!
//! A 1-group × 1-switch spec is the degenerate single-switch fabric the
//! rest of the workspace grew up on; all routes are then `[switch]` and
//! the engine's timing reduces to the original single-switch formula.

use crate::types::SwitchId;

/// Shape of a dragonfly fabric.
///
/// ```
/// use shs_fabric::TopologySpec;
///
/// let spec = TopologySpec { groups: 4, switches_per_group: 2, edge_ports: 16 };
/// assert_eq!(spec.total_switches(), 8);
/// assert_eq!(TopologySpec::single_switch(64).total_switches(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologySpec {
    /// Number of dragonfly groups (≥ 1).
    pub groups: usize,
    /// Switches per group, locally all-to-all connected (≥ 1).
    pub switches_per_group: usize,
    /// NIC-facing edge ports per switch.
    pub edge_ports: usize,
}

impl TopologySpec {
    /// The degenerate 1-group × 1-switch topology (the legacy
    /// single-switch fabric).
    pub const fn single_switch(edge_ports: usize) -> Self {
        TopologySpec { groups: 1, switches_per_group: 1, edge_ports }
    }

    /// Total switch count over all groups.
    pub const fn total_switches(&self) -> usize {
        self.groups * self.switches_per_group
    }
}

/// Route selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Always the minimal (≤ 3 inter-switch hops) route.
    #[default]
    Minimal,
    /// Valiant load balancing: detour via a deterministic intermediate
    /// group chosen from the route salt. Falls back to minimal when
    /// fewer than three groups exist.
    Valiant,
    /// UGAL-style adaptive routing: per packet, the fabric compares the
    /// minimal route against the salted Valiant detour by (live queue
    /// depth × hop count) at injection and takes the cheaper one. The
    /// topology interns both route families; the engines make the
    /// per-packet choice. Falls back to minimal when fewer than three
    /// groups exist (no detour is possible).
    Adaptive,
}

/// The built topology: spec + the minimal-route next-hop table.
///
/// ```
/// use shs_fabric::{RoutingPolicy, SwitchId, Topology, TopologySpec};
///
/// let topo = Topology::new(
///     TopologySpec { groups: 2, switches_per_group: 2, edge_ports: 8 },
///     RoutingPolicy::Minimal,
/// );
/// // Same group: one local hop. Different group: via the global link.
/// assert_eq!(topo.route(SwitchId(0), SwitchId(1), 0), vec![SwitchId(0), SwitchId(1)]);
/// let cross = topo.route(SwitchId(0), SwitchId(3), 0);
/// assert_eq!(cross.first(), Some(&SwitchId(0)));
/// assert_eq!(cross.last(), Some(&SwitchId(3)));
/// assert!(cross.len() <= 4, "minimal dragonfly routes are at most 4 switches");
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    spec: TopologySpec,
    policy: RoutingPolicy,
    /// `next_hop[src][dst]` = next switch on the minimal route from
    /// `src` towards `dst` (self for `src == dst`). Computed at build
    /// time; the route caches are walked from it.
    next_hop: Vec<Vec<u32>>,
    /// Interned routes: every route any `route*` call can return is
    /// computed once at build time and handed out as a slice, so the
    /// per-packet path lookup allocates nothing. See [`RouteCache`].
    minimal: RouteCache,
    /// Valiant routes, one entry per `(src, dst, salt class)`. Empty
    /// when the policy is [`RoutingPolicy::Minimal`] or fewer than three
    /// groups exist (Valiant then degrades to minimal anyway).
    valiant: RouteCache,
}

/// A flat arena of interned routes. Routes are at most
/// [`RouteCache::STRIDE`] switches long (Valiant's 6-switch worst case),
/// so the arena uses a fixed stride: route `i` occupies
/// `switches[i * STRIDE ..][.. lens[i]]`. Lookup is one multiply and one
/// bounds-checked slice — no pointer chase through per-route `Vec`s.
#[derive(Debug, Clone, Default)]
struct RouteCache {
    switches: Vec<SwitchId>,
    lens: Vec<u8>,
}

impl RouteCache {
    /// Longest possible route: Valiant's `src → gw → land(mid) → mid-gw
    /// → land(dst) → dst`.
    const STRIDE: usize = 6;

    fn with_capacity(routes: usize) -> Self {
        RouteCache {
            switches: Vec::with_capacity(routes * Self::STRIDE),
            lens: Vec::with_capacity(routes),
        }
    }

    /// Intern `path` as the next route slot (callers index slots in the
    /// same order they push).
    fn push(&mut self, path: &[SwitchId]) {
        debug_assert!(!path.is_empty() && path.len() <= Self::STRIDE);
        self.switches.extend_from_slice(path);
        self.switches.resize(self.lens.len() * Self::STRIDE + Self::STRIDE, SwitchId(0));
        self.lens.push(path.len() as u8);
    }

    fn get(&self, idx: usize) -> &[SwitchId] {
        &self.switches[idx * Self::STRIDE..][..self.lens[idx] as usize]
    }
}

impl Topology {
    /// Build the topology, its routing table, and the interned route
    /// caches. Panics on a zero dimension (a wiring bug, like the
    /// fabric's double-attach).
    pub fn new(spec: TopologySpec, policy: RoutingPolicy) -> Self {
        assert!(spec.groups >= 1, "topology needs at least one group");
        assert!(spec.switches_per_group >= 1, "topology needs at least one switch per group");
        let n = spec.total_switches();
        let mut next_hop = vec![vec![0u32; n]; n];
        for (src, row) in next_hop.iter_mut().enumerate() {
            for (dst, hop) in row.iter_mut().enumerate() {
                *hop = Self::compute_next_hop(&spec, src, dst) as u32;
            }
        }
        let mut topo =
            Topology { spec, policy, next_hop, minimal: RouteCache::default(), valiant: RouteCache::default() };
        let mut scratch = Vec::with_capacity(RouteCache::STRIDE);
        let mut minimal = RouteCache::with_capacity(n * n);
        for src in 0..n {
            for dst in 0..n {
                scratch.clear();
                topo.walk_minimal(SwitchId(src), SwitchId(dst), &mut scratch);
                minimal.push(&scratch);
            }
        }
        topo.minimal = minimal;
        if policy != RoutingPolicy::Minimal && spec.groups >= 3 {
            // `salt % (groups - 2)` is the only way the salt enters route
            // selection, so `groups - 2` interned routes per (src, dst)
            // pair cover every possible salt.
            let classes = topo.salt_classes();
            let mut valiant = RouteCache::with_capacity(n * n * classes);
            let mut tail = Vec::with_capacity(RouteCache::STRIDE);
            for src in 0..n {
                for dst in 0..n {
                    for class in 0..classes {
                        scratch.clear();
                        tail.clear();
                        topo.walk_valiant(
                            SwitchId(src),
                            SwitchId(dst),
                            class as u64,
                            &mut scratch,
                            &mut tail,
                        );
                        valiant.push(&scratch);
                    }
                }
            }
            topo.valiant = valiant;
        }
        topo
    }

    /// Distinct values `salt % (groups - 2)` can take, i.e. how many
    /// Valiant routes exist per (src, dst) pair. The adaptive engines
    /// iterate these classes when repairing a route around a failure.
    pub(crate) fn salt_classes(&self) -> usize {
        self.spec.groups.saturating_sub(2).max(1)
    }

    /// The shape this topology was built from.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// The routing policy in force.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Total switch count.
    pub fn switch_count(&self) -> usize {
        self.spec.total_switches()
    }

    /// Group a switch belongs to.
    pub fn group_of(&self, sw: SwitchId) -> usize {
        sw.0 / self.spec.switches_per_group
    }

    /// Flat switch id of local switch `idx` in `group`.
    pub(crate) fn switch_in_group(&self, group: usize, idx: usize) -> SwitchId {
        SwitchId(group * self.spec.switches_per_group + idx % self.spec.switches_per_group)
    }

    /// Gateway switch in `from_group` holding the global link towards
    /// `to_group` (deterministic consecutive assignment: link for group
    /// pair `(i, j)` hangs off local switch `j mod a` in group `i` and
    /// lands on local switch `i mod a` in group `j`).
    pub fn gateway(&self, from_group: usize, to_group: usize) -> SwitchId {
        self.switch_in_group(from_group, to_group)
    }

    /// Whether two distinct switches are directly linked (local
    /// all-to-all within a group, or the group pair's global link).
    pub fn connected(&self, a: SwitchId, b: SwitchId) -> bool {
        if a == b {
            return false;
        }
        let (ga, gb) = (self.group_of(a), self.group_of(b));
        if ga == gb {
            return true; // local all-to-all
        }
        self.gateway(ga, gb) == a && self.gateway(gb, ga) == b
    }

    /// Every directed inter-switch link, in deterministic order.
    pub fn trunk_links(&self) -> Vec<(SwitchId, SwitchId)> {
        let n = self.switch_count();
        let mut out = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if self.connected(SwitchId(a), SwitchId(b)) {
                    out.push((SwitchId(a), SwitchId(b)));
                }
            }
        }
        out
    }

    /// Number of dragonfly groups.
    pub fn groups(&self) -> usize {
        self.spec.groups
    }

    /// The per-group view a sweep's group net owns: its switches and
    /// the directed trunks *sourced* in the group. Ownership by source
    /// switch partitions every directed trunk across the groups — a
    /// group's net reserves only links it owns, and a cross-group
    /// message is handed to the destination group exactly when it has
    /// cleared the boundary trunk (whose source side the sending group
    /// owns).
    pub(crate) fn group_view(&self, group: usize) -> GroupView {
        assert!(group < self.spec.groups, "group {group} out of range");
        let a = self.spec.switches_per_group;
        let switches: Vec<SwitchId> = (0..a).map(|i| SwitchId(group * a + i)).collect();
        let mut trunks_out = Vec::new();
        let mut boundary_out = Vec::new();
        for (s, d) in self.trunk_links() {
            if self.group_of(s) == group {
                trunks_out.push((s, d));
                if self.group_of(d) != group {
                    boundary_out.push((s, d));
                }
            }
        }
        GroupView { group, switches, trunks_out, boundary_out }
    }

    fn compute_next_hop(spec: &TopologySpec, src: usize, dst: usize) -> usize {
        if src == dst {
            return dst;
        }
        let a = spec.switches_per_group;
        let (gs, gd) = (src / a, dst / a);
        if gs == gd {
            return dst; // local all-to-all
        }
        let gateway = gs * a + gd % a;
        if src == gateway {
            gd * a + gs % a // the global hop lands in the destination group
        } else {
            gateway // first reach this group's gateway towards gd
        }
    }

    /// Minimal route between two switches, endpoints included. A route
    /// never revisits a switch and is at most 4 switches long. One
    /// arena lookup — the route was interned at build time.
    pub fn route_minimal(&self, from: SwitchId, to: SwitchId) -> &[SwitchId] {
        self.minimal.get(from.0 * self.switch_count() + to.0)
    }

    /// The route the fabric uses for a message, per the policy. `salt`
    /// (typically the message id) picks the Valiant intermediate group
    /// deterministically; minimal routing ignores it. One arena lookup;
    /// nothing is allocated per call.
    pub fn route(&self, from: SwitchId, to: SwitchId, salt: u64) -> &[SwitchId] {
        match self.policy {
            RoutingPolicy::Minimal => self.route_minimal(from, to),
            RoutingPolicy::Valiant => self.route_valiant(from, to, salt),
            // Adaptive's per-packet choice needs live queue state the
            // topology does not hold; the engines call `route_minimal` /
            // `route_valiant` themselves. The policy-only route is the
            // minimal base path (what a zero-load UGAL decision picks).
            RoutingPolicy::Adaptive => self.route_minimal(from, to),
        }
    }

    /// Valiant route: minimal to the landing switch of an intermediate
    /// group, then minimal onwards. Deterministic in `salt`; loop-free
    /// because the groups visited (`src`, `mid`, `dst`) are distinct and
    /// each group's switches appear consecutively.
    pub fn route_valiant(&self, from: SwitchId, to: SwitchId, salt: u64) -> &[SwitchId] {
        if self.valiant.lens.is_empty() {
            // Minimal-policy or < 3 groups: Valiant degrades to minimal.
            return self.route_minimal(from, to);
        }
        let classes = self.salt_classes();
        let class = (salt % classes as u64) as usize;
        self.valiant.get((from.0 * self.switch_count() + to.0) * classes + class)
    }

    /// Compute (not look up) the minimal route into `path`.
    fn walk_minimal(&self, from: SwitchId, to: SwitchId, path: &mut Vec<SwitchId>) {
        path.push(from);
        let mut cur = from.0;
        while cur != to.0 {
            cur = self.next_hop[cur][to.0] as usize;
            path.push(SwitchId(cur));
        }
    }

    /// Compute (not look up) the Valiant route into `path`, using `tail`
    /// as scratch for the second minimal segment.
    fn walk_valiant(
        &self,
        from: SwitchId,
        to: SwitchId,
        salt: u64,
        path: &mut Vec<SwitchId>,
        tail: &mut Vec<SwitchId>,
    ) {
        let (gs, gd) = (self.group_of(from), self.group_of(to));
        if self.spec.groups < 3 || gs == gd {
            self.walk_minimal(from, to, path);
            return;
        }
        // k-th intermediate group in ascending order, skipping src/dst
        // (pure arithmetic; no candidate list is materialised).
        let others = (self.spec.groups - 2) as u64;
        let mut mid_group = (salt % others) as usize;
        let (lo, hi) = (gs.min(gd), gs.max(gd));
        if mid_group >= lo {
            mid_group += 1;
        }
        if mid_group >= hi {
            mid_group += 1;
        }
        // Route to where the src group's global link lands in mid_group,
        // so the junction switch is shared by both minimal segments.
        let mid = self.switch_in_group(mid_group, gs);
        self.walk_minimal(from, mid, path);
        self.walk_minimal(mid, to, tail);
        path.extend_from_slice(&tail[1..]);
    }
}

/// One group's slice of the topology, as owned by a sweep's group net:
/// the group's switches plus every directed trunk sourced there. See
/// `Topology::group_view` for the ownership rule.
#[derive(Debug, Clone)]
pub struct GroupView {
    /// The group index.
    pub group: usize,
    /// The group's switches, ascending.
    pub switches: Vec<SwitchId>,
    /// Every directed trunk whose source switch is in this group
    /// (intra-group local links and outgoing global links), in
    /// [`Topology::trunk_links`] order.
    pub trunks_out: Vec<(SwitchId, SwitchId)>,
    /// The subset of [`trunks_out`](GroupView::trunks_out) crossing
    /// into another group — the group's hand-off boundary.
    pub boundary_out: Vec<(SwitchId, SwitchId)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(groups: usize, a: usize) -> Topology {
        Topology::new(
            TopologySpec { groups, switches_per_group: a, edge_ports: 4 },
            RoutingPolicy::Minimal,
        )
    }

    #[test]
    fn degenerate_single_switch_routes_to_itself() {
        let t = topo(1, 1);
        assert_eq!(t.route(SwitchId(0), SwitchId(0), 9), vec![SwitchId(0)]);
        assert!(t.trunk_links().is_empty());
    }

    #[test]
    fn same_group_is_one_local_hop() {
        let t = topo(2, 4);
        assert_eq!(t.route(SwitchId(1), SwitchId(3), 0), vec![SwitchId(1), SwitchId(3)]);
    }

    #[test]
    fn cross_group_routes_are_minimal_and_valid() {
        let t = topo(3, 2);
        for s in 0..t.switch_count() {
            for d in 0..t.switch_count() {
                let p = t.route_minimal(SwitchId(s), SwitchId(d));
                assert_eq!(p[0], SwitchId(s));
                assert_eq!(*p.last().unwrap(), SwitchId(d));
                assert!(p.len() <= 4, "{s}->{d}: {p:?}");
                for w in p.windows(2) {
                    assert!(t.connected(w[0], w[1]), "{s}->{d}: {:?} not linked", w);
                }
            }
        }
    }

    #[test]
    fn global_links_are_symmetric() {
        let t = topo(4, 3);
        for (a, b) in t.trunk_links() {
            assert!(t.connected(b, a), "link {a}->{b} must be bidirectional");
        }
    }

    #[test]
    fn valiant_detours_through_a_third_group() {
        let t = Topology::new(
            TopologySpec { groups: 4, switches_per_group: 2, edge_ports: 4 },
            RoutingPolicy::Valiant,
        );
        let from = SwitchId(0);
        let to = SwitchId(7); // group 3
        let p = t.route(from, to, 1);
        let groups: Vec<usize> = p.iter().map(|&s| t.group_of(s)).collect();
        assert!(groups.iter().any(|&g| g != 0 && g != 3), "detour group in {groups:?}");
        // Loop-free and valid.
        let mut seen = std::collections::BTreeSet::new();
        assert!(p.iter().all(|s| seen.insert(*s)), "revisit in {p:?}");
        for w in p.windows(2) {
            assert!(t.connected(w[0], w[1]));
        }
        // Deterministic in the salt.
        assert_eq!(p, t.route(from, to, 1));
        assert!(p.len() <= 6);
    }

    #[test]
    fn route_cache_matches_recomputed_walk() {
        // The interned arena must agree with a fresh walk of the
        // next-hop table for every (src, dst, salt) — including salts
        // far beyond the class count (they alias onto cached classes).
        for policy in [RoutingPolicy::Minimal, RoutingPolicy::Valiant] {
            let t = Topology::new(
                TopologySpec { groups: 5, switches_per_group: 3, edge_ports: 4 },
                policy,
            );
            for s in 0..t.switch_count() {
                for d in 0..t.switch_count() {
                    for salt in [0u64, 1, 2, 3, 7, 1_000_003] {
                        let cached = t.route(SwitchId(s), SwitchId(d), salt).to_vec();
                        let mut walked = Vec::new();
                        let mut tail = Vec::new();
                        match policy {
                            // Adaptive's policy-only route is the minimal
                            // base path (the zero-load UGAL decision).
                            RoutingPolicy::Minimal | RoutingPolicy::Adaptive => {
                                t.walk_minimal(SwitchId(s), SwitchId(d), &mut walked)
                            }
                            RoutingPolicy::Valiant => t.walk_valiant(
                                SwitchId(s),
                                SwitchId(d),
                                salt,
                                &mut walked,
                                &mut tail,
                            ),
                        }
                        assert_eq!(cached, walked, "{policy:?} {s}->{d} salt {salt}");
                    }
                }
            }
        }
    }

    #[test]
    fn group_views_partition_switches_and_trunks() {
        for (groups, a) in [(1usize, 1usize), (2, 2), (4, 3), (4, 8)] {
            let t = topo(groups, a);
            let mut all_switches = Vec::new();
            let mut all_trunks = Vec::new();
            for g in 0..t.groups() {
                let v = t.group_view(g);
                assert_eq!(v.group, g);
                assert_eq!(v.switches.len(), a);
                assert!(v.switches.iter().all(|&s| t.group_of(s) == g));
                for &(s, d) in &v.trunks_out {
                    assert_eq!(t.group_of(s), g, "owned by source group");
                    assert!(t.connected(s, d));
                }
                for &(s, d) in &v.boundary_out {
                    assert!(t.group_of(d) != g, "boundary must cross groups");
                    assert!(v.trunks_out.contains(&(s, d)));
                }
                assert_eq!(
                    v.trunks_out.iter().filter(|&&(_, d)| t.group_of(d) != g).count(),
                    v.boundary_out.len()
                );
                all_switches.extend(v.switches);
                all_trunks.extend(v.trunks_out);
            }
            // Views partition the fabric: every switch and every
            // directed trunk is owned by exactly one group.
            all_switches.sort();
            assert_eq!(all_switches, (0..t.switch_count()).map(SwitchId).collect::<Vec<_>>());
            all_trunks.sort();
            let mut expect = t.trunk_links();
            expect.sort();
            assert_eq!(all_trunks, expect);
        }
    }

    #[test]
    fn valiant_degrades_to_minimal_below_three_groups() {
        let t = Topology::new(
            TopologySpec { groups: 2, switches_per_group: 2, edge_ports: 4 },
            RoutingPolicy::Valiant,
        );
        assert_eq!(t.route(SwitchId(0), SwitchId(3), 5), t.route_minimal(SwitchId(0), SwitchId(3)));
    }
}
