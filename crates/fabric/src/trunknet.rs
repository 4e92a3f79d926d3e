//! The one fabric packet path: trunk state, route selection and the
//! hop-by-hop walk, shared by both engines.
//!
//! A [`TrunkNet`] owns the directed trunks sourced in a set of dragonfly
//! groups — every group for the serial [`Fabric`](crate::Fabric), one
//! group for each group of a [`shardsim`](crate::shardsim) sweep — plus
//! the liveness mask and the fallback routes cached since the last
//! fault event. Routes are chosen once at injection by
//! [`TrunkNet::select_route`] and walked by [`TrunkNet::walk`], which
//! reserves owned trunks and stops where ownership ends. The engines add
//! only what is theirs: edge links ([`LinkState`]), enforcement and
//! tenant counters in `Fabric`; per-group counters and the hand-off at
//! a group boundary in `shardsim`.

use std::collections::BTreeMap;
use std::rc::Rc;

use shs_des::{SimDur, SimTime};

use crate::faults::{fallback_route, FaultKind, LivenessMask, MAX_REPAIR_PATH};
use crate::packet::CostModel;
use crate::topology::{RoutingPolicy, Topology};
use crate::types::{SwitchId, TrafficClass};

/// One NIC↔switch edge link (full duplex: separate up/down directions)
/// with scalar busy-until semantics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkState {
    /// Node→switch direction busy until this instant.
    up_busy: SimTime,
    /// Switch→node direction busy until this instant.
    down_busy: SimTime,
}

impl LinkState {
    /// Reserve the uplink for one message injected at `now`; returns the
    /// instant its first byte enters the link (the last leaves `ser`
    /// later).
    pub(crate) fn reserve_up(&mut self, now: SimTime, ser: SimDur) -> SimTime {
        let t0 = now.max(self.up_busy);
        self.up_busy = t0 + ser;
        t0
    }

    /// Reserve the downlink for a message whose head reaches the
    /// destination switch's egress at `head_t`; returns the arrival of
    /// the last byte at the NIC — after both the downlink's own
    /// serialization and the slowest upstream stage (`tail_t`) have
    /// released it. On a single switch `t1 + ser` always dominates.
    pub(crate) fn reserve_down(
        &mut self,
        head_t: SimTime,
        tail_t: SimTime,
        ser: SimDur,
        prop: SimDur,
    ) -> SimTime {
        let t1 = head_t.max(self.down_busy);
        self.down_busy = t1 + ser;
        (t1 + ser).max(tail_t + prop) + prop
    }
}

/// Per-traffic-class counters of one directed trunk link (or, via
/// [`Fabric::trunk_class_totals`](crate::Fabric::trunk_class_totals),
/// of all of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrunkClassCounters {
    /// Messages that traversed the link on this class.
    pub messages: u64,
    /// Payload bytes carried.
    pub payload_bytes: u64,
    /// Messages dropped because the class queue exceeded the cost
    /// model's `trunk_queue_ns` bound.
    pub congestion_drops: u64,
    /// Worst queueing delay a message of this class accepted (ns).
    pub queued_ns_max: u64,
}

/// One directed inter-switch link: per-class busy horizons (the
/// weighted-sharing state) plus per-class counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrunkState {
    cls_busy: [SimTime; 4],
    counters: [TrunkClassCounters; 4],
}

impl TrunkState {
    /// One message crossing this directed trunk: the per-class
    /// finite-queue check plus weighted-processor-sharing bookkeeping.
    /// Returns `(start, finish)` — the instants the head enters the
    /// link and the last byte clears it at the class's weighted share
    /// of the link rate — or `None` when the class queue exceeds
    /// `queue_bound_ns` (the congestion drop is already counted on this
    /// trunk; the caller books tenant/switch counters).
    fn traverse(
        &mut self,
        tc: TrafficClass,
        ser_ns: u64,
        len: u64,
        head_t: SimTime,
        queue_bound_ns: u64,
    ) -> Option<(SimTime, SimTime)> {
        let cls = tc.index();
        let start = head_t.max(self.cls_busy[cls]);
        let queued_ns = (start - head_t).as_nanos();
        if queued_ns > queue_bound_ns {
            self.counters[cls].congestion_drops += 1;
            return None;
        }
        // Weighted processor sharing across the classes backlogged at
        // `start`: class `tc` drains at weight(tc)/Σ weights of the
        // link rate, so its serialization stretches by the inverse
        // share (1x when it has the trunk to itself).
        let active: u64 = TrafficClass::ALL
            .iter()
            .filter(|c| c.index() == cls || self.cls_busy[c.index()] > start)
            .map(|c| c.weight() as u64)
            .sum();
        let ser_eff = SimDur::from_nanos(ser_ns * active / tc.weight() as u64);
        self.cls_busy[cls] = start + ser_eff;
        self.counters[cls].messages += 1;
        self.counters[cls].payload_bytes += len;
        self.counters[cls].queued_ns_max = self.counters[cls].queued_ns_max.max(queued_ns);
        Some((start, start + ser_eff))
    }

    /// Current queue depth of one class in ns: how long a message of
    /// this class injected at `now` would wait before its head enters
    /// the link. The live-occupancy signal UGAL routing decides on.
    fn queue_ns(&self, tc: TrafficClass, now: SimTime) -> u64 {
        self.cls_busy[tc.index()].since(now).as_nanos()
    }
}

/// Caller-provided storage for a chosen route, endpoints included.
/// [`TrunkNet::select_route`] fills a prefix in place (no by-value
/// route crosses a call), and a message carries it across group
/// boundaries — the next group could not re-derive which candidate the
/// source picked.
pub(crate) type RouteBuf = [SwitchId; MAX_REPAIR_PATH];

/// Why a [`TrunkNet::walk`] stopped at [`Walk::pos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalkEnd {
    /// The head reached the route's last switch.
    Arrived,
    /// The next switch belongs to a group this net does not own: the
    /// message cleared the boundary trunk and continues there at
    /// `head_t`, at least one trunk step after it entered the trunk.
    Handoff,
    /// The outbound trunk's class queue was over its bound (already
    /// counted on the trunk).
    Congested,
    /// The outbound trunk (or a switch on it) died after injection.
    LinkDead,
}

/// Result of walking a route from some position.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    /// Route index of the switch the head stopped at; every trunk
    /// before it was reserved.
    pub(crate) pos: usize,
    /// Instant the head reaches the egress side of that switch.
    pub(crate) head_t: SimTime,
    /// The last byte's progress: a trunk carrying the message at a
    /// weighted share of the link rate holds the tail back, so contended
    /// classes see the stretch in the arrival, not only in the trunk's
    /// busy horizon.
    pub(crate) tail_t: SimTime,
    /// Trunks that accepted the message after it queued past the cost
    /// model's `ecn_threshold_ns`.
    pub(crate) ecn_marks: u64,
    /// Why the walk stopped.
    pub(crate) end: WalkEnd,
}

/// Trunk state, liveness and routing for the groups one engine
/// instance owns.
#[derive(Debug)]
pub(crate) struct TrunkNet {
    pub(crate) topo: Rc<Topology>,
    pub(crate) model: CostModel,
    /// The one owned group, or `None` when every group is owned.
    group: Option<usize>,
    /// State of the owned directed trunks, in [`Topology::trunk_links`]
    /// order.
    trunks: Vec<TrunkState>,
    /// Dense `(from, to) → trunks` index (`from * n + to`), `u32::MAX`
    /// where no owned trunk exists.
    trunk_idx: Vec<u32>,
    /// Runtime fault state; empty on a healthy fabric.
    liveness: LivenessMask,
    /// Failure fallbacks chosen since the last fault event, keyed by
    /// `(src switch, dst switch, salt class)` — everything
    /// [`fallback_route`] depends on besides the mask. `None` caches
    /// "partitioned".
    fallback_cache: BTreeMap<(u16, u16, u16), Option<Vec<SwitchId>>>,
}

impl TrunkNet {
    /// The net owning the trunks sourced in `group`, or every trunk of
    /// the topology for `None`.
    pub(crate) fn new(topo: Rc<Topology>, model: CostModel, group: Option<usize>) -> Self {
        let links = match group {
            Some(g) => topo.group_view(g).trunks_out,
            None => topo.trunk_links(),
        };
        let n = topo.switch_count();
        let mut trunk_idx = vec![u32::MAX; n * n];
        for (i, &(a, b)) in links.iter().enumerate() {
            trunk_idx[a.0 * n + b.0] = i as u32;
        }
        TrunkNet {
            topo,
            model,
            group,
            trunks: vec![TrunkState::default(); links.len()],
            trunk_idx,
            liveness: LivenessMask::default(),
            fallback_cache: BTreeMap::new(),
        }
    }

    /// Index into `trunks` of the owned directed trunk `a → b`, if
    /// there is one.
    fn trunk(&self, a: SwitchId, b: SwitchId) -> Option<usize> {
        match self.trunk_idx.get(a.0 * self.topo.switch_count() + b.0) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }

    /// Per-class counters of one owned directed trunk, if it exists.
    pub(crate) fn trunk_counters(&self, a: SwitchId, b: SwitchId) -> Option<&[TrunkClassCounters; 4]> {
        self.trunk(a, b).map(|i| &self.trunks[i].counters)
    }

    /// Per-class counters of every owned trunk.
    pub(crate) fn all_trunk_counters(&self) -> impl Iterator<Item = &[TrunkClassCounters; 4]> {
        self.trunks.iter().map(|t| &t.counters)
    }

    /// The current liveness mask (empty on a healthy fabric).
    pub(crate) fn liveness(&self) -> &LivenessMask {
        &self.liveness
    }

    /// Apply a runtime fault event: the liveness mask flips and every
    /// cached fallback is invalidated. Interned route arenas are never
    /// rebuilt — dead candidates are filtered per message.
    pub(crate) fn apply_fault(&mut self, kind: FaultKind) {
        self.liveness.apply(kind);
        self.fallback_cache.clear();
    }

    /// Route selection at injection: the policy's primary route when it
    /// is fully live, else the cached [`fallback_route`]. Copies the
    /// route into `buf` and returns its length and whether it is a
    /// failure reroute; `None` means the pair is partitioned (the caller
    /// drops `NoRoute`).
    ///
    /// Under [`RoutingPolicy::Adaptive`] the primary is the UGAL-L
    /// choice: detour onto the salted Valiant route only when the
    /// minimal path's cost — first-trunk queue depth × path switch count
    /// — exceeds the detour's by more than the cost model's
    /// `adaptive_bias_ns`. Both first hops leave the source switch, so
    /// the signal is what a Rosetta ingress port sees at injection and
    /// is always owned by the injecting net.
    pub(crate) fn select_route(
        &mut self,
        from: SwitchId,
        to: SwitchId,
        tc: TrafficClass,
        salt: u64,
        now: SimTime,
        buf: &mut RouteBuf,
    ) -> Option<(usize, bool)> {
        let mut primary = self.topo.route(from, to, salt);
        if self.topo.policy() == RoutingPolicy::Adaptive {
            let val = self.topo.route_valiant(from, to, salt);
            // A detour no longer than the minimal route is the Valiant
            // arena degraded to it (< 3 groups or a same-group pair).
            if val.len() > primary.len() {
                let cost = |path: &[SwitchId]| {
                    let first = self.trunk(path[0], path[1]).expect("first hop is an owned trunk");
                    self.trunks[first].queue_ns(tc, now) * path.len() as u64
                };
                if cost(primary) > cost(val) + self.model.adaptive_bias_ns {
                    primary = val;
                }
            }
        }
        let mut rerouted = false;
        if !self.liveness.route_live(primary) {
            let class = salt % self.topo.salt_classes() as u64;
            let (topo, mask) = (&self.topo, &self.liveness);
            primary = self
                .fallback_cache
                .entry((from.0 as u16, to.0 as u16, class as u16))
                .or_insert_with(|| fallback_route(topo, mask, from, to, salt))
                .as_deref()?;
            rerouted = true;
        }
        buf[..primary.len()].copy_from_slice(primary);
        Some((primary.len(), rerouted))
    }

    /// Walk `route` from index `pos` (an owned switch) with the head at
    /// that switch's egress at `head_t`: per hop, check the trunk is
    /// still live, reserve it on class `tc`, and advance head and tail;
    /// stop at the destination, at the first switch of a group this net
    /// does not own, or where the message is dropped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn walk(
        &mut self,
        route: &[SwitchId],
        mut pos: usize,
        tc: TrafficClass,
        ser_ns: u64,
        len: u64,
        mut head_t: SimTime,
        mut tail_t: SimTime,
    ) -> Walk {
        let step = SimDur::from_nanos(self.model.propagation_ns + self.model.hop_latency_ns);
        let prop = SimDur::from_nanos(self.model.propagation_ns);
        let mut ecn_marks = 0;
        let mut end = WalkEnd::Arrived;
        while pos + 1 < route.len() {
            let (a, b) = (route[pos], route[pos + 1]);
            if !self.liveness.link_live(a, b) {
                end = WalkEnd::LinkDead;
                break;
            }
            let ti = self.trunk(a, b).expect("route follows owned topology links");
            let Some((start, finish)) =
                self.trunks[ti].traverse(tc, ser_ns, len, head_t, self.model.trunk_queue_ns)
            else {
                end = WalkEnd::Congested;
                break;
            };
            if (start - head_t).as_nanos() > self.model.ecn_threshold_ns {
                ecn_marks += 1;
            }
            head_t = start + step;
            tail_t = (tail_t + prop).max(finish);
            pos += 1;
            if self.group.is_some_and(|g| self.topo.group_of(b) != g) {
                end = WalkEnd::Handoff;
                break;
            }
        }
        Walk { pos, head_t, tail_t, ecn_marks, end }
    }
}
