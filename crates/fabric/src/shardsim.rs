//! Fabric sweeps: synthetic all-groups traffic over 128–1024-node
//! dragonfly topologies, run on one [`Sim`] whose world holds one
//! `GroupNet` per dragonfly group.
//!
//! # Groups and hand-offs
//!
//! A group's net owns the group's switches, the edge links of the nodes
//! attached there, and every directed trunk *sourced* in the group
//! (`Topology::group_view`). A message's walk reserves only the trunks
//! of the group it is in; when the route crosses a group boundary the
//! message has, by then, cleared the boundary trunk, and its
//! continuation is scheduled at the head's arrival instant on the far
//! side, where the next group's net walks it on. So every boundary
//! trunk's far side is reserved in the order heads arrive there.
//!
//! # Streamed injection
//!
//! The workload is a pure function of the config (`sweep_message`, the
//! generator behind [`sweep_messages`]), so it is never materialized:
//! every node is a self-rescheduling process whose launch event first
//! queues the node's *next* generated message, and the queue holds one
//! launch per node plus the continuations in flight — O(nodes), not
//! O(messages). Queuing a launch that late is unobservable because its
//! place in the tie-break order is reserved at setup
//! ([`shs_des::Sim::reserve`]): the faults first, then one slot per
//! `(node, k)` in node-major order, then — under plain insertion order
//! — every continuation. A node's injection instants strictly increase,
//! so its successor is always in the future when it is queued.
//!
//! # Per-hop timing
//!
//! A group's net is the packet path of `trunknet.rs` owning one group —
//! the serial [`Fabric`](crate::Fabric) is the same code owning all of
//! them — so routing, edge links, weighted trunk sharing and finite
//! queues cannot differ between the engines. This engine measures
//! routing, queueing and QoS at scale; VNI enforcement stays with the
//! serial k8s engine, which exercises it end to end per message.

use std::rc::Rc;

use shs_des::{Event, Sim, SimDur, SimTime};

use crate::faults::{FaultKind, MAX_REPAIR_PATH};
use crate::packet::CostModel;
use crate::topology::{RoutingPolicy, Topology, TopologySpec};
use crate::trunknet::{LinkState, RouteBuf, TrunkNet, WalkEnd};
use crate::types::{SwitchId, TrafficClass};

/// One trunk step: propagation + hop latency, the least time a head
/// spends between two switches.
fn trunk_step(model: &CostModel) -> SimDur {
    SimDur::from_nanos(model.propagation_ns + model.hop_latency_ns)
}

/// One message of a sweep's generated workload (see
/// [`sweep_messages`]); small and `Copy`, so continuations carry it
/// across group boundaries by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepMsg {
    /// Sending node (global id; node `i` hangs off switch
    /// `i / nodes_per_switch`).
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Injection instant.
    pub t0: SimTime,
    /// Payload bytes.
    pub len: u64,
    /// Traffic class.
    pub tc: TrafficClass,
    /// Message id (the route salt).
    pub id: u64,
}

/// A sweep's events, as plain data: the whole of what a sweep ever
/// schedules.
#[derive(Clone, Copy)]
enum SweepEv {
    /// A scheduled fault: every group's liveness view flips.
    Fault(FaultKind),
    /// The launch of a node of `group`: queue its next message, then
    /// inject this one.
    Launch { group: usize, m: SweepMsg },
    /// A message that crossed into `group`, resuming its walk at hop
    /// `pos` of its carried route; its head arrives now.
    Continue { group: usize, m: SweepMsg, route: RouteBuf, hops: usize, pos: usize, tail_t: SimTime },
    /// An injection with no successor to queue: the launches of the
    /// test oracle `run_sweep_materialized`, every one queued up front.
    #[cfg(test)]
    Inject { group: usize, m: SweepMsg },
}

/// A sweep's simulator.
type SweepSim = Sim<SweepNet, SweepEv>;

impl Event<SweepNet> for SweepEv {
    #[inline]
    fn fire(self, s: &mut SweepSim) {
        match self {
            SweepEv::Fault(kind) => {
                for g in &mut s.world.groups {
                    g.net.apply_fault(kind);
                }
            }
            SweepEv::Launch { group, m } => launch(s, group, m),
            SweepEv::Continue { group, m, route, hops, pos, tail_t } => {
                let head = s.now();
                walk_from(s, group, m, route, hops, pos, head, tail_t);
            }
            #[cfg(test)]
            SweepEv::Inject { group, m } => inject(s, group, m),
        }
    }
}

/// Counters of one group's slice of a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCounters {
    /// Messages launched by nodes of this group.
    pub sent: u64,
    /// Messages delivered to nodes of this group.
    pub delivered: u64,
    /// Messages congestion-dropped on trunks this group owns.
    pub congestion_drops: u64,
    /// Payload bytes of delivered messages.
    pub payload_bytes: u64,
    /// Sum of end-to-end latencies of delivered messages (ns).
    pub latency_sum_ns: u64,
    /// Worst end-to-end latency of a delivered message (ns).
    pub latency_max_ns: u64,
    /// Switch hops of delivered messages.
    pub switch_hops: u64,
    /// Delivered messages per class, [`TrafficClass::index`] order.
    pub class_delivered: [u64; 4],
    /// Congestion drops per class, [`TrafficClass::index`] order.
    pub class_drops: [u64; 4],
    /// Messages dropped `NoRoute`: no live route existed at injection,
    /// or a trunk on the chosen route died while the message was in
    /// flight. Zero on a healthy fabric.
    pub route_drops: u64,
}

/// One dragonfly group's slice of the fabric.
struct GroupNet {
    /// The trunks sourced in this group, plus the group's view of
    /// fabric liveness (every fault flips every group's view).
    net: TrunkNet,
    /// First global node id of this group.
    node_base: u32,
    /// Edge-link occupancy per local node.
    edge: Vec<LinkState>,
    /// The group's counters.
    counters: GroupCounters,
}

impl GroupNet {
    #[inline]
    fn edge_mut(&mut self, node: u32) -> &mut LinkState {
        &mut self.edge[(node - self.node_base) as usize]
    }
}

/// A sweep's world: the config its launches are generated from, one
/// net per group, and the hand-offs between them.
struct SweepNet {
    cfg: SweepConfig,
    /// First of the reserved launch slots: message `k` of node `n`
    /// launches under slot `slot_base + n · messages_per_node + k`.
    slot_base: u64,
    groups: Vec<GroupNet>,
    /// Continuations scheduled at a group boundary.
    handoffs: u64,
}

impl SweepNet {
    #[inline]
    fn switch_of(&self, node: u32) -> SwitchId {
        SwitchId(node as usize / self.cfg.nodes_per_switch)
    }
}

/// Queue the launch of `node`'s (a node of `group`) first generated
/// message with index `≥ from_k` (indices that generate `None` are
/// skipped) under its reserved slot, and return its injection instant.
fn queue_next_launch(s: &mut SweepSim, group: usize, node: u32, from_k: u32) -> Option<SimTime> {
    let w = &s.world;
    let per_node = w.cfg.messages_per_node;
    let (k, m) = (from_k..per_node).find_map(|k| Some((k, sweep_message(&w.cfg, node, k)?)))?;
    let slot = w.slot_base + node as u64 * per_node as u64 + k as u64;
    s.schedule_slot(m.t0, slot, SweepEv::Launch { group, m });
    Some(m.t0)
}

/// The launch event: queue the node's next message, then inject this
/// one.
fn launch(s: &mut SweepSim, group: usize, m: SweepMsg) {
    let next_t0 = queue_next_launch(s, group, m.src, m.id as u32 + 1);
    // What makes queuing this late unobservable: a node's injection
    // instants strictly increase, so nothing due at the successor's
    // instant can have run yet.
    debug_assert!(next_t0.is_none_or(|t| t > s.now()), "node {} injects out of order", m.src);
    inject(s, group, m);
}

/// Inject a message of a node of `group` at `now`: uplink reservation
/// and route selection there, then the route walk (which may hand off
/// at a group boundary).
fn inject(s: &mut SweepSim, group: usize, m: SweepMsg) {
    let now = s.now();
    let w = &mut s.world;
    let (from, to) = (w.switch_of(m.src), w.switch_of(m.dst));
    let g = &mut w.groups[group];
    g.counters.sent += 1;
    let model = g.net.model;
    let ser = SimDur::from_nanos(model.serialize_ns(model.wire_bytes(m.len)));
    let t_start = g.edge_mut(m.src).reserve_up(now, ser);
    let mut route = [SwitchId(0); MAX_REPAIR_PATH];
    let Some((hops, _)) = g.net.select_route(from, to, m.tc, m.id, now, &mut route) else {
        g.counters.route_drops += 1;
        return;
    };
    walk_from(s, group, m, route, hops, 0, t_start + trunk_step(&model), t_start + ser);
}

/// Walk the message's carried route (`hops` switches of `route`) from
/// hop index `pos`, a switch of `group`: schedule its continuation at a
/// group boundary, or deliver onto the destination downlink.
#[allow(clippy::too_many_arguments)]
fn walk_from(
    s: &mut SweepSim,
    group: usize,
    m: SweepMsg,
    route: RouteBuf,
    hops: usize,
    pos: usize,
    head_t: SimTime,
    tail_t: SimTime,
) {
    let w = &mut s.world;
    let g = &mut w.groups[group];
    let model = g.net.model;
    let ser_ns = model.serialize_ns(model.wire_bytes(m.len));
    let walk = g.net.walk(&route[..hops], pos, m.tc, ser_ns, m.len, head_t, tail_t);
    match walk.end {
        // A trunk on the route died while the message was in flight.
        WalkEnd::LinkDead => g.counters.route_drops += 1,
        WalkEnd::Congested => {
            g.counters.congestion_drops += 1;
            g.counters.class_drops[m.tc.index()] += 1;
        }
        WalkEnd::Handoff => {
            // The message cleared the boundary trunk; its head reaches
            // the next group's switch at `walk.head_t`.
            w.handoffs += 1;
            let (pos, tail_t) = (walk.pos, walk.tail_t);
            let group = g.net.topo.group_of(route[pos]);
            s.schedule(walk.head_t, SweepEv::Continue { group, m, route, hops, pos, tail_t });
        }
        WalkEnd::Arrived => {
            let arrival = g.edge_mut(m.dst).reserve_down(
                walk.head_t,
                walk.tail_t,
                SimDur::from_nanos(ser_ns),
                SimDur::from_nanos(model.propagation_ns),
            );
            let lat = (arrival - m.t0).as_nanos();
            let c = &mut g.counters;
            c.delivered += 1;
            c.payload_bytes += m.len;
            c.switch_hops += hops as u64;
            c.class_delivered[m.tc.index()] += 1;
            c.latency_sum_ns += lat;
            c.latency_max_ns = c.latency_max_ns.max(lat);
        }
    }
}

/// One scheduled fault in a sweep's fault schedule. [`run_sweep`]
/// schedules it before any message of the same instant, and it flips
/// every group's liveness view at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepFault {
    /// Instant the fault takes effect (ns).
    pub at_ns: u64,
    /// What fails (or recovers).
    pub kind: FaultKind,
}

/// A synthetic all-groups traffic sweep over a dragonfly topology —
/// the workload the scenario library and bench harness size up to
/// 1000+ nodes.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Fabric shape.
    pub spec: TopologySpec,
    /// Routing policy.
    pub policy: RoutingPolicy,
    /// Nodes attached per switch (≤ `spec.edge_ports`).
    pub nodes_per_switch: usize,
    /// Messages each node sends.
    pub messages_per_node: u32,
    /// Payload per message (bytes).
    pub payload_bytes: u64,
    /// Nominal gap between a node's consecutive sends (ns); per-message
    /// jitter spreads nodes inside the gap.
    pub interval_ns: u64,
    /// Every `k`-th message of a node goes cross-group (1 = all of
    /// them; 0 = none).
    pub cross_group_every: u32,
    /// Seed folded into every per-message hash.
    pub seed: u64,
    /// Timing model.
    pub model: CostModel,
    /// Fault schedule.
    pub faults: Vec<SweepFault>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            spec: TopologySpec { groups: 2, switches_per_group: 2, edge_ports: 8 },
            policy: RoutingPolicy::Minimal,
            nodes_per_switch: 4,
            messages_per_node: 8,
            payload_bytes: 4096,
            interval_ns: 2_000,
            cross_group_every: 2,
            seed: 1,
            model: CostModel::default(),
            faults: Vec::new(),
        }
    }
}

/// Deterministic per-message hash (splitmix64 over seed ⊕ node ⊕ k).
fn mix(seed: u64, node: u32, k: u32, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add((node as u64) << 32)
        .wrapping_add(k as u64)
        .wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nodes attached to each dragonfly group.
fn nodes_per_group(cfg: &SweepConfig) -> u32 {
    (cfg.spec.switches_per_group * cfg.nodes_per_switch) as u32
}

/// Message `k` of `node`: the sweep's one workload generator, a pure
/// function of the config. `None` when the message would be group-local
/// and the group has no second node to send to. A node's injection
/// instants strictly increase with `k` (`t0 = k·I + h mod I` for the
/// interval `I ≥ 1`), which streamed injection relies on.
fn sweep_message(cfg: &SweepConfig, node: u32, k: u32) -> Option<SweepMsg> {
    let nodes_per_group = nodes_per_group(cfg);
    let groups = cfg.spec.groups;
    let interval = cfg.interval_ns.max(1);
    let g = (node / nodes_per_group) as usize;
    let cross = groups > 1 && cfg.cross_group_every > 0 && k.is_multiple_of(cfg.cross_group_every);
    let dst = if cross {
        let dg = (g + 1 + (mix(cfg.seed, node, k, 1) as usize % (groups - 1))) % groups;
        dg as u32 * nodes_per_group + mix(cfg.seed, node, k, 2) as u32 % nodes_per_group
    } else {
        if nodes_per_group < 2 {
            return None; // no distinct local peer exists
        }
        let base = g as u32 * nodes_per_group;
        let peer = base + mix(cfg.seed, node, k, 2) as u32 % nodes_per_group;
        if peer == node {
            base + (peer - base + 1) % nodes_per_group
        } else {
            peer
        }
    };
    Some(SweepMsg {
        src: node,
        dst,
        t0: SimTime::from_nanos(k as u64 * interval + mix(cfg.seed, node, k, 3) % interval),
        len: cfg.payload_bytes,
        tc: TrafficClass::ALL[(mix(cfg.seed, node, k, 4) % 4) as usize],
        id: (node as u64) << 32 | k as u64,
    })
}

/// The messages a sweep injects, node-major. [`run_sweep`] never builds
/// this list — each node generates its next message as the previous one
/// launches — but reserves one launch slot per `(node, k)` in exactly
/// this order, which is what breaks ties between equal injection
/// instants.
pub fn sweep_messages(cfg: &SweepConfig) -> impl Iterator<Item = SweepMsg> + '_ {
    (0..nodes_per_group(cfg) * cfg.spec.groups as u32).flat_map(move |node| {
        (0..cfg.messages_per_node).filter_map(move |k| sweep_message(cfg, node, k))
    })
}

/// Aggregated outcome of [`run_sweep`]: the sum of every group's
/// counters plus the run's event accounting — the scenario layer
/// serialises this into reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStats {
    /// Total nodes in the topology.
    pub nodes: u64,
    /// Whole-sweep totals.
    pub totals: GroupCounters,
    /// Per-group counters, group order.
    pub per_group: Vec<GroupCounters>,
    /// Events executed.
    pub events_executed: u64,
    /// Continuations scheduled at a group boundary.
    pub handoffs: u64,
}

impl SweepStats {
    /// Message conservation: every launched message was delivered,
    /// congestion-dropped, or route-dropped by a failure.
    pub fn conserved(&self) -> bool {
        self.totals.sent
            == self.totals.delivered + self.totals.congestion_drops + self.totals.route_drops
    }

    /// Mean delivered latency in ns (0 when nothing was delivered).
    pub fn mean_latency_ns(&self) -> u64 {
        self.totals.latency_sum_ns.checked_div(self.totals.delivered).unwrap_or(0)
    }
}

/// A sweep's simulator with one net per group and the fault schedule
/// queued — scheduled first, so at equal instants a fault (lower
/// sequence number) applies before any message — and no launch yet.
fn new_sweep(cfg: &SweepConfig) -> SweepSim {
    assert!(cfg.nodes_per_switch >= 1 && cfg.nodes_per_switch <= cfg.spec.edge_ports);
    let topo = Rc::new(Topology::new(cfg.spec, cfg.policy));
    let nodes_per_group = nodes_per_group(cfg);
    let groups = (0..topo.groups())
        .map(|g| GroupNet {
            net: TrunkNet::new(Rc::clone(&topo), cfg.model, Some(g)),
            node_base: g as u32 * nodes_per_group,
            edge: vec![LinkState::default(); nodes_per_group as usize],
            counters: GroupCounters::default(),
        })
        .collect();
    let world = SweepNet { cfg: cfg.clone(), slot_base: 0, groups, handoffs: 0 };
    let mut sim = Sim::typed(world);
    for f in &cfg.faults {
        sim.schedule(SimTime::from_nanos(f.at_ns), SweepEv::Fault(f.kind));
    }
    sim
}

/// Build a sweep ready to run: the fault schedule queued, one launch
/// slot reserved per `(node, k)` — behind the faults, node-major, and
/// ahead of every continuation — and each node's first message queued
/// under its own.
fn build_sweep(cfg: &SweepConfig) -> SweepSim {
    let mut sim = new_sweep(cfg);
    let nodes_per_group = nodes_per_group(cfg);
    let nodes = nodes_per_group * cfg.spec.groups as u32;
    sim.world.slot_base = sim.reserve(nodes as u64 * cfg.messages_per_node as u64);
    for node in 0..nodes {
        queue_next_launch(&mut sim, (node / nodes_per_group) as usize, node, 0);
    }
    sim
}

/// Run a built sweep to completion and fold its counters.
fn finish_sweep(mut sim: SweepSim) -> SweepStats {
    sim.run();
    let w = &sim.world;
    let per_group: Vec<GroupCounters> = w.groups.iter().map(|g| g.counters).collect();
    let mut totals = GroupCounters::default();
    for c in &per_group {
        totals.sent += c.sent;
        totals.delivered += c.delivered;
        totals.congestion_drops += c.congestion_drops;
        totals.payload_bytes += c.payload_bytes;
        totals.latency_sum_ns += c.latency_sum_ns;
        totals.latency_max_ns = totals.latency_max_ns.max(c.latency_max_ns);
        totals.switch_hops += c.switch_hops;
        totals.route_drops += c.route_drops;
        for i in 0..4 {
            totals.class_delivered[i] += c.class_delivered[i];
            totals.class_drops[i] += c.class_drops[i];
        }
    }
    SweepStats {
        nodes: nodes_per_group(&w.cfg) as u64 * w.groups.len() as u64,
        totals,
        per_group,
        events_executed: sim.events_executed(),
        handoffs: w.handoffs,
    }
}

/// Run a sweep, injection streamed: the queue never holds more than one
/// launch per node plus the faults and the continuations in flight. The
/// result — every counter, every clock — is a function of `cfg` alone.
pub fn run_sweep(cfg: &SweepConfig) -> SweepStats {
    finish_sweep(build_sweep(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference streamed injection is held against: the sweep
    /// with every launch of every node queued before the first event
    /// runs, ties broken by that scheduling order alone (faults,
    /// launches node-major, continuations).
    fn run_sweep_materialized(cfg: &SweepConfig) -> SweepStats {
        let mut sim = new_sweep(cfg);
        for m in sweep_messages(cfg) {
            let group = (m.src / nodes_per_group(cfg)) as usize;
            sim.schedule(m.t0, SweepEv::Inject { group, m });
        }
        finish_sweep(sim)
    }

    /// Sweeps sized to tie: few nodes, short intervals (at `0` and `1`
    /// every node's `k`-th message shares one instant), every policy,
    /// the one-node-per-group shape whose local messages generate
    /// `None`, and faults drawn from the launch instants themselves so
    /// that fault/launch ties actually occur.
    fn tie_dense_config() -> impl Strategy<Value = SweepConfig> {
        let policy = prop_oneof![
            Just(RoutingPolicy::Minimal),
            Just(RoutingPolicy::Valiant),
            Just(RoutingPolicy::Adaptive),
        ];
        let interval = prop_oneof![Just(0u64), Just(1), Just(200), Just(2_000)];
        let payload = prop_oneof![Just(64u64), Just(4096), Just(262_144)];
        // (which launch instant, kind, switch, switch), folded into the
        // sweep's own timeline and topology below.
        let fault = (any::<u64>(), 0u8..3, 0usize..64, 0usize..64);
        (
            (1usize..=4, 1usize..=3, 1usize..=3), // groups, switches/group, nodes/switch
            (policy, 0u32..=24, payload),
            (interval, 0u32..=3, 0u64..=(1 << 48)), // interval ns, cross cadence, seed
            prop::collection::vec(fault, 0..=4),
        )
            .prop_map(|((groups, spg, nps), (policy, mpn, payload), (interval, cross, seed), faults)| {
                let mut cfg = SweepConfig {
                    spec: TopologySpec { groups, switches_per_group: spg, edge_ports: nps.max(2) },
                    policy,
                    nodes_per_switch: nps,
                    messages_per_node: mpn,
                    payload_bytes: payload,
                    interval_ns: interval,
                    cross_group_every: cross,
                    seed,
                    ..SweepConfig::default()
                };
                let instants: Vec<SimTime> = sweep_messages(&cfg).map(|m| m.t0).collect();
                let n = cfg.spec.total_switches();
                cfg.faults = faults
                    .into_iter()
                    .filter_map(|(pick, kind, a, b)| {
                        // An empty sweep has no instant to tie with.
                        let at = instants.get(pick as usize % instants.len().max(1))?;
                        let (a, b) = (a % n, b % n);
                        let kind = match kind {
                            0 if a != b => FaultKind::LinkDown(SwitchId(a), SwitchId(b)),
                            1 if a != b => FaultKind::LinkUp(SwitchId(a), SwitchId(b)),
                            _ => FaultKind::SwitchDown(SwitchId(a)),
                        };
                        Some(SweepFault { at_ns: at.as_nanos(), kind })
                    })
                    .collect();
                cfg
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Streaming is unobservable: every counter of every group,
        /// every executed event and hand-off equals the fully
        /// materialized sweep's.
        #[test]
        fn streamed_sweep_equals_the_materialized_sweep(cfg in tie_dense_config()) {
            prop_assert_eq!(run_sweep(&cfg), run_sweep_materialized(&cfg));
        }
    }

    #[test]
    fn a_shard_queues_one_launch_per_node_however_long_the_sweep() {
        let cut = SweepFault { at_ns: 5_000, kind: FaultKind::LinkDown(SwitchId(1), SwitchId(2)) };
        let cfg = SweepConfig { messages_per_node: 1_000, faults: vec![cut], ..SweepConfig::default() };
        let sim = build_sweep(&cfg);
        let nodes = nodes_per_group(&cfg) as usize * cfg.spec.groups;
        assert_eq!(sim.pending(), nodes + cfg.faults.len());
        let stats = finish_sweep(sim);
        assert_eq!(stats.totals.sent, stats.nodes * 1_000);
        assert!(stats.conserved(), "{:?}", stats.totals);
    }

    #[test]
    fn a_lone_node_chains_past_the_messages_it_cannot_send() {
        // One node per group: a group-local message has no peer and
        // generates `None`, so with every third message cross-group the
        // chain must skip from k to k + 3.
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 3, switches_per_group: 1, edge_ports: 2 },
            nodes_per_switch: 1,
            messages_per_node: 10,
            cross_group_every: 3,
            ..SweepConfig::default()
        };
        let stats = run_sweep(&cfg);
        assert_eq!(stats.totals.sent, 3 * 4, "k = 0, 3, 6, 9 of each node");
        assert_eq!(stats, run_sweep_materialized(&cfg));
    }

    #[test]
    fn sweep_is_conserved() {
        let cfg = SweepConfig::default();
        let base = run_sweep(&cfg);
        assert!(base.totals.sent > 0);
        assert!(base.conserved(), "{:?}", base.totals);
        assert!(base.totals.delivered > 0);
        assert!(base.handoffs > 0, "every other message crosses groups");
    }

    #[test]
    fn single_group_sweep_runs_serially_correct() {
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 1, switches_per_group: 2, edge_ports: 4 },
            cross_group_every: 0,
            ..SweepConfig::default()
        };
        let stats = run_sweep(&cfg);
        assert!(stats.conserved());
        assert_eq!(stats.per_group.len(), 1);
        assert_eq!(stats.handoffs, 0);
        assert!(stats.totals.delivered > 0);
    }

    #[test]
    fn valiant_sweep_crosses_intermediate_groups() {
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 4, switches_per_group: 2, edge_ports: 4 },
            policy: RoutingPolicy::Valiant,
            cross_group_every: 1,
            ..SweepConfig::default()
        };
        let base = run_sweep(&cfg);
        assert!(base.conserved());
        assert!(base.totals.delivered > 0);
        // Valiant detours mean more hops per delivered message than the
        // minimal 4-switch bound would allow on average workloads.
        assert!(base.totals.switch_hops >= base.totals.delivered * 2);
    }

    #[test]
    fn adaptive_sweep_is_conserved() {
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 4, switches_per_group: 2, edge_ports: 4 },
            policy: RoutingPolicy::Adaptive,
            cross_group_every: 1,
            interval_ns: 200,
            ..SweepConfig::default()
        };
        let base = run_sweep(&cfg);
        assert!(base.conserved(), "{:?}", base.totals);
        assert!(base.totals.delivered > 0);
    }

    #[test]
    fn trunk_cut_mid_sweep_conserves() {
        // 3 groups × 1 switch: cut trunk (0, 1) mid-sweep. Adaptive
        // fallback detours via group 2; messages already in flight on
        // the dead trunk's route are route-dropped.
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 3, switches_per_group: 1, edge_ports: 8 },
            policy: RoutingPolicy::Adaptive,
            cross_group_every: 1,
            messages_per_node: 16,
            ..SweepConfig::default()
        };
        let half = 8 * cfg.interval_ns;
        let cut = SweepFault {
            at_ns: half,
            kind: FaultKind::LinkDown(SwitchId(0), SwitchId(1)),
        };
        let cfg = SweepConfig { faults: vec![cut], ..cfg };
        let base = run_sweep(&cfg);
        assert!(base.conserved(), "{:?}", base.totals);
        assert!(base.totals.delivered > 0, "detours keep traffic flowing");
    }

    #[test]
    fn permanent_partition_route_drops_all_cross_traffic() {
        // 2 groups × 1 switch, only trunk dead from t = 0: every
        // cross-group message is a route drop, local ones deliver.
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 8 },
            nodes_per_switch: 4,
            faults: vec![SweepFault {
                at_ns: 0,
                kind: FaultKind::LinkDown(SwitchId(0), SwitchId(1)),
            }],
            ..SweepConfig::default()
        };
        let stats = run_sweep(&cfg);
        assert!(stats.conserved(), "{:?}", stats.totals);
        assert!(stats.totals.route_drops > 0);
        assert_eq!(stats.totals.congestion_drops, 0);
        // cross_group_every = 2: half of each node's messages detour
        // nowhere — exactly they are dropped.
        assert_eq!(
            stats.totals.route_drops,
            stats.totals.sent - stats.totals.delivered,
        );
    }

    #[test]
    fn a_down_switch_route_drops_same_switch_traffic_too() {
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 1, switches_per_group: 1, edge_ports: 8 },
            faults: vec![SweepFault { at_ns: 0, kind: FaultKind::SwitchDown(SwitchId(0)) }],
            ..SweepConfig::default()
        };
        let stats = run_sweep(&cfg);
        assert!(stats.totals.sent > 0);
        assert_eq!(stats.totals.delivered, 0);
        assert_eq!(stats.totals.route_drops, stats.totals.sent);
    }

    #[test]
    fn link_up_restores_service_mid_sweep() {
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 8 },
            messages_per_node: 16,
            faults: vec![
                SweepFault { at_ns: 0, kind: FaultKind::LinkDown(SwitchId(0), SwitchId(1)) },
                SweepFault {
                    at_ns: 8 * 2_000,
                    kind: FaultKind::LinkUp(SwitchId(0), SwitchId(1)),
                },
            ],
            ..SweepConfig::default()
        };
        let stats = run_sweep(&cfg);
        assert!(stats.conserved());
        assert!(stats.totals.route_drops > 0, "early cross traffic died");
        // Cross-group deliveries resume after the LinkUp: some message
        // must have crossed (2 hops) post-recovery.
        assert!(stats.totals.switch_hops > stats.totals.delivered);
    }

    #[test]
    fn unloaded_cross_group_latency_matches_serial_fabric_formula() {
        // One message, idle fabric: the walk across a group boundary
        // must reproduce the serial engine's unloaded arrival formula
        // exactly.
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 },
            nodes_per_switch: 1,
            messages_per_node: 1,
            cross_group_every: 1,
            interval_ns: 1,
            ..SweepConfig::default()
        };
        let stats = run_sweep(&cfg);
        assert_eq!(stats.totals.sent, 2);
        assert_eq!(stats.totals.delivered, 2);
        let m = cfg.model;
        let ser = m.serialize_ns(m.wire_bytes(cfg.payload_bytes));
        // 2 switch hops: ser + 2*hop + 3*prop (the serial fabric's
        // unloaded_route_ns for a 2-switch route).
        let unloaded = ser + 2 * m.hop_latency_ns + 3 * m.propagation_ns;
        assert_eq!(stats.totals.latency_max_ns, unloaded);
    }
}
