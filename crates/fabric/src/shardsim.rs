//! Sharded fabric engine: one [`ShardSim`] per dragonfly group under
//! the conservative-window coordinator [`ShardedSim`], for
//! cluster-scale sweeps (1000+ nodes). The shards run one after another
//! on the calling thread; the decomposition is what makes each group's
//! slice of a sweep a function of that group's events alone.
//!
//! # Shard ownership
//!
//! The partition follows [`Topology::group_view`]: a shard owns its
//! group's switches, the edge links of the nodes attached there, and
//! every directed trunk *sourced* in the group. A message's walk only
//! ever reserves state the executing shard owns; when the route crosses
//! a group boundary the message has, by then, cleared the boundary
//! trunk (owned by the sending shard), and the continuation is handed
//! to the destination group via [`ShardSim::send_to`], due at the
//! head's arrival instant on the far side.
//!
//! # The lookahead rule
//!
//! Every cross-group handoff is due at least one trunk step —
//! propagation + hop latency, [`trunk_lookahead`] — after the emitting
//! event's time: a launch event hands off no earlier than uplink + the
//! boundary trunk step (2 steps), and a continuation entering group
//! *g* hands off to a third group no earlier than one further trunk
//! step. That bound is the coordinator's conservative lookahead, so no
//! shard ever receives an event below its local clock (asserted by
//! `tests/shardsim_props.rs` over arbitrary topologies).
//!
//! # Streamed injection
//!
//! The workload is a pure function of the config (`sweep_message`, the
//! generator behind [`sweep_messages`]), so it is never materialized:
//! every node is a self-rescheduling process whose launch event first
//! queues the node's *next* generated message, and a shard's queue
//! holds one launch per node plus the continuations in flight —
//! O(nodes), not O(messages). Queuing a launch that late is
//! unobservable because its place in the tie-break order is reserved
//! at setup ([`shs_des::Sim::reserve`]): the shard's faults first, then
//! one slot per `(node, k)` in node-major order, then — under plain
//! insertion order — every continuation. A node's injection instants
//! strictly increase, so its successor is always in the future when it
//! is queued, and the earliest pending launch of every node (hence
//! every coordinator window) is that of the fully scheduled sweep.
//!
//! # Per-hop timing
//!
//! A shard is the packet path of `trunknet.rs` owning one group —
//! the serial [`Fabric`](crate::Fabric) is the same code owning all of
//! them — so routing, edge links, weighted trunk sharing and finite
//! queues cannot differ between the engines. This engine measures
//! routing, queueing and QoS at scale; VNI enforcement stays with the
//! serial k8s engine, which exercises it end to end per message.

use std::rc::Rc;

use shs_des::{Event, Shard, ShardSim, ShardedSim, SimDur, SimTime};

use crate::faults::{FaultKind, MAX_REPAIR_PATH};
use crate::packet::CostModel;
use crate::topology::{RoutingPolicy, Topology, TopologySpec};
use crate::trunknet::{LinkState, RouteBuf, TrunkNet, WalkEnd};
use crate::types::{SwitchId, TrafficClass};

/// The conservative lookahead of the sharded engine: one trunk step.
/// Any event an in-flight message triggers in *another* group is at
/// least one boundary-trunk traversal away.
pub fn trunk_lookahead(model: &CostModel) -> SimDur {
    SimDur::from_nanos(model.propagation_ns + model.hop_latency_ns)
}

/// One message of a sweep's generated workload (see
/// [`sweep_messages`]); small and `Copy`, so continuations carry it
/// across shard boundaries by value.
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

/// A sweep shard's events, as plain data: the whole of what a sweep
/// ever schedules.
#[derive(Clone, Copy)]
enum SweepEv {
    /// A scheduled fault of the globally-known schedule.
    Fault(FaultKind),
    /// A node's launch: queue its next message, then inject this one.
    Launch(SweepMsg),
    /// A message handed across a group boundary, resuming its walk at
    /// hop `pos` of its carried route; its head arrives now.
    Continue { m: SweepMsg, route: RouteBuf, hops: usize, pos: usize, tail_t: SimTime },
    /// An injection with no successor to queue: the launches of the
    /// test oracle `run_sweep_materialized`, every one queued up front.
    #[cfg(test)]
    Inject(SweepMsg),
}

/// One shard of a sweep.
type GroupSim = ShardSim<GroupNet, SweepEv>;

impl Event<Shard<GroupNet, SweepEv>> for SweepEv {
    #[inline]
    fn fire(self, s: &mut GroupSim) {
        match self {
            SweepEv::Fault(kind) => s.world.net.apply_fault(kind),
            SweepEv::Launch(m) => launch(s, m),
            SweepEv::Continue { m, route, hops, pos, tail_t } => {
                let head = s.now();
                walk_from(s, m, route, hops, pos, head, tail_t);
            }
            #[cfg(test)]
            SweepEv::Inject(m) => inject(s, m),
        }
    }
}

/// Counters one shard owns outright (its group's slice of the sweep).
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

/// The per-shard world: one group's slice of the fabric, and the
/// generator of the messages its nodes inject.
pub struct GroupNet {
    /// The trunks sourced in this group, plus this shard's view of
    /// fabric liveness. Every shard schedules the same globally-known
    /// fault schedule locally, so the views never diverge and no
    /// cross-shard fault notification (which would break the lookahead)
    /// is needed.
    net: TrunkNet,
    /// The sweep being run: what [`sweep_message`] generates this
    /// group's launches from, one message ahead per node.
    cfg: Rc<SweepConfig>,
    /// First global node id of this group.
    node_base: u32,
    /// First of the shard's reserved launch slots: message `k` of local
    /// node `n` launches under slot
    /// `slot_base + n · messages_per_node + k`.
    slot_base: u64,
    /// Edge-link occupancy per local node.
    edge: Vec<LinkState>,
    /// The group's counters.
    pub counters: GroupCounters,
}

impl GroupNet {
    fn new(topo: Rc<Topology>, cfg: Rc<SweepConfig>, group: usize) -> Self {
        let nodes_per_group = nodes_per_group(&cfg) as usize;
        GroupNet {
            net: TrunkNet::new(topo, cfg.model, Some(group)),
            cfg,
            node_base: (group * nodes_per_group) as u32,
            slot_base: 0,
            edge: vec![LinkState::default(); nodes_per_group],
            counters: GroupCounters::default(),
        }
    }

    #[inline]
    fn switch_of(&self, node: u32) -> SwitchId {
        SwitchId(node as usize / self.cfg.nodes_per_switch)
    }

    #[inline]
    fn edge_mut(&mut self, node: u32) -> &mut LinkState {
        &mut self.edge[(node - self.node_base) as usize]
    }
}

/// Queue the launch of `node`'s first generated message with index
/// `≥ from_k` (indices that generate `None` are skipped) under its
/// reserved slot, and return its injection instant.
fn queue_next_launch(s: &mut GroupSim, node: u32, from_k: u32) -> Option<SimTime> {
    let w = &s.world;
    let per_node = w.cfg.messages_per_node;
    let (k, m) = (from_k..per_node).find_map(|k| Some((k, sweep_message(&w.cfg, node, k)?)))?;
    let slot = w.slot_base + (node - w.node_base) as u64 * per_node as u64 + k as u64;
    s.schedule_slot(m.t0, slot, SweepEv::Launch(m));
    Some(m.t0)
}

/// The launch event: queue the node's next message, then inject this
/// one.
fn launch(s: &mut GroupSim, m: SweepMsg) {
    let next_t0 = queue_next_launch(s, m.src, m.id as u32 + 1);
    // What makes queuing this late unobservable: a node's injection
    // instants strictly increase, so nothing due at the successor's
    // instant can have run yet.
    debug_assert!(next_t0.is_none_or(|t| t > s.now()), "node {} injects out of order", m.src);
    inject(s, m);
}

/// Inject a message at `now`: uplink reservation in the source group,
/// route selection against the shard's live state, then the route walk
/// (which may hand off at a group boundary).
fn inject(s: &mut GroupSim, m: SweepMsg) {
    let now = s.now();
    let w = &mut s.world;
    w.counters.sent += 1;
    let model = w.net.model;
    let ser = SimDur::from_nanos(model.serialize_ns(model.wire_bytes(m.len)));
    let t_start = w.edge_mut(m.src).reserve_up(now, ser);
    let (from, to) = (w.switch_of(m.src), w.switch_of(m.dst));
    let mut route = [SwitchId(0); MAX_REPAIR_PATH];
    let Some((hops, _)) = w.net.select_route(from, to, m.tc, m.id, now, &mut route) else {
        w.counters.route_drops += 1;
        return;
    };
    walk_from(s, m, route, hops, 0, t_start + trunk_lookahead(&model), t_start + ser);
}

/// Walk the message's carried route (`hops` switches of `route`) from
/// hop index `pos` (an owned switch): hand off to the next group's
/// shard at a boundary, or deliver onto the destination downlink.
fn walk_from(
    s: &mut GroupSim,
    m: SweepMsg,
    route: RouteBuf,
    hops: usize,
    pos: usize,
    head_t: SimTime,
    tail_t: SimTime,
) {
    let w = &mut s.world;
    let model = w.net.model;
    let ser_ns = model.serialize_ns(model.wire_bytes(m.len));
    let walk = w.net.walk(&route[..hops], pos, m.tc, ser_ns, m.len, head_t, tail_t);
    match walk.end {
        // A trunk on the route died while the message was in flight.
        WalkEnd::LinkDead => w.counters.route_drops += 1,
        WalkEnd::Congested => {
            w.counters.congestion_drops += 1;
            w.counters.class_drops[m.tc.index()] += 1;
        }
        WalkEnd::Handoff => {
            // The message cleared the boundary trunk this shard owns;
            // its head arrives at the next group's switch at
            // `walk.head_t`, at least one trunk step in the future —
            // the conservative lookahead.
            let group = w.net.topo.group_of(route[walk.pos]);
            let delay = walk.head_t - s.now();
            let (pos, tail_t) = (walk.pos, walk.tail_t);
            s.send_to(group, delay, SweepEv::Continue { m, route, hops, pos, tail_t });
        }
        WalkEnd::Arrived => {
            let arrival = w.edge_mut(m.dst).reserve_down(
                walk.head_t,
                walk.tail_t,
                SimDur::from_nanos(ser_ns),
                SimDur::from_nanos(model.propagation_ns),
            );
            let lat = (arrival - m.t0).as_nanos();
            let c = &mut w.counters;
            c.delivered += 1;
            c.payload_bytes += m.len;
            c.switch_hops += hops as u64;
            c.class_delivered[m.tc.index()] += 1;
            c.latency_sum_ns += lat;
            c.latency_max_ns = c.latency_max_ns.max(lat);
        }
    }
}

/// One scheduled fault in a sweep's globally-known fault schedule.
/// [`run_sweep`] schedules it into **every** shard's local event queue
/// (before any message of the same instant), so all liveness views
/// flip identically and the conservative lookahead is untouched.
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
    /// Fault schedule, applied identically in every shard.
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
/// instants inside a shard.
pub fn sweep_messages(cfg: &SweepConfig) -> impl Iterator<Item = SweepMsg> + '_ {
    (0..nodes_per_group(cfg) * cfg.spec.groups as u32).flat_map(move |node| {
        (0..cfg.messages_per_node).filter_map(move |k| sweep_message(cfg, node, k))
    })
}

/// Aggregated outcome of [`run_sweep`]: the sum of every group's
/// counters plus the coordinator's accounting — the scenario layer
/// serialises this into reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStats {
    /// Total nodes in the topology.
    pub nodes: u64,
    /// Shards (= dragonfly groups).
    pub shards: usize,
    /// The conservative lookahead used (ns).
    pub lookahead_ns: u64,
    /// Whole-sweep totals.
    pub totals: GroupCounters,
    /// Per-group counters, group order.
    pub per_group: Vec<GroupCounters>,
    /// Events executed across all shards.
    pub events_executed: u64,
    /// Windows the coordinator ran.
    pub windows: u64,
    /// Cross-group events injected.
    pub injected: u64,
    /// Minimum observed injection slack (ns): `event time − destination
    /// clock`, `None` when no cross-group event was exchanged. The
    /// conservative-sync invariant is `≥ 0`.
    pub min_inject_slack: Option<i128>,
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

/// Build a sweep's shards, ready to run: the fault schedule in every
/// queue, one launch slot reserved per `(node, k)`, and each node's
/// first message queued under its own.
fn build_sweep(cfg: &SweepConfig) -> ShardedSim<GroupNet, SweepEv> {
    assert!(cfg.nodes_per_switch >= 1 && cfg.nodes_per_switch <= cfg.spec.edge_ports);
    let topo = Rc::new(Topology::new(cfg.spec, cfg.policy));
    let cfg = Rc::new(cfg.clone());
    let worlds: Vec<GroupNet> = (0..topo.groups())
        .map(|g| GroupNet::new(Rc::clone(&topo), Rc::clone(&cfg), g))
        .collect();
    let mut psim = ShardedSim::new(worlds, trunk_lookahead(&cfg.model));

    let nodes_per_group = nodes_per_group(&cfg);
    for g in 0..topo.groups() {
        let shard = psim.shard_mut(g);
        // The fault schedule is globally known at setup: schedule it
        // into every shard before any message, so at equal instants the
        // fault event (lower sequence number) applies first and all
        // shards' liveness views flip identically — no cross-shard
        // notification, no lookahead impact.
        for f in &cfg.faults {
            shard.schedule(SimTime::from_nanos(f.at_ns), SweepEv::Fault(f.kind));
        }
        // Launches tie behind the faults, in node-major order among
        // themselves, and ahead of every continuation (injected later,
        // so under later sequence numbers).
        shard.world.slot_base =
            shard.reserve(nodes_per_group as u64 * cfg.messages_per_node as u64);
        let node_base = shard.world.node_base;
        for node in node_base..node_base + nodes_per_group {
            queue_next_launch(shard, node, 0);
        }
    }
    psim
}

/// Run built shards to completion and fold their counters.
fn finish_sweep(cfg: &SweepConfig, mut psim: ShardedSim<GroupNet, SweepEv>) -> SweepStats {
    psim.run();

    let per_group: Vec<GroupCounters> = psim.shards().map(|s| s.world.counters).collect();
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
        nodes: nodes_per_group(cfg) as u64 * cfg.spec.groups as u64,
        shards: psim.shard_count(),
        lookahead_ns: trunk_lookahead(&cfg.model).as_nanos(),
        totals,
        per_group,
        events_executed: psim.events_executed(),
        windows: psim.windows(),
        injected: psim.injected(),
        min_inject_slack: psim.min_inject_slack(),
    }
}

/// Run a sweep, one shard per dragonfly group, injection streamed: a
/// shard's queue never holds more than one launch per node plus the
/// continuations in flight. The result — every counter, every clock —
/// is a function of `cfg` alone.
pub fn run_sweep(cfg: &SweepConfig) -> SweepStats {
    finish_sweep(cfg, build_sweep(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference streamed injection is held against: the sweep as
    /// it ran before, every launch of every node queued into its shard's
    /// queue before the first event runs, ties broken by that
    /// scheduling order alone (faults, launches node-major,
    /// continuations).
    fn run_sweep_materialized(cfg: &SweepConfig) -> SweepStats {
        let topo = Rc::new(Topology::new(cfg.spec, cfg.policy));
        let shared = Rc::new(cfg.clone());
        let worlds: Vec<GroupNet> = (0..topo.groups())
            .map(|g| GroupNet::new(Rc::clone(&topo), Rc::clone(&shared), g))
            .collect();
        let mut psim = ShardedSim::new(worlds, trunk_lookahead(&cfg.model));
        for g in 0..topo.groups() {
            for f in &cfg.faults {
                psim.shard_mut(g).schedule(SimTime::from_nanos(f.at_ns), SweepEv::Fault(f.kind));
            }
        }
        let nodes_per_group = nodes_per_group(cfg);
        for m in sweep_messages(cfg) {
            psim.shard_mut((m.src / nodes_per_group) as usize).schedule(m.t0, SweepEv::Inject(m));
        }
        finish_sweep(cfg, psim)
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
        /// every executed event, window and injection equals the fully
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
        let psim = build_sweep(&cfg);
        for shard in psim.shards() {
            assert_eq!(shard.pending(), nodes_per_group(&cfg) as usize + cfg.faults.len());
        }
        let stats = finish_sweep(&cfg, psim);
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
        assert!(base.min_inject_slack.unwrap() >= 0);
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
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.injected, 0);
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
        assert!(base.min_inject_slack.unwrap() >= 0);
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
        assert!(base.min_inject_slack.unwrap() >= 0);
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
        assert!(base.min_inject_slack.unwrap() >= 0);
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
        // One message, idle fabric: the sharded walk must reproduce the
        // serial engine's unloaded arrival formula exactly.
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
