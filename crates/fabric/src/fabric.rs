//! The serial fabric engine: the packet path of `trunknet.rs`
//! owning every group of a dragonfly [`Topology`], wrapped in what only
//! the full-stack simulation needs — NIC attachment to edge ports, VNI
//! enforcement at the source and destination edge switches, per-tenant
//! traffic counters, ECN feedback to senders and the fabric-manager
//! audit trail.
//!
//! Edge (NIC↔switch) links have scalar busy-until semantics, so a
//! 1-group × 1-switch topology times a message as one serialization
//! plus per-hop constants. Inter-switch (*trunk*) links add what the
//! paper's multi-tenant story needs: **per-traffic-class weighted
//! scheduling** (weighted processor sharing over the four classes) and
//! **finite per-class queues** whose overflow is a congestion drop,
//! counted per hop, per class, and per tenant VNI.

use std::collections::BTreeMap;
use std::rc::Rc;

use shs_des::{SimDur, SimTime};

use crate::faults::{FaultKind, LivenessMask, MAX_REPAIR_PATH};
use crate::packet::{CostModel, MsgCost};
use crate::switch::{DropReason, Switch};
use crate::topology::{RoutingPolicy, Topology, TopologySpec};
use crate::trunknet::{LinkState, TrunkClassCounters, TrunkNet, WalkEnd};
use crate::types::{NicAddr, PortId, SwitchId, TrafficClass, Vni};

/// Outcome of a message-level transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// The message will fully arrive at the destination NIC at `arrival`.
    Delivered {
        /// Arrival instant of the last byte at the destination NIC.
        arrival: SimTime,
        /// Instant the last byte left the source NIC (uplink released);
        /// this is when the sender's local RDMA completion can fire.
        src_done: SimTime,
    },
    /// Silently dropped in the fabric (VNI enforcement, routing,
    /// congestion management, ...).
    Dropped(DropReason),
}

/// Where one NIC meets the fabric — its (switch, edge port), or nowhere
/// — as [`Fabric::resolve`] read it, so a batch of
/// [`Fabric::transfer_between`] calls looks it up once instead of once
/// per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attachment {
    nic: NicAddr,
    /// (switch index, edge port); `None` for a NIC not attached.
    at: Option<(usize, PortId)>,
}

/// Fabric-level traffic accounting, keyed by VNI (the granularity the
/// fabric manager exposes to monitoring). Per-hop congestion and drop
/// counters roll up here per tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VniTraffic {
    /// Delivered messages.
    pub messages: u64,
    /// Delivered payload bytes.
    pub payload_bytes: u64,
    /// Messages dropped by trunk congestion management.
    pub congestion_drops: u64,
    /// Total switch hops of delivered messages (1 per message on a
    /// single-switch fabric).
    pub switch_hops: u64,
    /// Delivered messages per traffic class, in
    /// [`TrafficClass::index`] order.
    pub class_messages: [u64; 4],
    /// Delivered messages that took a route other than the policy's
    /// first choice because a fault killed it (deterministic reroute).
    pub reroutes: u64,
    /// ECN marks accrued by this tenant's messages: trunk hops accepted
    /// after queueing past the cost model's `ecn_threshold_ns`. Zero
    /// unless the threshold is lowered below the drop bound.
    pub ecn_marks: u64,
}

/// Errors surfaced by fabric-manager operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// The NIC is not attached to any switch port.
    UnknownNic(NicAddr),
}

impl core::fmt::Display for FabricError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FabricError::UnknownNic(nic) => write!(f, "{nic} is not attached to the fabric"),
        }
    }
}

impl std::error::Error for FabricError {}

/// Anomalous fabric-manager operations, recorded for the audit trail
/// (a revoke that cannot have removed anything is either a cleanup bug
/// or an operator racing node removal — either way worth a log line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricAuditEvent {
    /// A revoke named a NIC that is not attached anywhere.
    RevokeUnknownNic {
        /// The unknown NIC.
        nic: NicAddr,
        /// The VNI named by the revoke.
        vni: Vni,
    },
    /// A revoke named a VNI that was never granted (or already revoked)
    /// on the NIC's port.
    RevokeNeverGranted {
        /// The attached NIC.
        nic: NicAddr,
        /// The VNI that held no grant.
        vni: Vni,
    },
}

/// The Slingshot fabric: topology, switches, links, timing.
#[derive(Debug)]
pub struct Fabric {
    /// Trunks, liveness and routing over every group.
    net: TrunkNet,
    switches: Vec<Switch>,
    /// Edge-link occupancy, indexed `[switch][edge port]` (rows grow on
    /// attach; a reattached port's slot is reset to a fresh link).
    links: Vec<Vec<LinkState>>,
    /// NIC attachment points, sorted by NIC (binary search; attach and
    /// detach are cold, lookups are per-transfer).
    ports_of: Vec<(NicAddr, (usize, PortId))>,
    /// Next never-used edge port per switch.
    next_port: Vec<usize>,
    /// Edge ports freed by [`Fabric::detach`], reused LIFO per switch.
    free_ports: Vec<Vec<usize>>,
    /// Per-VNI counters, in the order VNIs were first counted.
    traffic: Vec<VniTraffic>,
    /// VNI → 1 + its index in `traffic` (0: never counted), as long as
    /// the highest VNI counted needs: a delivery finds its counters by
    /// one array index.
    traffic_slot: Vec<u32>,
    /// The cost of the last message length sent: consecutive messages
    /// of one length (a round, an OSU window, a sweep) derive it once.
    last_cost: MsgCost,
    audit: Vec<FabricAuditEvent>,
    /// ECN marks awaiting pickup by the sending NIC, per source NIC.
    /// Consumed (and cleared) by [`Fabric::take_ecn_marks`].
    ecn_feedback: BTreeMap<NicAddr, u64>,
}

impl Fabric {
    /// Build a single-switch fabric with `ports` edge ports and the
    /// default cost model.
    pub fn new(ports: usize) -> Self {
        Fabric::with_topology(
            CostModel::default(),
            TopologySpec::single_switch(ports),
            RoutingPolicy::Minimal,
        )
    }

    /// Build a multi-switch fabric over a dragonfly topology, each
    /// switch with `spec.edge_ports` edge ports.
    pub fn with_topology(model: CostModel, spec: TopologySpec, policy: RoutingPolicy) -> Self {
        let n = spec.total_switches();
        Fabric {
            net: TrunkNet::new(Rc::new(Topology::new(spec, policy)), model),
            switches: (0..n).map(|_| Switch::new(spec.edge_ports)).collect(),
            links: vec![Vec::new(); n],
            ports_of: Vec::new(),
            next_port: vec![0; n],
            free_ports: vec![Vec::new(); n],
            traffic: Vec::new(),
            traffic_slot: Vec::new(),
            last_cost: model.msg_cost(0),
            audit: Vec::new(),
            ecn_feedback: BTreeMap::new(),
        }
    }

    /// Attachment point of a NIC, if attached.
    #[inline]
    fn lookup_nic(&self, nic: NicAddr) -> Option<(usize, PortId)> {
        self.ports_of
            .binary_search_by_key(&nic, |&(n, _)| n)
            .ok()
            .map(|i| self.ports_of[i].1)
    }

    /// Per-VNI counters, created zeroed on first touch.
    #[inline]
    fn traffic_mut(&mut self, vni: Vni) -> &mut VniTraffic {
        let v = usize::from(vni.0);
        let slot = match self.traffic_slot.get(v) {
            Some(&s) if s != 0 => s as usize - 1,
            _ => self.new_traffic_slot(v),
        };
        &mut self.traffic[slot]
    }

    /// Give VNI `v` its counters (cold: once per VNI).
    #[cold]
    fn new_traffic_slot(&mut self, v: usize) -> usize {
        if self.traffic_slot.len() <= v {
            self.traffic_slot.resize(v + 1, 0);
        }
        self.traffic.push(VniTraffic::default());
        self.traffic_slot[v] = u32::try_from(self.traffic.len()).expect("at most 2^16 VNIs");
        self.traffic.len() - 1
    }

    /// The cost of a `len`-byte message, derived again only when the
    /// length differs from the previous message's.
    #[inline]
    fn msg_cost(&mut self, len: u64) -> MsgCost {
        if self.last_cost.len != len {
            self.last_cost = self.net.model.msg_cost(len);
        }
        self.last_cost
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.net.model
    }

    /// The topology in force.
    pub fn topology(&self) -> &Topology {
        &self.net.topo
    }

    /// Access one switch of the topology.
    pub fn switch_at(&self, sw: SwitchId) -> &Switch {
        &self.switches[sw.0]
    }

    /// Anomalous fabric-manager operations recorded so far.
    pub fn audit(&self) -> &[FabricAuditEvent] {
        &self.audit
    }

    /// Attach a NIC to the next free edge port of switch 0 (the legacy
    /// single-switch call). Panics if the switch is full or the NIC is
    /// already attached (both are wiring bugs).
    pub fn attach(&mut self, nic: NicAddr) -> PortId {
        self.attach_to(nic, SwitchId(0))
    }

    /// Attach a NIC to the next free edge port of `sw` (ports freed by
    /// [`Fabric::detach`] are reused first). Panics if the switch is
    /// full or the NIC is already attached.
    pub fn attach_to(&mut self, nic: NicAddr, sw: SwitchId) -> PortId {
        let slot = match self.ports_of.binary_search_by_key(&nic, |&(n, _)| n) {
            Ok(_) => panic!("{nic} attached twice"),
            Err(i) => i,
        };
        let port = match self.free_ports[sw.0].pop() {
            Some(freed) => PortId(freed),
            None => {
                let p = PortId(self.next_port[sw.0]);
                self.next_port[sw.0] += 1;
                p
            }
        };
        assert!(self.switches[sw.0].bind(port, nic), "{sw} {port} already bound");
        let row = &mut self.links[sw.0];
        if row.len() <= port.0 {
            row.resize(port.0 + 1, LinkState::default());
        }
        // A reattached port starts with a fresh (idle) link.
        row[port.0] = LinkState::default();
        self.ports_of.insert(slot, (nic, (sw.0, port)));
        port
    }

    /// Detach a NIC (node removal): unbind its edge port, drop its VNI
    /// grants, and forget the attachment and link state. Returns whether
    /// the NIC was attached. The freed port is reused by later attaches.
    pub fn detach(&mut self, nic: NicAddr) -> bool {
        let Ok(i) = self.ports_of.binary_search_by_key(&nic, |&(n, _)| n) else {
            return false;
        };
        let (_, (sw, port)) = self.ports_of.remove(i);
        self.switches[sw].unbind(port);
        // Drop the port's edge-link busy horizon and any ECN feedback the
        // departed NIC never collected: a message still serializing on a
        // trunk when its sender detaches must not leave state behind that
        // a later attach on the recycled port (or address) would inherit
        // — per-VNI counters stay exactly as booked at delivery time.
        self.links[sw][port.0] = LinkState::default();
        self.ecn_feedback.remove(&nic);
        self.free_ports[sw].push(port.0);
        true
    }

    /// Full attachment point of a NIC: (switch, edge port).
    pub fn attachment(&self, nic: NicAddr) -> Option<(SwitchId, PortId)> {
        self.lookup_nic(nic).map(|(s, p)| (SwitchId(s), p))
    }

    /// Grant `vni` on the edge port of `nic` (fabric-manager operation
    /// invoked when a virtual network is realised on the wire). Granting
    /// on a NIC the fabric does not know is a wiring or orchestration
    /// bug and is an explicit error.
    pub fn grant_vni(&mut self, nic: NicAddr, vni: Vni) -> Result<PortId, FabricError> {
        let (sw, port) = self.lookup_nic(nic).ok_or(FabricError::UnknownNic(nic))?;
        self.switches[sw].grant_vni(port, vni);
        Ok(port)
    }

    /// Revoke `vni` from the edge port of `nic`. Returns whether a grant
    /// was actually removed; revokes that cannot have removed anything
    /// (unknown NIC, never-granted VNI) are recorded in the fabric
    /// [`audit`](Fabric::audit) log.
    pub fn revoke_vni(&mut self, nic: NicAddr, vni: Vni) -> bool {
        let Some((sw, port)) = self.lookup_nic(nic) else {
            self.audit.push(FabricAuditEvent::RevokeUnknownNic { nic, vni });
            return false;
        };
        let removed = self.switches[sw].revoke_vni(port, vni);
        if !removed {
            self.audit.push(FabricAuditEvent::RevokeNeverGranted { nic, vni });
        }
        removed
    }

    /// Whether the edge port of `nic` currently holds a grant for `vni`.
    pub fn nic_has_vni(&self, nic: NicAddr, vni: Vni) -> bool {
        self.lookup_nic(nic)
            .is_some_and(|(sw, port)| self.switches[sw].has_vni(port, vni))
    }

    /// Per-VNI delivered-traffic counters (`VniTraffic` is `Copy`; no
    /// per-read clone): one index into the VNI slot table.
    pub fn traffic(&self, vni: Vni) -> VniTraffic {
        match self.traffic_slot.get(usize::from(vni.0)) {
            Some(&s) if s != 0 => self.traffic[s as usize - 1],
            _ => VniTraffic::default(),
        }
    }

    /// Per-class counters of one directed trunk link, if it exists.
    pub fn trunk_counters(&self, from: SwitchId, to: SwitchId) -> Option<&[TrunkClassCounters; 4]> {
        self.net.trunk_counters(from, to)
    }

    /// Per-class counters summed over every directed trunk link, in
    /// [`TrafficClass::index`] order.
    pub fn trunk_class_totals(&self) -> [TrunkClassCounters; 4] {
        let mut out = [TrunkClassCounters::default(); 4];
        for counters in self.net.all_trunk_counters() {
            for (acc, c) in out.iter_mut().zip(counters.iter()) {
                acc.messages += c.messages;
                acc.payload_bytes += c.payload_bytes;
                acc.congestion_drops += c.congestion_drops;
                acc.queued_ns_max = acc.queued_ns_max.max(c.queued_ns_max);
            }
        }
        out
    }

    /// Apply a runtime fault event (scheduled through the DES by the
    /// scenario engine). A dead switch forwards nothing, same-switch
    /// traffic included.
    pub fn apply_fault(&mut self, kind: FaultKind) {
        self.net.apply_fault(kind);
    }

    /// The current liveness mask (empty on a healthy fabric).
    pub fn liveness(&self) -> &LivenessMask {
        self.net.liveness()
    }

    /// Take (and clear) the ECN marks accrued against `nic`'s messages
    /// since the last call — the sender-pacing feedback loop the Cassini
    /// NIC model consumes before issuing its next message.
    pub fn take_ecn_marks(&mut self, nic: NicAddr) -> u64 {
        self.ecn_feedback.remove(&nic).unwrap_or(0)
    }

    /// Per-VNI counters summed over every tenant (monitoring roll-up;
    /// `queued`-style maxima do not exist here, all fields are sums).
    pub fn traffic_totals(&self) -> VniTraffic {
        let mut out = VniTraffic::default();
        for t in &self.traffic {
            out.messages += t.messages;
            out.payload_bytes += t.payload_bytes;
            out.congestion_drops += t.congestion_drops;
            out.switch_hops += t.switch_hops;
            for i in 0..4 {
                out.class_messages[i] += t.class_messages[i];
            }
            out.reroutes += t.reroutes;
            out.ecn_marks += t.ecn_marks;
        }
        out
    }

    /// Where `nic` meets the fabric right now, for a batch of
    /// [`Fabric::transfer_between`] calls.
    #[inline]
    pub fn resolve(&self, nic: NicAddr) -> Attachment {
        Attachment { nic, at: self.lookup_nic(nic) }
    }

    /// Message-level transfer between two NICs named by address:
    /// [`Fabric::resolve`] both, then [`Fabric::transfer_between`].
    /// `#[inline]`, so a caller in another crate that sends one message
    /// at a time pays the two lookups and still one call.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn transfer(
        &mut self,
        now: SimTime,
        src: NicAddr,
        dst: NicAddr,
        vni: Vni,
        tc: TrafficClass,
        len: u64,
        msg_id: u64,
    ) -> TransferOutcome {
        let (src, dst) = (self.resolve(src), self.resolve(dst));
        self.transfer_between(now, src, dst, vni, tc, len, msg_id)
    }

    /// Message-level transfer between two resolved attachments:
    /// enforcement at the source and destination edge switches, one route
    /// selection and a trunk walk continued past every group boundary in
    /// the same call, and the arrival time of the last byte (cut-through
    /// pipelining: end-to-end time ≈ one serialization of the message
    /// plus per-hop constants, plus any queueing).
    ///
    /// The switches check every message — the source port's binding, the
    /// ingress and egress grants, and that the destination is still
    /// bound to its port — so only the *lookup* of an attachment is
    /// saved by resolving it once per batch. An attachment resolved
    /// before a detach or re-attach is dropped by those checks, never
    /// delivered to whichever NIC holds its port now.
    ///
    /// Every step is an index or a pure function of the arguments: the
    /// checks read the ports' bindings and grant bitsets, the message's
    /// packets and serialization time come from a memo keyed by `len`,
    /// and the tenant's counters from the VNI slot table.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_between(
        &mut self,
        now: SimTime,
        src: Attachment,
        dst: Attachment,
        vni: Vni,
        tc: TrafficClass,
        len: u64,
        msg_id: u64,
    ) -> TransferOutcome {
        let Some((ssw, sport)) = src.at else {
            return TransferOutcome::Dropped(DropReason::NoRoute);
        };
        // Ingress enforcement at the source edge switch.
        if let Some(reason) = self.switches[ssw].admit(sport, src.nic, vni) {
            return TransferOutcome::Dropped(reason);
        }
        let Some((dsw, dport)) = dst.at else {
            return TransferOutcome::Dropped(self.switches[ssw].note_drop(DropReason::NoRoute));
        };
        // The destination port's binding stays authoritative: a NIC
        // unbound there (node removal via `Switch::unbind`) must drop
        // NoRoute. A fabric binds each NIC to at most one port, so this
        // is the routing check `dst.nic → dport`.
        if self.switches[dsw].binding(dport) != Some(dst.nic) {
            return TransferOutcome::Dropped(self.switches[dsw].note_drop(DropReason::NoRoute));
        }
        // Egress enforcement at the destination edge switch.
        if let Some(reason) = self.switches[dsw].egress_check(dport, vni) {
            return TransferOutcome::Dropped(reason);
        }

        let MsgCost { pkts, ser_ns, .. } = self.msg_cost(len);
        let model = &self.net.model;
        let ser = SimDur::from_nanos(ser_ns);
        let prop = SimDur::from_nanos(model.propagation_ns);

        let t0 = self.links[ssw][sport.0].reserve_up(now, ser);
        let src_done = t0 + ser;
        // Head at the egress side of the first switch (cut-through), and
        // the last byte's progress through the pipeline.
        let (mut head_t, mut tail_t) =
            (t0 + prop + SimDur::from_nanos(model.hop_latency_ns), src_done);
        // Switch hops, failure reroute and ECN marks of this message,
        // booked per tenant at delivery.
        let (mut hops, mut rerouted, mut ecn_marks) = (1u64, false, 0u64);
        if ssw == dsw {
            // Same-switch fast path (every single-switch fabric): no
            // route to select, no trunks to walk.
            if !self.net.liveness().switch_live(SwitchId(ssw)) {
                return TransferOutcome::Dropped(self.switches[ssw].note_drop(DropReason::NoRoute));
            }
        } else {
            let mut route = [SwitchId(0); MAX_REPAIR_PATH];
            let Some((route_len, failover)) =
                self.net.select_route(SwitchId(ssw), SwitchId(dsw), tc, msg_id, now, &mut route)
            else {
                return TransferOutcome::Dropped(self.switches[ssw].note_drop(DropReason::NoRoute));
            };
            let route = &route[..route_len];
            // The walk stops at every group boundary; the serial fabric
            // continues it in place.
            let mut pos = 0;
            let walk = loop {
                let leg = self.net.walk(route, pos, tc, ser_ns, len, head_t, tail_t);
                (pos, head_t, tail_t) = (leg.pos, leg.head_t, leg.tail_t);
                ecn_marks += leg.ecn_marks;
                if leg.end != WalkEnd::Handoff {
                    break leg;
                }
            };
            // A switch counts the message once it has cleared that
            // switch's outbound trunk, so per-switch and per-trunk totals
            // reconcile even when a later hop drops the message.
            for sw in &route[..walk.pos] {
                self.switches[sw.0].note_forwarded(pkts, len);
            }
            let stopped = &mut self.switches[route[walk.pos].0];
            match walk.end {
                // The loop above continues every hand-off.
                WalkEnd::Arrived | WalkEnd::Handoff => {}
                WalkEnd::Congested => {
                    let reason = stopped.note_drop(DropReason::Congested);
                    self.traffic_mut(vni).congestion_drops += 1;
                    return TransferOutcome::Dropped(reason);
                }
                WalkEnd::LinkDead => {
                    return TransferOutcome::Dropped(stopped.note_drop(DropReason::NoRoute));
                }
            }
            (hops, rerouted) = (route.len() as u64, failover);
        }
        // The destination edge switch forwards onto its downlink.
        self.switches[dsw].note_forwarded(pkts, len);
        let arrival = self.links[dsw][dport.0].reserve_down(head_t, tail_t, ser, prop);

        let t = self.traffic_mut(vni);
        t.messages += 1;
        t.payload_bytes += len;
        t.switch_hops += hops;
        t.class_messages[tc.index()] += 1;
        t.reroutes += rerouted as u64;
        t.ecn_marks += ecn_marks;
        if ecn_marks > 0 {
            *self.ecn_feedback.entry(src.nic).or_insert(0) += ecn_marks;
        }
        TransferOutcome::Delivered { arrival, src_done }
    }

    /// Unloaded one-way message time (no queueing) across a same-switch
    /// path: the analytic form of [`Fabric::transfer`] on a single
    /// switch. Exposed for calibration tests.
    pub fn unloaded_ns(&self, len: u64) -> u64 {
        let model = &self.net.model;
        model.serialize_ns(model.wire_bytes(len)) + model.hop_latency_ns + 2 * model.propagation_ns
    }

    /// Unloaded one-way time between two attached NICs, accounting every
    /// switch hop and link of the **minimal** route. Returns `None` when
    /// either NIC is unattached. Under [`RoutingPolicy::Valiant`] actual
    /// transfers may detour and exceed this even on an idle fabric — it
    /// is the minimal-path calibration floor, not a per-message oracle.
    pub fn unloaded_route_ns(&self, src: NicAddr, dst: NicAddr, len: u64) -> Option<u64> {
        let (ssw, _) = self.lookup_nic(src)?;
        let (dsw, _) = self.lookup_nic(dst)?;
        let hops = self.net.topo.route_minimal(SwitchId(ssw), SwitchId(dsw)).len() as u64;
        let model = &self.net.model;
        Some(
            model.serialize_ns(model.wire_bytes(len))
                + hops * model.hop_latency_ns
                + (hops + 1) * model.propagation_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric2() -> (Fabric, NicAddr, NicAddr) {
        let mut f = Fabric::new(8);
        let a = NicAddr(1);
        let b = NicAddr(2);
        f.attach(a);
        f.attach(b);
        (f, a, b)
    }

    fn granted(f: &mut Fabric, a: NicAddr, b: NicAddr, vni: Vni) {
        f.grant_vni(a, vni).unwrap();
        f.grant_vni(b, vni).unwrap();
    }

    /// 2 groups × 1 switch × 4 edge ports, one NIC per switch, both
    /// granted the VNI.
    fn cross_group() -> (Fabric, NicAddr, NicAddr) {
        let mut f = Fabric::with_topology(
            CostModel::default(),
            TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 },
            RoutingPolicy::Minimal,
        );
        let a = NicAddr(1);
        let b = NicAddr(2);
        f.attach_to(a, SwitchId(0));
        f.attach_to(b, SwitchId(1));
        granted(&mut f, a, b, Vni(7));
        (f, a, b)
    }

    #[test]
    fn delivery_needs_vni_on_both_ends() {
        let (mut f, a, b) = fabric2();
        f.grant_vni(a, Vni(7)).unwrap();
        let out = f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::Dedicated, 8, 1);
        assert_eq!(out, TransferOutcome::Dropped(DropReason::VniDeniedEgress));
        f.grant_vni(b, Vni(7)).unwrap();
        let out = f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::Dedicated, 8, 2);
        assert!(matches!(out, TransferOutcome::Delivered { .. }));
    }

    #[test]
    fn unloaded_latency_magnitude_is_sub_microsecond() {
        let (f, _, _) = fabric2();
        let ns = f.unloaded_ns(8);
        // serialization(72B)≈3ns + hop 350 + 2×20 prop ≈ 393ns.
        assert!((350..600).contains(&ns), "fabric one-way {ns}ns");
    }

    #[test]
    fn large_transfers_are_bandwidth_bound() {
        let (mut f, a, b) = fabric2();
        granted(&mut f, a, b, Vni(3));
        let len = 1u64 << 20;
        let TransferOutcome::Delivered { arrival, .. } =
            f.transfer(SimTime::ZERO, a, b, Vni(3), TrafficClass::BulkData, len, 1)
        else {
            panic!("dropped")
        };
        let gbps = len as f64 / arrival.as_nanos() as f64 * 8.0;
        assert!(gbps > 180.0 && gbps < 200.0, "effective {gbps} Gb/s");
    }

    #[test]
    fn back_to_back_transfers_queue_on_the_link() {
        let (mut f, a, b) = fabric2();
        granted(&mut f, a, b, Vni(3));
        let len = 1u64 << 16;
        let TransferOutcome::Delivered { arrival: t1, .. } =
            f.transfer(SimTime::ZERO, a, b, Vni(3), TrafficClass::BulkData, len, 1)
        else {
            panic!()
        };
        let TransferOutcome::Delivered { arrival: t2, .. } =
            f.transfer(SimTime::ZERO, a, b, Vni(3), TrafficClass::BulkData, len, 2)
        else {
            panic!()
        };
        let ser = f.model().serialize_ns(f.model().wire_bytes(len));
        assert!(t2 > t1);
        let delta = (t2 - t1).as_nanos();
        assert!(
            (delta as i64 - ser as i64).unsigned_abs() <= 2,
            "pipelined messages should be spaced by one serialization: {delta} vs {ser}"
        );
    }

    #[test]
    fn two_senders_share_receiver_downlink() {
        let mut f = Fabric::new(8);
        let (a, b, c) = (NicAddr(1), NicAddr(2), NicAddr(3));
        f.attach(a);
        f.attach(b);
        f.attach(c);
        for n in [a, b, c] {
            f.grant_vni(n, Vni(1)).unwrap();
        }
        let len = 1u64 << 18;
        let TransferOutcome::Delivered { arrival: t1, .. } =
            f.transfer(SimTime::ZERO, a, c, Vni(1), TrafficClass::BulkData, len, 1)
        else {
            panic!()
        };
        let TransferOutcome::Delivered { arrival: t2, .. } =
            f.transfer(SimTime::ZERO, b, c, Vni(1), TrafficClass::BulkData, len, 2)
        else {
            panic!()
        };
        // Different uplinks, same downlink: the second must serialize after
        // the first on c's downlink.
        assert!(t2 > t1);
        let ser = f.model().serialize_ns(f.model().wire_bytes(len));
        assert!((t2 - t1).as_nanos() >= ser - 2);
    }

    #[test]
    fn traffic_counters_track_delivered_only() {
        let (mut f, a, b) = fabric2();
        granted(&mut f, a, b, Vni(9));
        f.transfer(SimTime::ZERO, a, b, Vni(9), TrafficClass::Dedicated, 100, 1);
        // This one is dropped: no grant for VNI 10.
        f.transfer(SimTime::ZERO, a, b, Vni(10), TrafficClass::Dedicated, 100, 2);
        assert_eq!(f.traffic(Vni(9)).messages, 1);
        assert_eq!(f.traffic(Vni(9)).payload_bytes, 100);
        assert_eq!(f.traffic(Vni(9)).switch_hops, 1);
        assert_eq!(f.traffic(Vni(9)).class_messages[TrafficClass::Dedicated.index()], 1);
        assert_eq!(f.traffic(Vni(10)).messages, 0);
    }

    #[test]
    fn unattached_nic_cannot_send() {
        let (mut f, _, b) = fabric2();
        let ghost = NicAddr(99);
        let out = f.transfer(SimTime::ZERO, ghost, b, Vni(1), TrafficClass::Dedicated, 8, 1);
        assert_eq!(out, TransferOutcome::Dropped(DropReason::NoRoute));
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn double_attach_panics() {
        let (mut f, a, _) = fabric2();
        f.attach(a);
    }

    #[test]
    fn revoke_stops_future_traffic() {
        let (mut f, a, b) = fabric2();
        granted(&mut f, a, b, Vni(4));
        assert!(matches!(
            f.transfer(SimTime::ZERO, a, b, Vni(4), TrafficClass::Dedicated, 8, 1),
            TransferOutcome::Delivered { .. }
        ));
        f.revoke_vni(b, Vni(4));
        assert_eq!(
            f.transfer(SimTime::ZERO, a, b, Vni(4), TrafficClass::Dedicated, 8, 2),
            TransferOutcome::Dropped(DropReason::VniDeniedEgress)
        );
    }

    #[test]
    fn switch_counters_count_message_packets() {
        let (mut f, a, b) = fabric2();
        granted(&mut f, a, b, Vni(2));
        let len = 10_000u64; // 5 packets at 2 KiB MTU
        f.transfer(SimTime::ZERO, a, b, Vni(2), TrafficClass::Dedicated, len, 1);
        assert_eq!(f.switch_at(SwitchId(0)).counters.forwarded, 5);
        assert_eq!(f.switch_at(SwitchId(0)).counters.forwarded_payload_bytes, len);
    }

    #[test]
    fn unbound_destination_drops_no_route() {
        // Node removal through either surface must stop delivery with
        // NoRoute.
        let (mut f, a, b) = fabric2();
        granted(&mut f, a, b, Vni(4));
        let (_, port) = f.attachment(b).unwrap();
        f.switches[0].unbind(port);
        assert_eq!(
            f.transfer(SimTime::ZERO, a, b, Vni(4), TrafficClass::Dedicated, 8, 1),
            TransferOutcome::Dropped(DropReason::NoRoute)
        );

        let (mut f, a, b) = fabric2();
        granted(&mut f, a, b, Vni(4));
        assert!(f.detach(b));
        assert!(!f.detach(b), "second detach is a no-op");
        assert_eq!(
            f.transfer(SimTime::ZERO, a, b, Vni(4), TrafficClass::Dedicated, 8, 1),
            TransferOutcome::Dropped(DropReason::NoRoute)
        );
        assert_eq!(f.attachment(b), None);
    }

    /// Why the switch checks stay on every message: an attachment held
    /// past a detach is dropped, and the NIC that took over its port
    /// neither receives for it nor is impersonated by it.
    #[test]
    fn a_stale_attachment_is_dropped_never_redirected() {
        let (mut f, a, b) = fabric2();
        granted(&mut f, a, b, Vni(4));
        let (old_a, old_b) = (f.resolve(a), f.resolve(b));
        let dc = TrafficClass::Dedicated;
        // b leaves and c takes its port, granted the same VNI.
        let b_port = f.attachment(b);
        assert!(f.detach(b));
        let c = NicAddr(3);
        f.attach(c);
        f.grant_vni(c, Vni(4)).unwrap();
        assert_eq!(f.attachment(c), b_port, "c holds b's old port");
        assert_eq!(
            f.transfer_between(SimTime::ZERO, old_a, old_b, Vni(4), dc, 8, 1),
            TransferOutcome::Dropped(DropReason::NoRoute),
            "b is not routed at its old port any more"
        );
        // a leaves and d takes its port: a stale source is a spoof.
        assert!(f.detach(a));
        let d = NicAddr(4);
        f.attach(d);
        f.grant_vni(d, Vni(4)).unwrap();
        assert_eq!(
            f.transfer_between(SimTime::ZERO, old_a, f.resolve(c), Vni(4), dc, 8, 2),
            TransferOutcome::Dropped(DropReason::SourceSpoofed)
        );
        assert_eq!(f.traffic(Vni(4)).messages, 0);
        // Fresh attachments of the new tenants deliver.
        let out = f.transfer_between(SimTime::ZERO, f.resolve(d), f.resolve(c), Vni(4), dc, 8, 3);
        assert!(matches!(out, TransferOutcome::Delivered { .. }));
    }

    #[test]
    fn detach_frees_the_port_for_reuse() {
        // Node-replacement churn: a 4-port switch survives more than 4
        // total attachments because detached ports are reused.
        let mut f = Fabric::new(4);
        for round in 0..3u32 {
            for i in 0..4u32 {
                f.attach(NicAddr(round * 4 + i + 1));
            }
            for i in 0..4u32 {
                assert!(f.detach(NicAddr(round * 4 + i + 1)));
            }
        }
        let survivor = NicAddr(99);
        f.attach(survivor);
        f.grant_vni(survivor, Vni(1)).unwrap();
        assert!(f.nic_has_vni(survivor, Vni(1)));
    }

    #[test]
    fn grant_on_unknown_nic_is_an_error() {
        let (mut f, _, _) = fabric2();
        assert_eq!(
            f.grant_vni(NicAddr(99), Vni(5)),
            Err(FabricError::UnknownNic(NicAddr(99)))
        );
    }

    #[test]
    fn anomalous_revokes_are_audited() {
        let (mut f, a, _) = fabric2();
        assert!(!f.revoke_vni(NicAddr(99), Vni(5)));
        assert!(!f.revoke_vni(a, Vni(5)));
        assert_eq!(
            f.audit(),
            &[
                FabricAuditEvent::RevokeUnknownNic { nic: NicAddr(99), vni: Vni(5) },
                FabricAuditEvent::RevokeNeverGranted { nic: a, vni: Vni(5) },
            ]
        );
        // A legitimate grant/revoke pair leaves no new audit entries.
        f.grant_vni(a, Vni(5)).unwrap();
        assert!(f.revoke_vni(a, Vni(5)));
        assert_eq!(f.audit().len(), 2);
    }

    #[test]
    fn cross_group_transfer_crosses_the_global_link() {
        let (mut f, a, b) = cross_group();
        let TransferOutcome::Delivered { arrival, .. } =
            f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::Dedicated, 64, 1)
        else {
            panic!("dropped")
        };
        // Two switch hops: strictly slower than the single-switch path.
        assert_eq!(arrival.as_nanos(), f.unloaded_route_ns(a, b, 64).unwrap());
        assert!(arrival.as_nanos() > f.unloaded_ns(64));
        assert_eq!(f.traffic(Vni(7)).switch_hops, 2);
        let trunk = f.trunk_counters(SwitchId(0), SwitchId(1)).unwrap();
        assert_eq!(trunk[TrafficClass::Dedicated.index()].messages, 1);
        // Both edge switches counted the forwarded packet.
        assert_eq!(f.switch_at(SwitchId(0)).counters.forwarded, 1);
        assert_eq!(f.switch_at(SwitchId(1)).counters.forwarded, 1);
    }

    #[test]
    fn cross_group_enforcement_checks_both_edge_ports() {
        let mut f = Fabric::with_topology(
            CostModel::default(),
            TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 },
            RoutingPolicy::Minimal,
        );
        let (a, b) = (NicAddr(1), NicAddr(2));
        f.attach_to(a, SwitchId(0));
        f.attach_to(b, SwitchId(1));
        f.grant_vni(a, Vni(7)).unwrap();
        // Sender holds the VNI, receiver (on the other switch) does not.
        assert_eq!(
            f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::Dedicated, 8, 1),
            TransferOutcome::Dropped(DropReason::VniDeniedEgress)
        );
        assert_eq!(
            f.transfer(SimTime::ZERO, b, a, Vni(7), TrafficClass::Dedicated, 8, 2),
            TransferOutcome::Dropped(DropReason::VniDeniedIngress)
        );
    }

    /// 2 groups × 1 switch; three sender NICs in group 0 whose uplinks
    /// converge on the single global link towards the receiver in
    /// group 1 — the shape that actually backlogs a trunk (one sender
    /// alone is already serialized by its own uplink).
    fn incast_rig() -> (Fabric, [NicAddr; 3], NicAddr) {
        let mut f = Fabric::with_topology(
            CostModel::default(),
            TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 },
            RoutingPolicy::Minimal,
        );
        let senders = [NicAddr(1), NicAddr(2), NicAddr(3)];
        let b = NicAddr(9);
        for s in senders {
            f.attach_to(s, SwitchId(0));
            f.grant_vni(s, Vni(7)).unwrap();
        }
        f.attach_to(b, SwitchId(1));
        f.grant_vni(b, Vni(7)).unwrap();
        (f, senders, b)
    }

    #[test]
    fn low_latency_class_is_shielded_on_a_contended_trunk() {
        let (mut f, senders, b) = incast_rig();
        // A bulk incast backlogs the trunk's BulkData queue...
        let bulk = 1u64 << 20;
        let mut delivered = 0;
        for (i, s) in senders.iter().enumerate() {
            if matches!(
                f.transfer(SimTime::ZERO, *s, b, Vni(7), TrafficClass::BulkData, bulk, i as u64),
                TransferOutcome::Delivered { .. }
            ) {
                delivered += 1;
            }
        }
        assert!(delivered >= 2, "some of the burst gets through");
        assert!(
            f.trunk_class_totals()[TrafficClass::BulkData.index()].queued_ns_max > 0,
            "the bulk class actually queued"
        );
        // ...while a low-latency message between two *otherwise idle*
        // NICs, sharing only the trunk with the burst, sees only the
        // weighted-sharing stretch, not the burst's backlog. (Edge links
        // are class-blind, so the probe gets its own.)
        let (lla, llb) = (NicAddr(4), NicAddr(10));
        f.attach_to(lla, SwitchId(0));
        f.attach_to(llb, SwitchId(1));
        granted(&mut f, lla, llb, Vni(7));
        let TransferOutcome::Delivered { arrival, .. } =
            f.transfer(SimTime::ZERO, lla, llb, Vni(7), TrafficClass::LowLatency, 64, 99)
        else {
            panic!("dropped")
        };
        let unloaded = f.unloaded_route_ns(lla, llb, 64).unwrap();
        assert!(
            arrival.as_nanos() < 2 * unloaded,
            "low-latency {}ns vs unloaded {unloaded}ns",
            arrival.as_nanos()
        );
    }

    #[test]
    fn trunk_queue_overflow_drops_and_counts_per_class_and_tenant() {
        let (mut f, senders, b) = incast_rig();
        let bulk = 1u64 << 20; // ~43 µs serialization; the 100 µs bound
        let mut outcomes = Vec::new();
        // Two interleaved incast waves: sender uplinks are parallel, so
        // the trunk's BulkData queue grows by one serialization per
        // convergent message until the bound trips.
        for wave in 0..2u64 {
            for (i, s) in senders.iter().enumerate() {
                let id = wave * 3 + i as u64;
                outcomes.push(
                    f.transfer(SimTime::ZERO, *s, b, Vni(7), TrafficClass::BulkData, bulk, id),
                );
            }
        }
        let drops = outcomes
            .iter()
            .filter(|o| matches!(o, TransferOutcome::Dropped(DropReason::Congested)))
            .count();
        assert!(drops > 0, "queue bound must trip: {outcomes:?}");
        let totals = f.trunk_class_totals();
        assert_eq!(totals[TrafficClass::BulkData.index()].congestion_drops, drops as u64);
        assert_eq!(f.traffic(Vni(7)).congestion_drops, drops as u64);
        assert_eq!(
            f.switch_at(SwitchId(0)).counters.drops.get(&DropReason::Congested),
            Some(&(drops as u64))
        );
    }

    /// 3 groups × 1 switch, one NIC on switch 0 and one on switch 1 —
    /// the smallest fabric where minimal (`[0,1]`) and Valiant
    /// (`[0,2,1]`) genuinely differ, for the adaptive and fault tests.
    fn three_group(policy: RoutingPolicy) -> (Fabric, NicAddr, NicAddr) {
        let mut f = Fabric::with_topology(
            CostModel::default(),
            TopologySpec { groups: 3, switches_per_group: 1, edge_ports: 4 },
            policy,
        );
        let a = NicAddr(1);
        let b = NicAddr(2);
        f.attach_to(a, SwitchId(0));
        f.attach_to(b, SwitchId(1));
        granted(&mut f, a, b, Vni(7));
        (f, a, b)
    }

    #[test]
    fn adaptive_routing_diverts_off_a_backlogged_trunk() {
        let (mut f, a, b) = three_group(RoutingPolicy::Adaptive);
        let bulk = 1u64 << 20;
        // First message sees empty queues everywhere: UGAL picks the
        // minimal 2-switch route and backlogs trunk (0, 1).
        assert!(matches!(
            f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::BulkData, bulk, 1),
            TransferOutcome::Delivered { .. }
        ));
        assert_eq!(f.traffic(Vni(7)).switch_hops, 2);
        // Second message at the same instant: minimal's first trunk is
        // ~43 µs deep, the Valiant detour's is idle — 43 µs × 2 hops
        // beats 0 × 3 hops, so UGAL detours via group 2.
        assert!(matches!(
            f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::BulkData, bulk, 2),
            TransferOutcome::Delivered { .. }
        ));
        let t = f.traffic(Vni(7));
        assert_eq!(t.switch_hops, 2 + 3, "second message took the 3-switch detour");
        assert_eq!(t.reroutes, 0, "an adaptive choice is not a failure reroute");
        let detour = f.trunk_counters(SwitchId(0), SwitchId(2)).unwrap();
        assert_eq!(detour[TrafficClass::BulkData.index()].messages, 1);
    }

    #[test]
    fn trunk_cut_reroutes_deterministically_with_hop_delta() {
        let (mut f, a, b) = three_group(RoutingPolicy::Minimal);
        f.apply_fault(FaultKind::LinkDown(SwitchId(0), SwitchId(1)));
        assert!(!f.liveness().is_empty());
        let TransferOutcome::Delivered { arrival, .. } =
            f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::Dedicated, 64, 1)
        else {
            panic!("reroute must deliver")
        };
        let t = f.traffic(Vni(7));
        assert_eq!(t.switch_hops, 3, "detour [0,2,1] instead of minimal [0,1]");
        assert_eq!(t.reroutes, 1);
        // Strictly slower than the healthy minimal path: one extra hop.
        assert!(arrival.as_nanos() > f.unloaded_route_ns(a, b, 64).unwrap());
        for (s, d) in [(0, 2), (2, 1)] {
            let c = f.trunk_counters(SwitchId(s), SwitchId(d)).unwrap();
            assert_eq!(c[TrafficClass::Dedicated.index()].messages, 1, "({s},{d})");
        }
    }

    #[test]
    fn partition_drops_no_route_and_link_up_restores() {
        let (mut f, a, b) = cross_group();
        // The only inter-group trunk of a 2-group × 1-switch dragonfly:
        // cutting it genuinely partitions the fabric.
        f.apply_fault(FaultKind::LinkDown(SwitchId(0), SwitchId(1)));
        assert_eq!(
            f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::Dedicated, 8, 1),
            TransferOutcome::Dropped(DropReason::NoRoute)
        );
        assert_eq!(
            f.switch_at(SwitchId(0)).counters.drops.get(&DropReason::NoRoute),
            Some(&1)
        );
        assert_eq!(f.traffic(Vni(7)).messages, 0);
        f.apply_fault(FaultKind::LinkUp(SwitchId(0), SwitchId(1)));
        assert!(f.liveness().is_empty(), "recovered fabric is back on the fast path");
        assert!(matches!(
            f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::Dedicated, 8, 2),
            TransferOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn switch_down_spares_live_pairs_then_partitions_with_the_trunk() {
        let (mut f, a, b) = three_group(RoutingPolicy::Minimal);
        f.apply_fault(FaultKind::SwitchDown(SwitchId(2)));
        // Minimal [0, 1] avoids the dead switch: delivered, no reroute.
        assert!(matches!(
            f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::Dedicated, 8, 1),
            TransferOutcome::Delivered { .. }
        ));
        assert_eq!(f.traffic(Vni(7)).reroutes, 0);
        // Now the direct trunk dies too — with group 2 down there is no
        // detour left.
        f.apply_fault(FaultKind::LinkDown(SwitchId(0), SwitchId(1)));
        assert_eq!(
            f.transfer(SimTime::ZERO, a, b, Vni(7), TrafficClass::Dedicated, 8, 2),
            TransferOutcome::Dropped(DropReason::NoRoute)
        );
    }

    #[test]
    fn a_down_switch_blocks_same_switch_traffic_too() {
        let (mut f, a, b) = fabric2();
        granted(&mut f, a, b, Vni(4));
        f.apply_fault(FaultKind::SwitchDown(SwitchId(0)));
        assert_eq!(
            f.transfer(SimTime::ZERO, a, b, Vni(4), TrafficClass::Dedicated, 8, 1),
            TransferOutcome::Dropped(DropReason::NoRoute)
        );
        let counters = &f.switch_at(SwitchId(0)).counters;
        assert_eq!(counters.drops.get(&DropReason::NoRoute), Some(&1));
        assert_eq!(counters.forwarded, 0);
        assert_eq!(f.traffic(Vni(4)).messages, 0);
    }

    #[test]
    fn ecn_marks_accrue_per_tenant_and_drain_per_sender() {
        // Same incast shape as `incast_rig`, with the ECN threshold
        // lowered below the queue bound so marks can fire.
        let mut f = Fabric::with_topology(
            CostModel { ecn_threshold_ns: 1_000, ..CostModel::default() },
            TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 },
            RoutingPolicy::Minimal,
        );
        let senders = [NicAddr(1), NicAddr(2), NicAddr(3)];
        let b = NicAddr(9);
        for s in senders {
            f.attach_to(s, SwitchId(0));
            f.grant_vni(s, Vni(7)).unwrap();
        }
        f.attach_to(b, SwitchId(1));
        f.grant_vni(b, Vni(7)).unwrap();
        let bulk = 1u64 << 20;
        for (i, s) in senders.iter().enumerate() {
            assert!(matches!(
                f.transfer(SimTime::ZERO, *s, b, Vni(7), TrafficClass::BulkData, bulk, i as u64),
                TransferOutcome::Delivered { .. }
            ));
        }
        // The first sender found the trunk idle; the two converging
        // behind it each queued past the threshold and got marked.
        assert_eq!(f.traffic(Vni(7)).ecn_marks, 2);
        assert_eq!(f.take_ecn_marks(senders[0]), 0);
        assert_eq!(f.take_ecn_marks(senders[1]), 1);
        assert_eq!(f.take_ecn_marks(senders[1]), 0, "marks drain on read");
        assert_eq!(f.take_ecn_marks(senders[2]), 1);
    }

    #[test]
    fn default_threshold_never_marks() {
        let (mut f, senders, b) = incast_rig();
        for wave in 0..2u64 {
            for (i, s) in senders.iter().enumerate() {
                let id = wave * 3 + i as u64;
                f.transfer(SimTime::ZERO, *s, b, Vni(7), TrafficClass::BulkData, 1 << 20, id);
            }
        }
        // Queues grew past the default ECN threshold only where the
        // message was *dropped* instead — accepted ones never mark.
        assert_eq!(f.traffic(Vni(7)).ecn_marks, 0);
        for s in senders {
            assert_eq!(f.take_ecn_marks(s), 0);
        }
    }

    #[test]
    fn detach_with_messages_in_flight_keeps_tenant_counters_clean() {
        // Regression: `detach` used to leave the recycled port's edge
        // link busy horizons (and any pending ECN feedback) behind, so
        // the next NIC attached to that port inherited a stale uplink.
        let mut f = Fabric::with_topology(
            CostModel { ecn_threshold_ns: 1_000, ..CostModel::default() },
            TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 },
            RoutingPolicy::Minimal,
        );
        let senders = [NicAddr(1), NicAddr(2), NicAddr(3)];
        let sink = NicAddr(9);
        for s in senders {
            f.attach_to(s, SwitchId(0));
            f.grant_vni(s, Vni(7)).unwrap();
        }
        f.attach_to(sink, SwitchId(1));
        f.grant_vni(sink, Vni(7)).unwrap();
        let bulk = 1u64 << 20;
        for (i, s) in senders.iter().enumerate() {
            f.transfer(SimTime::ZERO, *s, sink, Vni(7), TrafficClass::BulkData, bulk, i as u64);
        }
        let before = f.traffic(Vni(7));
        assert!(before.ecn_marks > 0, "the rig accrued ECN debt");
        // Detach the last sender while the trunk and the sink downlink
        // are still busy far into the future with its message.
        assert!(f.detach(senders[2]));
        assert_eq!(f.traffic(Vni(7)), before, "detach must not touch per-VNI counters");
        // The recycled port comes up clean: fresh NIC, same port, idle
        // uplink — an LL probe sees exactly the unloaded path (its
        // class queue on the trunk is empty; only BulkData is backed up).
        let fresh = NicAddr(42);
        f.attach_to(fresh, SwitchId(0));
        assert_eq!(f.attachment(fresh), Some((SwitchId(0), PortId(2))), "port was recycled");
        f.grant_vni(fresh, Vni(7)).unwrap();
        let probe_dst = NicAddr(10);
        f.attach_to(probe_dst, SwitchId(1));
        f.grant_vni(probe_dst, Vni(7)).unwrap();
        let TransferOutcome::Delivered { arrival, .. } = f.transfer(
            SimTime::ZERO,
            fresh,
            probe_dst,
            Vni(7),
            TrafficClass::LowLatency,
            64,
            99,
        ) else {
            panic!("probe dropped")
        };
        assert_eq!(arrival.as_nanos(), f.unloaded_route_ns(fresh, probe_dst, 64).unwrap());
        // And the detached NIC's pending ECN feedback died with it.
        assert_eq!(f.take_ecn_marks(senders[2]), 0);
        assert_eq!(f.take_ecn_marks(fresh), 0);
    }

    #[test]
    fn multi_switch_transfers_are_deterministic() {
        let run = || {
            let (mut f, a, b) = cross_group();
            let mut arrivals = Vec::new();
            for i in 0..8 {
                let tc = TrafficClass::ALL[(i % 4) as usize];
                if let TransferOutcome::Delivered { arrival, .. } =
                    f.transfer(SimTime::from_nanos(i * 500), a, b, Vni(7), tc, 4096, i)
                {
                    arrivals.push(arrival.as_nanos());
                }
            }
            arrivals
        };
        assert_eq!(run(), run());
    }
}
