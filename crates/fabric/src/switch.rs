//! The Rosetta-like switch: routing, per-port VNI enforcement, drop
//! accounting, and a weighted egress arbiter for traffic classes.

use std::collections::{BTreeMap, VecDeque};

use crate::packet::Packet;
use crate::types::{NicAddr, PortId, TrafficClass, Vni};

/// Why a packet was not forwarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// The ingress port has not been granted the packet's VNI.
    VniDeniedIngress,
    /// The egress port has not been granted the packet's VNI.
    VniDeniedEgress,
    /// No route to the destination NIC.
    NoRoute,
    /// Source address does not match the ingress port binding (spoofing).
    SourceSpoofed,
    /// Dropped by congestion management: the per-class queue at an
    /// inter-switch link exceeded the cost model's `trunk_queue_ns`.
    Congested,
}

/// Forwarding verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward out of the given egress port.
    Deliver(PortId),
    /// Drop with the given reason. VNI-enforcement drops are silent on
    /// real Rosetta hardware; we count them.
    Drop(DropReason),
}

/// Per-switch counters (observable via the monitoring example).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Packets successfully forwarded.
    pub forwarded: u64,
    /// Bytes of payload forwarded.
    pub forwarded_payload_bytes: u64,
    /// Drops by reason.
    pub drops: BTreeMap<DropReason, u64>,
}

impl SwitchCounters {
    /// Total dropped packets.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }
}

/// Switch configuration.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Number of ports.
    pub ports: usize,
    /// Whether to strictly enforce VNIs ("The Rosetta switch can be
    /// configured to strictly enforce VNIs", §II-C). When off, any VNI is
    /// routed — the single-tenant HPC mode.
    pub enforce_vnis: bool,
    /// Whether to validate that a packet's source address matches the NIC
    /// bound to the ingress port.
    pub check_source: bool,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig { ports: 64, enforce_vnis: true, check_source: true }
    }
}

/// The switch state machine (sans-IO; timing lives in the fabric engine).
#[derive(Debug)]
pub struct Switch {
    config: SwitchConfig,
    /// VNIs granted per port, indexed by port number, each list sorted
    /// (the per-packet enforcement lookup is one array index + a binary
    /// search of a few entries).
    vni_table: Vec<Vec<Vni>>,
    /// Destination NIC -> egress port, sorted by NIC (binary search;
    /// never iterated on the hot path).
    routes: Vec<(NicAddr, PortId)>,
    /// NIC bound to each port (for source validation), indexed by port.
    bindings: Vec<Option<NicAddr>>,
    /// Counters.
    pub counters: SwitchCounters,
}

impl Switch {
    /// Build a switch with the given configuration.
    pub fn new(config: SwitchConfig) -> Self {
        let ports = config.ports;
        Switch {
            config,
            vni_table: vec![Vec::new(); ports],
            routes: Vec::new(),
            bindings: vec![None; ports],
            counters: SwitchCounters::default(),
        }
    }

    /// Access the configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Bind a NIC to a port and install its route. Panics if the port is
    /// out of range; returns `false` if the port was already bound.
    pub fn bind(&mut self, port: PortId, nic: NicAddr) -> bool {
        assert!(port.0 < self.config.ports, "{port} out of range");
        if self.bindings[port.0].is_some() {
            return false;
        }
        self.bindings[port.0] = Some(nic);
        if let Err(i) = self.routes.binary_search_by_key(&nic, |&(n, _)| n) {
            self.routes.insert(i, (nic, port));
        }
        true
    }

    /// Remove a NIC binding (node removal).
    pub(crate) fn unbind(&mut self, port: PortId) {
        if let Some(nic) = self.bindings[port.0].take() {
            if let Ok(i) = self.routes.binary_search_by_key(&nic, |&(n, _)| n) {
                self.routes.remove(i);
            }
        }
        self.vni_table[port.0].clear();
    }

    /// Grant a VNI on a port (management-plane operation performed by the
    /// fabric manager when the VNI Service allocates a virtual network).
    pub fn grant_vni(&mut self, port: PortId, vni: Vni) {
        let grants = &mut self.vni_table[port.0];
        if let Err(i) = grants.binary_search(&vni) {
            grants.insert(i, vni);
        }
    }

    /// Revoke a VNI from a port.
    pub fn revoke_vni(&mut self, port: PortId, vni: Vni) -> bool {
        let Some(grants) = self.vni_table.get_mut(port.0) else { return false };
        grants.binary_search(&vni).map(|i| grants.remove(i)).is_ok()
    }

    /// Egress port a NIC is currently bound to on this switch (`None`
    /// after [`Switch::unbind`]).
    pub(crate) fn route_to(&self, nic: NicAddr) -> Option<PortId> {
        self.routes
            .binary_search_by_key(&nic, |&(n, _)| n)
            .ok()
            .map(|i| self.routes[i].1)
    }

    /// Whether a port holds a VNI grant.
    pub(crate) fn has_vni(&self, port: PortId, vni: Vni) -> bool {
        self.vni_table.get(port.0).is_some_and(|s| s.binary_search(&vni).is_ok())
    }

    /// All VNIs granted on a port, in VNI order.
    pub fn vnis_on(&self, port: PortId) -> impl Iterator<Item = Vni> + '_ {
        self.vni_table.get(port.0).into_iter().flatten().copied()
    }

    /// The forwarding decision for one packet arriving on `ingress`,
    /// when the destination NIC is attached to *this* switch.
    ///
    /// Mirrors §II-C: "only route packets within a VNI if both the sender
    /// and receiver NIC have been granted access to that VNI". The
    /// multi-switch fabric engine composes the same checks across the
    /// source and destination edge switches via [`Switch::admit`] and
    /// `Switch::egress_check`.
    ///
    /// ```
    /// use shs_fabric::{NicAddr, Packet, PortId, Switch, SwitchConfig, TrafficClass, Verdict, Vni};
    ///
    /// let mut sw = Switch::new(SwitchConfig { ports: 2, ..Default::default() });
    /// sw.bind(PortId(0), NicAddr(10));
    /// sw.bind(PortId(1), NicAddr(11));
    /// sw.grant_vni(PortId(0), Vni(5));
    /// sw.grant_vni(PortId(1), Vni(5));
    /// let pkt = Packet {
    ///     src: NicAddr(10), dst: NicAddr(11), vni: Vni(5),
    ///     tc: TrafficClass::Dedicated, payload_len: 64,
    ///     msg_id: 1, seq: 0, last_of_msg: true,
    /// };
    /// assert_eq!(sw.forward(PortId(0), &pkt), Verdict::Deliver(PortId(1)));
    /// ```
    pub fn forward(&mut self, ingress: PortId, pkt: &Packet) -> Verdict {
        if let Some(reason) = self.admit(ingress, pkt) {
            return Verdict::Drop(reason);
        }
        let Some(egress) = self.route_to(pkt.dst) else {
            return Verdict::Drop(self.note_drop(DropReason::NoRoute));
        };
        if let Some(reason) = self.egress_check(egress, pkt) {
            return Verdict::Drop(reason);
        }
        self.counters.forwarded += 1;
        self.counters.forwarded_payload_bytes += pkt.payload_len as u64;
        Verdict::Deliver(egress)
    }

    /// Ingress-side admission: source validation plus the per-port VNI
    /// ingress check, with drops counted. `None` means admitted.
    pub fn admit(&mut self, ingress: PortId, pkt: &Packet) -> Option<DropReason> {
        if self.config.check_source
            && self.bindings.get(ingress.0).copied().flatten().is_some_and(|nic| nic != pkt.src)
        {
            return Some(self.note_drop(DropReason::SourceSpoofed));
        }
        if self.config.enforce_vnis && !self.has_vni(ingress, pkt.vni) {
            return Some(self.note_drop(DropReason::VniDeniedIngress));
        }
        None
    }

    /// Egress-side VNI enforcement for a packet leaving via `egress`,
    /// with drops counted. `None` means the grant is in place.
    pub(crate) fn egress_check(&mut self, egress: PortId, pkt: &Packet) -> Option<DropReason> {
        if self.config.enforce_vnis && !self.has_vni(egress, pkt.vni) {
            return Some(self.note_drop(DropReason::VniDeniedEgress));
        }
        None
    }

    /// Count a drop decided by the fabric engine (e.g. trunk congestion)
    /// against this switch, returning the reason for convenience.
    pub(crate) fn note_drop(&mut self, reason: DropReason) -> DropReason {
        *self.counters.drops.entry(reason).or_insert(0) += 1;
        reason
    }

    /// Account `pkts` forwarded packets carrying `payload` bytes (used
    /// by the fabric engine for transit switches on multi-hop routes).
    pub(crate) fn note_forwarded(&mut self, pkts: u64, payload: u64) {
        self.counters.forwarded += pkts;
        self.counters.forwarded_payload_bytes += payload;
    }
}

/// Weighted-round-robin egress arbiter over the four traffic classes.
///
/// Used by the packet-level path to model class-based arbitration when an
/// egress port is contended (the co-scheduling use case from §I).
#[derive(Debug, Default)]
pub struct WrrArbiter {
    queues: [VecDeque<Packet>; 4],
    deficit: [i64; 4],
    /// Quantum multiplier in bytes per unit weight.
    quantum: i64,
}

impl WrrArbiter {
    /// New arbiter with the given per-weight byte quantum.
    pub fn new(quantum_bytes: i64) -> Self {
        WrrArbiter { queues: Default::default(), deficit: [0; 4], quantum: quantum_bytes }
    }

    /// Enqueue a packet for egress.
    pub fn enqueue(&mut self, pkt: Packet) {
        self.queues[pkt.tc.index()].push_back(pkt);
    }

    /// Total queued packets.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Whether no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Dequeue the next packet under deficit-round-robin arbitration.
    pub fn dequeue(&mut self) -> Option<Packet> {
        if self.is_empty() {
            return None;
        }
        // Bounded rounds: each refill adds quantum*weight bytes of credit,
        // so any head packet is eventually eligible.
        loop {
            for tc in TrafficClass::ALL {
                let i = tc.index();
                if let Some(head) = self.queues[i].front() {
                    let cost = head.payload_len as i64 + 64;
                    if self.deficit[i] >= cost {
                        self.deficit[i] -= cost;
                        return self.queues[i].pop_front();
                    }
                }
            }
            for tc in TrafficClass::ALL {
                let i = tc.index();
                if !self.queues[i].is_empty() {
                    self.deficit[i] += self.quantum * tc.weight() as i64;
                } else {
                    self.deficit[i] = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::CostModel;

    fn pkt(src: u32, dst: u32, vni: u16, tc: TrafficClass) -> Packet {
        Packet {
            src: NicAddr(src),
            dst: NicAddr(dst),
            vni: Vni(vni),
            tc,
            payload_len: 1024,
            msg_id: 1,
            seq: 0,
            last_of_msg: true,
        }
    }

    fn two_port_switch() -> Switch {
        let mut sw = Switch::new(SwitchConfig { ports: 4, ..Default::default() });
        sw.bind(PortId(0), NicAddr(10));
        sw.bind(PortId(1), NicAddr(11));
        sw
    }

    #[test]
    fn forwards_when_both_ports_hold_vni() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(5));
        sw.grant_vni(PortId(1), Vni(5));
        let v = sw.forward(PortId(0), &pkt(10, 11, 5, TrafficClass::Dedicated));
        assert_eq!(v, Verdict::Deliver(PortId(1)));
        assert_eq!(sw.counters.forwarded, 1);
    }

    #[test]
    fn drops_without_ingress_grant() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(1), Vni(5));
        let v = sw.forward(PortId(0), &pkt(10, 11, 5, TrafficClass::Dedicated));
        assert_eq!(v, Verdict::Drop(DropReason::VniDeniedIngress));
        assert_eq!(sw.counters.total_drops(), 1);
    }

    #[test]
    fn drops_without_egress_grant() {
        // Sender holds the VNI, receiver does not: cross-tenant isolation.
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(5));
        let v = sw.forward(PortId(0), &pkt(10, 11, 5, TrafficClass::Dedicated));
        assert_eq!(v, Verdict::Drop(DropReason::VniDeniedEgress));
    }

    #[test]
    fn enforcement_can_be_disabled() {
        let mut sw = Switch::new(SwitchConfig { ports: 4, enforce_vnis: false, check_source: true });
        sw.bind(PortId(0), NicAddr(10));
        sw.bind(PortId(1), NicAddr(11));
        let v = sw.forward(PortId(0), &pkt(10, 11, 999, TrafficClass::Dedicated));
        assert_eq!(v, Verdict::Deliver(PortId(1)));
    }

    #[test]
    fn drops_unrouted_destinations() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(5));
        let v = sw.forward(PortId(0), &pkt(10, 99, 5, TrafficClass::Dedicated));
        assert_eq!(v, Verdict::Drop(DropReason::NoRoute));
    }

    #[test]
    fn drops_spoofed_sources() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(5));
        sw.grant_vni(PortId(1), Vni(5));
        // NIC 10 is bound to port 0 but claims to be NIC 11.
        let v = sw.forward(PortId(0), &pkt(11, 10, 5, TrafficClass::Dedicated));
        assert_eq!(v, Verdict::Drop(DropReason::SourceSpoofed));
    }

    #[test]
    fn revoke_closes_the_network() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(5));
        sw.grant_vni(PortId(1), Vni(5));
        assert!(sw.revoke_vni(PortId(1), Vni(5)));
        let v = sw.forward(PortId(0), &pkt(10, 11, 5, TrafficClass::Dedicated));
        assert_eq!(v, Verdict::Drop(DropReason::VniDeniedEgress));
        assert!(!sw.revoke_vni(PortId(1), Vni(5)), "second revoke is a no-op");
    }

    #[test]
    fn bind_rejects_double_binding() {
        let mut sw = two_port_switch();
        assert!(!sw.bind(PortId(0), NicAddr(99)));
    }

    #[test]
    fn unbind_removes_routes_and_grants() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(1), Vni(5));
        sw.unbind(PortId(1));
        sw.grant_vni(PortId(0), Vni(5));
        let v = sw.forward(PortId(0), &pkt(10, 11, 5, TrafficClass::Dedicated));
        assert_eq!(v, Verdict::Drop(DropReason::NoRoute));
        assert!(!sw.has_vni(PortId(1), Vni(5)));
    }

    #[test]
    fn vnis_on_lists_grants() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(9));
        sw.grant_vni(PortId(0), Vni(3));
        let vnis: Vec<Vni> = sw.vnis_on(PortId(0)).collect();
        assert_eq!(vnis, vec![Vni(3), Vni(9)], "grants list in VNI order");
    }

    #[test]
    fn wrr_prefers_high_priority_classes() {
        let mut arb = WrrArbiter::new(CostModel::default().mtu as i64 + 64);
        for _ in 0..8 {
            arb.enqueue(pkt(1, 2, 1, TrafficClass::BestEffort));
            arb.enqueue(pkt(1, 2, 1, TrafficClass::LowLatency));
        }
        let mut first_eight = Vec::new();
        for _ in 0..8 {
            first_eight.push(arb.dequeue().unwrap().tc);
        }
        let ll = first_eight.iter().filter(|&&t| t == TrafficClass::LowLatency).count();
        assert!(ll >= 6, "low-latency should dominate early slots, got {ll}/8");
    }

    #[test]
    fn wrr_drains_everything() {
        let mut arb = WrrArbiter::new(4096);
        for i in 0..100u32 {
            let tc = TrafficClass::ALL[(i % 4) as usize];
            arb.enqueue(pkt(1, 2, 1, tc));
        }
        let mut n = 0;
        while arb.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
        assert!(arb.is_empty());
        assert!(arb.dequeue().is_none());
    }
}
