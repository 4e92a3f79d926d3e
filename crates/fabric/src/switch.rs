//! The Rosetta-like switch: routing, per-port VNI enforcement and drop
//! accounting. Every switch strictly enforces VNIs and validates source
//! addresses (§II-C: "The Rosetta switch can be configured to strictly
//! enforce VNIs"); the single-tenant mode that routes any VNI is not
//! modelled.

use std::collections::BTreeMap;

use crate::types::{NicAddr, PortId, Vni};

/// Why a message was not forwarded.
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

/// The switch state machine (sans-IO; timing lives in the fabric engine).
#[derive(Debug)]
pub struct Switch {
    /// VNIs granted per port, indexed by port number: a bitset indexed
    /// by VNI (bit `v % 64` of word `v / 64`), as long as the highest
    /// VNI the port was ever granted needs. The per-packet enforcement
    /// lookup is one array index and one bit test.
    vni_table: Vec<Vec<u64>>,
    /// NIC bound to each port (for source validation and the
    /// destination check), indexed by port; its length is the port
    /// count.
    bindings: Vec<Option<NicAddr>>,
    /// Counters.
    pub counters: SwitchCounters,
}

impl Switch {
    /// Build a switch with `ports` ports.
    pub fn new(ports: usize) -> Self {
        Switch {
            vni_table: vec![Vec::new(); ports],
            bindings: vec![None; ports],
            counters: SwitchCounters::default(),
        }
    }

    /// Bind a NIC to a port. Panics if the port is out of range;
    /// returns `false` if the port was already bound.
    pub fn bind(&mut self, port: PortId, nic: NicAddr) -> bool {
        assert!(port.0 < self.bindings.len(), "{port} out of range");
        if self.bindings[port.0].is_some() {
            return false;
        }
        self.bindings[port.0] = Some(nic);
        true
    }

    /// Remove a NIC binding and the port's grants (node removal).
    pub(crate) fn unbind(&mut self, port: PortId) {
        self.bindings[port.0] = None;
        self.vni_table[port.0].clear();
    }

    /// The NIC bound to a port (`None` after [`Switch::unbind`] or for
    /// a port out of range).
    #[inline]
    pub(crate) fn binding(&self, port: PortId) -> Option<NicAddr> {
        self.bindings.get(port.0).copied().flatten()
    }

    /// Grant a VNI on a port (management-plane operation performed by the
    /// fabric manager when the VNI Service allocates a virtual network).
    pub fn grant_vni(&mut self, port: PortId, vni: Vni) {
        let grants = &mut self.vni_table[port.0];
        let (word, bit) = vni_bit(vni);
        if grants.len() <= word {
            grants.resize(word + 1, 0);
        }
        grants[word] |= bit;
    }

    /// Revoke a VNI from a port. Returns whether it was granted.
    pub fn revoke_vni(&mut self, port: PortId, vni: Vni) -> bool {
        let (word, bit) = vni_bit(vni);
        let Some(w) = self.vni_table.get_mut(port.0).and_then(|g| g.get_mut(word)) else {
            return false;
        };
        let held = *w & bit != 0;
        *w &= !bit;
        held
    }

    /// Whether a port holds a VNI grant.
    #[inline]
    pub(crate) fn has_vni(&self, port: PortId, vni: Vni) -> bool {
        let (word, bit) = vni_bit(vni);
        self.vni_table
            .get(port.0)
            .and_then(|g| g.get(word))
            .is_some_and(|w| w & bit != 0)
    }

    /// All VNIs granted on a port, in VNI order.
    pub fn vnis_on(&self, port: PortId) -> impl Iterator<Item = Vni> + '_ {
        let words = self.vni_table.get(port.0).map_or(&[][..], Vec::as_slice);
        words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros() as u16;
                rest &= rest.wrapping_sub(1);
                (bit < 64).then(|| Vni(i as u16 * 64 + bit))
            })
        })
    }

    /// Ingress-side admission of a message from `src` on `vni` arriving
    /// on `ingress`: source validation plus the per-port VNI ingress
    /// check, with drops counted. `None` means admitted.
    ///
    /// Mirrors §II-C: "only route packets within a VNI if both the sender
    /// and receiver NIC have been granted access to that VNI". The fabric
    /// engine composes this check at the source edge switch with
    /// `Switch::egress_check` at the destination's.
    ///
    /// ```
    /// use shs_fabric::{DropReason, NicAddr, PortId, Switch, Vni};
    ///
    /// let mut sw = Switch::new(2);
    /// sw.bind(PortId(0), NicAddr(10));
    /// assert_eq!(sw.admit(PortId(0), NicAddr(10), Vni(5)), Some(DropReason::VniDeniedIngress));
    /// sw.grant_vni(PortId(0), Vni(5));
    /// assert_eq!(sw.admit(PortId(0), NicAddr(10), Vni(5)), None);
    /// assert_eq!(sw.admit(PortId(0), NicAddr(11), Vni(5)), Some(DropReason::SourceSpoofed));
    /// ```
    #[inline]
    pub fn admit(&mut self, ingress: PortId, src: NicAddr, vni: Vni) -> Option<DropReason> {
        if self.binding(ingress).is_some_and(|nic| nic != src) {
            return Some(self.note_drop(DropReason::SourceSpoofed));
        }
        if !self.has_vni(ingress, vni) {
            return Some(self.note_drop(DropReason::VniDeniedIngress));
        }
        None
    }

    /// Egress-side VNI enforcement for a message on `vni` leaving via
    /// `egress`, with drops counted. `None` means the grant is in place.
    #[inline]
    pub(crate) fn egress_check(&mut self, egress: PortId, vni: Vni) -> Option<DropReason> {
        if !self.has_vni(egress, vni) {
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

/// Word index and bit mask of `vni` in a port's grant bitset.
#[inline]
fn vni_bit(vni: Vni) -> (usize, u64) {
    (usize::from(vni.0 / 64), 1 << (vni.0 % 64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_port_switch() -> Switch {
        let mut sw = Switch::new(4);
        sw.bind(PortId(0), NicAddr(10));
        sw.bind(PortId(1), NicAddr(11));
        sw
    }

    #[test]
    fn forwards_when_both_ports_hold_vni() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(5));
        sw.grant_vni(PortId(1), Vni(5));
        assert_eq!(sw.admit(PortId(0), NicAddr(10), Vni(5)), None);
        assert_eq!(sw.binding(PortId(1)), Some(NicAddr(11)));
        assert_eq!(sw.egress_check(PortId(1), Vni(5)), None);
        assert_eq!(sw.counters.total_drops(), 0);
    }

    #[test]
    fn drops_without_ingress_grant() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(1), Vni(5));
        let v = sw.admit(PortId(0), NicAddr(10), Vni(5));
        assert_eq!(v, Some(DropReason::VniDeniedIngress));
        assert_eq!(sw.counters.total_drops(), 1);
    }

    #[test]
    fn drops_without_egress_grant() {
        // Sender holds the VNI, receiver does not: cross-tenant isolation.
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(5));
        assert_eq!(sw.admit(PortId(0), NicAddr(10), Vni(5)), None);
        let v = sw.egress_check(PortId(1), Vni(5));
        assert_eq!(v, Some(DropReason::VniDeniedEgress));
        assert_eq!(sw.counters.drops[&DropReason::VniDeniedEgress], 1);
    }

    #[test]
    fn drops_unrouted_destinations() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(5));
        assert_eq!(sw.admit(PortId(0), NicAddr(10), Vni(5)), None);
        assert!((0..4).all(|p| sw.binding(PortId(p)) != Some(NicAddr(99))));
    }

    #[test]
    fn drops_spoofed_sources() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(5));
        sw.grant_vni(PortId(1), Vni(5));
        // NIC 10 is bound to port 0 but claims to be NIC 11.
        let v = sw.admit(PortId(0), NicAddr(11), Vni(5));
        assert_eq!(v, Some(DropReason::SourceSpoofed));
        assert_eq!(sw.counters.drops[&DropReason::SourceSpoofed], 1);
    }

    #[test]
    fn revoke_closes_the_network() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(5));
        sw.grant_vni(PortId(1), Vni(5));
        assert!(sw.revoke_vni(PortId(1), Vni(5)));
        assert_eq!(sw.admit(PortId(0), NicAddr(10), Vni(5)), None);
        let v = sw.egress_check(PortId(1), Vni(5));
        assert_eq!(v, Some(DropReason::VniDeniedEgress));
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
        assert_eq!(sw.admit(PortId(0), NicAddr(10), Vni(5)), None);
        assert_eq!(sw.binding(PortId(1)), None);
        assert!(!sw.has_vni(PortId(1), Vni(5)));
        assert_eq!(sw.egress_check(PortId(1), Vni(5)), Some(DropReason::VniDeniedEgress));
    }

    #[test]
    fn vnis_on_lists_grants() {
        let mut sw = two_port_switch();
        sw.grant_vni(PortId(0), Vni(9));
        sw.grant_vni(PortId(0), Vni(3));
        let vnis: Vec<Vni> = sw.vnis_on(PortId(0)).collect();
        assert_eq!(vnis, vec![Vni(3), Vni(9)], "grants list in VNI order");
    }
}
