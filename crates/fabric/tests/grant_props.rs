//! Grant-enforcement oracle: a model of port bindings and per-port VNI
//! grants, kept beside a [`Fabric`] driven by random histories of
//! grant, revoke, detach, re-attach, faults and sends, predicts every
//! send's enforcement verdict and every grant the switches report.
//!
//! The VNIs sit on the edges of the grant bitsets' 64-bit words (and at
//! both ends of the 16-bit VNI space), and a port may hold every one of
//! them at once, so a wrong word or bit index, a revoke that leaves its
//! bit set, or a grant that leaks onto a neighbouring port shows up as
//! a wrong `vnis_on` list, a wrong revoke result or a wrong verdict.
//! Sends go through attachments resolved at a `Resolve` step and held
//! across later detaches and re-attaches, so a destination that left
//! (or whose port another NIC took) must drop `NoRoute`.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use shs_des::{SimDur, SimTime};
use shs_fabric::{
    Attachment, CostModel, DropReason, Fabric, FabricAuditEvent, FaultKind, NicAddr, PortId,
    RoutingPolicy, SwitchId, TopologySpec, TrafficClass, TransferOutcome, Vni,
};

/// 3 groups × 1 switch × 3 edge ports: 9 ports for 8 NICs, so
/// re-attaches land on recycled ports.
const SPEC: TopologySpec = TopologySpec { groups: 3, switches_per_group: 1, edge_ports: 3 };
const NICS: u32 = 8;
/// Word edges of a 64-bit bitset, the ends of the VNI space, and the
/// cluster's usual range: twenty VNIs, all of which one port may hold.
const VNIS: [u16; 20] = [
    0, 1, 2, 62, 63, 64, 65, 127, 128, 129, 1023, 1024, 4095, 4096, 65471, 65472, 65533, 65534,
    65535, 7,
];

#[derive(Debug, Clone)]
enum Op {
    Grant { nic: u32, vni: usize },
    Revoke { nic: u32, vni: usize },
    Detach { nic: u32 },
    /// Attach `nic` to switch `sw` if it is detached and the switch has
    /// a free edge port.
    Attach { nic: u32, sw: usize },
    /// Link down / link up on trunk `link`, or switch `link` down.
    Fault { kind: u8, link: usize },
    /// Resolve every NIC's attachment; later sends use these until the
    /// next `Resolve`, however stale they become.
    Resolve,
    Send { src: u32, dst: u32, vni: usize, tc: usize, len: u64 },
}

fn nic() -> impl Strategy<Value = u32> {
    1..=NICS
}

fn vni() -> impl Strategy<Value = usize> {
    0..VNIS.len()
}

/// Lengths that hit and miss the fabric's one-entry message-cost memo.
fn len() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(64), Just(2049), Just(1 << 20)]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (nic(), vni()).prop_map(|(nic, vni)| Op::Grant { nic, vni }),
        3 => (nic(), vni()).prop_map(|(nic, vni)| Op::Revoke { nic, vni }),
        1 => nic().prop_map(|nic| Op::Detach { nic }),
        2 => (nic(), 0..SPEC.total_switches()).prop_map(|(nic, sw)| Op::Attach { nic, sw }),
        1 => (0u8..3, 0usize..64).prop_map(|(kind, link)| Op::Fault { kind, link }),
        2 => Just(Op::Resolve),
        10 => (nic(), nic(), vni(), 0..4usize, len())
            .prop_map(|(src, dst, vni, tc, len)| Op::Send { src, dst, vni, tc, len }),
    ]
}

fn policy() -> impl Strategy<Value = RoutingPolicy> {
    prop_oneof![Just(RoutingPolicy::Minimal), Just(RoutingPolicy::Adaptive)]
}

/// What the fabric should hold: which NIC is bound where, and each
/// port's grants.
#[derive(Default)]
struct Model {
    at: BTreeMap<u32, (usize, usize)>,
    bound: BTreeMap<(usize, usize), u32>,
    grants: BTreeMap<(usize, usize), BTreeSet<u16>>,
    audit: Vec<FabricAuditEvent>,
    delivered: BTreeMap<u16, u64>,
}

impl Model {
    fn attach(&mut self, nic: u32, sw: usize, port: usize) {
        assert!(self.bound.insert((sw, port), nic).is_none(), "{sw}/{port} bound twice");
        self.at.insert(nic, (sw, port));
    }

    fn detach(&mut self, nic: u32) -> bool {
        let Some(port) = self.at.remove(&nic) else {
            return false;
        };
        self.bound.remove(&port);
        self.grants.remove(&port);
        true
    }

    fn holds(&self, port: (usize, usize), vni: u16) -> bool {
        self.grants.get(&port).is_some_and(|g| g.contains(&vni))
    }

    /// The enforcement verdict for a send between two attachments as
    /// they were resolved: `Some(reason)` for a drop at the edge
    /// switches, `None` for a message past enforcement.
    fn verdict(
        &self,
        src: (u32, Option<(usize, usize)>),
        dst: (u32, Option<(usize, usize)>),
        vni: u16,
    ) -> Option<DropReason> {
        let Some(sport) = src.1 else {
            return Some(DropReason::NoRoute);
        };
        if self.bound.get(&sport).is_some_and(|&n| n != src.0) {
            return Some(DropReason::SourceSpoofed);
        }
        if !self.holds(sport, vni) {
            return Some(DropReason::VniDeniedIngress);
        }
        let Some(dport) = dst.1 else {
            return Some(DropReason::NoRoute);
        };
        if self.bound.get(&dport) != Some(&dst.0) {
            return Some(DropReason::NoRoute);
        }
        if !self.holds(dport, vni) {
            return Some(DropReason::VniDeniedEgress);
        }
        None
    }
}

/// A fabric with NICs `1..=6` spread round-robin over the switches,
/// each granted VNI 1, and its model.
fn rig(policy: RoutingPolicy) -> (Fabric, Model) {
    let mut f = Fabric::with_topology(CostModel::default(), SPEC, policy);
    let mut m = Model::default();
    for n in 1..=6 {
        let sw = (n as usize - 1) % SPEC.total_switches();
        let port = f.attach_to(NicAddr(n), SwitchId(sw));
        m.attach(n, sw, port.0);
        f.grant_vni(NicAddr(n), Vni(1)).expect("just attached");
        m.grants.entry((sw, port.0)).or_default().insert(1);
    }
    (f, m)
}

/// Every port's grants, `nic_has_vni` for every NIC and VNI, the audit
/// log and the per-VNI delivery counts all agree with the model.
fn check(f: &Fabric, m: &Model) -> Result<(), TestCaseError> {
    for sw in 0..SPEC.total_switches() {
        for port in 0..SPEC.edge_ports {
            let got: Vec<u16> =
                f.switch_at(SwitchId(sw)).vnis_on(PortId(port)).map(|v| v.0).collect();
            let want: Vec<u16> = m.grants.get(&(sw, port)).into_iter().flatten().copied().collect();
            prop_assert_eq!(got, want, "grants on sw{} port{}", sw, port);
        }
    }
    for nic in 1..=NICS {
        let at = m.at.get(&nic).copied();
        prop_assert_eq!(
            f.attachment(NicAddr(nic)),
            at.map(|(s, p)| (SwitchId(s), PortId(p))),
            "attachment of nic {}",
            nic
        );
        for &v in &VNIS {
            let want = at.is_some_and(|port| m.holds(port, v));
            prop_assert_eq!(f.nic_has_vni(NicAddr(nic), Vni(v)), want, "nic {} vni {}", nic, v);
        }
    }
    prop_assert_eq!(f.audit(), &m.audit[..]);
    for &v in &VNIS {
        let want = m.delivered.get(&v).copied().unwrap_or(0);
        prop_assert_eq!(f.traffic(Vni(v)).messages, want, "deliveries on vni {}", v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_switches_enforce_exactly_the_modelled_grants(
        policy in policy(),
        ops in prop::collection::vec(op(), 1..80),
    ) {
        let (mut f, mut m) = rig(policy);
        let links = f.topology().trunk_links();
        let resolve = |f: &Fabric, m: &Model| -> Vec<(Attachment, Option<(usize, usize)>)> {
            (1..=NICS).map(|n| (f.resolve(NicAddr(n)), m.at.get(&n).copied())).collect()
        };
        let mut resolved = resolve(&f, &m);
        let (mut now, mut msg_id, mut healthy) = (SimTime::ZERO, 0u64, true);
        check(&f, &m)?;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Grant { nic, vni } => {
                    let v = VNIS[vni];
                    let got = f.grant_vni(NicAddr(nic), Vni(v));
                    match m.at.get(&nic).copied() {
                        Some(port) => {
                            prop_assert_eq!(got, Ok(PortId(port.1)));
                            m.grants.entry(port).or_default().insert(v);
                        }
                        None => prop_assert!(got.is_err(), "grant on a detached nic"),
                    }
                }
                Op::Revoke { nic, vni } => {
                    let v = VNIS[vni];
                    let want = match m.at.get(&nic).copied() {
                        None => {
                            let (nic, vni) = (NicAddr(nic), Vni(v));
                            m.audit.push(FabricAuditEvent::RevokeUnknownNic { nic, vni });
                            false
                        }
                        Some(port) => {
                            let held = m.grants.get_mut(&port).is_some_and(|g| g.remove(&v));
                            if !held {
                                let (nic, vni) = (NicAddr(nic), Vni(v));
                                m.audit.push(FabricAuditEvent::RevokeNeverGranted { nic, vni });
                            }
                            held
                        }
                    };
                    prop_assert_eq!(f.revoke_vni(NicAddr(nic), Vni(v)), want, "step {}", step);
                }
                Op::Detach { nic } => {
                    prop_assert_eq!(f.detach(NicAddr(nic)), m.detach(nic));
                }
                Op::Attach { nic, sw } => {
                    let taken = m.at.values().filter(|&&(s, _)| s == sw).count();
                    if !m.at.contains_key(&nic) && taken < SPEC.edge_ports {
                        let port = f.attach_to(NicAddr(nic), SwitchId(sw));
                        m.attach(nic, sw, port.0);
                    }
                }
                Op::Fault { kind, link } => {
                    let (a, b) = links[link % links.len()];
                    f.apply_fault(match kind {
                        0 => FaultKind::LinkDown(a, b),
                        1 => FaultKind::LinkUp(a, b),
                        _ => FaultKind::SwitchDown(a),
                    });
                    healthy = f.liveness().is_empty();
                }
                Op::Resolve => resolved = resolve(&f, &m),
                Op::Send { src, dst, vni, tc, len } => {
                    now += SimDur::from_micros(50);
                    msg_id += 1;
                    let v = VNIS[vni];
                    let (sa, sat) = resolved[src as usize - 1];
                    let (da, dat) = resolved[dst as usize - 1];
                    let want = m.verdict((src, sat), (dst, dat), v);
                    let tc = TrafficClass::ALL[tc];
                    let got = f.transfer_between(now, sa, da, Vni(v), tc, len, msg_id);
                    match (want, got) {
                        (Some(reason), got) => {
                            prop_assert_eq!(got, TransferOutcome::Dropped(reason), "step {}", step);
                        }
                        (None, TransferOutcome::Delivered { .. }) => {
                            *m.delivered.entry(v).or_default() += 1;
                        }
                        // Past enforcement, only the fabric itself drops:
                        // a full trunk queue, or a fault.
                        (None, TransferOutcome::Dropped(reason)) => prop_assert!(
                            reason == DropReason::Congested
                                || (!healthy && reason == DropReason::NoRoute),
                            "step {}: {:?} past enforcement",
                            step,
                            reason
                        ),
                    }
                }
            }
            check(&f, &m)?;
        }
    }
}
