//! Equivalence oracle for resolved attachments: a fabric driven through
//! [`Fabric::transfer`] (both NICs looked up on every message) and a twin
//! driven through [`Fabric::transfer_between`] with every attachment
//! resolved once when a round opens — the scenario engine's pattern —
//! give equal outcomes and equal per-VNI, per-switch and per-trunk
//! counters over random grant / revoke / detach / re-attach / fault
//! histories. Attach, detach and faults happen between rounds, never
//! inside one, as in the engine.

use proptest::prelude::*;
use shs_des::{SimDur, SimTime};
use shs_fabric::{
    Attachment, CostModel, Fabric, FaultKind, NicAddr, RoutingPolicy, SwitchId, TopologySpec,
    TrafficClass, Vni,
};

/// 3 groups × 2 switches × 3 edge ports: 18 ports for 10 NICs, so
/// re-attaches find room and land on recycled ports.
const SPEC: TopologySpec = TopologySpec { groups: 3, switches_per_group: 2, edge_ports: 3 };
const NICS: u32 = 10;
/// Every NIC but the last two starts attached, granted `VNIS[1]`.
const ATTACHED_AT_START: u32 = 8;
const VNIS: [Vni; 3] = [Vni::GLOBAL, Vni(7), Vni(9)];

#[derive(Debug, Clone)]
struct Send {
    src: u32,
    dst: u32,
    vni: usize,
    tc: usize,
    len: u64,
    gap_ns: u64,
}

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
    /// One round of sends; the twin resolves every attachment once,
    /// before the first of them.
    Round(Vec<Send>),
}

fn nic() -> impl Strategy<Value = u32> {
    1..=NICS
}

fn vni() -> impl Strategy<Value = usize> {
    prop_oneof![1 => Just(0usize), 4 => Just(1usize), 2 => Just(2usize)]
}

fn send() -> impl Strategy<Value = Send> {
    (
        (nic(), nic(), vni(), 0..4usize),
        (prop_oneof![Just(64u64), Just(4096), Just(1 << 20)], 0u64..5_000),
    )
        .prop_map(|((src, dst, vni, tc), (len, gap_ns))| Send { src, dst, vni, tc, len, gap_ns })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (nic(), vni()).prop_map(|(nic, vni)| Op::Grant { nic, vni }),
        2 => (nic(), vni()).prop_map(|(nic, vni)| Op::Revoke { nic, vni }),
        1 => nic().prop_map(|nic| Op::Detach { nic }),
        2 => (nic(), 0..SPEC.total_switches()).prop_map(|(nic, sw)| Op::Attach { nic, sw }),
        1 => (0u8..3, 0usize..64).prop_map(|(kind, link)| Op::Fault { kind, link }),
        6 => prop::collection::vec(send(), 1..12).prop_map(Op::Round),
    ]
}

fn policy() -> impl Strategy<Value = RoutingPolicy> {
    prop_oneof![
        Just(RoutingPolicy::Minimal),
        Just(RoutingPolicy::Valiant),
        Just(RoutingPolicy::Adaptive),
    ]
}

/// A fabric with NICs `1..=ATTACHED_AT_START` spread round-robin over the
/// switches, each granted `VNIS[1]`. The ECN threshold sits below the
/// queue bound so marks (and their per-sender feedback) happen too.
fn fabric(policy: RoutingPolicy) -> Fabric {
    let model = CostModel { ecn_threshold_ns: 1_000, ..CostModel::default() };
    let mut f = Fabric::with_topology(model, SPEC, policy);
    for n in 1..=ATTACHED_AT_START {
        f.attach_to(NicAddr(n), SwitchId((n as usize - 1) % SPEC.total_switches()));
        f.grant_vni(NicAddr(n), VNIS[1]).expect("just attached");
    }
    f
}

/// Everything either fabric counts, as one comparable value.
fn counters(f: &Fabric) -> String {
    let topo = f.topology();
    let per_vni: Vec<_> = VNIS.iter().map(|&v| f.traffic(v)).collect();
    let per_switch: Vec<_> =
        (0..SPEC.total_switches()).map(|s| f.switch_at(SwitchId(s)).counters.clone()).collect();
    let per_trunk: Vec<_> = topo
        .trunk_links()
        .into_iter()
        .flat_map(|(a, b)| [f.trunk_counters(a, b).copied(), f.trunk_counters(b, a).copied()])
        .collect();
    let attached: Vec<_> = (1..=NICS).map(|n| f.attachment(NicAddr(n))).collect();
    format!(
        "{per_vni:?}\n{:?}\n{per_switch:?}\n{per_trunk:?}\n{:?}\n{attached:?}",
        f.traffic_totals(),
        f.audit()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn resolved_attachments_route_like_per_message_lookups(
        policy in policy(),
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let mut by_addr = fabric(policy);
        let mut twin = fabric(policy);
        let links = by_addr.topology().trunk_links();
        let mut now = SimTime::ZERO;
        let mut msg_id = 0u64;
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Grant { nic, vni } => {
                    let (n, v) = (NicAddr(*nic), VNIS[*vni]);
                    prop_assert_eq!(by_addr.grant_vni(n, v), twin.grant_vni(n, v));
                }
                Op::Revoke { nic, vni } => {
                    let (n, v) = (NicAddr(*nic), VNIS[*vni]);
                    prop_assert_eq!(by_addr.revoke_vni(n, v), twin.revoke_vni(n, v));
                }
                Op::Detach { nic } => {
                    prop_assert_eq!(by_addr.detach(NicAddr(*nic)), twin.detach(NicAddr(*nic)));
                }
                Op::Attach { nic, sw } => {
                    let taken = (1..=NICS)
                        .filter_map(|n| by_addr.attachment(NicAddr(n)))
                        .filter(|&(s, _)| s.0 == *sw)
                        .count();
                    if by_addr.attachment(NicAddr(*nic)).is_none() && taken < SPEC.edge_ports {
                        let port = by_addr.attach_to(NicAddr(*nic), SwitchId(*sw));
                        prop_assert_eq!(twin.attach_to(NicAddr(*nic), SwitchId(*sw)), port);
                    }
                }
                Op::Fault { kind, link } => {
                    let (a, b) = links[link % links.len()];
                    let fault = match kind {
                        0 => FaultKind::LinkDown(a, b),
                        1 => FaultKind::LinkUp(a, b),
                        _ => FaultKind::SwitchDown(a),
                    };
                    by_addr.apply_fault(fault);
                    twin.apply_fault(fault);
                }
                Op::Round(sends) => {
                    let at: Vec<Attachment> =
                        (1..=NICS).map(|n| twin.resolve(NicAddr(n))).collect();
                    for s in sends {
                        now += SimDur::from_nanos(s.gap_ns);
                        msg_id += 1;
                        let (vni, tc) = (VNIS[s.vni], TrafficClass::ALL[s.tc]);
                        let (src, dst) = (NicAddr(s.src), NicAddr(s.dst));
                        let want = by_addr.transfer(now, src, dst, vni, tc, s.len, msg_id);
                        let (sa, da) = (at[s.src as usize - 1], at[s.dst as usize - 1]);
                        let got = twin.transfer_between(now, sa, da, vni, tc, s.len, msg_id);
                        prop_assert_eq!(got, want, "step {} {:?}", step, s);
                    }
                    for n in 1..=NICS {
                        let n = NicAddr(n);
                        prop_assert_eq!(twin.take_ecn_marks(n), by_addr.take_ecn_marks(n));
                    }
                }
            }
            prop_assert_eq!(counters(&twin), counters(&by_addr), "step {}", step);
        }
    }
}
