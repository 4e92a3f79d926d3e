//! Property tests for fabric invariants: VNI enforcement completeness
//! and timing monotonicity.

use proptest::prelude::*;
use shs_des::SimTime;
use shs_fabric::{DropReason, Fabric, NicAddr, TrafficClass, TransferOutcome, Vni};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Enforcement completeness: a transfer is delivered *iff* both ports
    /// hold the VNI; otherwise it is dropped with an enforcement reason.
    #[test]
    fn vni_enforcement_is_complete(
        grant_src in any::<bool>(),
        grant_dst in any::<bool>(),
        vni in 2u16..100,
        len in 1u64..1_000_000,
    ) {
        let mut f = Fabric::new(4);
        f.attach(NicAddr(1));
        f.attach(NicAddr(2));
        if grant_src {
            f.grant_vni(NicAddr(1), Vni(vni)).unwrap();
        }
        if grant_dst {
            f.grant_vni(NicAddr(2), Vni(vni)).unwrap();
        }
        let out = f.transfer(SimTime::ZERO, NicAddr(1), NicAddr(2), Vni(vni),
                             TrafficClass::Dedicated, len, 1);
        match (grant_src, grant_dst) {
            (true, true) => {
                let delivered = matches!(out, TransferOutcome::Delivered { .. });
                prop_assert!(delivered, "expected delivery, got {:?}", out);
            }
            (false, _) => prop_assert_eq!(out, TransferOutcome::Dropped(DropReason::VniDeniedIngress)),
            (true, false) => prop_assert_eq!(out, TransferOutcome::Dropped(DropReason::VniDeniedEgress)),
        }
    }

    /// Timing monotonicity: arrivals never precede departures, larger
    /// messages never arrive faster, and back-to-back sends never reorder.
    #[test]
    fn transfer_timing_is_monotone(
        lens in prop::collection::vec(1u64..2_000_000, 1..12),
        start_ns in 0u64..1_000_000,
    ) {
        let mut f = Fabric::new(4);
        f.attach(NicAddr(1));
        f.attach(NicAddr(2));
        f.grant_vni(NicAddr(1), Vni(1)).unwrap();
        f.grant_vni(NicAddr(2), Vni(1)).unwrap();
        let now = SimTime::from_nanos(start_ns);
        let mut last_arrival = SimTime::ZERO;
        for (i, len) in lens.iter().enumerate() {
            let TransferOutcome::Delivered { arrival, src_done } = f.transfer(
                now, NicAddr(1), NicAddr(2), Vni(1), TrafficClass::Dedicated, *len, i as u64,
            ) else {
                return Err(TestCaseError::fail("unexpected drop"));
            };
            prop_assert!(src_done >= now);
            prop_assert!(arrival >= src_done, "arrival before departure");
            prop_assert!(arrival >= last_arrival, "reordering on one path");
            last_arrival = arrival;
        }
    }

    /// The unloaded one-way time grows monotonically with message size.
    #[test]
    fn unloaded_time_is_monotone(a in 0u64..4_000_000, b in 0u64..4_000_000) {
        let f = Fabric::new(2);
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(f.unloaded_ns(lo) <= f.unloaded_ns(hi));
    }
}
