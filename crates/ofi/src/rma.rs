//! One-sided RMA operations (`fi_write` / `fi_read` equivalents).
//!
//! RMA targets a registered memory region on the remote NIC, identified
//! by an rkey; the remote CPU is not involved (no receive is posted —
//! the NIC validates the rkey, bounds and permissions, §II-A). Both
//! endpoints are owned by the caller in this simulation, so the helpers
//! take both devices plus the fabric, mirroring `shs-mpi`'s style.

use shs_cassini::{MrKey, NicError, SendOutcome};
use shs_cxi::CxiDevice;
use shs_des::{SimDur, SimTime};
use shs_fabric::Fabric;

use crate::ep::{CompKind, Completion, OfiEp};

/// Outcome of an RMA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaOutcome {
    /// Completed; the initiator's completion fires at the given instant.
    Done(SimTime),
    /// The target NIC rejected the access (bad key, bounds, permission).
    /// The initiator observes an error completion (`FI_EIO`-style).
    Denied(NicError),
    /// Dropped in the fabric (VNI enforcement): silent, like all RDMA
    /// drops — the initiator never completes.
    FabricDropped,
}

/// Register a length-`len` remote-accessible region on `ep`'s NIC.
pub fn register_mr(
    device: &mut CxiDevice,
    ep: &OfiEp,
    len: u64,
    remote_read: bool,
    remote_write: bool,
) -> Result<MrKey, NicError> {
    device.nic.register_mr(ep.addr.ep, len, remote_read, remote_write)
}

/// `fi_write`: put `len` bytes into `(rkey, offset)` on the target NIC.
///
/// The data travels as a normal fabric message; the target NIC validates
/// the rkey at arrival. The initiator's write completion fires at local
/// completion (RDMA write is unacknowledged at this layer).
#[allow(clippy::too_many_arguments)]
pub fn rma_write(
    now: SimTime,
    src: &mut OfiEp,
    src_dev: &mut CxiDevice,
    dst_dev: &mut CxiDevice,
    fabric: &mut Fabric,
    rkey: MrKey,
    offset: u64,
    len: u64,
    ctx: u64,
) -> (SimTime, RmaOutcome) {
    let post_done = now + src.params().sw_send;
    let dst_nic = dst_dev.nic.addr;
    // Validate against the target MR (the NIC would do this on the first
    // arriving packet; the verdict is time-invariant so order is safe).
    let check = dst_dev.nic.check_rma(rkey, offset, len, true);
    let outcome = src_dev
        .nic
        .send(post_done, fabric, src.addr.ep, dst_nic, shs_cassini::EpIdx(u32::MAX), 0, len)
        .expect("endpoint exists");
    match (check, outcome) {
        (Err(e), _) => (post_done, RmaOutcome::Denied(e)),
        (Ok(_), SendOutcome::Sent(t)) => {
            src.cq_push(Completion {
                kind: CompKind::Send,
                tag: 0,
                len,
                ctx,
                at: t.local_completion,
            });
            (post_done, RmaOutcome::Done(t.local_completion))
        }
        (Ok(_), SendOutcome::FabricDropped { .. }) => (post_done, RmaOutcome::FabricDropped),
    }
}

/// `fi_read`: fetch `len` bytes from `(rkey, offset)` on the target NIC.
///
/// A small request travels to the target; the response data travels
/// back; the initiator's completion fires when the data arrives.
#[allow(clippy::too_many_arguments)]
pub fn rma_read(
    now: SimTime,
    src: &mut OfiEp,
    src_dev: &mut CxiDevice,
    dst_dev: &mut CxiDevice,
    fabric: &mut Fabric,
    rkey: MrKey,
    offset: u64,
    len: u64,
    ctx: u64,
) -> (SimTime, RmaOutcome) {
    let post_done = now + src.params().sw_send;
    let dst_nic = dst_dev.nic.addr;
    let check = dst_dev.nic.check_rma(rkey, offset, len, false);
    // Request packet (header-only).
    let req = src_dev
        .nic
        .send(post_done, fabric, src.addr.ep, dst_nic, shs_cassini::EpIdx(u32::MAX), 0, 0)
        .expect("endpoint exists");
    match (check, req) {
        (Err(e), _) => (post_done, RmaOutcome::Denied(e)),
        (Ok(target_ep), SendOutcome::Sent(t)) => {
            // The target NIC streams the data back (no target CPU).
            let back = dst_dev.nic.send(
                t.remote_delivery,
                fabric,
                target_ep,
                src_dev.nic.addr,
                src.addr.ep,
                0,
                len,
            );
            match back {
                Ok(SendOutcome::Sent(rt)) => {
                    src.cq_push(Completion {
                        kind: CompKind::Recv,
                        tag: 0,
                        len,
                        ctx,
                        at: rt.remote_delivery,
                    });
                    (post_done, RmaOutcome::Done(rt.remote_delivery))
                }
                _ => (post_done, RmaOutcome::FabricDropped),
            }
        }
        (Ok(_), SendOutcome::FabricDropped { .. }) => (post_done, RmaOutcome::FabricDropped),
    }
}

impl OfiEp {
    /// Round-trip cost helper for tests: RMA read latency lower bound.
    pub fn rma_read_floor(&self) -> SimDur {
        self.params().sw_send * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_cassini::{CassiniNic, CassiniParams};
    use shs_cxi::{CxiDriver, CxiServiceDesc};
    use shs_des::DetRng;
    use shs_fabric::{NicAddr, TrafficClass, Vni};
    use shs_oslinux::{Gid, Host, Pid, Uid};

    struct Rig {
        host_a: Host,
        host_b: Host,
        pid_a: Pid,
        pid_b: Pid,
        dev_a: CxiDevice,
        dev_b: CxiDevice,
        fabric: Fabric,
    }

    fn rig() -> Rig {
        let mut host_a = Host::new("ra");
        let mut host_b = Host::new("rb");
        let rng = DetRng::new(77);
        let mut fabric = Fabric::new(4);
        let mut dev_a = CxiDevice::new(
            CxiDriver::extended(),
            CassiniNic::new(NicAddr(1), CassiniParams::default(), rng.derive("a")),
        );
        let mut dev_b = CxiDevice::new(
            CxiDriver::extended(),
            CassiniNic::new(NicAddr(2), CassiniParams::default(), rng.derive("b")),
        );
        fabric.attach(NicAddr(1));
        fabric.attach(NicAddr(2));
        fabric.grant_vni(NicAddr(1), Vni::GLOBAL).unwrap();
        fabric.grant_vni(NicAddr(2), Vni::GLOBAL).unwrap();
        let ra = host_a.credentials(Pid(1)).unwrap();
        let rb = host_b.credentials(Pid(1)).unwrap();
        dev_a.alloc_svc(&ra, CxiServiceDesc::default_service()).unwrap();
        dev_b.alloc_svc(&rb, CxiServiceDesc::default_service()).unwrap();
        let pid_a = host_a.spawn_detached("a", Uid(1), Gid(1));
        let pid_b = host_b.spawn_detached("b", Uid(1), Gid(1));
        Rig { host_a, host_b, pid_a, pid_b, dev_a, dev_b, fabric }
    }

    fn eps(r: &mut Rig) -> (OfiEp, OfiEp) {
        let a = OfiEp::open(&r.host_a, &mut r.dev_a, r.pid_a, Vni::GLOBAL, TrafficClass::Dedicated)
            .unwrap();
        let b = OfiEp::open(&r.host_b, &mut r.dev_b, r.pid_b, Vni::GLOBAL, TrafficClass::Dedicated)
            .unwrap();
        (a, b)
    }

    #[test]
    fn rma_write_completes_locally() {
        let mut r = rig();
        let (mut a, b) = eps(&mut r);
        let key = register_mr(&mut r.dev_b, &b, 1 << 20, false, true).unwrap();
        let (_, out) = rma_write(
            SimTime::ZERO, &mut a, &mut r.dev_a, &mut r.dev_b, &mut r.fabric,
            key, 0, 4096, 1,
        );
        let RmaOutcome::Done(at) = out else { panic!("{out:?}") };
        assert!(at > SimTime::ZERO);
        let (_, c) = a.cq_wait(SimTime::ZERO).expect("write completion");
        assert_eq!(c.kind, CompKind::Send);
        assert_eq!(c.len, 4096);
    }

    #[test]
    fn rma_write_respects_bounds_and_permissions() {
        let mut r = rig();
        let (mut a, b) = eps(&mut r);
        let key_ro = register_mr(&mut r.dev_b, &b, 4096, true, false).unwrap();
        let (_, out) = rma_write(
            SimTime::ZERO, &mut a, &mut r.dev_a, &mut r.dev_b, &mut r.fabric,
            key_ro, 0, 64, 1,
        );
        assert_eq!(out, RmaOutcome::Denied(NicError::MrAccess), "read-only region");
        let key_rw = register_mr(&mut r.dev_b, &b, 4096, true, true).unwrap();
        let (_, out) = rma_write(
            SimTime::ZERO, &mut a, &mut r.dev_a, &mut r.dev_b, &mut r.fabric,
            key_rw, 4000, 200, 2,
        );
        assert_eq!(out, RmaOutcome::Denied(NicError::MrAccess), "out of bounds");
        assert!(r.dev_b.nic.counters.mr_violations >= 2);
    }

    #[test]
    fn rma_read_round_trips() {
        let mut r = rig();
        let (mut a, b) = eps(&mut r);
        let key = register_mr(&mut r.dev_b, &b, 1 << 20, true, false).unwrap();
        let (_, out) = rma_read(
            SimTime::ZERO, &mut a, &mut r.dev_a, &mut r.dev_b, &mut r.fabric,
            key, 0, 1 << 16, 3,
        );
        let RmaOutcome::Done(at) = out else { panic!("{out:?}") };
        // A read of 64 KiB takes at least the one-way time of the data
        // plus the request trip.
        assert!(at.as_nanos() > 3_000, "read completed implausibly fast: {at}");
        let (_, c) = a.cq_wait(SimTime::ZERO).expect("read completion");
        assert_eq!(c.kind, CompKind::Recv);
        assert_eq!(c.ctx, 3);
    }

    #[test]
    fn rma_on_ungranted_vni_is_silently_dropped() {
        let mut r = rig();
        // Endpoints on a VNI the switch does not route.
        let ra = r.host_a.credentials(Pid(1)).unwrap();
        let rb = r.host_b.credentials(Pid(1)).unwrap();
        let desc = |l: &str| CxiServiceDesc {
            members: vec![shs_cxi::SvcMember::AllUsers],
            vnis: vec![Vni(50)],
            limits: Default::default(),
            label: l.into(),
        };
        r.dev_a.alloc_svc(&ra, desc("a")).unwrap();
        r.dev_b.alloc_svc(&rb, desc("b")).unwrap();
        let mut a =
            OfiEp::open(&r.host_a, &mut r.dev_a, r.pid_a, Vni(50), TrafficClass::Dedicated)
                .unwrap();
        let b =
            OfiEp::open(&r.host_b, &mut r.dev_b, r.pid_b, Vni(50), TrafficClass::Dedicated)
                .unwrap();
        let key = register_mr(&mut r.dev_b, &b, 4096, true, true).unwrap();
        let (_, out) = rma_write(
            SimTime::ZERO, &mut a, &mut r.dev_a, &mut r.dev_b, &mut r.fabric,
            key, 0, 64, 1,
        );
        assert_eq!(out, RmaOutcome::FabricDropped);
    }

    #[test]
    fn deregistered_mr_is_unreachable() {
        let mut r = rig();
        let (mut a, b) = eps(&mut r);
        let key = register_mr(&mut r.dev_b, &b, 4096, true, true).unwrap();
        r.dev_b.nic.deregister_mr(key).unwrap();
        let (_, out) = rma_write(
            SimTime::ZERO, &mut a, &mut r.dev_a, &mut r.dev_b, &mut r.fabric,
            key, 0, 64, 1,
        );
        assert_eq!(out, RmaOutcome::Denied(NicError::NoSuchMr));
    }

    #[test]
    fn injected_completions_keep_the_queue_in_visibility_order() {
        let mut r = rig();
        let (mut a, b) = eps(&mut r);
        let key = register_mr(&mut r.dev_b, &b, 1 << 20, true, true).unwrap();
        // A large read completes when its data is back; the small write
        // issued after it completes locally long before that.
        let (t, read) = rma_read(
            SimTime::ZERO, &mut a, &mut r.dev_a, &mut r.dev_b, &mut r.fabric,
            key, 0, 1 << 20, 1,
        );
        assert!(a.cq_is_sorted());
        let (_, write) = rma_write(
            t, &mut a, &mut r.dev_a, &mut r.dev_b, &mut r.fabric,
            key, 0, 8, 2,
        );
        assert!(a.cq_is_sorted());
        let (RmaOutcome::Done(read_at), RmaOutcome::Done(write_at)) = (read, write) else {
            panic!("{read:?} {write:?}")
        };
        assert!(write_at < read_at, "the write must overtake the read");
        let (t, first) = a.cq_wait(SimTime::ZERO).unwrap();
        let (_, second) = a.cq_wait(t).unwrap();
        assert_eq!((first.ctx, second.ctx), (2, 1));
    }
}
