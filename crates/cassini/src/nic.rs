//! The Cassini (CXI) NIC model: realized services, RDMA endpoints,
//! memory regions, and the timed send/deliver data path.
//!
//! Authorization *decisions* live in the driver (`shs-cxi`); the NIC only
//! holds the *realized* service table the driver programmed into it and
//! enforces mechanical limits (VNI membership of a service, endpoint
//! counts). This mirrors the hardware/driver split in §II-C.

use std::collections::{BTreeMap, VecDeque};

use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::{DropReason, Fabric, NicAddr, TrafficClass, TransferOutcome, Vni};

use crate::params::CassiniParams;

/// NIC-local service identifier (driver-assigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SvcId(pub u32);

/// NIC-local endpoint index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpIdx(pub u32);

/// Remote-access key for a registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MrKey(pub u64);

/// Errors surfaced by NIC operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicError {
    /// Service id not programmed into the NIC.
    NoSuchService,
    /// Service exists but is administratively disabled.
    ServiceDisabled,
    /// The requested VNI is not in the service's allow set.
    VniNotAllowed,
    /// Per-service endpoint limit reached.
    EndpointLimit,
    /// Endpoint index not allocated.
    NoSuchEndpoint,
    /// Memory-region key unknown at the target.
    NoSuchMr,
    /// Memory-region access violation (bounds or permission).
    MrAccess,
}

impl core::fmt::Display for NicError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            NicError::NoSuchService => "no such CXI service",
            NicError::ServiceDisabled => "CXI service disabled",
            NicError::VniNotAllowed => "VNI not allowed by CXI service",
            NicError::EndpointLimit => "service endpoint limit reached",
            NicError::NoSuchEndpoint => "no such endpoint",
            NicError::NoSuchMr => "no such memory region",
            NicError::MrAccess => "memory region access violation",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NicError {}

/// Resource limits a CXI service may impose (§II-C: services "can be
/// configured to limit the use of communication resources").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(Default)]
pub struct SvcLimits {
    /// Maximum concurrently allocated endpoints (None = unlimited).
    pub max_endpoints: Option<u32>,
    /// Maximum registered memory regions (None = unlimited).
    pub max_mrs: Option<u32>,
}


/// A service entry as programmed into the NIC by the driver.
#[derive(Debug, Clone)]
pub struct ServiceEntry {
    /// Driver-assigned id.
    pub id: SvcId,
    /// VNIs this service may communicate on.
    pub vnis: Vec<Vni>,
    /// Resource limits.
    pub limits: SvcLimits,
    /// Administrative state.
    pub enabled: bool,
}

/// A message delivered into an endpoint's receive queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxMessage {
    /// Sender NIC.
    pub src: NicAddr,
    /// Sender endpoint index.
    pub src_ep: EpIdx,
    /// Tag carried end-to-end (matched by the libfabric layer).
    pub tag: u64,
    /// Payload length.
    pub len: u64,
    /// Message id, assigned by the sending NIC ([`SendTiming::msg_id`]).
    pub msg_id: u64,
    /// Instant the message became visible to software.
    pub delivered_at: SimTime,
}

/// One RDMA endpoint.
#[derive(Debug)]
pub struct Endpoint {
    /// Index on this NIC.
    pub idx: EpIdx,
    /// Owning service.
    pub svc: SvcId,
    /// The VNI this endpoint is bound to.
    pub vni: Vni,
    /// Traffic class for all messages from this endpoint.
    pub tc: TrafficClass,
    /// Messages booked by [`CassiniNic::deliver`] and not yet taken by
    /// [`CassiniNic::poll_rx`], oldest first. The libfabric layer's
    /// [`CassiniNic::deliver_poll`] hand-off bypasses it whenever it is
    /// empty, so on that path it stays empty.
    pub rx_queue: VecDeque<RxMessage>,
}

/// A registered memory region (simplified: a length + RW permissions).
#[derive(Debug, Clone, Copy)]
pub struct MemoryRegion {
    /// Remote key.
    pub key: MrKey,
    /// Owning endpoint.
    pub ep: EpIdx,
    /// Region length in bytes.
    pub len: u64,
    /// Remote reads permitted.
    pub remote_read: bool,
    /// Remote writes permitted.
    pub remote_write: bool,
}

/// Timing of a successfully issued message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendTiming {
    /// When the NIC finished issuing the message (doorbell + TX engine).
    pub issued: SimTime,
    /// When the local RDMA completion fires (last byte on the wire).
    pub local_completion: SimTime,
    /// When the message is visible to software on the remote NIC.
    pub remote_delivery: SimTime,
    /// The id this NIC assigned the message (the one the fabric routed
    /// it under); rising per NIC.
    pub msg_id: u64,
}

/// Outcome of a send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Message sent; see timing.
    Sent(SendTiming),
    /// Message left the NIC but was dropped in the fabric. RDMA drops are
    /// silent at the sender — the timing tells when the NIC *thought* it
    /// completed locally; no remote delivery happens.
    FabricDropped {
        /// Why the fabric dropped it.
        reason: DropReason,
        /// Local completion still fires (kernel-bypass sender is unaware).
        local_completion: SimTime,
        /// The id this NIC assigned the message.
        msg_id: u64,
    },
}

/// Data-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicCounters {
    /// Messages issued.
    pub tx_msgs: u64,
    /// Payload bytes issued.
    pub tx_bytes: u64,
    /// Messages issued per traffic class (the class every packet is
    /// tagged with on the wire), in [`TrafficClass::index`] order.
    pub tx_by_class: [u64; 4],
    /// Messages delivered to endpoints.
    pub rx_msgs: u64,
    /// Payload bytes delivered.
    pub rx_bytes: u64,
    /// Messages the fabric refused to route.
    pub fabric_drops: u64,
    /// RMA operations rejected at the target MR check.
    pub mr_violations: u64,
}

/// The Cassini NIC.
#[derive(Debug)]
pub struct CassiniNic {
    /// Fabric address.
    pub addr: NicAddr,
    params: CassiniParams,
    services: BTreeMap<SvcId, ServiceEntry>,
    endpoints: BTreeMap<EpIdx, Endpoint>,
    mrs: BTreeMap<MrKey, MemoryRegion>,
    next_ep: u32,
    next_mr: u64,
    next_msg: u64,
    tx_engine_busy: SimTime,
    rng: DetRng,
    /// Per-run multiplicative factor on all NIC overheads (run-to-run
    /// jitter; re-drawn via [`CassiniNic::new_run`]).
    run_factor: f64,
    /// Counters.
    pub counters: NicCounters,
}

impl CassiniNic {
    /// Create a NIC with the given address and parameters; `rng` seeds the
    /// jitter streams.
    pub fn new(addr: NicAddr, params: CassiniParams, rng: DetRng) -> Self {
        let mut rng = rng;
        let run_factor = rng.jitter(params.per_run_sigma);
        CassiniNic {
            addr,
            params,
            services: BTreeMap::new(),
            endpoints: BTreeMap::new(),
            mrs: BTreeMap::new(),
            next_ep: 0,
            next_mr: 1,
            next_msg: 1,
            tx_engine_busy: SimTime::ZERO,
            rng,
            run_factor,
            counters: NicCounters::default(),
        }
    }

    /// Parameters in force.
    pub fn params(&self) -> &CassiniParams {
        &self.params
    }

    /// Begin a new measurement run: re-draw the per-run jitter factor
    /// (models the paper's "run-to-run network jitter" baseline).
    pub fn new_run(&mut self) {
        self.run_factor = self.rng.jitter(self.params.per_run_sigma);
    }

    // ---- service table (driver-facing) ----------------------------------

    /// Program a service entry (driver operation).
    pub fn configure_service(&mut self, entry: ServiceEntry) {
        self.services.insert(entry.id, entry);
    }

    /// Remove a service and free all its endpoints. Returns how many
    /// endpoints were torn down.
    pub fn remove_service(&mut self, id: SvcId) -> usize {
        self.services.remove(&id);
        let before = self.endpoints.len();
        self.endpoints.retain(|_, e| e.svc != id);
        let doomed = before - self.endpoints.len();
        if doomed > 0 {
            // Every surviving MR's endpoint is still in the table.
            let live = &self.endpoints;
            self.mrs.retain(|_, mr| live.contains_key(&mr.ep));
        }
        doomed
    }

    /// Look up a programmed service.
    pub fn service(&self, id: SvcId) -> Option<&ServiceEntry> {
        self.services.get(&id)
    }

    /// Number of live endpoints owned by a service.
    pub fn endpoints_of(&self, id: SvcId) -> usize {
        self.endpoints.values().filter(|e| e.svc == id).count()
    }

    // ---- endpoints -------------------------------------------------------

    /// Allocate an RDMA endpoint under `svc` bound to `vni`. The *driver*
    /// must have authenticated the caller against the service's member
    /// list before calling this (see `shs-cxi`); the NIC enforces only
    /// mechanical validity.
    pub fn alloc_endpoint(
        &mut self,
        svc: SvcId,
        vni: Vni,
        tc: TrafficClass,
    ) -> Result<EpIdx, NicError> {
        let entry = self.services.get(&svc).ok_or(NicError::NoSuchService)?;
        if !entry.enabled {
            return Err(NicError::ServiceDisabled);
        }
        if !entry.vnis.contains(&vni) {
            return Err(NicError::VniNotAllowed);
        }
        if let Some(max) = entry.limits.max_endpoints {
            if self.endpoints_of(svc) as u32 >= max {
                return Err(NicError::EndpointLimit);
            }
        }
        let idx = EpIdx(self.next_ep);
        self.next_ep += 1;
        self.endpoints.insert(
            idx,
            Endpoint { idx, svc, vni, tc, rx_queue: VecDeque::new() },
        );
        Ok(idx)
    }

    /// Free an endpoint and its memory regions.
    pub fn free_endpoint(&mut self, idx: EpIdx) -> Result<(), NicError> {
        self.endpoints.remove(&idx).ok_or(NicError::NoSuchEndpoint)?;
        self.mrs.retain(|_, mr| mr.ep != idx);
        Ok(())
    }

    /// Access an endpoint.
    pub fn endpoint(&self, idx: EpIdx) -> Result<&Endpoint, NicError> {
        self.endpoints.get(&idx).ok_or(NicError::NoSuchEndpoint)
    }

    // ---- memory regions --------------------------------------------------

    /// Register a memory region for remote access.
    pub fn register_mr(
        &mut self,
        ep: EpIdx,
        len: u64,
        remote_read: bool,
        remote_write: bool,
    ) -> Result<MrKey, NicError> {
        let endpoint = self.endpoints.get(&ep).ok_or(NicError::NoSuchEndpoint)?;
        let svc = self.services.get(&endpoint.svc).ok_or(NicError::NoSuchService)?;
        if let Some(max) = svc.limits.max_mrs {
            let owned = self.mrs.values().filter(|m| m.ep == ep).count();
            if owned as u32 >= max {
                return Err(NicError::MrAccess);
            }
        }
        let key = MrKey(self.next_mr);
        self.next_mr += 1;
        self.mrs.insert(key, MemoryRegion { key, ep, len, remote_read, remote_write });
        Ok(key)
    }

    /// Deregister a memory region.
    pub fn deregister_mr(&mut self, key: MrKey) -> Result<(), NicError> {
        self.mrs.remove(&key).map(|_| ()).ok_or(NicError::NoSuchMr)
    }

    /// Validate a remote access against a registered MR.
    pub fn check_rma(&mut self, key: MrKey, offset: u64, len: u64, write: bool) -> Result<EpIdx, NicError> {
        let Some(mr) = self.mrs.get(&key) else {
            self.counters.mr_violations += 1;
            return Err(NicError::NoSuchMr);
        };
        let perm_ok = if write { mr.remote_write } else { mr.remote_read };
        let bounds_ok = offset.checked_add(len).is_some_and(|end| end <= mr.len);
        if !perm_ok || !bounds_ok {
            self.counters.mr_violations += 1;
            return Err(NicError::MrAccess);
        }
        Ok(mr.ep)
    }

    // ---- data path ---------------------------------------------------------

    /// Issue a message send. Kernel is not involved — this is the
    /// kernel-bypass path, which is why its cost is identical whether or
    /// not the container integration is active (the paper's Figs. 5-8).
    ///
    /// `#[inline]` (as are [`Self::poll_rx`] and [`Self::deliver_poll`]):
    /// the libfabric layer calls it once per message from another
    /// crate, without LTO — ≈ 3-4 % of a message's host time.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn send(
        &mut self,
        now: SimTime,
        fabric: &mut Fabric,
        ep_idx: EpIdx,
        dst: NicAddr,
        _dst_ep: EpIdx,
        _tag: u64,
        len: u64,
    ) -> Result<SendOutcome, NicError> {
        let (vni, tc) = {
            let ep = self.endpoints.get(&ep_idx).ok_or(NicError::NoSuchEndpoint)?;
            (ep.vni, ep.tc)
        };
        let msg_id = self.next_msg;
        self.next_msg += 1;

        let noise = self.rng.jitter(self.params.per_msg_sigma) * self.run_factor;
        let doorbell = SimDur::from_nanos((self.params.doorbell_ns as f64 * noise) as u64);
        let tx_cost = SimDur::from_nanos((self.params.tx_msg_ns as f64 * noise) as u64);

        // ECN sender pacing: every congestion mark the fabric fed back
        // since this NIC's previous send delays the next issue. Zero
        // marks (any fabric at the default ECN threshold) adds nothing.
        let pace = SimDur::from_nanos(self.params.ecn_pace_ns * fabric.take_ecn_marks(self.addr));

        // TX engine serializes message issue.
        let start = (now + doorbell + pace).max(self.tx_engine_busy);
        let issued = start + tx_cost;
        self.tx_engine_busy = issued;

        self.counters.tx_msgs += 1;
        self.counters.tx_bytes += len;
        self.counters.tx_by_class[tc.index()] += 1;

        match fabric.transfer(issued, self.addr, dst, vni, tc, len, msg_id) {
            TransferOutcome::Delivered { arrival, src_done } => {
                // Remote software sees it after RX processing.
                let rx_cost =
                    SimDur::from_nanos((self.params.rx_msg_ns as f64 * noise) as u64);
                Ok(SendOutcome::Sent(SendTiming {
                    issued,
                    local_completion: src_done,
                    remote_delivery: arrival + rx_cost,
                    msg_id,
                }))
            }
            TransferOutcome::Dropped(reason) => {
                self.counters.fabric_drops += 1;
                Ok(SendOutcome::FabricDropped { reason, local_completion: issued, msg_id })
            }
        }
    }

    /// Book a delivered message into the destination endpoint's receive
    /// queue (invoked on the *receiving* NIC by the composition layer at
    /// the message's delivery instant). Messages addressed to endpoints
    /// on a different VNI than they travelled on are discarded — the NIC
    /// checks the VNI field of arriving packets.
    pub fn deliver(
        &mut self,
        dst_ep: EpIdx,
        vni: Vni,
        msg: RxMessage,
    ) -> Result<(), NicError> {
        self.accept(dst_ep, vni, msg.len)?.rx_queue.push_back(msg);
        Ok(())
    }

    /// Pop the next received message on an endpoint, if any.
    #[inline]
    pub fn poll_rx(&mut self, ep: EpIdx) -> Result<Option<RxMessage>, NicError> {
        Ok(self.endpoints.get_mut(&ep).ok_or(NicError::NoSuchEndpoint)?.rx_queue.pop_front())
    }

    /// The hand-off to the libfabric matching engine, *defined as*
    /// [`Self::deliver`] immediately followed by [`Self::poll_rx`] on
    /// the same endpoint: same VNI check, same counters, and the oldest
    /// queued message comes back — `msg` itself when nothing was queued
    /// ahead of it, which then never touches the queue. One endpoint
    /// lookup, no copy.
    #[inline]
    pub fn deliver_poll(
        &mut self,
        dst_ep: EpIdx,
        vni: Vni,
        msg: RxMessage,
    ) -> Result<RxMessage, NicError> {
        let ep = self.accept(dst_ep, vni, msg.len)?;
        match ep.rx_queue.pop_front() {
            None => Ok(msg),
            Some(oldest) => {
                ep.rx_queue.push_back(msg);
                Ok(oldest)
            }
        }
    }

    /// The arrival check shared by both delivery calls: the endpoint
    /// exists and is bound to the VNI the message travelled on. Counts
    /// the message only when it is accepted.
    #[inline]
    fn accept(&mut self, dst_ep: EpIdx, vni: Vni, len: u64) -> Result<&mut Endpoint, NicError> {
        let ep = self.endpoints.get_mut(&dst_ep).ok_or(NicError::NoSuchEndpoint)?;
        if ep.vni != vni {
            return Err(NicError::VniNotAllowed);
        }
        self.counters.rx_msgs += 1;
        self.counters.rx_bytes += len;
        Ok(ep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rig() -> (Fabric, CassiniNic, CassiniNic) {
        let mut fabric = Fabric::new(8);
        let rng = DetRng::new(77);
        let a = CassiniNic::new(NicAddr(1), CassiniParams::default(), rng.derive("a"));
        let b = CassiniNic::new(NicAddr(2), CassiniParams::default(), rng.derive("b"));
        fabric.attach(a.addr);
        fabric.attach(b.addr);
        fabric.grant_vni(a.addr, Vni(5)).unwrap();
        fabric.grant_vni(b.addr, Vni(5)).unwrap();
        (fabric, a, b)
    }

    fn svc(id: u32, vnis: &[u16]) -> ServiceEntry {
        ServiceEntry {
            id: SvcId(id),
            vnis: vnis.iter().map(|&v| Vni(v)).collect(),
            limits: SvcLimits::default(),
            enabled: true,
        }
    }

    #[test]
    fn endpoint_allocation_respects_service_table() {
        let (_, mut a, _) = rig();
        assert_eq!(
            a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated),
            Err(NicError::NoSuchService)
        );
        a.configure_service(svc(1, &[5]));
        let ep = a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        assert_eq!(a.endpoint(ep).unwrap().vni, Vni(5));
        assert_eq!(
            a.alloc_endpoint(SvcId(1), Vni(6), TrafficClass::Dedicated),
            Err(NicError::VniNotAllowed)
        );
    }

    #[test]
    fn disabled_service_rejects_endpoints() {
        let (_, mut a, _) = rig();
        let mut e = svc(1, &[5]);
        e.enabled = false;
        a.configure_service(e);
        assert_eq!(
            a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated),
            Err(NicError::ServiceDisabled)
        );
    }

    #[test]
    fn endpoint_limits_enforced() {
        let (_, mut a, _) = rig();
        let mut e = svc(1, &[5]);
        e.limits.max_endpoints = Some(2);
        a.configure_service(e);
        a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        assert_eq!(
            a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated),
            Err(NicError::EndpointLimit)
        );
        // Freeing one re-opens the slot.
        a.free_endpoint(EpIdx(0)).unwrap();
        a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
    }

    #[test]
    fn remove_service_tears_down_endpoints() {
        let (_, mut a, _) = rig();
        a.configure_service(svc(1, &[5]));
        let ep = a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        a.register_mr(ep, 4096, true, true).unwrap();
        assert_eq!(a.remove_service(SvcId(1)), 1);
        assert_eq!(a.endpoint(ep).unwrap_err(), NicError::NoSuchEndpoint);
        assert_eq!(a.check_rma(MrKey(1), 0, 8, false).unwrap_err(), NicError::NoSuchMr);
    }

    #[test]
    fn send_and_deliver_roundtrip() {
        let (mut f, mut a, mut b) = rig();
        a.configure_service(svc(1, &[5]));
        b.configure_service(svc(1, &[5]));
        let ea = a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        let eb = b.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        let out = a.send(SimTime::ZERO, &mut f, ea, b.addr, eb, 42, 1024).unwrap();
        let SendOutcome::Sent(t) = out else { panic!("dropped: {out:?}") };
        assert!(t.local_completion >= t.issued);
        assert!(t.remote_delivery > t.local_completion);
        b.deliver(
            eb,
            Vni(5),
            RxMessage {
                src: a.addr,
                src_ep: ea,
                tag: 42,
                len: 1024,
                msg_id: 1,
                delivered_at: t.remote_delivery,
            },
        )
        .unwrap();
        let got = b.poll_rx(eb).unwrap().unwrap();
        assert_eq!(got.tag, 42);
        assert_eq!(got.len, 1024);
        assert_eq!(b.counters.rx_msgs, 1);
        assert_eq!(a.counters.tx_msgs, 1);
        assert_eq!(a.counters.tx_by_class[TrafficClass::Dedicated.index()], 1);
        assert_eq!(a.counters.tx_by_class[TrafficClass::BulkData.index()], 0);
    }

    #[test]
    fn fabric_drop_is_silent_at_sender() {
        let (mut f, mut a, mut b) = rig();
        a.configure_service(svc(1, &[9])); // VNI 9 not granted on the wire
        b.configure_service(svc(1, &[9]));
        let ea = a.alloc_endpoint(SvcId(1), Vni(9), TrafficClass::Dedicated).unwrap();
        let eb = b.alloc_endpoint(SvcId(1), Vni(9), TrafficClass::Dedicated).unwrap();
        let out = a.send(SimTime::ZERO, &mut f, ea, b.addr, eb, 1, 64).unwrap();
        match out {
            SendOutcome::FabricDropped { reason, local_completion, .. } => {
                assert_eq!(reason, DropReason::VniDeniedIngress);
                assert!(local_completion > SimTime::ZERO);
            }
            other => panic!("expected drop, got {other:?}"),
        }
        assert_eq!(a.counters.fabric_drops, 1);
        assert!(b.poll_rx(eb).unwrap().is_none());
    }

    #[test]
    fn delivery_rejects_vni_mismatch() {
        let (_, _, mut b) = rig();
        b.configure_service(svc(1, &[5]));
        let eb = b.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        let err = b
            .deliver(
                eb,
                Vni(6),
                RxMessage {
                    src: NicAddr(1),
                    src_ep: EpIdx(0),
                    tag: 0,
                    len: 8,
                    msg_id: 1,
                    delivered_at: SimTime::ZERO,
                },
            )
            .unwrap_err();
        assert_eq!(err, NicError::VniNotAllowed);
        assert_eq!(b.counters.rx_msgs, 0);
    }

    #[test]
    fn tx_engine_serializes_issue() {
        let (mut f, mut a, mut b) = rig();
        a.configure_service(svc(1, &[5]));
        b.configure_service(svc(1, &[5]));
        let ea = a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        let eb = b.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        let mut last_issue = SimTime::ZERO;
        for i in 0..16 {
            let SendOutcome::Sent(t) =
                a.send(SimTime::ZERO, &mut f, ea, b.addr, eb, i, 8).unwrap()
            else {
                panic!()
            };
            assert!(t.issued > last_issue, "issues must be strictly ordered");
            last_issue = t.issued;
        }
        // 16 small messages from t=0: issue rate limited by tx_msg_ns.
        let ns = last_issue.as_nanos();
        assert!(ns >= 16 * 250, "tx engine too fast: {ns}ns for 16 msgs");
    }

    #[test]
    fn rma_checks_bounds_and_permissions() {
        let (_, mut a, _) = rig();
        a.configure_service(svc(1, &[5]));
        let ep = a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        let key = a.register_mr(ep, 4096, true, false).unwrap();
        assert_eq!(a.check_rma(key, 0, 4096, false).unwrap(), ep);
        assert_eq!(a.check_rma(key, 4096, 1, false).unwrap_err(), NicError::MrAccess);
        assert_eq!(a.check_rma(key, 0, 1, true).unwrap_err(), NicError::MrAccess);
        assert_eq!(a.check_rma(MrKey(999), 0, 1, false).unwrap_err(), NicError::NoSuchMr);
        assert_eq!(a.counters.mr_violations, 3);
        a.deregister_mr(key).unwrap();
        assert_eq!(a.check_rma(key, 0, 1, false).unwrap_err(), NicError::NoSuchMr);
    }

    #[test]
    fn per_run_jitter_changes_timing_slightly() {
        let (mut f, mut a, mut b) = rig();
        a.configure_service(svc(1, &[5]));
        b.configure_service(svc(1, &[5]));
        let ea = a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        let eb = b.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        let SendOutcome::Sent(t1) = a.send(SimTime::ZERO, &mut f, ea, b.addr, eb, 0, 8).unwrap()
        else {
            panic!()
        };
        a.new_run();
        let base = t1.remote_delivery;
        let SendOutcome::Sent(t2) =
            a.send(base, &mut f, ea, b.addr, eb, 0, 8).unwrap()
        else {
            panic!()
        };
        let d1 = (t1.remote_delivery - t1.issued).as_nanos() as f64;
        let d2 = (t2.remote_delivery - t2.issued).as_nanos() as f64;
        let rel = (d1 - d2).abs() / d1;
        assert!(rel < 0.05, "jitter should be small: {rel}");
    }

    /// An endpoint under service `svc` on VNI 5.
    fn alloc(nic: &mut CassiniNic, svc: u32) -> Result<EpIdx, NicError> {
        nic.alloc_endpoint(SvcId(svc), Vni(5), TrafficClass::Dedicated)
    }

    fn rx(tag: u64, len: u64) -> RxMessage {
        RxMessage {
            src: NicAddr(1),
            src_ep: EpIdx(0),
            tag,
            len,
            msg_id: tag,
            delivered_at: SimTime::from_nanos(tag),
        }
    }

    #[test]
    fn endpoint_indices_are_never_reused() {
        let (_, mut a, _) = rig();
        a.configure_service(svc(1, &[5]));
        let (e0, e1) = (alloc(&mut a, 1).unwrap(), alloc(&mut a, 1).unwrap());
        a.free_endpoint(e0).unwrap();
        assert_eq!(a.free_endpoint(e0), Err(NicError::NoSuchEndpoint), "double free");
        let e2 = alloc(&mut a, 1).unwrap();
        a.free_endpoint(e1).unwrap();
        a.free_endpoint(e2).unwrap();
        let e3 = alloc(&mut a, 1).unwrap();
        assert_eq!([e0, e1, e2, e3], [EpIdx(0), EpIdx(1), EpIdx(2), EpIdx(3)]);
        assert_eq!(a.endpoints_of(SvcId(1)), 1);
    }

    #[test]
    fn dead_endpoints_refuse_the_data_path_and_count_nothing() {
        let (mut f, mut a, _) = rig();
        a.configure_service(svc(1, &[5]));
        let freed = alloc(&mut a, 1).unwrap();
        a.free_endpoint(freed).unwrap();
        for dead in [freed, EpIdx(7), EpIdx(u32::MAX)] {
            let sent = a.send(SimTime::ZERO, &mut f, dead, NicAddr(2), EpIdx(0), 0, 8);
            assert_eq!(sent, Err(NicError::NoSuchEndpoint));
            assert_eq!(a.deliver(dead, Vni(5), rx(1, 8)), Err(NicError::NoSuchEndpoint));
            assert_eq!(a.deliver_poll(dead, Vni(5), rx(2, 8)), Err(NicError::NoSuchEndpoint));
            assert_eq!(a.poll_rx(dead), Err(NicError::NoSuchEndpoint));
            assert_eq!(a.endpoint(dead).unwrap_err(), NicError::NoSuchEndpoint);
        }
        assert_eq!(a.counters, NicCounters::default());
        // A refused send draws no message id either.
        let live = alloc(&mut a, 1).unwrap();
        let out = a.send(SimTime::ZERO, &mut f, live, NicAddr(2), EpIdx(0), 0, 8).unwrap();
        assert!(matches!(out, SendOutcome::Sent(SendTiming { msg_id: 1, .. })), "{out:?}");
    }

    #[test]
    fn endpoint_limit_counts_live_endpoints_only() {
        let (_, mut a, _) = rig();
        let mut e = svc(1, &[5]);
        e.limits.max_endpoints = Some(2);
        a.configure_service(e);
        a.configure_service(svc(2, &[5]));
        // Another service's endpoints and this service's freed ones do
        // not count against the limit.
        alloc(&mut a, 2).unwrap();
        for _ in 0..5 {
            let ep = alloc(&mut a, 1).unwrap();
            a.free_endpoint(ep).unwrap();
        }
        alloc(&mut a, 1).unwrap();
        alloc(&mut a, 1).unwrap();
        assert_eq!(alloc(&mut a, 1), Err(NicError::EndpointLimit));
        assert_eq!(a.endpoints_of(SvcId(1)), 2);
        alloc(&mut a, 2).unwrap();
    }

    #[test]
    fn remove_service_frees_only_its_own_endpoints_and_their_mrs() {
        let (_, mut a, _) = rig();
        a.configure_service(svc(1, &[5]));
        a.configure_service(svc(2, &[5]));
        // Interleave the two services' endpoints; two MRs on each.
        let eps = [1, 2, 1, 2].map(|svc| alloc(&mut a, svc).unwrap());
        let keys: Vec<MrKey> = eps
            .iter()
            .flat_map(|&ep| [ep, ep])
            .map(|ep| a.register_mr(ep, 4096, true, true).unwrap())
            .collect();
        assert_eq!(a.remove_service(SvcId(1)), 2);
        assert!(a.service(SvcId(1)).is_none());
        for (i, &ep) in eps.iter().enumerate() {
            let survives = i % 2 == 1;
            assert_eq!(a.endpoint(ep).is_ok(), survives, "endpoint {ep:?}");
            for &key in &keys[2 * i..2 * i + 2] {
                assert_eq!(a.check_rma(key, 0, 8, false).is_ok(), survives, "{key:?} of {ep:?}");
            }
        }
        assert_eq!(a.endpoints_of(SvcId(2)), 2);
        // Nothing left to free the second time; the survivors stay.
        assert_eq!(a.remove_service(SvcId(1)), 0);
        assert_eq!(a.endpoints_of(SvcId(2)), 2);
        assert!(a.check_rma(keys[2], 0, 8, true).is_ok());
    }

    #[test]
    fn hand_off_is_deliver_then_poll_rx() {
        // Two NICs fed the same messages: one through `deliver` +
        // `poll_rx`, one through the hand-off.
        let (_, mut two_calls, mut one_call) = rig();
        for nic in [&mut two_calls, &mut one_call] {
            nic.configure_service(svc(1, &[5]));
            alloc(nic, 1).unwrap();
        }
        let ep = EpIdx(0);
        // Empty queue: the message itself comes back.
        two_calls.deliver(ep, Vni(5), rx(1, 100)).unwrap();
        let want = two_calls.poll_rx(ep).unwrap();
        assert_eq!(Some(one_call.deliver_poll(ep, Vni(5), rx(1, 100)).unwrap()), want);
        assert!(one_call.endpoint(ep).unwrap().rx_queue.is_empty());
        // Queue pre-loaded through the public `deliver`: oldest first,
        // the new message goes to the back.
        for nic in [&mut two_calls, &mut one_call] {
            nic.deliver(ep, Vni(5), rx(2, 10)).unwrap();
            nic.deliver(ep, Vni(5), rx(3, 20)).unwrap();
        }
        two_calls.deliver(ep, Vni(5), rx(4, 30)).unwrap();
        let want = two_calls.poll_rx(ep).unwrap();
        assert_eq!(want, Some(rx(2, 10)));
        assert_eq!(Some(one_call.deliver_poll(ep, Vni(5), rx(4, 30)).unwrap()), want);
        assert_eq!(one_call.counters, two_calls.counters);
        assert_eq!(one_call.counters.rx_msgs, 4);
        assert_eq!(one_call.counters.rx_bytes, 160);
        for _ in 0..3 {
            assert_eq!(one_call.poll_rx(ep).unwrap(), two_calls.poll_rx(ep).unwrap());
        }
        assert!(one_call.endpoint(ep).unwrap().rx_queue.is_empty());
    }

    #[test]
    fn hand_off_rejects_vni_mismatch_and_queues_nothing() {
        let (_, _, mut b) = rig();
        b.configure_service(svc(1, &[5]));
        let eb = alloc(&mut b, 1).unwrap();
        assert_eq!(b.deliver_poll(eb, Vni(6), rx(1, 8)), Err(NicError::VniNotAllowed));
        assert_eq!(b.counters, NicCounters::default());
        assert_eq!(b.poll_rx(eb), Ok(None));
    }

    #[test]
    fn send_outcomes_carry_rising_message_ids() {
        let (mut f, mut a, mut b) = rig();
        a.configure_service(svc(1, &[5, 9])); // VNI 9 is not granted on the wire
        b.configure_service(svc(1, &[5]));
        let routed = a.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        let dropped = a.alloc_endpoint(SvcId(1), Vni(9), TrafficClass::Dedicated).unwrap();
        let eb = b.alloc_endpoint(SvcId(1), Vni(5), TrafficClass::Dedicated).unwrap();
        let ids: Vec<u64> = [routed, dropped, routed]
            .into_iter()
            .map(|ep| match a.send(SimTime::ZERO, &mut f, ep, b.addr, eb, 0, 8).unwrap() {
                SendOutcome::Sent(t) => t.msg_id,
                SendOutcome::FabricDropped { msg_id, .. } => msg_id,
            })
            .collect();
        // One counter per NIC, drawn once per send whatever the fabric
        // does with it — the id `Fabric::transfer` routed it under.
        assert_eq!(ids, [1, 2, 3]);
    }
}
