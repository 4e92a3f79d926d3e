//! Tagged endpoints, completion queues, and the virtual-time data path.
//!
//! The data path is simulated at message granularity with explicit time
//! cursors (LogP-style): every operation takes `now` and returns both its
//! effects and the instants at which they become visible. The MPI layer
//! advances rank-local clocks by these instants; no event queue is needed
//! on the hot path, which keeps full OSU sweeps cheap while preserving
//! the queueing behaviour (NIC TX engine + link busy-until) that shapes
//! the throughput curve.
//!
//! The completion queue is held in visibility order (rising
//! [`Completion::at`], insertion order among equal instants): every
//! completion enters through one sorted insert, so reading or waiting
//! for the next completion looks at the front entry only, however many
//! sends and receives are in flight.

use std::collections::VecDeque;

use shs_cassini::{EpIdx, RxMessage, SendOutcome};
use shs_cxi::{CxiDevice, CxiError};
use shs_des::{SimDur, SimTime};
use shs_fabric::{Fabric, NicAddr, TrafficClass, Vni};
use shs_oslinux::{Host, Pid};

/// A fabric-wide endpoint address (`fi_addr_t` equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerAddr {
    /// NIC the endpoint lives on.
    pub nic: NicAddr,
    /// Endpoint index on that NIC.
    pub ep: EpIdx,
}

/// Software per-call overheads of the libfabric layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfiParams {
    /// `fi_tsend` software path before the doorbell.
    pub sw_send: SimDur,
    /// `fi_trecv` posting cost.
    pub sw_recv: SimDur,
    /// Completion-queue read cost.
    pub cq_read: SimDur,
}

impl Default for OfiParams {
    fn default() -> Self {
        OfiParams {
            sw_send: SimDur::from_nanos(200),
            sw_recv: SimDur::from_nanos(120),
            cq_read: SimDur::from_nanos(80),
        }
    }
}

/// Completion kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompKind {
    /// A send completed locally.
    Send,
    /// A receive matched and completed.
    Recv,
}

/// A completion-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Send or receive.
    pub kind: CompKind,
    /// Message tag.
    pub tag: u64,
    /// Payload length.
    pub len: u64,
    /// User context supplied at post time.
    pub ctx: u64,
    /// Instant the completion becomes visible to software.
    pub at: SimTime,
}

/// A posted tagged receive.
#[derive(Debug, Clone, Copy)]
struct PostedRecv {
    tag: u64,
    ignore: u64,
    ctx: u64,
    posted_at: SimTime,
}

/// Errors from the OFI layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfiError {
    /// Endpoint creation failed in the CXI stack (auth, VNI, limits).
    Cxi(CxiError),
}

impl From<CxiError> for OfiError {
    fn from(e: CxiError) -> Self {
        OfiError::Cxi(e)
    }
}

impl core::fmt::Display for OfiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OfiError::Cxi(e) => write!(f, "cxi provider: {e}"),
        }
    }
}

impl std::error::Error for OfiError {}

/// A tagged, connectionless endpoint bound to a VNI (the CXI provider
/// model: the VNI comes from the CXI service the caller authenticated
/// against).
#[derive(Debug)]
pub struct OfiEp {
    /// Fabric address of this endpoint.
    pub addr: PeerAddr,
    /// The VNI the endpoint communicates on.
    pub vni: Vni,
    /// Traffic class.
    pub tc: TrafficClass,
    params: OfiParams,
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<RxMessage>,
    cq: VecDeque<Completion>,
}

// `tsend`, `trecv`, `deliver` and `cq_wait` are `#[inline]`: the MPI layer
// calls each once or twice per message from another crate, and the
// workspace builds without LTO. Measured on the in-process `osu_bw`
// floor: `trecv` + `cq_wait` ≈ 3-4 %, `tsend` + `deliver` ≈ 7 %.
// `cq_read` is on no per-message path and stays out of line.
impl OfiEp {
    /// Open an endpoint: runs the full authenticated CXI path
    /// (`fi_domain`, then `fi_endpoint`, then EP allocation through the
    /// driver member check). This is the *only* place authentication
    /// happens — everything after is kernel-bypass.
    pub fn open(
        host: &Host,
        device: &mut CxiDevice,
        pid: Pid,
        vni: Vni,
        tc: TrafficClass,
    ) -> Result<OfiEp, OfiError> {
        let ep = device.ep_alloc(host, pid, vni, tc)?;
        Ok(OfiEp {
            addr: PeerAddr { nic: device.nic.addr, ep },
            vni,
            tc,
            params: OfiParams::default(),
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            cq: VecDeque::new(),
        })
    }

    /// Close the endpoint, releasing NIC resources.
    pub fn close(self, device: &mut CxiDevice) -> Result<(), OfiError> {
        device.ep_free(self.addr.ep)?;
        Ok(())
    }

    /// Software-parameter access (calibration).
    pub fn params(&self) -> &OfiParams {
        &self.params
    }

    /// `fi_tsend`: send `len` bytes with `tag` to `dst`. Returns the time
    /// at which the *calling software* regains control (post return) and,
    /// if the fabric delivered, the wire message to hand to the receiving
    /// endpoint via [`OfiEp::deliver`].
    ///
    /// A send completion is queued at the local-completion instant.
    /// Fabric drops are silent (RDMA semantics): the send still completes
    /// locally; only the receiver never sees data.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn tsend(
        &mut self,
        now: SimTime,
        device: &mut CxiDevice,
        fabric: &mut Fabric,
        dst: PeerAddr,
        tag: u64,
        len: u64,
        ctx: u64,
    ) -> (SimTime, Option<WireMessage>) {
        let post_done = now + self.params.sw_send;
        let outcome = device
            .nic
            .send(post_done, fabric, self.addr.ep, dst.nic, dst.ep, tag, len)
            .expect("endpoint vanished mid-send");
        match outcome {
            SendOutcome::Sent(t) => {
                self.cq_push(Completion {
                    kind: CompKind::Send,
                    tag,
                    len,
                    ctx,
                    at: t.local_completion,
                });
                let msg = WireMessage {
                    dst,
                    vni: self.vni,
                    rx: RxMessage {
                        src: self.addr.nic,
                        src_ep: self.addr.ep,
                        tag,
                        len,
                        msg_id: t.msg_id,
                        delivered_at: t.remote_delivery,
                    },
                };
                (post_done, Some(msg))
            }
            SendOutcome::FabricDropped { local_completion, .. } => {
                self.cq_push(Completion {
                    kind: CompKind::Send,
                    tag,
                    len,
                    ctx,
                    at: local_completion,
                });
                (post_done, None)
            }
        }
    }

    /// `fi_trecv`: post a tagged receive buffer. Matching follows
    /// libfabric rules: an incoming tag matches when
    /// `(incoming ^ posted) & !ignore == 0`, FIFO within matches.
    /// Returns when the posting call returns.
    #[inline]
    pub fn trecv(&mut self, now: SimTime, tag: u64, ignore: u64, ctx: u64) -> SimTime {
        let done = now + self.params.sw_recv;
        let posted = PostedRecv { tag, ignore, ctx, posted_at: done };
        // Try the unexpected queue first (message already arrived).
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|m| matches_tag(m.tag, posted.tag, posted.ignore))
        {
            let msg = self.unexpected.remove(pos).expect("position valid");
            // Completion visible no earlier than both arrival and post.
            let at = msg.delivered_at.max(done);
            self.cq_push(Completion {
                kind: CompKind::Recv,
                tag: msg.tag,
                len: msg.len,
                ctx,
                at,
            });
        } else {
            self.posted.push_back(posted);
        }
        done
    }

    /// Deliver a wire message into this endpoint (composition-layer duty;
    /// in hardware this is the NIC's matching engine).
    #[inline]
    pub fn deliver(&mut self, device: &mut CxiDevice, msg: WireMessage) {
        debug_assert_eq!(msg.dst.ep, self.addr.ep, "misrouted message");
        // NIC-level VNI check + counters; the NIC hands back the oldest
        // message queued on the endpoint (this one, unless somebody
        // booked messages into the NIC behind our back).
        let Ok(mut rx) = device.nic.deliver_poll(msg.dst.ep, msg.vni, msg.rx) else {
            return; // silently dropped, like hardware
        };
        // Drain the NIC rx queue into the matching engine.
        loop {
            self.match_incoming(rx);
            match device.nic.poll_rx(self.addr.ep).expect("own endpoint") {
                Some(next) => rx = next,
                None => break,
            }
        }
    }

    /// The matching engine: complete the first posted receive `rx`
    /// matches, or park it on the unexpected queue.
    fn match_incoming(&mut self, rx: RxMessage) {
        if let Some(pos) =
            self.posted.iter().position(|p| matches_tag(rx.tag, p.tag, p.ignore))
        {
            let p = self.posted.remove(pos).expect("position valid");
            let at = rx.delivered_at.max(p.posted_at);
            self.cq_push(Completion {
                kind: CompKind::Recv,
                tag: rx.tag,
                len: rx.len,
                ctx: p.ctx,
                at,
            });
        } else {
            self.unexpected.push_back(rx);
        }
    }

    /// `fi_cq_read`: pop the earliest completion if it is visible at
    /// `now` plus the CQ read cost, which is paid either way. Returns
    /// the new time cursor and the completion.
    pub fn cq_read(&mut self, now: SimTime) -> (SimTime, Option<Completion>) {
        let t = now + self.params.cq_read;
        // The queue is in visibility order: the front is the earliest.
        match self.cq.front() {
            Some(c) if c.at <= t => (t, self.cq.pop_front()),
            _ => (t, None),
        }
    }

    /// Block until the next completion: advances time to the completion
    /// instant if it lies in the future (`fi_cq_sread` semantics).
    /// `None` when nothing is queued.
    #[inline]
    pub fn cq_wait(&mut self, now: SimTime) -> Option<(SimTime, Completion)> {
        let c = self.cq.pop_front()?;
        Some((now.max(c.at) + self.params.cq_read, c))
    }

    /// Queue a completion in visibility order: after every completion
    /// visible at or before `c.at`, so equal instants keep insertion
    /// order. Completions are produced in almost-rising `at` (the walk
    /// back from the tail is 0-1 steps; a send's local completion
    /// landing between two earlier receives is the out-of-order case).
    fn cq_push(&mut self, c: Completion) {
        let mut i = self.cq.len();
        while i > 0 && self.cq[i - 1].at > c.at {
            i -= 1;
        }
        self.cq.insert(i, c);
        debug_assert!(self.cq_is_sorted(), "completion queue out of visibility order");
    }

    /// Whether the queue is in rising `at` order (the `cq_push`
    /// invariant; debug builds and tests only).
    pub(crate) fn cq_is_sorted(&self) -> bool {
        self.cq.iter().zip(self.cq.iter().skip(1)).all(|(a, b)| a.at <= b.at)
    }

    /// Posted-but-unmatched receives.
    pub fn posted_depth(&self) -> usize {
        self.posted.len()
    }

    /// Unexpected (arrived-but-unmatched) messages.
    pub fn unexpected_depth(&self) -> usize {
        self.unexpected.len()
    }
}

/// Tag match rule (`fi_trecv` ignore-mask semantics).
#[inline]
fn matches_tag(incoming: u64, posted: u64, ignore: u64) -> bool {
    (incoming ^ posted) & !ignore == 0
}

/// Open one endpoint per process on a single device — the multi-rank
/// bring-up path (an N-rank communicator opening several ranks on the
/// same node). Every open runs the full authenticated CXI path; on the
/// first failure all endpoints already opened by this call are closed
/// again, so a partial bring-up never leaks NIC resources.
///
/// Returned endpoints are in `pids` order.
///
/// ```
/// use shs_cassini::{CassiniNic, CassiniParams};
/// use shs_cxi::{CxiDevice, CxiDriver, CxiServiceDesc};
/// use shs_des::DetRng;
/// use shs_fabric::{Fabric, NicAddr, TrafficClass, Vni};
/// use shs_ofi::open_many;
/// use shs_oslinux::{Gid, Host, Pid, Uid};
///
/// let mut host = Host::new("n0");
/// let mut dev = CxiDevice::new(
///     CxiDriver::extended(),
///     CassiniNic::new(NicAddr(1), CassiniParams::default(), DetRng::new(1)),
/// );
/// let root = host.credentials(Pid(1)).unwrap();
/// dev.alloc_svc(&root, CxiServiceDesc::default_service()).unwrap();
/// let r0 = host.spawn_detached("rank0", Uid(1000), Gid(1000));
/// let r1 = host.spawn_detached("rank1", Uid(1000), Gid(1000));
/// let eps = open_many(&host, &mut dev, &[r0, r1], Vni::GLOBAL,
///                     TrafficClass::Dedicated).unwrap();
/// assert_eq!(eps.len(), 2);
/// for ep in eps {
///     ep.close(&mut dev).unwrap();
/// }
/// ```
pub fn open_many(
    host: &Host,
    device: &mut CxiDevice,
    pids: &[Pid],
    vni: Vni,
    tc: TrafficClass,
) -> Result<Vec<OfiEp>, OfiError> {
    let mut eps = Vec::with_capacity(pids.len());
    for &pid in pids {
        match OfiEp::open(host, device, pid, vni, tc) {
            Ok(ep) => eps.push(ep),
            Err(e) => {
                for ep in eps {
                    let _ = ep.close(device);
                }
                return Err(e);
            }
        }
    }
    Ok(eps)
}

/// A message in flight between two endpoints.
#[derive(Debug, Clone)]
pub struct WireMessage {
    /// Destination address.
    pub dst: PeerAddr,
    /// VNI it travelled on.
    pub vni: Vni,
    /// Payload metadata and delivery instant.
    pub rx: RxMessage,
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_cassini::{CassiniNic, CassiniParams};
    use shs_cxi::{CxiDriver, CxiServiceDesc};
    use shs_des::DetRng;
    use shs_oslinux::{Gid, Uid};

    struct Rig {
        host: Host,
        fabric: Fabric,
        dev_a: CxiDevice,
        dev_b: CxiDevice,
        pid: Pid,
    }

    fn rig() -> Rig {
        let mut host = Host::new("n0");
        let mut fabric = Fabric::new(8);
        let rng = DetRng::new(42);
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
        let root = host.credentials(Pid(1)).unwrap();
        dev_a.alloc_svc(&root, CxiServiceDesc::default_service()).unwrap();
        dev_b.alloc_svc(&root, CxiServiceDesc::default_service()).unwrap();
        let pid = host.spawn_detached("app", Uid(1000), Gid(1000));
        Rig { host, fabric, dev_a, dev_b, pid }
    }

    fn open_pair(r: &mut Rig) -> (OfiEp, OfiEp) {
        let a = OfiEp::open(&r.host, &mut r.dev_a, r.pid, Vni::GLOBAL, TrafficClass::Dedicated)
            .unwrap();
        let b = OfiEp::open(&r.host, &mut r.dev_b, r.pid, Vni::GLOBAL, TrafficClass::Dedicated)
            .unwrap();
        (a, b)
    }

    #[test]
    fn tagged_send_recv_roundtrip() {
        let mut r = rig();
        let (mut a, mut b) = open_pair(&mut r);
        let t0 = SimTime::ZERO;
        let t_post = b.trecv(t0, 7, 0, 100);
        let (_, msg) =
            a.tsend(t0, &mut r.dev_a, &mut r.fabric, b.addr, 7, 4096, 200);
        b.deliver(&mut r.dev_b, msg.expect("delivered"));
        let (_, comp) = b.cq_wait(t_post).expect("completion");
        assert_eq!(comp.kind, CompKind::Recv);
        assert_eq!(comp.tag, 7);
        assert_eq!(comp.len, 4096);
        assert_eq!(comp.ctx, 100);
        assert!(comp.at > t0, "delivery takes time");
        // Sender got a local completion too.
        let (_, sc) = a.cq_wait(t0).expect("send completion");
        assert_eq!(sc.kind, CompKind::Send);
        assert_eq!(sc.ctx, 200);
    }

    #[test]
    fn unexpected_messages_match_later_receives() {
        let mut r = rig();
        let (mut a, mut b) = open_pair(&mut r);
        let (_, msg) = a.tsend(SimTime::ZERO, &mut r.dev_a, &mut r.fabric, b.addr, 9, 64, 0);
        b.deliver(&mut r.dev_b, msg.unwrap());
        assert_eq!(b.unexpected_depth(), 1);
        // Post the matching receive *after* arrival.
        let late = SimTime::from_nanos(50_000);
        let t_post = b.trecv(late, 9, 0, 5);
        let (_, comp) = b.cq_wait(t_post).expect("matched from unexpected queue");
        assert_eq!(comp.ctx, 5);
        assert!(comp.at >= t_post, "visible only after the post");
        assert_eq!(b.unexpected_depth(), 0);
    }

    #[test]
    fn ignore_mask_wildcards_low_bits() {
        let mut r = rig();
        let (mut a, mut b) = open_pair(&mut r);
        b.trecv(SimTime::ZERO, 0xAB00, 0xFF, 1);
        let (_, msg) =
            a.tsend(SimTime::ZERO, &mut r.dev_a, &mut r.fabric, b.addr, 0xAB42, 8, 0);
        b.deliver(&mut r.dev_b, msg.unwrap());
        let (_, comp) = b.cq_wait(SimTime::ZERO).expect("wildcard match");
        assert_eq!(comp.tag, 0xAB42);
    }

    #[test]
    fn mismatched_tags_stay_unexpected() {
        let mut r = rig();
        let (mut a, mut b) = open_pair(&mut r);
        b.trecv(SimTime::ZERO, 1, 0, 0);
        let (_, msg) = a.tsend(SimTime::ZERO, &mut r.dev_a, &mut r.fabric, b.addr, 2, 8, 0);
        b.deliver(&mut r.dev_b, msg.unwrap());
        assert_eq!(b.posted_depth(), 1);
        assert_eq!(b.unexpected_depth(), 1);
        assert!(b.cq_wait(SimTime::ZERO).is_none());
    }

    #[test]
    fn fifo_matching_within_equal_tags() {
        let mut r = rig();
        let (mut a, mut b) = open_pair(&mut r);
        b.trecv(SimTime::ZERO, 3, 0, 111);
        b.trecv(SimTime::ZERO, 3, 0, 222);
        let (_, m1) = a.tsend(SimTime::ZERO, &mut r.dev_a, &mut r.fabric, b.addr, 3, 8, 0);
        let (_, m2) = a.tsend(SimTime::ZERO, &mut r.dev_a, &mut r.fabric, b.addr, 3, 16, 0);
        b.deliver(&mut r.dev_b, m1.unwrap());
        b.deliver(&mut r.dev_b, m2.unwrap());
        let (t, c1) = b.cq_wait(SimTime::ZERO).unwrap();
        let (_, c2) = b.cq_wait(t).unwrap();
        assert_eq!((c1.ctx, c1.len), (111, 8));
        assert_eq!((c2.ctx, c2.len), (222, 16));
    }

    #[test]
    fn vni_mismatch_at_delivery_is_dropped() {
        let mut r = rig();
        // b's endpoint is on the global VNI; forge a message on VNI 99.
        let (mut a, mut b) = open_pair(&mut r);
        b.trecv(SimTime::ZERO, 1, 0, 0);
        let (_, msg) = a.tsend(SimTime::ZERO, &mut r.dev_a, &mut r.fabric, b.addr, 1, 8, 0);
        let mut msg = msg.unwrap();
        msg.vni = Vni(99);
        b.deliver(&mut r.dev_b, msg);
        assert!(b.cq_wait(SimTime::ZERO).is_none());
        assert_eq!(r.dev_b.nic.counters.rx_msgs, 0);
    }

    #[test]
    fn open_fails_without_authorized_service() {
        let mut r = rig();
        let err = OfiEp::open(
            &r.host,
            &mut r.dev_a,
            r.pid,
            Vni(77),
            TrafficClass::Dedicated,
        )
        .unwrap_err();
        assert_eq!(err, OfiError::Cxi(CxiError::AuthFailed));
    }

    #[test]
    fn cq_read_respects_visibility_time() {
        let mut r = rig();
        let (mut a, mut b) = open_pair(&mut r);
        let (_, msg) = a.tsend(SimTime::ZERO, &mut r.dev_a, &mut r.fabric, b.addr, 1, 1 << 20, 0);
        let msg = msg.unwrap();
        let arrival = msg.rx.delivered_at;
        b.trecv(SimTime::ZERO, 1, 0, 0);
        b.deliver(&mut r.dev_b, msg);
        // Polling long before arrival yields nothing...
        let (_, none) = b.cq_read(SimTime::ZERO);
        assert!(none.is_none());
        // ...polling after arrival yields the completion.
        let (_, some) = b.cq_read(arrival + SimDur::from_micros(1));
        assert!(some.is_some());
    }

    #[test]
    fn the_queue_stays_in_visibility_order_after_every_push() {
        let mut r = rig();
        let (mut a, mut b) = open_pair(&mut r);
        let t0 = SimTime::ZERO;
        let ctxs = |ep: &OfiEp| ep.cq.iter().map(|c| c.ctx).collect::<Vec<_>>();
        // Two large receives complete far in the future...
        b.trecv(t0, 1, 0, 10);
        b.trecv(t0, 2, 0, 11);
        for (tag, ctx) in [(1, 0), (2, 1)] {
            let (_, msg) = a.tsend(t0, &mut r.dev_a, &mut r.fabric, b.addr, tag, 1 << 20, ctx);
            b.deliver(&mut r.dev_b, msg.unwrap());
            assert!(b.cq_is_sorted());
        }
        assert_eq!(ctxs(&b), [10, 11]);
        // ...a small send's local completion lands in front of both...
        let (_, msg) = b.tsend(t0, &mut r.dev_b, &mut r.fabric, a.addr, 3, 8, 12);
        a.deliver(&mut r.dev_a, msg.unwrap());
        assert!(b.cq_is_sorted());
        assert_eq!(ctxs(&b), [12, 10, 11]);
        // ...and a send issued once the first receive has landed goes
        // between the two: an insert in the middle.
        let mid = b.cq[1].at;
        let (_, msg) = b.tsend(mid, &mut r.dev_b, &mut r.fabric, a.addr, 4, 8, 13);
        a.deliver(&mut r.dev_a, msg.unwrap());
        assert!(b.cq_is_sorted());
        assert_eq!(ctxs(&b), [12, 10, 13, 11]);
        // Equal instants keep insertion order: both late posts match an
        // already-arrived message and complete when the post returns.
        assert!(a.cq_is_sorted());
        let late = a.cq.back().expect("send completions").at.max(b.cq[3].at);
        a.trecv(late, 4, 0, 21);
        a.trecv(late, 3, 0, 20);
        assert!(a.cq_is_sorted());
        let tail: Vec<_> = a.cq.iter().rev().take(2).map(|c| (c.ctx, c.at)).collect();
        assert_eq!(tail[0].1, tail[1].1, "tied instants");
        assert_eq!((tail[1].0, tail[0].0), (21, 20), "first pushed, first out");
        // Reading drains front to back.
        let mut now = t0;
        for want in [12, 10, 13, 11] {
            let (t, c) = b.cq_wait(now).unwrap();
            assert_eq!(c.ctx, want);
            assert!(t >= now);
            now = t;
        }
        assert!(b.cq_wait(now).is_none());
    }

    #[test]
    fn a_wire_message_carries_the_id_the_fabric_routed_it_under() {
        let mut r = rig();
        let (mut a, b) = open_pair(&mut r);
        let mut ids = Vec::new();
        for tag in 0..3 {
            let (_, msg) = a.tsend(SimTime::ZERO, &mut r.dev_a, &mut r.fabric, b.addr, tag, 8, 0);
            ids.push(msg.expect("delivered").rx.msg_id);
        }
        // NIC ids start at 1 and rise by one per send (`CassiniNic::send`
        // hands the same counter to `Fabric::transfer`).
        assert_eq!(ids, [1, 2, 3]);
    }
}
