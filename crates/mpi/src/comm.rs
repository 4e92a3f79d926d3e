//! An N-rank communicator with virtual-time-correct MPI collectives
//! over the real per-node OFI/CXI device stack.
//!
//! [`Communicator`] generalizes the two-rank [`RankPair`]: every rank
//! owns a tagged OFI endpoint (opened through the full authenticated
//! CXI path) and an explicit virtual-time cursor. Collectives are
//! decomposed into the same tagged point-to-point sends the two-rank
//! world uses, so **every hop** of every collective flows through
//! fabric routing, per-traffic-class trunk scheduling, and per-VNI
//! traffic accounting:
//!
//! * [`Communicator::barrier`] — dissemination: ⌈log₂ n⌉ rounds, each
//!   rank sending a zero-byte message `2^k` ranks ahead;
//! * [`Communicator::bcast`] — binomial tree rooted at any rank,
//!   ⌈log₂ n⌉ rounds, `n − 1` messages total;
//! * [`Communicator::allreduce`] — ring reduce-scatter + allgather
//!   (`2(n−1)` rounds of one chunk per rank), with a recursive-doubling
//!   path for small messages on power-of-two rank counts
//!   ([`Communicator::RECURSIVE_DOUBLING_MAX`]);
//! * [`Communicator::alltoall`] — pairwise exchange over `n − 1` ring
//!   shifts, each rank sending its full per-peer block every shift.
//!
//! ## Virtual-time accounting
//!
//! All clock state is **value-local**: a communicator owns its per-rank
//! cursors, a pair owns its two — there are no statics, thread-locals,
//! or other process-global clocks anywhere in this crate, so `cargo
//! test` may run any number of collective tests concurrently without
//! interleaving timelines (see [`crate::osu::reset_clocks`]). Within
//! one round every rank posts its receive, then posts its send at its
//! own cursor, then blocks for all its completions; blocking follows
//! `fi_cq_sread` semantics, advancing the rank's cursor to the
//! completion instant. A message the fabric drops (VNI enforcement or
//! trunk congestion) never completes at the receiver — RDMA semantics —
//! and is counted in [`Communicator::lost`] instead of hanging the
//! round.
//!
//! [`RankPair`]: crate::pair::RankPair
//!
//! ```
//! use shs_cassini::{CassiniNic, CassiniParams};
//! use shs_cxi::{CxiDevice, CxiDriver, CxiServiceDesc};
//! use shs_des::{DetRng, SimTime};
//! use shs_fabric::{Fabric, NicAddr, TrafficClass, Vni};
//! use shs_mpi::{CommDevices, Communicator, RankSite};
//! use shs_oslinux::{Gid, Host, Pid, Uid};
//!
//! // Four single-rank nodes on one switch.
//! let rng = DetRng::new(7);
//! let mut fabric = Fabric::new(8);
//! let mut hosts = Vec::new();
//! let mut devices = Vec::new();
//! let mut pids = Vec::new();
//! for i in 0..4u32 {
//!     let mut host = Host::new(&format!("n{i}"));
//!     let nic = NicAddr(i + 1);
//!     let mut dev = CxiDevice::new(
//!         CxiDriver::extended(),
//!         CassiniNic::new(nic, CassiniParams::default(), rng.derive(&format!("{i}"))),
//!     );
//!     fabric.attach(nic);
//!     fabric.grant_vni(nic, Vni::GLOBAL).unwrap();
//!     let root = host.credentials(Pid(1)).unwrap();
//!     dev.alloc_svc(&root, CxiServiceDesc::default_service()).unwrap();
//!     pids.push(host.spawn_detached("rank", Uid(1000), Gid(1000)));
//!     hosts.push(host);
//!     devices.push(dev);
//! }
//! let mut devs = CommDevices {
//!     devs: devices.iter_mut().collect(),
//!     fabric: &mut fabric,
//! };
//! let sites: Vec<RankSite> = (0..4)
//!     .map(|r| RankSite { host: &hosts[r], pid: pids[r], node: r })
//!     .collect();
//! let mut comm = Communicator::open(
//!     &sites, &mut devs, Vni::GLOBAL, TrafficClass::Dedicated, SimTime::ZERO,
//! ).unwrap();
//! comm.allreduce(&mut devs, 4096);
//! assert_eq!(comm.lost(), 0, "uncontended fabric delivers everything");
//! // Ring allreduce: every rank sent and received 2(n-1) = 6 chunks.
//! assert!(comm.io().iter().all(|io| io.sent_msgs == 6 && io.recv_msgs == 6));
//! // The OSU collective benchmarks reuse the same communicator.
//! let us = shs_mpi::osu_allreduce_once(&mut comm, &mut devs, 1024, 3, 1);
//! assert!(us > 0.0, "collectives consume virtual time: {us} us");
//! comm.close(&mut devs);
//! ```

use shs_cxi::CxiDevice;
use shs_des::SimTime;
use shs_fabric::{ring_step_into, Fabric, TrafficClass, Vni};
use shs_ofi::{open_many, CompKind, OfiEp, OfiError};
use shs_oslinux::{Host, Pid};

/// Mutable borrows of the per-node CXI devices plus the fabric an
/// N-rank communicator runs over. `devs[i]` is node *i*'s device; ranks
/// map onto nodes via [`RankSite::node`], and several ranks may share a
/// node (and therefore a NIC).
pub struct CommDevices<'a> {
    /// One CXI device per node, in node order.
    pub devs: Vec<&'a mut CxiDevice>,
    /// The fabric joining them.
    pub fabric: &'a mut Fabric,
}

impl CommDevices<'_> {
    /// Begin a new measurement run: re-draw per-run NIC jitter on every
    /// node (as between repetitions of the paper's 10-run experiments).
    pub fn new_run(&mut self) {
        for dev in self.devs.iter_mut() {
            dev.nic.new_run();
        }
    }
}

/// Where one rank runs: the node's kernel (for the netns/uid member
/// check at endpoint bring-up), the rank's process, and the index of
/// the node's device in [`CommDevices::devs`]. Ranks sharing a node
/// must reference that node's `Host`.
pub struct RankSite<'a> {
    /// The node kernel the rank's process lives on.
    pub host: &'a Host,
    /// The rank's process (inside a pod this is the pod's workload).
    pub pid: Pid,
    /// Index into [`CommDevices::devs`].
    pub node: usize,
}

/// Per-rank data-path totals, accumulated across collectives (the
/// "delivered payload" surface the oracle tests check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankIo {
    /// Messages this rank sent.
    pub sent_msgs: u64,
    /// Payload bytes this rank sent.
    pub sent_bytes: u64,
    /// Messages this rank received (completed receives).
    pub recv_msgs: u64,
    /// Payload bytes this rank received.
    pub recv_bytes: u64,
}

/// One point-to-point operation of a collective round:
/// `(src rank, dst rank, payload bytes)`.
type P2pOp = (usize, usize, u64);

/// An N-rank communicator: one authenticated OFI endpoint and one
/// virtual-time cursor per rank. See the [module docs](self) for the
/// collective algorithms and the virtual-time accounting model.
pub struct Communicator {
    eps: Vec<OfiEp>,
    clocks: Vec<SimTime>,
    node_of: Vec<usize>,
    io: Vec<RankIo>,
    lost: u64,
    op_seq: u64,
    // Scratch arenas reused across rounds so steady-state collectives
    // allocate nothing per hop: the round's op list and the per-rank
    // expected-completion counts. Taken (`mem::take`) around `exchange`
    // because the round borrows `self` mutably.
    ops_buf: Vec<P2pOp>,
    expect_buf: Vec<usize>,
}

impl Communicator {
    /// Largest `allreduce` payload (bytes) routed down the
    /// recursive-doubling path on power-of-two rank counts; larger
    /// messages (or non-power-of-two communicators) use ring
    /// reduce-scatter + allgather.
    pub const RECURSIVE_DOUBLING_MAX: u64 = 2048;

    /// Open one endpoint per rank through the full authenticated path
    /// (MPI_Init plus libfabric domain/endpoint bring-up, the only
    /// place authentication happens). Ranks on the same node are opened
    /// together via [`open_many`]; on any failure every endpoint opened
    /// so far is closed again, so a refused rank never leaks NIC state.
    ///
    /// Panics if `sites` is empty or names a node outside
    /// [`CommDevices::devs`] (wiring bugs).
    pub fn open(
        sites: &[RankSite<'_>],
        devs: &mut CommDevices<'_>,
        vni: Vni,
        tc: TrafficClass,
        start: SimTime,
    ) -> Result<Communicator, OfiError> {
        assert!(!sites.is_empty(), "a communicator needs at least one rank");
        for s in sites {
            assert!(s.node < devs.devs.len(), "rank site names node {} of {}", s.node, devs.devs.len());
        }
        let mut eps: Vec<Option<OfiEp>> = (0..sites.len()).map(|_| None).collect();
        // Nodes in first-appearance order; each node's ranks open as one
        // group on that node's device.
        let mut nodes: Vec<usize> = Vec::new();
        for s in sites {
            if !nodes.contains(&s.node) {
                nodes.push(s.node);
            }
        }
        for &node in &nodes {
            let ranks: Vec<usize> =
                (0..sites.len()).filter(|&r| sites[r].node == node).collect();
            let pids: Vec<Pid> = ranks.iter().map(|&r| sites[r].pid).collect();
            match open_many(sites[ranks[0]].host, devs.devs[node], &pids, vni, tc) {
                Ok(opened) => {
                    for (&r, ep) in ranks.iter().zip(opened) {
                        eps[r] = Some(ep);
                    }
                }
                Err(e) => {
                    for (r, slot) in eps.iter_mut().enumerate() {
                        if let Some(ep) = slot.take() {
                            let _ = ep.close(devs.devs[sites[r].node]);
                        }
                    }
                    return Err(e);
                }
            }
        }
        let n = sites.len();
        Ok(Communicator {
            eps: eps.into_iter().map(|e| e.expect("every rank opened")).collect(),
            clocks: vec![start; n],
            node_of: sites.iter().map(|s| s.node).collect(),
            io: vec![RankIo::default(); n],
            lost: 0,
            op_seq: 0,
            ops_buf: Vec::with_capacity(n),
            expect_buf: Vec::with_capacity(n),
        })
    }

    /// Release every rank's endpoint.
    pub fn close(self, devs: &mut CommDevices<'_>) {
        for (ep, &node) in self.eps.into_iter().zip(self.node_of.iter()) {
            let _ = ep.close(devs.devs[node]);
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.eps.len()
    }

    /// A rank's virtual-time cursor.
    pub fn clock(&self, rank: usize) -> SimTime {
        self.clocks[rank]
    }

    /// The latest rank cursor (the completion instant of a collective).
    pub fn max_clock(&self) -> SimTime {
        self.clocks.iter().copied().max().expect("non-empty")
    }

    /// Synchronize every cursor to the latest one (the effect of an
    /// external barrier; OSU loops use it between timed phases).
    pub fn sync_clocks(&mut self) {
        let m = self.max_clock();
        self.clocks.iter_mut().for_each(|c| *c = m);
    }

    /// Reset every cursor to `at` (a fresh measurement run). Clock
    /// state is value-local — see the [module docs](self) — so this
    /// never affects any other communicator or pair.
    pub fn reset_clocks(&mut self, at: SimTime) {
        self.clocks.iter_mut().for_each(|c| *c = at);
    }

    /// Per-rank cumulative data-path totals, in rank order.
    pub fn io(&self) -> &[RankIo] {
        &self.io
    }

    /// Messages posted by a collective that never completed at their
    /// receiver (dropped in the fabric: enforcement or congestion).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// The node (index into [`CommDevices::devs`]) a rank runs on.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// One round of point-to-point exchanges, executed with MPI
    /// semantics per rank: receives posted first, sends posted at each
    /// sender's cursor, then every rank blocks until all its
    /// completions for this round are visible.
    fn exchange(&mut self, devs: &mut CommDevices<'_>, ops: &[P2pOp]) {
        debug_assert!(ops.len() < (1 << 20), "round too wide for the tag space");
        let tag_base = (self.op_seq + 1) << 20;
        self.op_seq += 1;
        let mut expect = std::mem::take(&mut self.expect_buf);
        expect.clear();
        expect.resize(self.size(), 0);
        // Receivers pre-post.
        for (k, &(_, dst, _)) in ops.iter().enumerate() {
            let tag = tag_base | k as u64;
            self.clocks[dst] = self.eps[dst].trecv(self.clocks[dst], tag, 0, k as u64);
            expect[dst] += 1;
        }
        // Senders post; the composition layer carries the wire message
        // to the destination NIC's matching engine.
        for (k, &(src, dst, len)) in ops.iter().enumerate() {
            let tag = tag_base | k as u64;
            let dst_addr = self.eps[dst].addr;
            let (t, msg) = self.eps[src].tsend(
                self.clocks[src],
                devs.devs[self.node_of[src]],
                devs.fabric,
                dst_addr,
                tag,
                len,
                k as u64,
            );
            self.clocks[src] = t;
            self.io[src].sent_msgs += 1;
            self.io[src].sent_bytes += len;
            expect[src] += 1; // the send completion
            if let Some(msg) = msg {
                self.eps[dst].deliver(devs.devs[self.node_of[dst]], msg);
            }
        }
        // Everyone blocks for this round's completions. Send completions
        // always fire (RDMA drops are silent at the sender); a missing
        // receive completion means the fabric dropped the message.
        for (r, &expected) in expect.iter().enumerate() {
            for done in 0..expected {
                match self.eps[r].cq_wait(self.clocks[r]) {
                    Some((t, c)) => {
                        self.clocks[r] = t;
                        if c.kind == CompKind::Recv {
                            self.io[r].recv_msgs += 1;
                            self.io[r].recv_bytes += c.len;
                        }
                    }
                    None => {
                        self.lost += (expected - done) as u64;
                        break;
                    }
                }
            }
        }
        self.expect_buf = expect;
    }

    /// Dissemination barrier: round *k* has every rank send a zero-byte
    /// message to the rank `2^k` ahead (mod n) and receive from `2^k`
    /// behind; after ⌈log₂ n⌉ rounds every rank has transitively heard
    /// from all others. Cursors are left at each rank's own completion
    /// instant (no artificial synchronization).
    pub fn barrier(&mut self, devs: &mut CommDevices<'_>) {
        let n = self.size();
        let mut ops = std::mem::take(&mut self.ops_buf);
        let mut dist = 1;
        while dist < n {
            ops.clear();
            ops.extend((0..n).map(|i| (i, (i + dist) % n, 0)));
            self.exchange(devs, &ops);
            dist *= 2;
        }
        self.ops_buf = ops;
    }

    /// Binomial-tree broadcast of `size` bytes from `root`: in round
    /// *k* every rank that already holds the payload forwards it to the
    /// rank `2^k` further along (relative to the root), for `n − 1`
    /// messages over ⌈log₂ n⌉ rounds.
    pub fn bcast(&mut self, devs: &mut CommDevices<'_>, root: usize, size: u64) {
        let n = self.size();
        assert!(root < n, "root {root} of {n}");
        let mut ops = std::mem::take(&mut self.ops_buf);
        let mut mask = 1;
        while mask < n {
            ops.clear();
            ops.extend(
                (0..n)
                    .filter(|&vr| vr < mask && vr + mask < n)
                    .map(|vr| ((vr + root) % n, (vr + mask + root) % n, size)),
            );
            self.exchange(devs, &ops);
            mask <<= 1;
        }
        self.ops_buf = ops;
    }

    /// Allreduce of `size` bytes. Small messages on power-of-two rank
    /// counts use recursive doubling (⌈log₂ n⌉ rounds of the full
    /// payload between partners `i ^ 2^k`); everything else uses the
    /// bandwidth-optimal ring — `n − 1` reduce-scatter rounds then
    /// `n − 1` allgather rounds, each rank passing one `≈ size/n` chunk
    /// to its successor, so `2(n−1)/n · size` bytes cross each link.
    pub fn allreduce(&mut self, devs: &mut CommDevices<'_>, size: u64) {
        let n = self.size();
        if n == 1 {
            return;
        }
        let mut ops = std::mem::take(&mut self.ops_buf);
        if size <= Self::RECURSIVE_DOUBLING_MAX && n.is_power_of_two() {
            let mut mask = 1;
            while mask < n {
                ops.clear();
                ops.extend((0..n).map(|i| (i, i ^ mask, size)));
                self.exchange(devs, &ops);
                mask <<= 1;
            }
        } else {
            // The same steps [`ring_allreduce_schedule`] returns —
            // both call `shs_fabric::ring_step_into` — generated one
            // step at a time into the scratch arena instead of
            // materializing the full `2(n−1)`-step schedule.
            for phase in 0..2usize {
                for s in 0..n - 1 {
                    ops.clear();
                    ring_step_into(n, size, phase, s, &mut ops);
                    self.exchange(devs, &ops);
                }
            }
        }
        self.ops_buf = ops;
    }

    /// All-to-all personalized exchange of `size` bytes per peer:
    /// `n − 1` ring shifts, shift *s* sending each rank's block for the
    /// peer `s` ahead and receiving from the peer `s` behind.
    pub fn alltoall(&mut self, devs: &mut CommDevices<'_>, size: u64) {
        let n = self.size();
        let mut ops = std::mem::take(&mut self.ops_buf);
        for s in 1..n {
            ops.clear();
            ops.extend((0..n).map(|i| (i, (i + s) % n, size)));
            self.exchange(devs, &ops);
        }
        self.ops_buf = ops;
    }
}

/// Blocking MPI-style send between two endpoints: post at the sender's
/// cursor, hand the wire message to the destination NIC's matching
/// engine, then block until the sender's local completion (`MPI_Send`
/// returns at local completion). Returns the sender's new cursor. The
/// shared primitive both [`Communicator`] rounds and the two-rank
/// [`crate::pair::RankPair`] wrap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn blocking_send(
    src_ep: &mut OfiEp,
    src_dev: &mut CxiDevice,
    fabric: &mut Fabric,
    t_src: SimTime,
    dst_ep: &mut OfiEp,
    dst_dev: &mut CxiDevice,
    tag: u64,
    len: u64,
) -> SimTime {
    let (mut t, msg) = src_ep.tsend(t_src, src_dev, fabric, dst_ep.addr, tag, len, tag);
    if let Some(msg) = msg {
        dst_ep.deliver(dst_dev, msg);
    }
    if let Some((tc, c)) = src_ep.cq_wait(t) {
        debug_assert_eq!(c.kind, CompKind::Send);
        t = tc;
    }
    t
}

/// Blocking MPI-style receive: post at the cursor, then block for the
/// matching completion. Returns the new cursor and whether data
/// actually arrived (`false` = the fabric dropped it — in tests, a
/// correctly enforced isolation drop).
pub(crate) fn blocking_recv(ep: &mut OfiEp, t: SimTime, tag: u64) -> (SimTime, bool) {
    let t = ep.trecv(t, tag, 0, tag);
    match ep.cq_wait(t) {
        Some((tc, c)) if c.kind == CompKind::Recv => (tc, true),
        _ => (t, false),
    }
}

/// The ring-allreduce schedule — `2(n−1)` steps of `(src rank, dst
/// rank, chunk bytes)` ops — defined once in `shs-fabric` (the lowest
/// crate both of its executors see) and re-exported here under the name
/// MPI users expect. It is the schedule [`Communicator::allreduce`]
/// executes, and the scenario engine's `TrafficPattern::Allreduce`
/// (`slingshot_k8s::scenario`) calls the very same function.
///
/// ```
/// let steps = shs_mpi::ring_allreduce_schedule(4, 1000);
/// assert_eq!(steps.len(), 6, "2(n-1) steps");
/// assert!(steps.iter().all(|ops| ops.len() == 4), "every rank sends each step");
/// // Each step's chunks are a permutation of all n chunks, so each
/// // step carries exactly `size` bytes: 2(n-1)·size in total.
/// let total: u64 = steps.iter().flatten().map(|&(_, _, len)| len).sum();
/// assert_eq!(total, 2 * 3 * 1000);
/// ```
pub use shs_fabric::ring_allreduce_schedule;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::CollectiveRig;
    use shs_fabric::TopologySpec;
    use shs_oslinux::{Gid, Uid};

    fn open_comm(
        rig: &mut CollectiveRig,
        start: SimTime,
    ) -> (Communicator, CommDevices<'_>) {
        rig.open(TrafficClass::Dedicated, start)
    }

    fn single(n: usize, seed: u64) -> CollectiveRig {
        CollectiveRig::single_switch(n, seed)
    }

    #[test]
    fn barrier_makes_every_rank_hear_from_all() {
        let mut rig = single(5, 1);
        let (mut comm, mut devs) = open_comm(&mut rig, SimTime::ZERO);
        // Skew one clock far ahead: after the barrier nobody may still
        // sit at a pre-skew instant.
        comm.clocks[3] = SimTime::from_nanos(2_000_000);
        comm.barrier(&mut devs);
        assert_eq!(comm.lost(), 0);
        for r in 0..5 {
            assert!(
                comm.clock(r) >= SimTime::from_nanos(2_000_000),
                "rank {r} at {:?} never heard (transitively) from rank 3",
                comm.clock(r)
            );
        }
        // Dissemination: 3 rounds of one send + one recv per rank.
        assert!(comm.io().iter().all(|io| io.sent_msgs == 3 && io.recv_msgs == 3));
        comm.close(&mut devs);
    }

    #[test]
    fn bcast_reaches_every_rank_once() {
        let mut rig = single(6, 2);
        let (mut comm, mut devs) = open_comm(&mut rig, SimTime::ZERO);
        comm.bcast(&mut devs, 2, 4096);
        assert_eq!(comm.lost(), 0);
        let total_recv: u64 = comm.io().iter().map(|io| io.recv_msgs).sum();
        assert_eq!(total_recv, 5, "n-1 messages reach the non-roots");
        for (r, io) in comm.io().iter().enumerate() {
            let expected = if r == 2 { 0 } else { 1 };
            assert_eq!(io.recv_msgs, expected, "rank {r}");
            assert_eq!(io.recv_bytes, expected * 4096);
        }
        comm.close(&mut devs);
    }

    #[test]
    fn ring_allreduce_moves_two_size_over_n_per_rank() {
        let n = 6; // not a power of two: always the ring path
        let size = 90_000u64;
        let mut rig = single(n, 3);
        let (mut comm, mut devs) = open_comm(&mut rig, SimTime::ZERO);
        comm.allreduce(&mut devs, size);
        assert_eq!(comm.lost(), 0);
        for io in comm.io() {
            assert_eq!(io.sent_msgs, 2 * (n as u64 - 1));
            assert_eq!(io.recv_msgs, 2 * (n as u64 - 1));
            // Each rank relays every chunk except its own twice-ish:
            // total bytes = 2 * (size - its own chunk share) exactly.
            assert!(io.sent_bytes < 2 * size && io.sent_bytes > size);
            assert_eq!(io.sent_bytes, io.recv_bytes);
        }
        comm.close(&mut devs);
    }

    #[test]
    fn small_power_of_two_allreduce_uses_recursive_doubling() {
        let mut rig = single(8, 4);
        let (mut comm, mut devs) = open_comm(&mut rig, SimTime::ZERO);
        comm.allreduce(&mut devs, 64);
        assert_eq!(comm.lost(), 0);
        for io in comm.io() {
            assert_eq!(io.sent_msgs, 3, "log2(8) full-payload rounds");
            assert_eq!(io.sent_bytes, 3 * 64);
            assert_eq!(io.recv_bytes, 3 * 64);
        }
        comm.close(&mut devs);
    }

    #[test]
    fn alltoall_delivers_full_blocks_between_every_pair() {
        let n = 5;
        let size = 1024u64;
        let mut rig = single(n, 5);
        let (mut comm, mut devs) = open_comm(&mut rig, SimTime::ZERO);
        comm.alltoall(&mut devs, size);
        assert_eq!(comm.lost(), 0);
        for io in comm.io() {
            assert_eq!(io.sent_msgs, n as u64 - 1);
            assert_eq!(io.sent_bytes, (n as u64 - 1) * size);
            assert_eq!(io.recv_bytes, (n as u64 - 1) * size);
        }
        comm.close(&mut devs);
    }

    #[test]
    fn cross_group_collectives_route_over_the_trunk() {
        // 4 ranks round-robined across a 2-group dragonfly: every ring
        // hop alternates groups, so the allreduce crosses the global
        // link and the per-VNI accounting shows multi-switch hops.
        let spec = TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 };
        let mut rig = CollectiveRig::new(4, spec, 6);
        let (mut comm, mut devs) = open_comm(&mut rig, SimTime::ZERO);
        comm.allreduce(&mut devs, 1 << 16);
        assert_eq!(comm.lost(), 0);
        comm.close(&mut devs);
        let t = rig.fabric.traffic(Vni::GLOBAL);
        assert!(t.messages > 0);
        assert_eq!(
            t.switch_hops,
            2 * t.messages,
            "every ring hop crosses exactly one trunk (2 switches)"
        );
        let trunk = rig.fabric.trunk_class_totals();
        assert!(trunk[TrafficClass::Dedicated.index()].messages > 0, "trunk carried the ring");
    }

    #[test]
    fn two_ranks_sharing_a_node_open_on_one_device() {
        // 3 ranks over 2 nodes: ranks 0 and 2 share node 0.
        let mut rig = single(2, 7);
        let extra_pid = rig.hosts[0].spawn_detached("rank2", Uid(1000), Gid(1000));
        let mut devs = CommDevices {
            devs: rig.devices.iter_mut().collect(),
            fabric: &mut rig.fabric,
        };
        let sites = [
            RankSite { host: &rig.hosts[0], pid: rig.pids[0], node: 0 },
            RankSite { host: &rig.hosts[1], pid: rig.pids[1], node: 1 },
            RankSite { host: &rig.hosts[0], pid: extra_pid, node: 0 },
        ];
        let mut comm =
            Communicator::open(&sites, &mut devs, Vni::GLOBAL, TrafficClass::Dedicated, SimTime::ZERO)
                .unwrap();
        assert_eq!(comm.node_of(0), comm.node_of(2));
        comm.barrier(&mut devs);
        assert_eq!(comm.lost(), 0);
        comm.close(&mut devs);
    }

    #[test]
    fn open_failure_rolls_back_every_endpoint() {
        // VNI 77 is not realised on any service: open must fail and
        // leave no endpoints allocated on any NIC.
        let mut rig = single(3, 8);
        let mut devs = CommDevices {
            devs: rig.devices.iter_mut().collect(),
            fabric: &mut rig.fabric,
        };
        let sites: Vec<RankSite<'_>> = rig
            .hosts
            .iter()
            .zip(rig.pids.iter())
            .enumerate()
            .map(|(i, (host, &pid))| RankSite { host, pid, node: i })
            .collect();
        let err = Communicator::open(
            &sites,
            &mut devs,
            Vni(77),
            TrafficClass::Dedicated,
            SimTime::ZERO,
        );
        assert!(err.is_err());
        drop(devs);
        for dev in &rig.devices {
            assert_eq!(dev.nic.endpoints_of(shs_cassini::SvcId(1)), 0, "no leaked endpoints");
        }
    }

    #[test]
    fn unrealised_vni_counts_lost_messages_instead_of_hanging() {
        // Grant a private VNI on the NICs' services but *not* on the
        // switch ports: sends complete locally, nothing is delivered.
        let mut rig = single(3, 9);
        for (host, dev) in rig.hosts.iter().zip(rig.devices.iter_mut()) {
            let root = host.credentials(Pid(1)).unwrap();
            dev.alloc_svc(
                &root,
                shs_cxi::CxiServiceDesc {
                    members: vec![shs_cxi::SvcMember::AllUsers],
                    vnis: vec![Vni(77)],
                    limits: Default::default(),
                    label: "private".into(),
                },
            )
            .unwrap();
        }
        let mut devs = CommDevices {
            devs: rig.devices.iter_mut().collect(),
            fabric: &mut rig.fabric,
        };
        let sites: Vec<RankSite<'_>> = rig
            .hosts
            .iter()
            .zip(rig.pids.iter())
            .enumerate()
            .map(|(i, (host, &pid))| RankSite { host, pid, node: i })
            .collect();
        let mut comm =
            Communicator::open(&sites, &mut devs, Vni(77), TrafficClass::Dedicated, SimTime::ZERO)
                .unwrap();
        comm.barrier(&mut devs);
        assert_eq!(comm.lost(), 6, "2 rounds x 3 ranks, all dropped at the switch");
        assert!(comm.io().iter().all(|io| io.recv_msgs == 0));
        comm.close(&mut devs);
    }

    #[test]
    fn concurrent_worlds_never_interleave_clocks() {
        // The audited invariant behind `reset_clocks` (see the module
        // docs): every clock lives inside its communicator, so worlds
        // running on parallel test threads must reproduce the serial
        // result bit for bit — there is no global state to interleave.
        fn sweep() -> SimTime {
            let mut rig = single(6, 77);
            let (mut comm, mut devs) = open_comm(&mut rig, SimTime::ZERO);
            for _ in 0..5 {
                comm.allreduce(&mut devs, 16_384);
                comm.barrier(&mut devs);
            }
            comm.reset_clocks(SimTime::ZERO);
            comm.allreduce(&mut devs, 16_384);
            let t = comm.max_clock();
            comm.close(&mut devs);
            t
        }
        let serial = sweep();
        let threads: Vec<_> = (0..4).map(|_| std::thread::spawn(sweep)).collect();
        for t in threads {
            assert_eq!(t.join().expect("no panic"), serial);
        }
    }

    #[test]
    fn collectives_are_deterministic_per_seed() {
        let run = |seed| {
            let mut rig = single(7, seed);
            let (mut comm, mut devs) = open_comm(&mut rig, SimTime::ZERO);
            comm.allreduce(&mut devs, 32_768);
            comm.alltoall(&mut devs, 500);
            let t = comm.max_clock();
            comm.close(&mut devs);
            t
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "seed drives NIC jitter");
    }
}
