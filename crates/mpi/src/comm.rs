//! The rank world: an N-rank communicator with MPI point-to-point and
//! virtual-time-correct collectives over the real per-node OFI/CXI
//! device stack.
//!
//! [`Communicator`] is the only way ranks reach the fabric — the OSU
//! two-rank benchmarks drive ranks 0 and 1 of one, collectives drive
//! all of them. Every rank owns a tagged OFI endpoint (opened through
//! the full authenticated CXI path) and an explicit virtual-time
//! cursor, and everything is built from three non-blocking primitives:
//!
//! * [`Communicator::irecv`] — post a tagged receive at the rank's
//!   cursor (`MPI_Irecv`);
//! * [`Communicator::isend`] — post a tagged send at the sender's
//!   cursor and hand the wire message to the destination rank's
//!   matching engine (`MPI_Isend`);
//! * [`Communicator::wait`] — block a rank for its next completion,
//!   advancing its cursor to the completion instant (`fi_cq_sread`).
//!
//! Blocking [`Communicator::send`] / [`Communicator::recv`] are a post
//! plus one `wait`; an `osu_bw` window is `window` posts then `window`
//! waits; and a collective round posts every receive, then every send,
//! then waits each rank out. So **every hop** of every benchmark flows
//! through fabric routing, per-traffic-class trunk scheduling, and
//! per-VNI traffic accounting:
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
//! ## Tag spaces
//!
//! Point-to-point callers own the tags below
//! [`Communicator::COLLECTIVE_TAGS`]; collective rounds draw theirs at
//! or above it. The two never match each other, so a receive left
//! posted by a dropped point-to-point message cannot swallow a later
//! collective's message on the same endpoint.
//!
//! ## Virtual-time accounting
//!
//! All clock state is **value-local**: a communicator owns its per-rank
//! cursors — there are no statics, thread-locals, or other
//! process-global clocks anywhere in this crate, so `cargo test` may
//! run any number of worlds concurrently without interleaving timelines
//! (resetting one with [`Communicator::reset_clocks`] touches no
//! other). Within one collective round every rank posts its receive,
//! then posts its send at its own cursor, then blocks for all its
//! completions. A message the fabric drops (VNI enforcement or trunk
//! congestion) never completes at the receiver — RDMA semantics —
//! and is counted in [`Communicator::lost`] (collectives) or reported
//! by [`Communicator::recv`] returning `false` instead of hanging.
//!
//! ```
//! use shs_des::SimTime;
//! use shs_fabric::TrafficClass;
//! use shs_mpi::CollectiveRig;
//!
//! // Four single-rank nodes on one switch.
//! let mut rig = CollectiveRig::single_switch(4, 7);
//! let (mut comm, mut devs) = rig.open(TrafficClass::Dedicated, SimTime::ZERO);
//! // Point-to-point: a blocking ping from rank 0 to rank 3.
//! comm.send(&mut devs, 0, 3, 1, 4096);
//! assert!(comm.recv(3, 1), "uncontended fabric delivers");
//! assert!(comm.clock(3) > comm.clock(1), "only the two ranks involved moved");
//! // Collectives share the endpoints (and a disjoint tag space).
//! comm.allreduce(&mut devs, 4096);
//! assert_eq!(comm.lost(), 0);
//! // Ring allreduce: every rank sent and received 2(n-1) = 6 chunks.
//! assert!(comm.io().iter().all(|io| io.recv_msgs >= 6));
//! // The OSU benchmarks reuse the same communicator.
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
    /// never affects any other communicator.
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

    /// First tag of the collective tag space: point-to-point callers
    /// use tags below it, collective rounds at or above it (see the
    /// [module docs](self#tag-spaces)).
    pub const COLLECTIVE_TAGS: u64 = 1 << 63;

    // The five point-to-point calls are `#[inline]`: the OSU loops call
    // them per message from another module (another codegen unit), and
    // without it the in-process `osu_bw` floor reads ≈ 3 % slower
    // (105-107 → 108-110 ns per message at every window; re-measured
    // when the OFI calls beneath them became `#[inline]` too).

    /// `MPI_Irecv`: post a tagged receive on `rank` at its cursor.
    #[inline]
    pub fn irecv(&mut self, rank: usize, tag: u64) {
        self.clocks[rank] = self.eps[rank].trecv(self.clocks[rank], tag, 0, tag);
    }

    /// `MPI_Isend`: post `len` bytes from `src` to `dst` at the sender's
    /// cursor; the composition layer carries the wire message to the
    /// destination NIC's matching engine. The send completion always
    /// fires (RDMA drops are silent at the sender).
    #[inline]
    pub fn isend(
        &mut self,
        devs: &mut CommDevices<'_>,
        src: usize,
        dst: usize,
        tag: u64,
        len: u64,
    ) {
        let dst_addr = self.eps[dst].addr;
        let (t, msg) = self.eps[src].tsend(
            self.clocks[src],
            devs.devs[self.node_of[src]],
            devs.fabric,
            dst_addr,
            tag,
            len,
            tag,
        );
        self.clocks[src] = t;
        self.io[src].sent_msgs += 1;
        self.io[src].sent_bytes += len;
        if let Some(msg) = msg {
            self.eps[dst].deliver(devs.devs[self.node_of[dst]], msg);
        }
    }

    /// Block `rank` until its next completion (`fi_cq_sread`),
    /// advancing its cursor to the completion instant. `None` (cursor
    /// untouched) when nothing is outstanding or ever will complete —
    /// a receive whose message the fabric dropped.
    #[inline]
    pub fn wait(&mut self, rank: usize) -> Option<CompKind> {
        let (t, c) = self.eps[rank].cq_wait(self.clocks[rank])?;
        self.clocks[rank] = t;
        if c.kind == CompKind::Recv {
            self.io[rank].recv_msgs += 1;
            self.io[rank].recv_bytes += c.len;
        }
        Some(c.kind)
    }

    /// Blocking `MPI_Send`: post, then block until the sender's local
    /// completion (delivery is the receiver's business).
    #[inline]
    pub fn send(
        &mut self,
        devs: &mut CommDevices<'_>,
        src: usize,
        dst: usize,
        tag: u64,
        len: u64,
    ) {
        self.isend(devs, src, dst, tag, len);
        self.wait(src);
    }

    /// Blocking `MPI_Recv`: post, then block for the matching
    /// completion. `false` = nothing arrived: the fabric dropped the
    /// message (in tests, a correctly enforced isolation drop), and the
    /// receive stays posted.
    #[inline]
    pub fn recv(&mut self, rank: usize, tag: u64) -> bool {
        self.irecv(rank, tag);
        self.wait(rank) == Some(CompKind::Recv)
    }

    /// One round of point-to-point exchanges, executed with MPI
    /// semantics per rank: receives posted first, sends posted at each
    /// sender's cursor, then every rank blocks until all its
    /// completions for this round are visible.
    fn exchange(&mut self, devs: &mut CommDevices<'_>, ops: &[P2pOp]) {
        debug_assert!(ops.len() < (1 << 20), "round too wide for the tag space");
        self.op_seq += 1;
        let tag_base = Self::COLLECTIVE_TAGS | (self.op_seq << 20);
        let mut expect = std::mem::take(&mut self.expect_buf);
        expect.clear();
        expect.resize(self.size(), 0);
        for (k, &(_, dst, _)) in ops.iter().enumerate() {
            self.irecv(dst, tag_base | k as u64);
            expect[dst] += 1;
        }
        for (k, &(src, dst, len)) in ops.iter().enumerate() {
            self.isend(devs, src, dst, tag_base | k as u64, len);
            expect[src] += 1; // the send completion
        }
        // A missing completion is a receive whose message the fabric
        // dropped (send completions always fire).
        for (r, &expected) in expect.iter().enumerate() {
            for done in 0..expected {
                if self.wait(r).is_none() {
                    self.lost += (expected - done) as u64;
                    break;
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

    /// A service carrying the private VNI 77 on each of `nodes` — on the
    /// NIC only: the switch ports are *not* granted, so the fabric drops
    /// everything sent on it.
    fn private_svc(rig: &mut CollectiveRig, nodes: &[usize]) -> Vec<shs_cassini::SvcId> {
        let alloc = |&i: &usize| {
            let root = rig.hosts[i].credentials(Pid(1)).unwrap();
            let desc = shs_cxi::CxiServiceDesc {
                members: vec![shs_cxi::SvcMember::AllUsers],
                vnis: vec![Vni(77)],
                limits: Default::default(),
                label: "private".into(),
            };
            rig.devices[i].alloc_svc(&root, desc).unwrap()
        };
        nodes.iter().map(alloc).collect()
    }

    #[test]
    fn open_failure_rolls_back_every_endpoint() {
        // VNI 77 is not realised on any service: open must fail and
        // leave no endpoints allocated on any NIC.
        let mut rig = single(3, 8);
        assert!(rig.open_on(Vni(77), TrafficClass::Dedicated, SimTime::ZERO).is_err());
        for dev in &rig.devices {
            assert_eq!(dev.nic.endpoints_of(shs_cassini::SvcId(1)), 0, "no leaked endpoints");
        }
    }

    #[test]
    fn open_failure_rolls_back_the_admitted_prefix() {
        // Rank 0's node carries the private VNI, rank 1's does not:
        // rank 0 is admitted, rank 1 refused — and rank 0's endpoint
        // must be closed again.
        let mut rig = single(2, 8);
        let svc = private_svc(&mut rig, &[0])[0];
        assert!(rig.open_on(Vni(77), TrafficClass::Dedicated, SimTime::ZERO).is_err());
        assert_eq!(rig.devices[0].nic.endpoints_of(svc), 0, "rank 0's endpoint leaked");
    }

    #[test]
    fn unrealised_vni_counts_lost_messages_instead_of_hanging() {
        let mut rig = single(3, 9);
        private_svc(&mut rig, &[0, 1, 2]);
        let (mut comm, mut devs) =
            rig.open_on(Vni(77), TrafficClass::Dedicated, SimTime::ZERO).unwrap();
        comm.barrier(&mut devs);
        assert_eq!(comm.lost(), 6, "2 rounds x 3 ranks, all dropped at the switch");
        assert!(comm.io().iter().all(|io| io.recv_msgs == 0));
        comm.close(&mut devs);
    }

    #[test]
    fn p2p_ping_pong_advances_both_clocks() {
        let mut rig = single(2, 1);
        let (mut comm, mut devs) = open_comm(&mut rig, SimTime::ZERO);
        comm.send(&mut devs, 0, 1, 1, 8);
        assert!(comm.recv(1, 1));
        comm.send(&mut devs, 1, 0, 2, 8);
        assert!(comm.recv(0, 2));
        assert!(comm.clock(0) > SimTime::ZERO);
        assert!(comm.clock(1) > SimTime::ZERO);
        let one = RankIo { sent_msgs: 1, sent_bytes: 8, recv_msgs: 1, recv_bytes: 8 };
        assert_eq!(comm.io(), [one, one], "p2p feeds the same per-rank totals");
        comm.close(&mut devs);
    }

    #[test]
    fn p2p_isolation_drop_surfaces_as_failed_recv() {
        let mut rig = single(2, 3);
        private_svc(&mut rig, &[0, 1]);
        let (mut comm, mut devs) =
            rig.open_on(Vni(77), TrafficClass::Dedicated, SimTime::ZERO).unwrap();
        comm.send(&mut devs, 0, 1, 1, 8); // switch drops it silently
        assert!(!comm.recv(1, 1), "no data may cross a non-realised VNI");
        comm.close(&mut devs);
    }

    #[test]
    fn allreduce_after_a_dropped_p2p_message_loses_nothing() {
        // The enforced drop leaves rank 1's receive posted, under the
        // very tag the first collective round's first message would
        // carry without the collective tag bit: that message must match
        // the round's own receive, not the stale one.
        let mut rig = single(2, 4);
        private_svc(&mut rig, &[0, 1]);
        let (mut comm, mut devs) =
            rig.open_on(Vni(77), TrafficClass::Dedicated, SimTime::ZERO).unwrap();
        comm.send(&mut devs, 0, 1, 1 << 20, 8);
        assert!(!comm.recv(1, 1 << 20), "dropped at the switch");
        // The fabric manager realises the VNI; collectives now deliver.
        for nic in 1..=2 {
            devs.fabric.grant_vni(shs_fabric::NicAddr(nic), Vni(77)).unwrap();
        }
        comm.allreduce(&mut devs, 64);
        assert_eq!(comm.lost(), 0);
        assert!(comm.io().iter().all(|io| io.recv_msgs == 1 && io.recv_bytes == 64));
        // The collective left the point-to-point receive alone: it is
        // still posted, and the retried send is what completes it.
        assert_eq!(comm.eps[1].posted_depth(), 1);
        comm.isend(&mut devs, 0, 1, 1 << 20, 8);
        assert_eq!(comm.wait(1), Some(CompKind::Recv));
        assert_eq!(comm.eps[1].posted_depth(), 0);
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
