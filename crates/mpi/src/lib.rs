//! # shs-mpi — MPI-lite and the OSU micro-benchmark clones
//!
//! The measurement layer of the paper's §IV-A: one MPI-style rank world
//! over the libfabric layer — the [`comm::Communicator`], with
//! point-to-point send/receive (blocking and non-blocking) and
//! virtual-time-correct collectives (dissemination barrier, binomial
//! broadcast, ring/recursive-doubling allreduce, pairwise all-to-all)
//! built from the same three primitives — and faithful
//! reimplementations of the OSU Micro-Benchmarks 7.3 suite (`osu`):
//! `osu_latency` (blocking ping-pong, half round trip), `osu_bw` /
//! `osu_bibw` (windowed non-blocking sends + ack) between ranks 0 and
//! 1, and the collective latency benchmarks `osu_allreduce` /
//! `osu_bcast` / `osu_alltoall` over every rank.
//!
//! Ranks carry explicit virtual-time cursors, so a full 1 B..1 MB sweep
//! is an ordinary function call — no event loop on the hot path. See
//! `COLLECTIVES.md` at the repository root for the algorithm choices,
//! the virtual-time accounting model, and expected dragonfly scaling.

pub(crate) mod comm;
pub(crate) mod osu;
pub mod rig;

pub use comm::{ring_allreduce_schedule, CommDevices, Communicator, RankIo, RankSite};
pub use osu::{
    osu_allreduce_once, osu_alltoall_once, osu_bcast_once, osu_bibw_once, osu_bw_once,
    osu_latency_once, osu_sweep, OsuParams, OsuPoint,
};
pub use rig::CollectiveRig;
