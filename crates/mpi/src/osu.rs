//! OSU micro-benchmark clones (§IV-A): `osu_latency`, `osu_bw`, and the
//! collective suite (`osu_allreduce` / `osu_bcast` / `osu_alltoall`).
//!
//! Measurement loops mirror OSU 7.3: latency is a blocking ping-pong
//! averaged over iterations and halved; bandwidth posts a window of
//! non-blocking sends per iteration, waits for all local completions and
//! a zero-byte ack, and reports MB/s (MB = 1e6 bytes). Collective
//! latency is the virtual time from a synchronized start to the instant
//! the **slowest** rank completes, averaged over iterations — the OSU
//! convention of reporting the max across ranks. The paper sweeps
//! packet sizes 1 B .. 1 MB.

use crate::comm::{CommDevices, Communicator};

/// The size sweep used in Figs. 5-8 (1 B to 1 MiB in powers of two).
pub fn paper_sizes() -> Vec<u64> {
    (0..=20).map(|i| 1u64 << i).collect()
}

/// OSU benchmark parameters.
#[derive(Debug, Clone)]
pub struct OsuParams {
    /// Message sizes to sweep.
    pub sizes: Vec<u64>,
    /// Measured iterations per size.
    pub iterations: u32,
    /// Warmup iterations per size (excluded from timing).
    pub warmup: u32,
    /// In-flight messages per iteration of `osu_bw` (OSU default: 64).
    pub window: u32,
}

impl Default for OsuParams {
    fn default() -> Self {
        OsuParams { sizes: paper_sizes(), iterations: 200, warmup: 20, window: 64 }
    }
}

impl OsuParams {
    /// The paper's full-scale configuration: 10 k iterations for
    /// bandwidth, 20 k for latency (§IV-A). Expensive; the harness
    /// defaults to a scaled-down but shape-identical configuration.
    pub fn paper_scale_bw() -> Self {
        OsuParams { iterations: 10_000, warmup: 100, ..Default::default() }
    }

    /// Paper-scale latency configuration.
    pub fn paper_scale_latency() -> Self {
        OsuParams { iterations: 20_000, warmup: 100, ..Default::default() }
    }
}

/// One (size, value) measurement row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsuPoint {
    /// Message size in bytes.
    pub size: u64,
    /// Metric value: µs for latency, MB/s for bandwidth.
    pub value: f64,
}

/// Run one benchmark over the whole size sweep: `once(size)` is the
/// `osu_*_once` call measuring one message size.
pub fn osu_sweep(params: &OsuParams, mut once: impl FnMut(u64) -> f64) -> Vec<OsuPoint> {
    params.sizes.iter().map(|&size| OsuPoint { size, value: once(size) }).collect()
}

/// Zero-byte ping + pong between ranks 0 and 1, then synchronized
/// cursors: the barrier the point-to-point benchmarks time from.
fn ping_pong_barrier(comm: &mut Communicator, devs: &mut CommDevices<'_>, tag: u64) {
    comm.send(devs, 0, 1, tag, 0);
    comm.recv(1, tag);
    comm.send(devs, 1, 0, tag + 1, 0);
    comm.recv(0, tag + 1);
    comm.sync_clocks();
}

/// `osu_latency`: average one-way latency (µs) between ranks 0 and 1
/// for one message size.
pub fn osu_latency_once(
    comm: &mut Communicator,
    devs: &mut CommDevices<'_>,
    size: u64,
    iterations: u32,
    warmup: u32,
) -> f64 {
    let mut measured_rtt_ns: u128 = 0;
    for it in 0..(warmup + iterations) {
        let tag = 0x10_0000 + it as u64;
        let start = comm.clock(0);
        comm.send(devs, 0, 1, tag, size);
        comm.recv(1, tag);
        comm.send(devs, 1, 0, tag, size);
        comm.recv(0, tag);
        if it >= warmup {
            measured_rtt_ns += (comm.clock(0) - start).as_nanos() as u128;
        }
    }
    // One-way latency in µs: RTT / 2, averaged.
    measured_rtt_ns as f64 / iterations as f64 / 2.0 / 1000.0
}

/// `osu_bw`: bandwidth (MB/s, MB = 1e6) from rank 0 to rank 1 for one
/// message size.
pub fn osu_bw_once(
    comm: &mut Communicator,
    devs: &mut CommDevices<'_>,
    size: u64,
    iterations: u32,
    warmup: u32,
    window: u32,
) -> f64 {
    let window = window as u64;
    let mut start = comm.clock(0);
    for it in 0..(warmup + iterations) {
        if it == warmup {
            ping_pong_barrier(comm, devs, 0xB000_0000 + it as u64);
            start = comm.clock(0);
        }
        let base_tag = 0x20_0000 + (it as u64) * (window + 1);
        // Receiver pre-posts the window.
        for w in 0..window {
            comm.irecv(1, base_tag + w);
        }
        // Sender posts the window of non-blocking sends.
        for w in 0..window {
            comm.isend(devs, 0, 1, base_tag + w, size);
        }
        // Sender waits for all local completions (MPI_Waitall on isends),
        // then the receiver drains its window (MPI_Waitall on irecvs).
        for _ in 0..window {
            comm.wait(0);
        }
        for _ in 0..window {
            comm.wait(1);
        }
        // Receiver acks the window with a zero-byte message: rank 1
        // drains its send completion, rank 0 waits for the ack.
        let ack_tag = base_tag + window;
        comm.irecv(0, ack_tag);
        comm.isend(devs, 1, 0, ack_tag, 0);
        comm.wait(1);
        comm.wait(0);
    }
    let elapsed_ns = (comm.clock(0) - start).as_nanos();
    let bytes = size as u128 * window as u128 * iterations as u128;
    bytes as f64 / (elapsed_ns as f64 / 1e9) / 1e6
}

/// `osu_bibw`: bidirectional bandwidth (MB/s) for one message size —
/// ranks 0 and 1 stream a window to each other concurrently, so the
/// figure approaches twice the unidirectional rate on a full-duplex
/// link.
pub fn osu_bibw_once(
    comm: &mut Communicator,
    devs: &mut CommDevices<'_>,
    size: u64,
    iterations: u32,
    warmup: u32,
    window: u32,
) -> f64 {
    let window = window as u64;
    let mut start = comm.clock(0);
    for it in 0..(warmup + iterations) {
        if it == warmup {
            ping_pong_barrier(comm, devs, 0xD000_0000 + it as u64);
            start = comm.clock(0);
        }
        let base = 0x40_0000 + (it as u64) * (2 * window + 2);
        // Both sides pre-post their receive windows.
        for w in 0..window {
            comm.irecv(1, base + w);
            comm.irecv(0, base + window + w);
        }
        // Both sides post their send windows (full duplex).
        for w in 0..window {
            comm.isend(devs, 0, 1, base + w, size);
            comm.isend(devs, 1, 0, base + window + w, size);
        }
        // Drain all completions on both sides (sends + recvs).
        for _ in 0..(2 * window) {
            comm.wait(0);
            comm.wait(1);
        }
        // Synchronize for the next iteration.
        comm.sync_clocks();
    }
    let elapsed_ns = (comm.clock(0) - start).as_nanos();
    let bytes = 2 * size as u128 * window as u128 * iterations as u128;
    bytes as f64 / (elapsed_ns as f64 / 1e9) / 1e6
}

/// One timed collective phase: warm up untimed, synchronize the rank
/// cursors, then time `iterations` back-to-back operations and return
/// the mean per-operation latency in µs (max across ranks, as OSU's
/// collective benchmarks report).
fn osu_collective_once(
    comm: &mut Communicator,
    devs: &mut CommDevices<'_>,
    iterations: u32,
    warmup: u32,
    mut op: impl FnMut(&mut Communicator, &mut CommDevices<'_>),
) -> f64 {
    for _ in 0..warmup {
        op(comm, devs);
    }
    comm.sync_clocks();
    let start = comm.max_clock();
    for _ in 0..iterations {
        op(comm, devs);
    }
    (comm.max_clock() - start).as_nanos() as f64 / iterations as f64 / 1000.0
}

/// `osu_allreduce`: mean allreduce latency (µs) for one message size.
pub fn osu_allreduce_once(
    comm: &mut Communicator,
    devs: &mut CommDevices<'_>,
    size: u64,
    iterations: u32,
    warmup: u32,
) -> f64 {
    osu_collective_once(comm, devs, iterations, warmup, |c, d| c.allreduce(d, size))
}

/// `osu_bcast`: mean broadcast-from-rank-0 latency (µs) for one size.
pub fn osu_bcast_once(
    comm: &mut Communicator,
    devs: &mut CommDevices<'_>,
    size: u64,
    iterations: u32,
    warmup: u32,
) -> f64 {
    osu_collective_once(comm, devs, iterations, warmup, |c, d| c.bcast(d, 0, size))
}

/// `osu_alltoall`: mean all-to-all latency (µs) for one per-peer size.
pub fn osu_alltoall_once(
    comm: &mut Communicator,
    devs: &mut CommDevices<'_>,
    size: u64,
    iterations: u32,
    warmup: u32,
) -> f64 {
    osu_collective_once(comm, devs, iterations, warmup, |c, d| c.alltoall(d, size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::CollectiveRig;
    use shs_des::SimTime;
    use shs_fabric::TrafficClass;

    fn rig(seed: u64) -> CollectiveRig {
        CollectiveRig::single_switch(2, seed)
    }

    fn open(rig: &mut CollectiveRig) -> (Communicator, CommDevices<'_>) {
        rig.open(TrafficClass::Dedicated, SimTime::ZERO)
    }

    #[test]
    fn ping_pong_barrier_synchronizes_clocks() {
        let mut r = rig(2);
        let (mut comm, mut devs) = open(&mut r);
        // Skew the clocks: a 5 MB message completes locally at rank 0
        // well before it has fully arrived at rank 1.
        comm.send(&mut devs, 0, 1, 1, 5_000_000);
        comm.recv(1, 1);
        assert_ne!(comm.clock(0), comm.clock(1));
        ping_pong_barrier(&mut comm, &mut devs, 100);
        assert_eq!(comm.clock(0), comm.clock(1));
        comm.close(&mut devs);
    }

    #[test]
    fn small_message_latency_is_about_two_microseconds() {
        let mut r = rig(10);
        let (mut comm, mut devs) = open(&mut r);
        let lat = osu_latency_once(&mut comm, &mut devs, 8, 200, 20);
        assert!(lat > 0.8 && lat < 4.0, "8B one-way latency {lat}us");
    }

    #[test]
    fn latency_grows_with_size() {
        let mut r = rig(11);
        let (mut comm, mut devs) = open(&mut r);
        let small = osu_latency_once(&mut comm, &mut devs, 8, 100, 10);
        let large = osu_latency_once(&mut comm, &mut devs, 1 << 20, 20, 2);
        assert!(large > 10.0 * small, "1MB {large}us vs 8B {small}us");
        // 1 MiB one-way ≈ size/goodput + overheads ≈ 43-60 µs.
        assert!(large > 30.0 && large < 90.0, "1MB latency {large}us");
    }

    #[test]
    fn peak_bandwidth_approaches_line_rate() {
        let mut r = rig(12);
        let (mut comm, mut devs) = open(&mut r);
        let bw = osu_bw_once(&mut comm, &mut devs, 1 << 20, 20, 2, 64);
        // Paper Fig. 5 plateau: ~24 GB/s on a 200 Gb/s link.
        assert!(bw > 20_000.0 && bw < 25_000.0, "1MB bandwidth {bw} MB/s");
    }

    #[test]
    fn small_message_bandwidth_is_rate_limited() {
        let mut r = rig(13);
        let (mut comm, mut devs) = open(&mut r);
        let bw = osu_bw_once(&mut comm, &mut devs, 1, 100, 10, 64);
        // ~3 M msg/s × 1 B ≈ single-digit MB/s (Fig. 5 left edge).
        assert!(bw > 0.5 && bw < 10.0, "1B bandwidth {bw} MB/s");
    }

    #[test]
    fn bandwidth_is_monotone_in_size() {
        let mut r = rig(14);
        let (mut comm, mut devs) = open(&mut r);
        let params = OsuParams {
            sizes: vec![1, 64, 4096, 1 << 18],
            iterations: 30,
            warmup: 3,
            window: 32,
        };
        let points = osu_sweep(&params, |size| {
            osu_bw_once(&mut comm, &mut devs, size, params.iterations, params.warmup, params.window)
        });
        for w in points.windows(2) {
            assert!(
                w[1].value > w[0].value,
                "bw must grow: {} MB/s @{}B then {} MB/s @{}B",
                w[0].value,
                w[0].size,
                w[1].value,
                w[1].size
            );
        }
    }

    #[test]
    fn bidirectional_bandwidth_exceeds_unidirectional() {
        let mut r = rig(15);
        let (mut comm, mut devs) = open(&mut r);
        let uni = osu_bw_once(&mut comm, &mut devs, 1 << 20, 15, 2, 32);
        let bi = osu_bibw_once(&mut comm, &mut devs, 1 << 20, 15, 2, 32);
        // Full-duplex links: bibw approaches 2x; at minimum it clearly
        // exceeds the unidirectional figure.
        assert!(bi > 1.5 * uni, "bibw {bi} vs bw {uni}");
        assert!(bi < 2.2 * uni, "bibw cannot exceed 2x line rate: {bi} vs {uni}");
    }

    #[test]
    fn sweeps_are_deterministic_per_seed() {
        let run = |seed| {
            let mut r = rig(seed);
            let (mut comm, mut devs) = open(&mut r);
            osu_latency_once(&mut comm, &mut devs, 1024, 50, 5)
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seeds, different jitter");
    }
}
