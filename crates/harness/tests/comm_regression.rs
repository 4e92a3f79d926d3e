//! Figs. 5-8 identity oracle.
//!
//! Golden fixtures: `format!("{:?}")` of whole [`run_comm`] runs (host,
//! `vni:false`, `vni:true`), captured on the commit *before* the
//! two-rank pair world was folded into `Communicator`. Byte equality
//! here means every simulated latency and bandwidth sample — hence the
//! order of every post, send, delivery and completion on the OSU
//! point-to-point path, and of `new_run()` against endpoint bring-up —
//! survived the rewrite.
//!
//! Three more captures pin what those four leave open, rendered by the
//! commit *before* the completion queue was kept in visibility order:
//! the benchmark's own window (64), a queue that interleaves send and
//! receive completions (`osu_bibw`), and an 8-rank collective sequence
//! across two dragonfly groups.

use std::fmt::Write as _;

use shs_des::SimTime;
use shs_fabric::{TopologySpec, TrafficClass};
use shs_harness::{run_comm, CollectiveRig, CommConfig, Metric};
use shs_mpi::{osu_bibw_once, OsuParams};

fn golden(metric: Metric, cfg: &CommConfig, fixture: &str) {
    let run = run_comm(metric, cfg);
    assert_eq!(format!("{run:?}\n"), fixture, "run_comm diverged from the pre-change capture");
}

/// Three sizes at window 16 (the first four captures).
fn tiny(seed: u64) -> CommConfig {
    CommConfig {
        osu: OsuParams { sizes: vec![8, 4096, 1 << 20], iterations: 20, warmup: 2, window: 16 },
        runs: 3,
        seed,
    }
}

#[test]
fn latency_runs_are_byte_identical_to_the_pre_change_capture() {
    golden(Metric::Latency, &tiny(7), include_str!("fixtures/comm_latency_seed7.txt"));
    golden(Metric::Latency, &tiny(42), include_str!("fixtures/comm_latency_seed42.txt"));
}

#[test]
fn bandwidth_runs_are_byte_identical_to_the_pre_change_capture() {
    golden(Metric::Bandwidth, &tiny(7), include_str!("fixtures/comm_bandwidth_seed7.txt"));
    golden(Metric::Bandwidth, &tiny(42), include_str!("fixtures/comm_bandwidth_seed42.txt"));
}

#[test]
fn the_benchmark_window_is_byte_identical_to_the_pre_change_capture() {
    let cfg = CommConfig {
        osu: OsuParams {
            sizes: vec![1, 8, 4096, 65536, 1 << 20],
            iterations: 10,
            warmup: 2,
            window: 64,
        },
        runs: 2,
        seed: 42,
    };
    golden(Metric::Bandwidth, &cfg, include_str!("fixtures/comm_bandwidth_w64_seed42.txt"));
}

/// `osu_bibw` on the two-rank single-switch rig: both ranks stream at
/// once, so each completion queue receives `src_done` and
/// `delivered_at` completions out of visibility order. One line per
/// size, the result as raw `f64::to_bits`.
fn render_bibw() -> String {
    let mut rig = CollectiveRig::single_switch(2, 42);
    let (mut comm, mut devs) = rig.open(TrafficClass::Dedicated, SimTime::ZERO);
    let mut out = String::new();
    for size in [8u64, 65536, 1 << 20] {
        let mbps = osu_bibw_once(&mut comm, &mut devs, size, 10, 2, 32);
        writeln!(out, "{size} {:#018x}", mbps.to_bits()).unwrap();
    }
    comm.close(&mut devs);
    out
}

#[test]
fn bidirectional_bandwidth_is_bit_identical_to_the_pre_change_capture() {
    assert_eq!(render_bibw(), include_str!("fixtures/comm_bibw_w32_seed42.txt"));
}

/// Five collectives in sequence on 8 ranks over two dragonfly groups:
/// after each, every rank's clock; at the end, the `io()` table and
/// `lost()`.
fn render_collectives() -> String {
    let spec = TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 };
    let mut rig = CollectiveRig::new(8, spec, 42);
    let (mut comm, mut devs) = rig.open(TrafficClass::Dedicated, SimTime::ZERO);
    let mut out = String::new();
    let mut clocks = |name: &str, comm: &shs_mpi::Communicator| {
        let clocks: Vec<u64> = (0..comm.size()).map(|r| comm.clock(r).as_nanos()).collect();
        writeln!(out, "{name} {clocks:?}").unwrap();
    };
    comm.barrier(&mut devs);
    clocks("barrier", &comm);
    comm.bcast(&mut devs, 3, 4096);
    clocks("bcast(3, 4096)", &comm);
    comm.allreduce(&mut devs, 64);
    clocks("allreduce(64)", &comm);
    comm.allreduce(&mut devs, 1 << 16);
    clocks("allreduce(65536)", &comm);
    comm.alltoall(&mut devs, 512);
    clocks("alltoall(512)", &comm);
    writeln!(out, "io {:?}", comm.io()).unwrap();
    writeln!(out, "lost {}", comm.lost()).unwrap();
    comm.close(&mut devs);
    out
}

#[test]
fn collective_sequence_is_byte_identical_to_the_pre_change_capture() {
    assert_eq!(render_collectives(), include_str!("fixtures/comm_collectives_8rank_seed42.txt"));
}
