//! Figs. 5-8 identity oracle.
//!
//! Golden fixtures: `format!("{:?}")` of whole [`run_comm`] runs (host,
//! `vni:false`, `vni:true`), captured on the commit *before* the
//! two-rank pair world was folded into `Communicator`. Byte equality
//! here means every simulated latency and bandwidth sample — hence the
//! order of every post, send, delivery and completion on the OSU
//! point-to-point path, and of `new_run()` against endpoint bring-up —
//! survived the rewrite.

use shs_harness::{run_comm, CommConfig, Metric};
use shs_mpi::OsuParams;

fn golden(metric: Metric, seed: u64, fixture: &str) {
    let cfg = CommConfig {
        osu: OsuParams { sizes: vec![8, 4096, 1 << 20], iterations: 20, warmup: 2, window: 16 },
        runs: 3,
        seed,
    };
    let run = run_comm(metric, &cfg);
    assert_eq!(format!("{run:?}\n"), fixture, "run_comm diverged from the pre-change capture");
}

#[test]
fn latency_runs_are_byte_identical_to_the_pre_change_capture() {
    golden(Metric::Latency, 7, include_str!("fixtures/comm_latency_seed7.txt"));
    golden(Metric::Latency, 42, include_str!("fixtures/comm_latency_seed42.txt"));
}

#[test]
fn bandwidth_runs_are_byte_identical_to_the_pre_change_capture() {
    golden(Metric::Bandwidth, 7, include_str!("fixtures/comm_bandwidth_seed7.txt"));
    golden(Metric::Bandwidth, 42, include_str!("fixtures/comm_bandwidth_seed42.txt"));
}
