//! # shs-harness — evaluation harness for the paper's tables and figures
//!
//! One module per experiment family:
//! * [`table1`] — the software inventory (Table I);
//! * `comm` — the communication-overhead experiments (Figs. 5-8):
//!   `osu_bw`/`osu_latency` on host vs `vni:false` vs `vni:true`;
//! * [`admission`] — the job-admission experiments (Figs. 9-12): ramp
//!   and spike tests with and without the integration;
//! * [`report`] — rendering into console tables, ASCII plots and CSVs;
//! * `output` — sinks and plotting primitives;
//! * `runmeta` — the run-level metrics block `scenario-run` appends
//!   after its byte-deterministic reports section;
//! * [`gate`] — the perf regression gate `bench-run --gate` applies
//!   against a committed baseline in CI's bench-smoke job.
//!
//! The `repro` binary exposes each figure as a subcommand and prints the
//! paper's figure beside the measured one.

pub mod admission;
pub(crate) mod collective;
pub(crate) mod comm;
pub mod gate;
pub(crate) mod output;
mod par;
pub mod report;
pub(crate) mod runmeta;
pub mod table1;

pub use admission::{
    median_overhead_pct, ramp_batches, run_admission, run_pattern, AdmissionRun,
    AdmissionSeries, JobRecord, JobTracker, Pattern,
};
pub use collective::{job_communicator, pod_communicator, CollectiveRig, OsuAllreduceWorkload};
pub use gate::{evaluate as evaluate_gate, GateCheck, GateReport, MAX_REGRESSION_PCT};
pub use comm::{run_comm, CommConfig, CommResult, Metric, ModeSamples};
pub use output::{OutputSink, Series};
pub use runmeta::{scenario_run_document, HostInfo, RunMetrics};
