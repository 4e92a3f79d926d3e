//! Communication-overhead experiments (paper §IV-A, Figs. 5-8).
//!
//! Three configurations, exactly as in the paper:
//! * `host` — OSU on bare metal, no Kubernetes involved;
//! * `vni:false` — OSU inside pods, Slingshot via the globally
//!   accessible VNI (integration disabled);
//! * `vni:true` — OSU inside pods with the full integration: VNI
//!   Service allocation + netns-member CXI service.
//!
//! Authentication happens only at endpoint creation, so the measured
//! data path is identical in all three; observed differences are pure
//! run-to-run jitter — which is the paper's claim.

use shs_des::stats;
use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::{TopologySpec, TrafficClass, Vni};
use shs_mpi::{osu_bw_once, osu_latency_once, osu_sweep, CommDevices, Communicator, OsuParams};
use slingshot_k8s::{osu_image, Cluster, ClusterConfig};

use crate::collective::{job_communicator, CollectiveRig};
use crate::par;

/// Which metric to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// `osu_bw` throughput, MB/s.
    Bandwidth,
    /// `osu_latency` one-way latency, µs.
    Latency,
}

/// One configuration's samples: `values[run][size_index]`.
#[derive(Debug, Clone)]
pub struct ModeSamples {
    /// Display name (`host`, `vni:false`, `vni:true`).
    pub name: &'static str,
    /// Per-run sweeps.
    pub values: Vec<Vec<f64>>,
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct CommResult {
    /// The size sweep.
    pub sizes: Vec<u64>,
    /// Metric measured.
    pub metric: Metric,
    /// host / vni:false / vni:true samples.
    pub modes: Vec<ModeSamples>,
}

impl CommResult {
    /// Mean over runs for a mode, per size.
    pub fn mean_of(&self, name: &str) -> Vec<f64> {
        let m = self.modes.iter().find(|m| m.name == name).expect("mode exists");
        (0..self.sizes.len())
            .map(|i| stats::mean(&m.values.iter().map(|run| run[i]).collect::<Vec<_>>()))
            .collect()
    }

    /// Overhead (%) of a mode against the host-mean baseline, per size:
    /// (mean, p10, p90) across runs — the Figs. 6/8 series. For latency,
    /// positive = slower than host; for bandwidth, positive = slower
    /// (throughput loss), matching the paper's sign convention.
    pub fn overhead_of(&self, name: &str) -> Vec<(f64, f64, f64)> {
        let host_mean = self.mean_of("host");
        let m = self.modes.iter().find(|m| m.name == name).expect("mode exists");
        (0..self.sizes.len())
            .map(|i| {
                let per_run: Vec<f64> = m
                    .values
                    .iter()
                    .map(|run| match self.metric {
                        Metric::Latency => stats::overhead_pct(host_mean[i], run[i]),
                        // Bandwidth: loss relative to baseline.
                        Metric::Bandwidth => -stats::overhead_pct(host_mean[i], run[i]),
                    })
                    .collect();
                (
                    stats::mean(&per_run),
                    stats::percentile(&per_run, 10.0),
                    stats::percentile(&per_run, 90.0),
                )
            })
            .collect()
    }
}

/// One run of the OSU program between ranks 0 and 1 of an opened world
/// — the same function inside and outside the pods: re-draw the per-run
/// NIC jitter (endpoint bring-up draws none, so this is the first draw
/// of the run either way), sweep the sizes, close the endpoints.
/// Returns the samples and the run's last instant.
fn osu_run(
    mut comm: Communicator,
    mut devs: CommDevices<'_>,
    metric: Metric,
    p: &OsuParams,
) -> (Vec<f64>, SimTime) {
    devs.new_run();
    let points = osu_sweep(p, |size| match metric {
        Metric::Bandwidth => {
            osu_bw_once(&mut comm, &mut devs, size, p.iterations, p.warmup, p.window)
        }
        Metric::Latency => osu_latency_once(&mut comm, &mut devs, size, p.iterations, p.warmup),
    });
    let end = comm.max_clock();
    comm.close(&mut devs);
    (points.into_iter().map(|point| point.value).collect(), end)
}

/// Run the host (bare-metal) configuration: every run on one rig, so
/// the NIC jitter streams carry over from run to run. Each run opens
/// where the previous one ended — its links and transmit engines are
/// busy up to then, and a run opened earlier would wait for them.
fn run_host(metric: Metric, params: &OsuParams, runs: u32, seed: u64) -> Vec<Vec<f64>> {
    let rng = DetRng::new(seed);
    let mut rig = CollectiveRig::with_nic_rngs(
        TopologySpec::single_switch(4),
        [rng.derive("host/a"), rng.derive("host/b")],
    );
    let mut start = SimTime::ZERO;
    (0..runs)
        .map(|_| {
            let (comm, devs) = rig.open(TrafficClass::Dedicated, start);
            let (values, end) = osu_run(comm, devs, metric, params);
            start = end;
            values
        })
        .collect()
}

/// One in-Kubernetes run (`vni:true` / `vni:false`) on a cluster of its
/// own, seeded `seed`.
fn run_k8s(vni_enabled: bool, metric: Metric, params: &OsuParams, seed: u64) -> Vec<f64> {
    let mut cluster = Cluster::new(ClusterConfig { seed, ..Default::default() });
    let ann: &[(&str, &str)] = if vni_enabled { &[("vni", "true")] } else { &[] };
    cluster.submit_job(SimTime::ZERO, "bench", "osu", ann, 2, &osu_image(), None);
    let admitted = cluster.run_until(
        SimTime::ZERO,
        SimTime::from_nanos(10_000_000_000),
        SimDur::from_millis(20),
    );
    // Which VNI do the ranks use?
    let vni =
        if vni_enabled { cluster.job_vni("bench", "osu").expect("VNI CRD") } else { Vni::GLOBAL };
    let (comm, devs) =
        job_communicator(&mut cluster, "bench", "osu", vni, TrafficClass::Dedicated, admitted)
            .expect("pod processes authenticate");
    assert_ne!(comm.node_of(0), comm.node_of(1), "topology spread placed ranks apart");
    osu_run(comm, devs, metric, params).0
}

/// Cluster seed of one in-Kubernetes run: each configuration has its
/// own base, and run *r* adds *r* to it.
fn k8s_seed(vni_enabled: bool, seed: u64, run: u32) -> u64 {
    let base = if vni_enabled { seed ^ 0xa0a0 } else { seed ^ 0x5f5f };
    base.wrapping_add(run as u64)
}

/// Experiment scale.
#[derive(Debug, Clone)]
pub struct CommConfig {
    /// OSU parameters (iterations, window, sizes).
    pub osu: OsuParams,
    /// Independent runs per configuration (paper: 10; Fig. 8: 25).
    pub runs: u32,
    /// Base seed.
    pub seed: u64,
}

impl CommConfig {
    /// Scaled-down default preserving all shapes.
    pub fn quick(metric: Metric, seed: u64) -> Self {
        let osu = match metric {
            Metric::Bandwidth => OsuParams { iterations: 100, warmup: 10, ..Default::default() },
            Metric::Latency => OsuParams { iterations: 200, warmup: 20, ..Default::default() },
        };
        CommConfig { osu, runs: 10, seed }
    }

    /// The paper's iteration counts (10 k bw / 20 k latency iterations).
    pub fn paper(metric: Metric, seed: u64) -> Self {
        let osu = match metric {
            Metric::Bandwidth => OsuParams::paper_scale_bw(),
            Metric::Latency => OsuParams::paper_scale_latency(),
        };
        CommConfig { osu, runs: 10, seed }
    }
}

/// Run the full three-configuration comparison.
///
/// Its `1 + 2 × runs` units are independent and run side by side: unit
/// 0 is the whole host chain (the longest, so it starts first), then
/// one unit per `vni:false` run and one per `vni:true` run, each on a
/// cluster of its own. Every sample is the one a serial loop measures.
pub fn run_comm(metric: Metric, cfg: &CommConfig) -> CommResult {
    run_comm_on(par::workers_for(1 + 2 * cfg.runs as usize), metric, cfg)
}

/// [`run_comm`] on exactly `workers` threads.
fn run_comm_on(workers: usize, metric: Metric, cfg: &CommConfig) -> CommResult {
    let runs = cfg.runs as usize;
    let mut units = par::par_units_on(workers, 1 + 2 * runs, |unit| match unit {
        0 => run_host(metric, &cfg.osu, cfg.runs, cfg.seed),
        u => {
            let (vni_enabled, run) = (u > runs, (u - 1) % runs);
            let seed = k8s_seed(vni_enabled, cfg.seed, run as u32);
            vec![run_k8s(vni_enabled, metric, &cfg.osu, seed)]
        }
    })
    .into_iter();
    let host = units.next().expect("the host unit");
    let mut k8s = units.flatten();
    let vni_false = k8s.by_ref().take(runs).collect();
    let vni_true = k8s.collect();
    let modes = vec![
        ModeSamples { name: "host", values: host },
        ModeSamples { name: "vni:false", values: vni_false },
        ModeSamples { name: "vni:true", values: vni_true },
    ];
    CommResult { sizes: cfg.osu.sizes.clone(), metric, modes }
}

/// The serial loop [`run_comm`] replaced: every configuration's runs
/// one after another on the calling thread.
#[cfg(test)]
fn run_comm_serial(metric: Metric, cfg: &CommConfig) -> CommResult {
    let k8s = |name, vni_enabled| ModeSamples {
        name,
        values: (0..cfg.runs)
            .map(|run| run_k8s(vni_enabled, metric, &cfg.osu, k8s_seed(vni_enabled, cfg.seed, run)))
            .collect(),
    };
    let modes = vec![
        ModeSamples { name: "host", values: run_host(metric, &cfg.osu, cfg.runs, cfg.seed) },
        k8s("vni:false", false),
        k8s("vni:true", true),
    ];
    CommResult { sizes: cfg.osu.sizes.clone(), metric, modes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(_metric: Metric) -> CommConfig {
        CommConfig {
            osu: OsuParams {
                sizes: vec![8, 4096, 1 << 20],
                iterations: 20,
                warmup: 2,
                window: 16,
            },
            runs: 3,
            seed: 7,
        }
    }

    #[test]
    fn all_three_modes_measure_identical_shapes() {
        let res = run_comm(Metric::Bandwidth, &tiny(Metric::Bandwidth));
        assert_eq!(res.modes.len(), 3);
        for m in &res.modes {
            assert_eq!(m.values.len(), 3, "{}: 3 runs", m.name);
            for run in &m.values {
                assert_eq!(run.len(), 3, "{}: 3 sizes", m.name);
                assert!(run.windows(2).all(|w| w[1] > w[0]), "bw monotone for {}", m.name);
            }
        }
        // The kernel-bypass argument: all three modes within ~2% of each
        // other at every size.
        let host = res.mean_of("host");
        for name in ["vni:false", "vni:true"] {
            let m = res.mean_of(name);
            for i in 0..host.len() {
                let dev = (m[i] - host[i]).abs() / host[i];
                assert!(dev < 0.02, "{name} size#{i} deviates {dev}");
            }
        }
    }

    #[test]
    fn every_worker_count_measures_what_the_serial_loop_measures() {
        for metric in [Metric::Latency, Metric::Bandwidth] {
            let cfg = tiny(metric);
            let serial = format!("{:?}", run_comm_serial(metric, &cfg));
            for workers in [1, 2, 3] {
                let run = format!("{:?}", run_comm_on(workers, metric, &cfg));
                assert_eq!(run, serial, "{metric:?} on {workers} workers");
            }
            assert_eq!(format!("{:?}", run_comm(metric, &cfg)), serial, "{metric:?} default pool");
        }
    }

    #[test]
    fn a_host_run_does_not_wait_for_the_previous_runs_links() {
        // Without a warmup, the first timed message of a host run opened
        // before the previous run's traffic drained would wait for it.
        let cfg = CommConfig {
            osu: OsuParams { sizes: vec![1, 4096], iterations: 5, warmup: 0, ..Default::default() },
            runs: 3,
            seed: 42,
        };
        let res = run_comm(Metric::Latency, &cfg);
        for m in &res.modes {
            let first = m.values[0][0];
            for (run, values) in m.values.iter().enumerate() {
                let dev = (values[0] - first).abs() / first;
                assert!(dev < 0.01, "{} run {run}: {} µs vs run 0's {first} µs", m.name, values[0]);
            }
        }
    }

    #[test]
    fn latency_overhead_is_sub_percent_band() {
        let res = run_comm(Metric::Latency, &tiny(Metric::Latency));
        for name in ["vni:true", "vni:false"] {
            for (mean, p10, p90) in res.overhead_of(name) {
                assert!(mean.abs() < 1.5, "{name} mean overhead {mean}%");
                assert!(p10 <= p90);
            }
        }
    }
}
