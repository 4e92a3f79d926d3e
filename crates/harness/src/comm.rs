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
fn osu_run(
    mut comm: Communicator,
    mut devs: CommDevices<'_>,
    metric: Metric,
    p: &OsuParams,
) -> Vec<f64> {
    devs.new_run();
    let points = osu_sweep(p, |size| match metric {
        Metric::Bandwidth => {
            osu_bw_once(&mut comm, &mut devs, size, p.iterations, p.warmup, p.window)
        }
        Metric::Latency => osu_latency_once(&mut comm, &mut devs, size, p.iterations, p.warmup),
    });
    comm.close(&mut devs);
    points.into_iter().map(|point| point.value).collect()
}

/// Run the host (bare-metal) configuration.
fn run_host(metric: Metric, params: &OsuParams, runs: u32, seed: u64) -> ModeSamples {
    let rng = DetRng::new(seed);
    let mut rig = CollectiveRig::with_nic_rngs(
        TopologySpec::single_switch(4),
        [rng.derive("host/a"), rng.derive("host/b")],
    );
    let run = |_| {
        let (comm, devs) = rig.open(TrafficClass::Dedicated, SimTime::ZERO);
        osu_run(comm, devs, metric, params)
    };
    ModeSamples { name: "host", values: (0..runs).map(run).collect() }
}

/// Run one in-Kubernetes configuration (`vni:true` / `vni:false`).
fn run_k8s(
    vni_enabled: bool,
    metric: Metric,
    params: &OsuParams,
    runs: u32,
    seed: u64,
) -> ModeSamples {
    let name = if vni_enabled { "vni:true" } else { "vni:false" };
    let run = |run: u32| {
        let mut cluster = Cluster::new(ClusterConfig {
            seed: seed.wrapping_add(run as u64),
            ..Default::default()
        });
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
        osu_run(comm, devs, metric, params)
    };
    ModeSamples { name, values: (0..runs).map(run).collect() }
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
pub fn run_comm(metric: Metric, cfg: &CommConfig) -> CommResult {
    let modes = vec![
        run_host(metric, &cfg.osu, cfg.runs, cfg.seed),
        run_k8s(false, metric, &cfg.osu, cfg.runs, cfg.seed ^ 0x5f5f),
        run_k8s(true, metric, &cfg.osu, cfg.runs, cfg.seed ^ 0xa0a0),
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
