//! End-to-end data-path tests: OSU-style measurements through the whole
//! stack (cluster admission → pod netns authentication → libfabric →
//! NIC → switch), plus the experiment-harness shape checks that gate the
//! figure reproductions.

use shs_des::{SimDur, SimTime};
use shs_fabric::{TrafficClass, Vni};
use shs_harness::{job_communicator, run_comm, CommConfig, Metric};
use shs_mpi::{osu_bw_once, osu_latency_once, OsuParams};
use slingshot_k8s::{osu_image, Cluster, ClusterConfig};

fn admit_osu_job(cluster: &mut Cluster, vni: bool) -> (Vni, SimTime) {
    let ann: &[(&str, &str)] = if vni { &[("vni", "true")] } else { &[] };
    cluster.submit_job(SimTime::ZERO, "bench", "osu", ann, 2, &osu_image(), None);
    let now = cluster.run_until(
        SimTime::ZERO,
        SimTime::from_nanos(10_000_000_000),
        SimDur::from_millis(20),
    );
    let vni = if vni { cluster.job_vni("bench", "osu").expect("CRD") } else { Vni::GLOBAL };
    (vni, now)
}

/// The headline data-path result: pods communicate via RDMA on their
/// allocated VNI at fabric-limited bandwidth and microsecond latency.
#[test]
fn osu_inside_pods_on_allocated_vni() {
    let mut cluster = Cluster::new(ClusterConfig::default());
    let (vni, now) = admit_osu_job(&mut cluster, true);
    let (mut comm, mut devs) =
        job_communicator(&mut cluster, "bench", "osu", vni, TrafficClass::Dedicated, now)
            .expect("netns-member service admits the pod process");
    let lat = osu_latency_once(&mut comm, &mut devs, 8, 300, 30);
    assert!(lat > 1.0 && lat < 3.5, "small-message latency {lat}us (paper: ~2us)");
    let bw = osu_bw_once(&mut comm, &mut devs, 1 << 20, 30, 3, 64);
    assert!(bw > 20_000.0 && bw < 25_000.0, "1MB bandwidth {bw} MB/s (paper: ~24 GB/s)");
    comm.close(&mut devs);
}

/// Figs. 5-8 acceptance: all three configurations agree within the
/// paper's 1 % band on both metrics, host jitter bands included.
#[test]
fn comm_overhead_stays_within_one_percent() {
    for metric in [Metric::Bandwidth, Metric::Latency] {
        let cfg = CommConfig {
            osu: OsuParams {
                sizes: vec![8, 1024, 65_536, 1 << 20],
                iterations: 40,
                warmup: 4,
                window: 32,
            },
            runs: 5,
            seed: 21,
        };
        let res = run_comm(metric, &cfg);
        for mode in ["vni:true", "vni:false"] {
            for (i, (mean, _p10, _p90)) in res.overhead_of(mode).iter().enumerate() {
                assert!(
                    mean.abs() < 1.0,
                    "{metric:?} {mode} size#{i}: overhead {mean}% breaches the 1% band"
                );
            }
        }
    }
}

/// Fig. 5 acceptance: bandwidth monotone in size, saturating near line
/// rate, small-message end limited by message rate.
#[test]
fn bandwidth_curve_shape_matches_paper() {
    let cfg = CommConfig {
        osu: OsuParams {
            sizes: vec![1, 64, 4096, 65_536, 1 << 20],
            iterations: 30,
            warmup: 3,
            window: 64,
        },
        runs: 3,
        seed: 22,
    };
    let res = run_comm(Metric::Bandwidth, &cfg);
    let host = res.mean_of("host");
    assert!(host.windows(2).all(|w| w[1] > w[0]), "monotone: {host:?}");
    assert!(host[0] < 10.0, "1B end is message-rate bound: {} MB/s", host[0]);
    let peak = *host.last().unwrap();
    assert!(
        peak > 23_000.0 && peak < 24_500.0,
        "1MB saturates near 200 Gb/s line rate: {peak} MB/s"
    );
}

/// Fig. 7 acceptance: latency flat for small messages, bandwidth-bound
/// for large ones.
#[test]
fn latency_curve_shape_matches_paper() {
    let cfg = CommConfig {
        osu: OsuParams {
            sizes: vec![1, 512, 65_536, 1 << 20],
            iterations: 60,
            warmup: 6,
            window: 1,
        },
        runs: 3,
        seed: 23,
    };
    let res = run_comm(Metric::Latency, &cfg);
    let host = res.mean_of("host");
    let flat_ratio = host[1] / host[0];
    assert!(flat_ratio < 1.2, "1B..512B nearly flat: {host:?}");
    let big_ratio = host[3] / host[0];
    assert!(big_ratio > 15.0, "1MB dominated by serialization: {host:?}");
}

/// vni:false pods use the global VNI — and therefore have *no* isolation
/// from each other (the insecure baseline the paper replaces).
#[test]
fn vni_false_baseline_has_no_isolation() {
    let mut cluster = Cluster::new(ClusterConfig::default());
    let (vni, now) = admit_osu_job(&mut cluster, false);
    assert_eq!(vni, Vni::GLOBAL);
    // Any other process — even on the host, outside any pod — can open
    // an endpoint on the global VNI and receive.
    let h0 = cluster.pod_handle("bench", "osu-0").expect("rank 0");
    let node = &mut cluster.nodes[h0.node_idx];
    let intruder =
        node.inner.host.spawn_detached("intruder", shs_oslinux::Uid(999), shs_oslinux::Gid(999));
    let ep = shs_ofi::OfiEp::open(
        &node.inner.host,
        &mut node.inner.device,
        intruder,
        Vni::GLOBAL,
        TrafficClass::Dedicated,
    );
    assert!(ep.is_ok(), "the global-VNI baseline admits anyone — no isolation");
    let _ = now;
}
