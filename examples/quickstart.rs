//! Quickstart: bring up a two-node Slingshot-K8s cluster, run a job with
//! an isolated Virtual Network, and measure RDMA bandwidth between its
//! pods — the 60-second tour of the whole stack.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use shs_des::{SimDur, SimTime};
use shs_fabric::TrafficClass;
use shs_harness::job_communicator;
use shs_mpi::{osu_bw_once, osu_latency_once};
use slingshot_k8s::{osu_image, Cluster, ClusterConfig};

fn main() {
    // 1. A two-node cluster: Rosetta-like switch, Cassini NICs, extended
    //    CXI driver, container runtime, bridge+cxi CNI chain, kubelets,
    //    scheduler, job controller, and the VNI Service.
    let mut cluster = Cluster::new(ClusterConfig::default());
    println!("cluster up: {} nodes, fabric at 200 Gb/s", cluster.nodes.len());

    // 2. Submit a 2-rank job that requests Slingshot via one annotation
    //    (paper Listing 1: `vni: "true"`).
    cluster.submit_job(
        SimTime::ZERO,
        "tenant-a",
        "osu",
        &[("vni", "true")],
        2,
        &osu_image(),
        None, // runs until killed
    );

    // 3. Let the control plane admit it (ticks of 20 ms).
    let now = cluster.run_until(
        SimTime::ZERO,
        SimTime::from_nanos(8_000_000_000),
        SimDur::from_millis(20),
    );

    // 4. Inspect what the VNI Service built.
    let vni = cluster.job_vni("tenant-a", "osu").expect("VNI CRD created");
    println!("VNI Service allocated {vni} and the CNI plugin created netns-member CXI services");

    let h0 = cluster.pod_handle("tenant-a", "osu-0").expect("rank 0 running");
    let h1 = cluster.pod_handle("tenant-a", "osu-1").expect("rank 1 running");
    println!(
        "pods spread across nodes {} and {} (topology spread constraint)",
        h0.node_idx, h1.node_idx
    );

    // 5. Run OSU-style measurements over the job's private VNI, from
    //    processes inside the pods (netns authentication end to end).
    let (mut comm, mut devs) =
        job_communicator(&mut cluster, "tenant-a", "osu", vni, TrafficClass::Dedicated, now)
            .expect("pod processes authenticate via their netns");

    let lat = osu_latency_once(&mut comm, &mut devs, 8, 1000, 100);
    let bw = osu_bw_once(&mut comm, &mut devs, 1 << 20, 100, 10, 64);
    println!("osu_latency   8 B: {lat:.2} us (one-way)");
    println!("osu_bw       1 MB: {bw:.0} MB/s");
    comm.close(&mut devs);

    // 6. Tear down: deleting the job releases the VNI (30 s quarantine)
    //    and removes every CXI service.
    cluster.delete_job("tenant-a", "osu");
    cluster.run_until(now, now + SimDur::from_secs(8), SimDur::from_millis(20));
    assert!(!cluster.job_exists("tenant-a", "osu"));
    assert_eq!(cluster.endpoint.borrow().db.allocated_count(), 0);
    println!("job deleted; VNI released into quarantine; no CXI services leaked");
}
