//! System-level co-location demo (paper use-case 2, §I): administrative
//! and monitoring tools run next to user applications without being able
//! to interfere with — or snoop on — their traffic.
//!
//! A "monitoring agent" runs as a system pod, reads per-VNI fabric
//! accounting and per-node CXI service inventories (management-plane
//! data), but cannot open endpoints on any tenant VNI.
//!
//! ```text
//! cargo run --release --example system_monitoring
//! ```

use shs_des::{SimDur, SimTime};
use shs_fabric::{SwitchId, TrafficClass};
use shs_harness::job_communicator;
use slingshot_k8s::{osu_image, Cluster, ClusterConfig};

fn main() {
    let mut cluster = Cluster::new(ClusterConfig::default());

    // A tenant workload, plus a monitoring "job" colocated as a plain pod
    // (no VNI request — it needs none).
    cluster.submit_job(SimTime::ZERO, "tenant", "app", &[("vni", "true")], 2, &osu_image(), None);
    cluster.submit_job(SimTime::ZERO, "kube-system", "monitor", &[], 1, &osu_image(), None);
    let now = cluster.run_until(
        SimTime::ZERO,
        SimTime::from_nanos(10_000_000_000),
        SimDur::from_millis(20),
    );

    // Generate some tenant traffic.
    let vni = cluster.job_vni("tenant", "app").expect("CRD");
    {
        let (mut comm, mut devs) =
            job_communicator(&mut cluster, "tenant", "app", vni, TrafficClass::Dedicated, now)
                .expect("tenant authenticates");
        for i in 0..32 {
            comm.send(&mut devs, 0, 1, i, 128 * 1024);
            comm.recv(1, i);
        }
        comm.close(&mut devs);
    }

    // --- The monitoring view -------------------------------------------
    println!("monitoring agent report");
    println!("=======================");
    let traffic = cluster.fabric.traffic(vni);
    println!(
        "fabric per-VNI accounting: {vni} carried {} messages / {} bytes payload",
        traffic.messages, traffic.payload_bytes
    );
    println!(
        "switch counters: {} packets forwarded, {} drops",
        cluster.fabric.switch_at(SwitchId(0)).counters.forwarded,
        cluster.fabric.switch_at(SwitchId(0)).counters.total_drops()
    );
    for node in &cluster.nodes {
        println!("node {}:", node.inner.name);
        for svc in node.inner.device.driver.services() {
            println!(
                "  CXI service #{:<3} label={:<24} vnis={:?} members={}",
                svc.id.0,
                svc.label,
                svc.vnis.iter().map(|v| v.raw()).collect::<Vec<_>>(),
                svc.members.len(),
            );
        }
    }
    let ep = cluster.endpoint.borrow();
    println!(
        "VNI service: {} allocated, {} audit entries",
        ep.db.allocated_count(),
        ep.db.audit_len()
    );
    drop(ep);

    // --- The security boundary ------------------------------------------
    // The monitor can *observe* but cannot *join* tenant networks: its
    // pod netns is not a member of any tenant CXI service.
    let hm = cluster.pod_handle("kube-system", "monitor-0").expect("running");
    let node = &mut cluster.nodes[hm.node_idx];
    let err = shs_ofi::OfiEp::open(
        &node.inner.host,
        &mut node.inner.device,
        hm.pid,
        vni,
        TrafficClass::Dedicated,
    )
    .expect_err("monitor must not join tenant VNIs");
    println!("monitor attempting to open an endpoint on {vni}: {err} — isolation holds");
}
