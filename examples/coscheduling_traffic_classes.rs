//! Co-scheduling demo (paper use-case 1, §I): "co-scheduling a
//! low-latency critical application with a less latency-sensitive task
//! such as check-pointing", using different Slingshot traffic classes.
//!
//! Two parts:
//! 1. a two-switch fabric whose one trunk a bulk checkpoint burst
//!    backlogs, while a low-latency message crossing the same trunk
//!    stays within 2x its unloaded route time (the trunk's classes
//!    share it by weight, each with its own queue), and
//! 2. a flow-level run where a latency-critical ping-pong shares the
//!    fabric with a checkpoint stream, each in its own VNI-isolated job.
//!
//! ```text
//! cargo run --release --example coscheduling_traffic_classes
//! ```

use shs_des::{SimDur, SimTime};
use shs_fabric::{
    CostModel, Fabric, NicAddr, RoutingPolicy, SwitchId, TopologySpec, TrafficClass,
    TransferOutcome, Vni,
};
use shs_harness::job_communicator;
use shs_mpi::osu_latency_once;
use slingshot_k8s::{osu_image, Cluster, ClusterConfig};

fn main() {
    // --- Part 1: a contended trunk ------------------------------------
    // Two groups of one switch each, joined by one trunk.
    let mut fabric = Fabric::with_topology(
        CostModel::default(),
        TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 8 },
        RoutingPolicy::Minimal,
    );
    // The checkpoint tenant (VNI 2) sends from switch 0 to a sink on
    // switch 1; the solver tenant (VNI 3) has one node on each switch.
    let ckpt = [NicAddr(1), NicAddr(2), NicAddr(3)];
    let (sink, solver_a, solver_b) = (NicAddr(9), NicAddr(4), NicAddr(10));
    let wiring = [
        (ckpt[0], 0, 2),
        (ckpt[1], 0, 2),
        (ckpt[2], 0, 2),
        (sink, 1, 2),
        (solver_a, 0, 3),
        (solver_b, 1, 3),
    ];
    for (nic, sw, vni) in wiring {
        fabric.attach_to(nic, SwitchId(sw));
        fabric.grant_vni(nic, Vni(vni)).expect("attached");
    }
    // A 1 MiB checkpoint burst from three nodes backlogs the trunk's
    // bulk-data queue...
    let burst = 1u64 << 20;
    for (i, &src) in ckpt.iter().enumerate() {
        let tc = TrafficClass::BulkData;
        let out = fabric.transfer(SimTime::ZERO, src, sink, Vni(2), tc, burst, i as u64);
        assert!(matches!(out, TransferOutcome::Delivered { .. }), "checkpoint {i}: {out:?}");
    }
    let backlog_ns = fabric.trunk_class_totals()[TrafficClass::BulkData.index()].queued_ns_max;
    assert!(backlog_ns > 0, "the burst queued on the trunk");
    // ...when a low-latency message from another tenant crosses the
    // same trunk: it waits behind none of that backlog, and only the
    // weighted sharing of the link stretches its serialization.
    let TransferOutcome::Delivered { arrival, .. } =
        fabric.transfer(SimTime::ZERO, solver_a, solver_b, Vni(3), TrafficClass::LowLatency, 64, 99)
    else {
        panic!("the low-latency message was dropped");
    };
    let unloaded = fabric.unloaded_route_ns(solver_a, solver_b, 64).expect("attached");
    assert!(
        arrival.as_nanos() < 2 * unloaded,
        "low-latency {} ns vs unloaded {unloaded} ns",
        arrival.as_nanos()
    );
    println!(
        "shared trunk: checkpoints queued up to {:.1} us on the bulk class; a 64 B \
         low-latency message crossed in {} ns (unloaded {unloaded} ns)",
        backlog_ns as f64 / 1_000.0,
        arrival.as_nanos()
    );

    // --- Part 2: two tenant jobs, two traffic classes ------------------
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.submit_job(SimTime::ZERO, "hpc", "solver", &[("vni", "true")], 2, &osu_image(), None);
    cluster.submit_job(SimTime::ZERO, "hpc", "ckpt", &[("vni", "true")], 2, &osu_image(), None);
    let now = cluster.run_until(
        SimTime::ZERO,
        SimTime::from_nanos(10_000_000_000),
        SimDur::from_millis(20),
    );

    let solver_vni = cluster.job_vni("hpc", "solver").expect("CRD");

    // The solver runs on the low-latency class; measure its latency with
    // an idle fabric.
    let idle_latency = {
        let (mut comm, mut devs) = job_communicator(
            &mut cluster, "hpc", "solver", solver_vni, TrafficClass::LowLatency, now,
        )
        .expect("solver authenticates");
        let lat = osu_latency_once(&mut comm, &mut devs, 8, 500, 50);
        comm.close(&mut devs);
        lat
    };
    println!("solver 8B latency (idle fabric, low-latency TC): {idle_latency:.2} us");
    println!(
        "checkpoint job runs on the bulk-data class in its own VNI — isolated by the \
         switch, sharing trunks with the solver by weight"
    );
    // VNI isolation means the checkpoint job cannot even address the
    // solver's network; interference is limited to link sharing, which
    // the traffic classes arbitrate.
    let traffic = cluster.fabric.traffic(solver_vni);
    println!(
        "fabric accounting for {solver_vni}: {} msgs, {} payload bytes (visible to the \
         monitoring plane per VNI)",
        traffic.messages, traffic.payload_bytes
    );
}
