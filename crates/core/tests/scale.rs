//! Cluster scaling behaviour beyond the paper's two-node testbed: the
//! integration is node-count agnostic (the paper's design arguments never
//! assume two nodes), so a larger cluster must behave identically
//! per-tenant while spreading load.

use shs_des::{SimDur, SimTime};
use shs_fabric::Vni;
use shs_k8s::kinds;
use slingshot_k8s::{alpine, osu_image, Cluster, ClusterConfig};

#[test]
fn four_node_cluster_spreads_and_isolates() {
    let mut c = Cluster::new(ClusterConfig { nodes: 4, ..Default::default() });
    // Four tenants, one 4-rank job each.
    for t in 0..4 {
        c.submit_job(
            SimTime::ZERO,
            &format!("tenant-{t}"),
            "app",
            &[("vni", "true")],
            4,
            &osu_image(),
            None,
        );
    }
    c.run_until(SimTime::ZERO, SimTime::from_nanos(20_000_000_000), SimDur::from_millis(20));

    let mut vnis = Vec::new();
    for t in 0..4 {
        let ns = format!("tenant-{t}");
        let crd = c.api.get(kinds::VNI, &ns, "vni-app").expect("VNI CRD");
        vnis.push(crd.vni_spec().vni);
        // All four pods run, one per node (topology spread).
        let mut nodes_used = std::collections::BTreeSet::new();
        for i in 0..4 {
            let pod = c.api.get(kinds::POD, &ns, &format!("app-{i}")).expect("pod");
            nodes_used.insert(pod.pod_spec().node_name.clone().expect("bound"));
        }
        assert_eq!(nodes_used.len(), 4, "{ns} spread over all nodes");
    }
    vnis.sort_unstable();
    vnis.dedup();
    assert_eq!(vnis.len(), 4, "tenant VNIs are mutually exclusive");

    // Every node's switch port carries every tenant VNI (each tenant has
    // a pod on each node) — 4 tenant grants + the global VNI.
    for n in &c.nodes {
        let (sw, port) = c.fabric.attachment(n.inner.nic).unwrap();
        let grants: Vec<Vni> = c.fabric.switch_at(sw).vnis_on(port).collect();
        assert_eq!(grants.len(), 5, "node {} grants: {grants:?}", n.inner.name);
    }
}

#[test]
fn single_node_cluster_still_works() {
    let mut c = Cluster::new(ClusterConfig { nodes: 1, ..Default::default() });
    c.submit_job(SimTime::ZERO, "t", "solo", &[("vni", "true")], 2, &alpine(), Some(10));
    c.run_until(SimTime::ZERO, SimTime::from_nanos(10_000_000_000), SimDur::from_millis(20));
    // Both pods land on the single node and the job completes.
    assert!(!c.job_exists("t", "solo"), "completed and reaped");
    assert_eq!(c.endpoint.borrow().db.allocated_count(), 0);
}

#[test]
fn many_sequential_tenants_recycle_vnis_cleanly() {
    // Churn: waves of short jobs; with a tight VNI range plus quarantine,
    // recycling must keep up without ever double-allocating.
    let mut c = Cluster::new(ClusterConfig {
        vni_range: 1024..1040,
        quarantine: SimDur::from_secs(2),
        ..Default::default()
    });
    let mut t = SimTime::ZERO;
    for wave in 0..6 {
        for j in 0..4 {
            c.submit_job(
                t,
                "churn",
                &format!("w{wave}-j{j}"),
                &[("vni", "true")],
                1,
                &alpine(),
                Some(10),
            );
        }
        t = c.run_until(t, t + SimDur::from_secs(12), SimDur::from_millis(20));
        assert_eq!(
            c.endpoint.borrow().db.allocated_count(),
            0,
            "wave {wave} fully released"
        );
    }
    // 24 jobs over a 16-wide range: recycling necessarily happened.
    let acq = c.endpoint.borrow().counters.acquisitions;
    assert_eq!(acq, 24);
}
