//! VNI Claims demo (paper §III-C1, Listings 2-3): several jobs share one
//! Virtual Network by redeeming a named claim, while Per-Resource jobs
//! stay isolated from them. Also shows the deletion-stall rule: a claim
//! cannot release its VNI while jobs still use it.
//!
//! ```text
//! cargo run --release --example vni_claims
//! ```

use shs_des::{SimDur, SimTime};
use shs_fabric::TrafficClass;
use shs_harness::pod_communicator;
use shs_k8s::kinds;
use slingshot_k8s::{osu_image, Cluster, ClusterConfig};

fn main() {
    let mut cluster = Cluster::new(ClusterConfig::default());

    // 1. The user creates a claim first (Listing 2)...
    cluster.create_claim(SimTime::ZERO, "workflow", "stage-net");
    // ...then two cooperating jobs redeem it by name (Listing 3), plus an
    // unrelated Per-Resource job in the same namespace.
    let t0 = SimTime::from_nanos(500_000_000);
    cluster.submit_job(t0, "workflow", "producer", &[("vni", "stage-net")], 1, &osu_image(), None);
    cluster.submit_job(t0, "workflow", "consumer", &[("vni", "stage-net")], 1, &osu_image(), None);
    cluster.submit_job(t0, "workflow", "bystander", &[("vni", "true")], 1, &osu_image(), None);

    let now = cluster.run_until(
        SimTime::ZERO,
        SimTime::from_nanos(10_000_000_000),
        SimDur::from_millis(20),
    );

    // 2. Producer and consumer share the claim's VNI; the bystander owns
    //    a different one.
    let vni_of = |job| cluster.job_vni("workflow", job).expect("VNI CRD");
    let claim_vni = vni_of("producer");
    let bystander_vni = vni_of("bystander");
    assert_eq!(vni_of("consumer"), claim_vni);
    assert_ne!(bystander_vni, claim_vni);
    println!("claim 'stage-net' owns {claim_vni}; producer+consumer share it; bystander has {bystander_vni}");

    // 3. Cross-job communication inside the claim works.
    let hp = cluster.pod_handle("workflow", "producer-0").expect("producer running");
    let hc = cluster.pod_handle("workflow", "consumer-0").expect("consumer running");
    {
        let (mut comm, mut devs) =
            pod_communicator(&mut cluster, &[hp, hc], claim_vni, TrafficClass::Dedicated, now)
                .expect("both jobs authenticate on the claim VNI");
        comm.send(&mut devs, 0, 1, 7, 65536);
        assert!(comm.recv(1, 7));
        println!("producer -> consumer over the shared claim VNI: OK (64 kB)");
        comm.close(&mut devs);
    }

    // 4. Deleting the claim stalls while jobs use it...
    cluster.delete_claim("workflow", "stage-net");
    let now = cluster.run_until(now, now + SimDur::from_secs(5), SimDur::from_millis(20));
    assert!(
        cluster.api.get(kinds::VNI_CLAIM, "workflow", "stage-net").is_some(),
        "claim deletion must stall while users remain"
    );
    println!("claim deletion requested: stalled (2 jobs still attached) — as §III-C2 requires");

    // 5. ...and completes once the jobs are gone.
    cluster.delete_job("workflow", "producer");
    cluster.delete_job("workflow", "consumer");
    cluster.delete_job("workflow", "bystander");
    cluster.run_until(now, now + SimDur::from_secs(15), SimDur::from_millis(20));
    assert!(cluster.api.get(kinds::VNI_CLAIM, "workflow", "stage-net").is_none());
    assert_eq!(cluster.endpoint.borrow().db.allocated_count(), 0);
    println!("jobs gone -> claim finalized -> all VNIs released (audit log has the full history)");
    println!(
        "audit log entries: {}",
        cluster.endpoint.borrow().db.audit_len()
    );
}
