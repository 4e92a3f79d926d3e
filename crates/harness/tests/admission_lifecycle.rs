//! The lifecycle judge's verdict on the admission path: both halves of
//! a Fig. 11 spike (`vni:true`, then `vni:false`), driven through the
//! public `Cluster` API the way the benchmark's traced loop drives
//! `run_admission`. The cluster's own judge follows every tick — the
//! VNI audit log, every CXI service and switch grant the CNI changes,
//! every workload start and sandbox removal — and must end with no
//! verdict and a model that agrees with the database's rows.

use shs_des::{SimDur, SimTime};
use shs_harness::JobTracker;
use slingshot_k8s::{alpine, Cluster, ClusterConfig};

/// Spike size.
const JOBS: usize = 40;

/// Simulated-seconds cap of one half; a 40-job spike drains in far less.
const CAP_S: u64 = 120;

/// One spike half: submit `JOBS` jobs at t = 0, tick every 20 ms, and
/// observe the watch stream once per simulated second until every job
/// is gone. Returns the drained cluster.
fn spike(vni: bool, seed: u64) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig { seed, ..Default::default() });
    let mut tracker = JobTracker::default();
    let ann: &[(&str, &str)] = if vni { &[("vni", "true")] } else { &[] };
    let tick = SimDur::from_millis(20);
    let image = alpine();
    for i in 0..JOBS {
        let name = format!("job-000-{i:03}");
        cluster.submit_job(SimTime::ZERO, "bench", &name, ann, 1, &image, Some(10));
        tracker.submitted(&name, 0, SimTime::ZERO);
    }
    let mut t = SimTime::ZERO;
    for sec in 0..CAP_S {
        let sec_end = SimTime::from_nanos((sec + 1) * 1_000_000_000);
        while t < sec_end {
            t = (t + tick).min(sec_end);
            cluster.tick(t);
        }
        tracker.observe(&cluster.api, t);
        if tracker.all_deleted() {
            break;
        }
    }
    assert!(tracker.all_deleted(), "vni:{vni}: the spike did not drain in {CAP_S} s");
    assert!(tracker.jobs.values().all(|j| j.started.is_some()), "vni:{vni}: a job never started");
    cluster
}

#[test]
fn both_spike_halves_leave_a_legal_audit_log_and_no_orphan() {
    for (vni, seed) in [(true, 3), (false, 4)] {
        let mut cluster = spike(vni, seed);
        let ep = cluster.endpoint.borrow();
        cluster.lifecycle.finish(&ep.db.rows());
        if let Some(v) = cluster.lifecycle.verdicts().first() {
            panic!("vni:{vni}: {v}");
        }
        if vni {
            assert_eq!(ep.counters.acquisitions, JOBS as u64, "one VNI per job");
            assert_eq!(ep.counters.releases, JOBS as u64, "every VNI released");
        }
    }
}
