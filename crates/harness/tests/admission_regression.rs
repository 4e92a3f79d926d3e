//! Admission-run regression gates.
//!
//! * Golden fixtures: `format!("{:?}")` of whole [`run_admission`] runs,
//!   captured on the commit *before* the control-plane tick became
//!   O(changes) (indexed API store, deadline-driven kubelet, watch-tallied
//!   scheduler, shared watch snapshots). Byte equality here means every
//!   sample and every per-job instant — hence the order of every API
//!   mutation — survived the rewrite.
//! * The 600-job cliff: past 253 pods *ever started* per node the bridge
//!   IPAM used to run dry, leaving jobs `Failed` forever.
//! * The 2 000-job cliff: nodes used to advertise `maxPods` 256 over a
//!   253-address bridge pool, so a deep enough spike bound a 254th
//!   *concurrent* pod to a node, whose CNI ADD is fatal.

use shs_harness::admission::{run_admission, Pattern};
use slingshot_k8s::run_admission_spike;

fn golden(pattern: Pattern, vni: bool, seed: u64, fixture: &str) {
    let run = run_admission(pattern, vni, seed, 3600);
    assert_eq!(format!("{run:?}\n"), fixture, "admission run diverged from the pre-change capture");
}

#[test]
fn spike_120_is_byte_identical_to_the_pre_change_capture() {
    let spike = Pattern::Spike { jobs: 120 };
    golden(spike, true, 42, include_str!("fixtures/admission_spike120_vni_true.txt"));
    golden(spike, false, 42, include_str!("fixtures/admission_spike120_vni_false.txt"));
}

#[test]
fn ramp_is_byte_identical_to_the_pre_change_capture() {
    golden(Pattern::Ramp, true, 7, include_str!("fixtures/admission_ramp_vni_true.txt"));
    golden(Pattern::Ramp, false, 7, include_str!("fixtures/admission_ramp_vni_false.txt"));
}

#[test]
fn spike_of_600_jobs_drains_past_the_ipam_pool_size() {
    for vni in [true, false] {
        let run = run_admission(Pattern::Spike { jobs: 600 }, vni, 5, 3600);
        assert_eq!(run.jobs.len(), 600);
        let stuck = run.jobs.iter().filter(|j| j.started.is_none() || j.deleted.is_none()).count();
        assert_eq!(stuck, 0, "vni={vni}: every job admitted and reaped");
        assert_eq!(run.samples.last().expect("ran").1, 0, "vni={vni}: running series ends at 0");
    }
}

/// The same spike through the bench workload, which reads the kubelets'
/// own counters: more pods started per node than it has addresses, and
/// not one of them failed.
#[test]
fn no_pod_fails_when_a_node_starts_more_pods_than_it_has_addresses() {
    for vni in [true, false] {
        let run = run_admission_spike(600, vni, 5);
        assert_eq!((run.pods_started, run.pods_failed), (600, 0), "vni={vni}");
    }
}

/// A spike deep enough to keep both nodes full: the scheduler must stop
/// at what the bridge can address (`maxPods` = the IPAM pool size), so
/// no CNI ADD ever finds the pool exhausted. (One test per `vni` value
/// so the two 2 000-job runs share the wall clock.)
fn spike_of_2000_jobs_never_overbinds_a_node(vni: bool) {
    let run = run_admission_spike(2000, vni, 5);
    assert_eq!((run.pods_started, run.pods_failed), (2000, 0), "vni={vni}");
}

#[test]
fn spike_of_2000_vni_jobs_never_binds_more_pods_than_a_node_can_address() {
    spike_of_2000_jobs_never_overbinds_a_node(true);
}

#[test]
fn spike_of_2000_plain_jobs_never_binds_more_pods_than_a_node_can_address() {
    spike_of_2000_jobs_never_overbinds_a_node(false);
}
