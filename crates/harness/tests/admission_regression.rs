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
