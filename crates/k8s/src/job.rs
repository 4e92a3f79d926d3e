//! The job controller: creates pods for jobs, tracks completions, marks
//! jobs complete, and applies `ttlSecondsAfterFinished` (the paper's
//! admission experiments delete jobs "immediately after completion").

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::rc::Rc;

use shs_des::SimTime;

use crate::api::{ApiObject, ApiServer, ObjKey, WatchType};
use crate::objects::{kinds, PodPhase, PodSpec};

/// Finalizer owned by the kubelet on every pod it must tear down.
pub const KUBELET_FINALIZER: &str = "kubelet.simk8s/teardown";

/// The job controller.
#[derive(Debug)]
pub struct JobController {
    last_rv: u64,
    /// [`KUBELET_FINALIZER`], built once and shared by every pod.
    finalizer: Rc<str>,
    /// Finished jobs whose `ttlSecondsAfterFinished` has not yet run
    /// out, as `(deadline ns, job)`, soonest first. A finished job sees
    /// no more events, so [`JobController::poll`] reaps it by the clock.
    /// A job may sit here more than once (each reconcile before its
    /// deadline pushes it) or be gone by its deadline; reaping
    /// reconciles it again, which decides from the stored job alone.
    ttl_due: BinaryHeap<Reverse<(u64, ObjKey)>>,
    /// Jobs seen → pods created (diagnostics).
    pub pods_created: u64,
}

impl Default for JobController {
    fn default() -> Self {
        JobController {
            last_rv: 0,
            finalizer: KUBELET_FINALIZER.into(),
            ttl_due: BinaryHeap::new(),
            pods_created: 0,
        }
    }
}

impl JobController {
    /// Fresh controller.
    pub fn new() -> Self {
        JobController::default()
    }

    /// The rv this controller has consumed the watch log through.
    pub fn cursor(&self) -> u64 {
        self.last_rv
    }

    /// One reconcile pass.
    pub fn poll(&mut self, api: &mut ApiServer, now: SimTime) {
        let (events, rv) = api.events_since(self.last_rv);
        self.last_rv = rv;

        // Collect job keys that need reconciling. A pod names its job
        // by a decoded string; the stored job lends its key, and a pod
        // of no stored job (a service's) has nothing to reconcile.
        let mut dirty: BTreeSet<ObjKey> = BTreeSet::new();
        for ev in events {
            match ev.object.kind {
                kinds::JOB => {
                    dirty.insert(ev.object.key());
                }
                kinds::POD if ev.kind != WatchType::Deleted => {
                    let ns = &ev.object.meta.namespace;
                    let Some(job) = &ev.object.pod_spec().job_name else { continue };
                    if let Some(job) = api.get(kinds::JOB, ns, job) {
                        dirty.insert(job.key());
                    }
                }
                _ => {}
            }
        }

        for (ns, job_name) in dirty {
            self.reconcile_job(api, &ns, &job_name, now);
        }

        while self.ttl_due.peek().is_some_and(|Reverse((due, _))| *due <= now.as_nanos()) {
            let Reverse((_, (ns, job_name))) = self.ttl_due.pop().expect("peeked");
            self.reconcile_job(api, &ns, &job_name, now);
        }
    }

    fn reconcile_job(&mut self, api: &mut ApiServer, ns: &str, job_name: &str, now: SimTime) {
        let Some(job) = api.get_rc(kinds::JOB, ns, job_name) else { return };
        if job.meta.deletion_requested {
            return; // finalizers (VNI controller) and GC handle the rest
        }
        let spec = job.job_spec();
        let mut status = job.job_status().cloned().unwrap_or_default();

        // Existing pods of this job, from the owner index.
        let pods = api.owned_by_rc(job.meta.uid, kinds::POD);
        let succeeded =
            pods.iter().filter(|p| p.pod_phase() == PodPhase::Succeeded).count() as u32;
        let failed = pods.iter().any(|p| p.pod_phase() == PodPhase::Failed);

        // Create missing pods.
        for i in 0..spec.parallelism {
            let pod_name = format!("{job_name}-{i}");
            if pods.iter().any(|p| *p.meta.name == *pod_name) {
                continue;
            }
            let pod_spec = PodSpec {
                job_name: Some(job_name.to_string()),
                image: spec.template.image.clone(),
                run_ms: spec.template.run_ms,
                userns_base: spec.template.userns_base,
                node_name: None,
                spread_key: Some(format!("{ns}/{job_name}")),
                node_selector: spec.template.node_selector.clone(),
                termination_grace_period_secs: 30,
            };
            let mut pod = ApiObject::with_key(
                kinds::POD,
                Rc::clone(&job.meta.namespace),
                pod_name.into(),
                serde_json::to_value(pod_spec).expect("PodSpec serializes"),
            );
            pod.meta.owner_uids.push(job.meta.uid);
            pod.meta.finalizers.push(Rc::clone(&self.finalizer));
            // Pods inherit the job's annotations — the CXI CNI plugin
            // reads the `vni` annotation from the pod's metadata (§III-B).
            pod.meta.annotations = job.meta.annotations.clone();
            if api.create(pod, now).is_ok() {
                self.pods_created += 1;
            }
        }

        // Completion accounting.
        let newly_complete = !status.complete && !failed && succeeded >= spec.parallelism;
        if succeeded != status.succeeded || newly_complete {
            status.succeeded = succeeded;
            if newly_complete {
                status.complete = true;
                status.completed_at_ns = Some(now.as_nanos());
            }
            let st = serde_json::to_value(&status).expect("JobStatus serializes");
            let _ = api.set_status(kinds::JOB, ns, job_name, st);
        }

        // TTL-after-finished: delete completed jobs, now or at the first
        // poll at or after the deadline.
        if status.complete {
            if let Some(ttl) = spec.ttl_seconds_after_finished {
                let due = status.completed_at_ns.unwrap_or(0) + ttl * 1_000_000_000;
                if now.as_nanos() >= due {
                    let _ = api.delete(kinds::JOB, ns, job_name);
                } else {
                    self.ttl_due.push(Reverse((due, job.key())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{make_job, JobSpec, PodTemplate};
    use serde_json::json;

    fn job_spec(parallelism: u32) -> JobSpec {
        JobSpec {
            parallelism,
            template: PodTemplate {
                image: "alpine".into(),
                run_ms: Some(10),
                userns_base: None,
                node_selector: None,
            },
            ttl_seconds_after_finished: Some(0),
        }
    }

    fn set_pod_phase(api: &mut ApiServer, ns: &str, name: &str, phase: PodPhase) {
        api.mutate(kinds::POD, ns, name, |o| {
            o.status = json!({"phase": phase, "started_at_ns": 1});
        })
        .unwrap();
    }

    #[test]
    fn creates_pods_with_owner_finalizer_and_annotations() {
        let mut api = ApiServer::default();
        let mut job = make_job("ns", "j", &job_spec(2));
        job.meta.annotations.insert("vni".into(), "true".into());
        let job = api.create(job, SimTime::ZERO).unwrap();
        let mut jc = JobController::new();
        jc.poll(&mut api, SimTime::ZERO);
        let pods = api.list_namespaced(kinds::POD, "ns");
        assert_eq!(pods.len(), 2);
        for p in pods {
            assert!(p.meta.owner_uids.contains(&job.meta.uid));
            assert!(p.meta.finalizers.iter().any(|f| &**f == KUBELET_FINALIZER));
            assert_eq!(p.annotation("vni"), Some("true"));
            assert_eq!(p.pod_spec().spread_key.as_deref(), Some("ns/j"));
        }
        assert_eq!(jc.pods_created, 2);
    }

    #[test]
    fn reconcile_is_idempotent() {
        let mut api = ApiServer::default();
        api.create(make_job("ns", "j", &job_spec(2)), SimTime::ZERO).unwrap();
        let mut jc = JobController::new();
        jc.poll(&mut api, SimTime::ZERO);
        jc.poll(&mut api, SimTime::ZERO);
        jc.poll(&mut api, SimTime::ZERO);
        assert_eq!(api.list_namespaced(kinds::POD, "ns").len(), 2);
    }

    #[test]
    fn completion_marks_job_and_ttl_deletes_it() {
        let mut api = ApiServer::default();
        api.create(make_job("ns", "j", &job_spec(1)), SimTime::ZERO).unwrap();
        let mut jc = JobController::new();
        jc.poll(&mut api, SimTime::ZERO);
        set_pod_phase(&mut api, "ns", "j-0", PodPhase::Succeeded);
        jc.poll(&mut api, SimTime::from_nanos(5));
        // Job marked complete and (ttl=0) deletion requested; the pod
        // still carries the kubelet finalizer so it is terminating.
        assert!(api.get(kinds::JOB, "ns", "j").is_none(), "job reaped");
        let pod = api.get(kinds::POD, "ns", "j-0").expect("pod terminating, not gone");
        assert!(pod.meta.deletion_requested);
        // Kubelet finishes teardown:
        api.remove_finalizer(kinds::POD, "ns", "j-0", KUBELET_FINALIZER).unwrap();
        assert!(api.get(kinds::POD, "ns", "j-0").is_none());
    }

    #[test]
    fn a_finished_job_is_reaped_when_its_ttl_runs_out_with_no_other_event() {
        let secs = |s: f64| SimTime::from_nanos((s * 1e9) as u64);
        let mut api = ApiServer::default();
        let spec = JobSpec { ttl_seconds_after_finished: Some(5), ..job_spec(1) };
        api.create(make_job("ns", "j", &spec), SimTime::ZERO).unwrap();
        let mut jc = JobController::new();
        jc.poll(&mut api, SimTime::ZERO);
        set_pod_phase(&mut api, "ns", "j-0", PodPhase::Succeeded);
        jc.poll(&mut api, secs(1.0));
        let st = api.get(kinds::JOB, "ns", "j").expect("kept").job_status().unwrap().clone();
        assert_eq!((st.complete, st.completed_at_ns), (true, Some(1_000_000_000)));
        // Nothing happens to the job from here on: only the clock moves.
        for t in [1.5, 2.0, 4.0, 5.999] {
            jc.poll(&mut api, secs(t));
            assert!(api.get(kinds::JOB, "ns", "j").is_some(), "present at {t} s, before its TTL");
        }
        jc.poll(&mut api, secs(6.0));
        assert!(api.get(kinds::JOB, "ns", "j").is_none(), "reaped 5 s after completing");
        jc.poll(&mut api, secs(7.0));
        assert!(api.get(kinds::JOB, "ns", "j").is_none());
    }

    #[test]
    fn failed_pod_blocks_completion() {
        let mut api = ApiServer::default();
        api.create(make_job("ns", "j", &job_spec(2)), SimTime::ZERO).unwrap();
        let mut jc = JobController::new();
        jc.poll(&mut api, SimTime::ZERO);
        set_pod_phase(&mut api, "ns", "j-0", PodPhase::Succeeded);
        set_pod_phase(&mut api, "ns", "j-1", PodPhase::Failed);
        jc.poll(&mut api, SimTime::from_nanos(5));
        let job = api.get(kinds::JOB, "ns", "j").expect("not deleted");
        assert!(!job.job_status().unwrap().complete);
    }

    #[test]
    fn multi_pod_jobs_require_all_completions() {
        let mut api = ApiServer::default();
        api.create(make_job("ns", "j", &job_spec(2)), SimTime::ZERO).unwrap();
        let mut jc = JobController::new();
        jc.poll(&mut api, SimTime::ZERO);
        set_pod_phase(&mut api, "ns", "j-0", PodPhase::Succeeded);
        jc.poll(&mut api, SimTime::from_nanos(5));
        let st = api.get(kinds::JOB, "ns", "j").unwrap().job_status().unwrap();
        assert_eq!((st.succeeded, st.complete), (1, false));
        set_pod_phase(&mut api, "ns", "j-1", PodPhase::Succeeded);
        jc.poll(&mut api, SimTime::from_nanos(6));
        assert!(api.get(kinds::JOB, "ns", "j").is_none(), "ttl=0 reaps");
    }
}
