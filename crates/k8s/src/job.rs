//! The job controller: creates pods for jobs, tracks completions, marks
//! jobs complete, and applies `ttlSecondsAfterFinished` (the paper's
//! admission experiments delete jobs "immediately after completion").

use std::collections::BTreeSet;

use shs_des::SimTime;

use crate::api::{ApiObject, ApiServer, WatchType};
use crate::objects::{
    kinds, pod_phase, spec_of, status_of, JobSpec, JobStatus, PodPhase, PodSpec,
};

/// Finalizer owned by the kubelet on every pod it must tear down.
pub const KUBELET_FINALIZER: &str = "kubelet.simk8s/teardown";

/// The job controller.
#[derive(Debug, Default)]
pub struct JobController {
    last_rv: u64,
    /// Jobs seen → pods created (diagnostics).
    pub pods_created: u64,
}

impl JobController {
    /// Fresh controller.
    pub fn new() -> Self {
        JobController::default()
    }

    /// One reconcile pass.
    pub fn poll(&mut self, api: &mut ApiServer, now: SimTime) {
        let (events, rv) = api.events_since(self.last_rv);
        self.last_rv = rv;

        // Collect job keys that need reconciling.
        let mut dirty: BTreeSet<(String, String)> = BTreeSet::new();
        for ev in &events {
            match ev.object.kind.as_str() {
                k if k == kinds::JOB => {
                    dirty.insert((ev.object.meta.namespace.clone(), ev.object.meta.name.clone()));
                }
                k if k == kinds::POD
                    && !matches!(ev.kind, WatchType::Deleted) => {
                        let spec: PodSpec = spec_of(&ev.object);
                        if let Some(job) = spec.job_name {
                            dirty.insert((ev.object.meta.namespace.clone(), job));
                        }
                    }
                _ => {}
            }
        }

        for (ns, job_name) in dirty {
            self.reconcile_job(api, &ns, &job_name, now);
        }
    }

    fn reconcile_job(&mut self, api: &mut ApiServer, ns: &str, job_name: &str, now: SimTime) {
        let Some(job) = api.get(kinds::JOB, ns, job_name).cloned() else { return };
        if job.meta.deletion_requested {
            return; // finalizers (VNI controller) and GC handle the rest
        }
        let spec: JobSpec = spec_of(&job);
        let mut status: JobStatus = status_of(&job).unwrap_or_default();

        // Existing pods of this job, from the owner index.
        let pods = api.owned_by(job.meta.uid, kinds::POD);
        let existing: BTreeSet<String> = pods.iter().map(|p| p.meta.name.clone()).collect();
        let succeeded =
            pods.iter().filter(|p| pod_phase(p) == PodPhase::Succeeded).count() as u32;
        let failed = pods.iter().any(|p| pod_phase(p) == PodPhase::Failed);

        // Create missing pods.
        for i in 0..spec.parallelism {
            let pod_name = format!("{job_name}-{i}");
            if existing.contains(&pod_name) {
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
            let mut pod = ApiObject::new(
                kinds::POD,
                ns,
                &pod_name,
                serde_json::to_value(pod_spec).expect("PodSpec serializes"),
            );
            pod.meta.owner_uids.push(job.meta.uid);
            pod.meta.finalizers.push(KUBELET_FINALIZER.to_string());
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
            let _ = api.mutate(kinds::JOB, ns, job_name, |o| o.status = st);
        }

        // TTL-after-finished: delete completed jobs.
        if status.complete {
            if let Some(ttl) = spec.ttl_seconds_after_finished {
                let done_at = status.completed_at_ns.unwrap_or(0);
                if now.as_nanos() >= done_at + ttl * 1_000_000_000 {
                    let _ = api.delete(kinds::JOB, ns, job_name);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{make_job, PodTemplate};
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
            assert!(p.meta.finalizers.contains(&KUBELET_FINALIZER.to_string()));
            assert_eq!(p.annotation("vni"), Some("true"));
            let spec: PodSpec = spec_of(p);
            assert_eq!(spec.spread_key.as_deref(), Some("ns/j"));
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
    fn failed_pod_blocks_completion() {
        let mut api = ApiServer::default();
        api.create(make_job("ns", "j", &job_spec(2)), SimTime::ZERO).unwrap();
        let mut jc = JobController::new();
        jc.poll(&mut api, SimTime::ZERO);
        set_pod_phase(&mut api, "ns", "j-0", PodPhase::Succeeded);
        set_pod_phase(&mut api, "ns", "j-1", PodPhase::Failed);
        jc.poll(&mut api, SimTime::from_nanos(5));
        let job = api.get(kinds::JOB, "ns", "j").expect("not deleted");
        let st: JobStatus = status_of(job).unwrap();
        assert!(!st.complete);
    }

    #[test]
    fn multi_pod_jobs_require_all_completions() {
        let mut api = ApiServer::default();
        api.create(make_job("ns", "j", &job_spec(2)), SimTime::ZERO).unwrap();
        let mut jc = JobController::new();
        jc.poll(&mut api, SimTime::ZERO);
        set_pod_phase(&mut api, "ns", "j-0", PodPhase::Succeeded);
        jc.poll(&mut api, SimTime::from_nanos(5));
        let st: JobStatus = status_of(api.get(kinds::JOB, "ns", "j").unwrap()).unwrap();
        assert_eq!((st.succeeded, st.complete), (1, false));
        set_pod_phase(&mut api, "ns", "j-1", PodPhase::Succeeded);
        jc.poll(&mut api, SimTime::from_nanos(6));
        assert!(api.get(kinds::JOB, "ns", "j").is_none(), "ttl=0 reaps");
    }
}
