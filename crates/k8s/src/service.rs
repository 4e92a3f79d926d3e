//! The service controller (serving plane): long-running replica sets
//! with deterministic reconciliation and rolling updates.
//!
//! A `Service` is the cloud-native half of the paper's convergence
//! story: where a `Job` runs a fixed number of pods to completion, a
//! service keeps `replicas` pods alive indefinitely, replaces crashed
//! pods, and rolls its pod template forward under classic
//! maxUnavailable/maxSurge semantics — the reconciler never
//! *voluntarily* deletes a ready pod while doing so would drop the
//! ready count below `replicas - max_unavailable`.
//!
//! Service pods carry `spec.job_name = Some(<service name>)` so the CXI
//! CNI plugin resolves their VNI through the same `vni-<name>` CRD
//! lookup jobs use; a Metacontroller instance over kind `Service`
//! (wired by the cluster) decorates annotated services exactly like
//! annotated jobs.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use shs_des::SimTime;

use crate::api::{ApiObject, ApiServer};
use crate::job::KUBELET_FINALIZER;
use crate::objects::{kinds, pod_phase, spec_of, status_of, PodPhase, PodSpec, PodTemplate};

/// Annotation recording which template revision a service pod was
/// created from; pods whose recorded revision differs from the service
/// spec's `version` are "old" and get rolled.
pub const REVISION_ANNOTATION: &str = "service.simk8s/revision";

/// Service spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Desired number of ready pods.
    pub replicas: u32,
    /// Pod template (normally with `run_ms: None`: service pods run
    /// until deleted).
    pub template: PodTemplate,
    /// Rolling updates may drop at most this many pods below
    /// `replicas` ready.
    #[serde(default = "default_rolling")]
    pub max_unavailable: u32,
    /// Rolling updates may run at most this many pods above `replicas`.
    #[serde(default = "default_rolling")]
    pub max_surge: u32,
    /// Template revision; bumping it triggers a rolling update.
    #[serde(default)]
    pub version: u64,
}

fn default_rolling() -> u32 {
    1
}

/// Service status (observed by the reconciler).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceStatus {
    /// Live pods currently ready (Running, not terminating).
    pub ready: u32,
    /// Live pods at the spec's current revision.
    pub current: u32,
    /// All live (non-terminating) pods of the service.
    pub total: u32,
}

/// Build a Service object.
pub fn make_service(namespace: &str, name: &str, spec: &ServiceSpec) -> ApiObject {
    ApiObject::new(
        kinds::SERVICE,
        namespace,
        name,
        serde_json::to_value(spec).expect("ServiceSpec serializes"),
    )
}

/// The template revision a pod was created from (0 when unannotated).
pub fn pod_revision(pod: &ApiObject) -> u64 {
    pod.annotation(REVISION_ANNOTATION).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Whether a pod counts as ready: Running and not terminating.
pub fn pod_ready(pod: &ApiObject) -> bool {
    pod_phase(pod) == PodPhase::Running && !pod.meta.deletion_requested
}

/// Tracked view of one service pod during a reconcile pass.
#[derive(Debug, Clone)]
struct PodView {
    name: String,
    /// Created from the spec's current revision.
    current: bool,
    /// Running and not terminating.
    ready: bool,
    /// Not terminating (counts against the surge ceiling).
    alive: bool,
    phase: PodPhase,
}

/// The service controller: watches Services and their pods, reconciles
/// replica counts, replaces failures, and drives rolling updates.
#[derive(Debug, Default)]
pub struct ServiceController {
    last_rv: u64,
    /// Pods created (diagnostics).
    pub pods_created: u64,
    /// Pod deletions requested (diagnostics).
    pub pods_deleted: u64,
}

impl ServiceController {
    /// Fresh controller.
    pub fn new() -> Self {
        ServiceController::default()
    }

    /// One reconcile pass over everything dirtied since the last poll.
    pub fn poll(&mut self, api: &mut ApiServer, now: SimTime) {
        let (events, rv) = api.events_since(self.last_rv);
        self.last_rv = rv;

        let mut dirty: BTreeSet<(String, String)> = BTreeSet::new();
        for ev in &events {
            match ev.object.kind.as_str() {
                k if k == kinds::SERVICE => {
                    dirty.insert((ev.object.meta.namespace.clone(), ev.object.meta.name.clone()));
                }
                // Unlike the job controller, pod *deletions* matter:
                // a reaped pod must be replaced to hold the replica
                // count. Pods name their manager through `job_name`;
                // keys that turn out to be jobs are skipped below.
                k if k == kinds::POD => {
                    let spec: PodSpec = spec_of(&ev.object);
                    if let Some(owner) = spec.job_name {
                        dirty.insert((ev.object.meta.namespace.clone(), owner));
                    }
                }
                _ => {}
            }
        }
        for (ns, name) in dirty {
            self.reconcile_service(api, &ns, &name, now);
        }
    }

    /// Reconcile one service. Deterministic: pods are processed in
    /// lexicographic name order and every decision depends only on API
    /// state.
    pub fn reconcile_service(&mut self, api: &mut ApiServer, ns: &str, name: &str, now: SimTime) {
        let Some(svc) = api.get(kinds::SERVICE, ns, name).cloned() else { return };
        if svc.meta.deletion_requested {
            return; // cascade + kubelet finalizers tear the pods down
        }
        let spec: ServiceSpec = spec_of(&svc);
        // Both knobs zero would deadlock a rolling update (no room to
        // surge, no license to dip); treat it as surge 1, like upstream
        // validation would reject it.
        let max_surge =
            if spec.max_unavailable == 0 && spec.max_surge == 0 { 1 } else { spec.max_surge };
        let floor = spec.replicas.saturating_sub(spec.max_unavailable) as usize;
        let ceiling = (spec.replicas + max_surge) as usize;

        let mut pods: Vec<PodView> = api
            .owned_by(svc.meta.uid, kinds::POD)
            .into_iter()
            .map(|p| PodView {
                name: p.meta.name.clone(),
                current: pod_revision(p) == spec.version,
                ready: pod_ready(p),
                alive: !p.meta.deletion_requested,
                phase: pod_phase(p),
            })
            .collect();

        // 1. Failed pods are dead weight: delete them (they are not
        //    ready, so the floor is unaffected).
        for p in pods.iter_mut().filter(|p| p.alive && p.phase == PodPhase::Failed) {
            if api.delete(kinds::POD, ns, &p.name).is_ok() {
                self.pods_deleted += 1;
            }
            p.alive = false;
            p.ready = false;
        }

        // 2. Scale down: drop current-revision extras above `replicas`,
        //    highest name first (the most recently created pods).
        let mut current_alive = pods.iter().filter(|p| p.alive && p.current).count();
        for p in pods.iter_mut().rev().filter(|p| p.alive && p.current) {
            if current_alive <= spec.replicas as usize {
                break;
            }
            if api.delete(kinds::POD, ns, &p.name).is_ok() {
                self.pods_deleted += 1;
            }
            p.alive = false;
            p.ready = false;
            current_alive -= 1;
        }

        // 3. Roll old-revision pods. Non-ready old pods go
        //    unconditionally; ready old pods go only while the ready
        //    count stays at or above the floor.
        let mut ready_count = pods.iter().filter(|p| p.ready).count();
        for p in pods.iter_mut().filter(|p| p.alive && !p.current) {
            let safe = if p.ready { ready_count > floor } else { true };
            if !safe {
                continue;
            }
            if api.delete(kinds::POD, ns, &p.name).is_ok() {
                self.pods_deleted += 1;
            }
            if p.ready {
                ready_count -= 1;
            }
            p.alive = false;
            p.ready = false;
        }

        // 4. Scale up: create missing current-revision pods at the
        //    smallest free indices, bounded by the surge ceiling
        //    (terminating pods still hold their names but not a slot).
        let mut current_alive = pods.iter().filter(|p| p.alive && p.current).count();
        let mut total_alive = pods.iter().filter(|p| p.alive).count();
        let taken: BTreeSet<String> = pods.iter().map(|p| p.name.clone()).collect();
        let mut idx = 0u32;
        while current_alive < spec.replicas as usize && total_alive < ceiling {
            let pod_name = format!("{name}-v{}-{idx}", spec.version);
            idx += 1;
            if taken.contains(&pod_name) {
                continue;
            }
            let pod_spec = PodSpec {
                job_name: Some(name.to_string()),
                image: spec.template.image.clone(),
                run_ms: spec.template.run_ms,
                userns_base: spec.template.userns_base,
                node_name: None,
                spread_key: Some(format!("{ns}/{name}")),
                node_selector: spec.template.node_selector.clone(),
                termination_grace_period_secs: 30,
            };
            let mut pod = ApiObject::new(
                kinds::POD,
                ns,
                &pod_name,
                serde_json::to_value(pod_spec).expect("PodSpec serializes"),
            );
            pod.meta.owner_uids.push(svc.meta.uid);
            pod.meta.finalizers.push(KUBELET_FINALIZER.to_string());
            // Pods inherit the service's annotations (the CXI CNI reads
            // `vni` from pod metadata), plus the revision stamp.
            pod.meta.annotations = svc.meta.annotations.clone();
            pod.meta
                .annotations
                .insert(REVISION_ANNOTATION.to_string(), spec.version.to_string());
            if api.create(pod, now).is_ok() {
                self.pods_created += 1;
                current_alive += 1;
                total_alive += 1;
            }
        }

        // 5. Status, written only on change so reconciles settle.
        let ready = pods.iter().filter(|p| p.ready).count() as u32;
        let status = ServiceStatus {
            ready,
            current: current_alive as u32,
            total: total_alive as u32,
        };
        let old: ServiceStatus = status_of(&svc).unwrap_or_default();
        if status != old {
            let st = serde_json::to_value(&status).expect("ServiceStatus serializes");
            let _ = api.mutate(kinds::SERVICE, ns, name, |o| o.status = st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn svc_spec(replicas: u32, version: u64) -> ServiceSpec {
        ServiceSpec {
            replicas,
            template: PodTemplate {
                image: "nginx".into(),
                run_ms: None,
                userns_base: None,
                node_selector: None,
            },
            max_unavailable: 1,
            max_surge: 1,
            version,
        }
    }

    fn set_phase(api: &mut ApiServer, ns: &str, name: &str, phase: PodPhase) {
        api.mutate(kinds::POD, ns, name, |o| {
            o.status = json!({"phase": phase, "started_at_ns": 1});
        })
        .unwrap();
    }

    fn ready_pods(api: &ApiServer, ns: &str) -> Vec<String> {
        api.list_namespaced(kinds::POD, ns)
            .into_iter()
            .filter(|p| pod_ready(p))
            .map(|p| p.meta.name.clone())
            .collect()
    }

    /// Drive every live pod to Running and let terminating pods finish,
    /// like the kubelet would.
    fn settle(api: &mut ApiServer, ns: &str) {
        let pods: Vec<(String, bool, PodPhase)> = api
            .list_namespaced(kinds::POD, ns)
            .into_iter()
            .map(|p| (p.meta.name.clone(), p.meta.deletion_requested, pod_phase(p)))
            .collect();
        for (name, terminating, phase) in pods {
            if terminating {
                let _ = api.remove_finalizer(kinds::POD, ns, &name, KUBELET_FINALIZER);
            } else if phase == PodPhase::Pending {
                set_phase(api, ns, &name, PodPhase::Running);
            }
        }
    }

    #[test]
    fn creates_replicas_with_owner_finalizer_and_revision() {
        let mut api = ApiServer::default();
        let mut svc = make_service("ns", "web", &svc_spec(3, 7));
        svc.meta.annotations.insert("vni".into(), "true".into());
        let svc = api.create(svc, SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        sc.poll(&mut api, SimTime::ZERO);
        let pods = api.list_namespaced(kinds::POD, "ns");
        assert_eq!(pods.len(), 3);
        for p in pods {
            assert!(p.meta.owner_uids.contains(&svc.meta.uid));
            assert!(p.meta.finalizers.contains(&KUBELET_FINALIZER.to_string()));
            assert_eq!(p.annotation("vni"), Some("true"));
            assert_eq!(pod_revision(p), 7);
            let spec: PodSpec = spec_of(p);
            assert_eq!(spec.job_name.as_deref(), Some("web"));
            assert!(spec.run_ms.is_none(), "service pods run until killed");
        }
        assert_eq!(sc.pods_created, 3);
    }

    #[test]
    fn reconcile_is_idempotent() {
        let mut api = ApiServer::default();
        api.create(make_service("ns", "web", &svc_spec(2, 0)), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        sc.poll(&mut api, SimTime::ZERO);
        sc.poll(&mut api, SimTime::ZERO);
        sc.poll(&mut api, SimTime::ZERO);
        assert_eq!(api.list_namespaced(kinds::POD, "ns").len(), 2);
        assert_eq!(sc.pods_created, 2);
    }

    #[test]
    fn failed_pod_is_replaced() {
        let mut api = ApiServer::default();
        api.create(make_service("ns", "web", &svc_spec(2, 0)), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        sc.poll(&mut api, SimTime::ZERO);
        settle(&mut api, "ns");
        set_phase(&mut api, "ns", "web-v0-0", PodPhase::Failed);
        sc.poll(&mut api, SimTime::from_nanos(1));
        // The failed pod is terminating; kubelet finishes teardown, the
        // Deleted event dirties the service, and a replacement appears.
        settle(&mut api, "ns");
        sc.poll(&mut api, SimTime::from_nanos(2));
        let pods = api.list_namespaced(kinds::POD, "ns");
        assert_eq!(pods.len(), 2);
        assert!(pods.iter().all(|p| !p.meta.deletion_requested));
    }

    #[test]
    fn scale_down_removes_highest_index_pods() {
        let mut api = ApiServer::default();
        api.create(make_service("ns", "web", &svc_spec(4, 0)), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        sc.poll(&mut api, SimTime::ZERO);
        settle(&mut api, "ns");
        api.mutate(kinds::SERVICE, "ns", "web", |o| {
            o.spec["replicas"] = json!(2);
        })
        .unwrap();
        sc.poll(&mut api, SimTime::from_nanos(1));
        let live: Vec<String> = api
            .list_namespaced(kinds::POD, "ns")
            .into_iter()
            .filter(|p| !p.meta.deletion_requested)
            .map(|p| p.meta.name.clone())
            .collect();
        assert_eq!(live, vec!["web-v0-0", "web-v0-1"]);
    }

    #[test]
    fn rolling_update_holds_the_ready_floor_and_converges() {
        let mut api = ApiServer::default();
        api.create(make_service("ns", "web", &svc_spec(4, 0)), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        sc.poll(&mut api, SimTime::ZERO);
        settle(&mut api, "ns");
        sc.poll(&mut api, SimTime::ZERO);
        assert_eq!(ready_pods(&api, "ns").len(), 4);
        // Bump the template revision to start the roll.
        api.mutate(kinds::SERVICE, "ns", "web", |o| {
            o.spec["version"] = json!(1);
        })
        .unwrap();
        let floor = 3; // replicas 4, max_unavailable 1
        for step in 0..20u64 {
            sc.poll(&mut api, SimTime::from_nanos(step));
            assert!(
                ready_pods(&api, "ns").len() >= floor,
                "ready dipped below floor at step {step}"
            );
            settle(&mut api, "ns");
        }
        let pods = api.list_namespaced(kinds::POD, "ns");
        assert_eq!(pods.len(), 4);
        assert!(pods.iter().all(|p| pod_revision(p) == 1), "all pods rolled");
        assert_eq!(ready_pods(&api, "ns").len(), 4);
    }

    #[test]
    fn surge_ceiling_bounds_live_pods_during_a_roll() {
        let mut api = ApiServer::default();
        api.create(make_service("ns", "web", &svc_spec(3, 0)), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        sc.poll(&mut api, SimTime::ZERO);
        settle(&mut api, "ns");
        api.mutate(kinds::SERVICE, "ns", "web", |o| {
            o.spec["version"] = json!(1);
        })
        .unwrap();
        for step in 0..20u64 {
            sc.poll(&mut api, SimTime::from_nanos(step));
            let alive = api
                .list_namespaced(kinds::POD, "ns")
                .into_iter()
                .filter(|p| !p.meta.deletion_requested)
                .count();
            assert!(alive <= 4, "surge ceiling (replicas 3 + surge 1) exceeded: {alive}");
            settle(&mut api, "ns");
        }
        assert_eq!(ready_pods(&api, "ns").len(), 3);
    }

    #[test]
    fn zero_zero_rolling_config_still_makes_progress() {
        let mut api = ApiServer::default();
        let mut spec = svc_spec(2, 0);
        spec.max_unavailable = 0;
        spec.max_surge = 0;
        api.create(make_service("ns", "web", &spec), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        sc.poll(&mut api, SimTime::ZERO);
        settle(&mut api, "ns");
        api.mutate(kinds::SERVICE, "ns", "web", |o| {
            o.spec["version"] = json!(1);
        })
        .unwrap();
        for step in 0..20u64 {
            sc.poll(&mut api, SimTime::from_nanos(step));
            assert_eq!(ready_pods(&api, "ns").len(), 2, "never dips: effective surge 1");
            settle(&mut api, "ns");
        }
        let pods = api.list_namespaced(kinds::POD, "ns");
        assert!(pods.iter().all(|p| pod_revision(p) == 1));
    }

    #[test]
    fn deleting_the_service_cascades_to_pods() {
        let mut api = ApiServer::default();
        api.create(make_service("ns", "web", &svc_spec(2, 0)), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        sc.poll(&mut api, SimTime::ZERO);
        api.delete(kinds::SERVICE, "ns", "web").unwrap();
        // Service has no finalizers → reaped; pods enter teardown.
        assert!(api.get(kinds::SERVICE, "ns", "web").is_none());
        let pods = api.list_namespaced(kinds::POD, "ns");
        assert_eq!(pods.len(), 2);
        assert!(pods.iter().all(|p| p.meta.deletion_requested));
        // Reconcile of a vanished service must not recreate pods.
        sc.poll(&mut api, SimTime::from_nanos(1));
        settle(&mut api, "ns");
        sc.poll(&mut api, SimTime::from_nanos(2));
        assert!(api.list_namespaced(kinds::POD, "ns").is_empty());
    }

    #[test]
    fn status_reports_ready_current_total() {
        let mut api = ApiServer::default();
        api.create(make_service("ns", "web", &svc_spec(2, 0)), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        sc.poll(&mut api, SimTime::ZERO);
        settle(&mut api, "ns");
        sc.poll(&mut api, SimTime::ZERO);
        let st: ServiceStatus = status_of(api.get(kinds::SERVICE, "ns", "web").unwrap()).unwrap();
        assert_eq!(st, ServiceStatus { ready: 2, current: 2, total: 2 });
    }
}
