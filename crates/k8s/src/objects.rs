//! Typed views over the dynamic API objects: Jobs, Pods, Nodes.

use std::cell::OnceCell;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::api::ApiObject;

/// The annotation key carrying VNI requests (paper §III-C1): `vni: true`
/// for a Per-Resource VNI, `vni: <claim-name>` to redeem a VNI Claim.
pub const VNI_ANNOTATION: &str = "vni";

/// Well-known kinds.
pub mod kinds {
    /// Batch job.
    pub const JOB: &str = "Job";
    /// Pod.
    pub const POD: &str = "Pod";
    /// Cluster node.
    pub const NODE: &str = "Node";
    /// The VNI custom resource (paper CRD).
    pub const VNI: &str = "Vni";
    /// The VNI Claim custom resource (paper CRD).
    pub const VNI_CLAIM: &str = "VniClaim";
    /// Long-running replicated service (the serving plane).
    pub const SERVICE: &str = "Service";
}

/// Pod template inside a job spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodTemplate {
    /// Image reference.
    pub image: String,
    /// Workload runtime in milliseconds (`None` = runs until killed).
    #[serde(default)]
    pub run_ms: Option<u64>,
    /// Base host uid for a user-namespaced pod (`None` = host userns).
    #[serde(default)]
    pub userns_base: Option<u32>,
    /// Node selector: when set, the scheduler only considers these
    /// nodes (topology-aware rank placement — pinning a job's ranks
    /// into one dragonfly group, or deliberately across groups).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub node_selector: Option<Vec<String>>,
}

/// Job spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Number of pods to run in parallel.
    pub parallelism: u32,
    /// Pod template.
    pub template: PodTemplate,
    /// Delete the job this many seconds after it finishes (the paper's
    /// admission tests use 0: "Jobs are configured to be deleted
    /// immediately after completion", §IV-B).
    #[serde(default)]
    pub ttl_seconds_after_finished: Option<u64>,
}

/// Pod spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodSpec {
    /// Owning job name (if job-managed).
    #[serde(default)]
    pub job_name: Option<String>,
    /// Image reference.
    pub image: String,
    /// Workload runtime in ms.
    #[serde(default)]
    pub run_ms: Option<u64>,
    /// Userns base.
    #[serde(default)]
    pub userns_base: Option<u32>,
    /// Node binding (set by the scheduler).
    #[serde(default)]
    pub node_name: Option<String>,
    /// Topology-spread group key: pods sharing a key are spread across
    /// nodes (the paper uses topology spread constraints to place the two
    /// OSU ranks on two nodes, §IV-A).
    #[serde(default)]
    pub spread_key: Option<String>,
    /// Node selector inherited from the pod template: when set, the
    /// scheduler binds only to one of these nodes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub node_selector: Option<Vec<String>>,
    /// Termination grace period in seconds. The CXI CNI plugin enforces
    /// ≤ 30 s for VNI-requesting pods (§III-C1).
    #[serde(default = "default_grace")]
    pub termination_grace_period_secs: u64,
}

fn default_grace() -> u64 {
    30
}

/// Pod lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PodPhase {
    /// Created, not yet started on a node.
    Pending,
    /// Containers running.
    Running,
    /// Workload exited successfully.
    Succeeded,
    /// Startup or workload failed.
    Failed,
}

/// Pod status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodStatus {
    /// Phase.
    pub phase: PodPhase,
    /// Instant the workload started (ns since sim start).
    #[serde(default)]
    pub started_at_ns: Option<u64>,
    /// Failure message, if failed.
    #[serde(default)]
    pub message: Option<String>,
}

/// Job status.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Pods that reached Succeeded.
    pub succeeded: u32,
    /// Whether the job completed.
    pub complete: bool,
    /// Completion instant (ns since sim start).
    #[serde(default)]
    pub completed_at_ns: Option<u64>,
}

/// Build a Job object.
pub fn make_job(namespace: &str, name: &str, spec: &JobSpec) -> ApiObject {
    ApiObject::new(
        kinds::JOB,
        namespace,
        name,
        serde_json::to_value(spec).expect("JobSpec serializes"),
    )
}

/// Build a Node object.
pub fn make_node(name: &str, max_pods: u32) -> ApiObject {
    let mut node = ApiObject::new(kinds::NODE, "", name, serde_json::json!({"maxPods": max_pods}));
    node.status = serde_json::json!({"ready": true});
    node
}

/// Decode a typed spec from an object; panics on schema mismatch (which
/// is a programming error in this closed system).
pub fn spec_of<T: serde::de::DeserializeOwned>(obj: &ApiObject) -> T {
    serde_json::from_value_ref(&obj.spec)
        .unwrap_or_else(|e| panic!("bad {} spec for {}: {e}", obj.kind, obj.full_name()))
}

/// Decode a typed status; `None` when the status is null/absent.
pub fn status_of<T: serde::de::DeserializeOwned>(obj: &ApiObject) -> Option<T> {
    if obj.status.is_null() {
        None
    } else {
        serde_json::from_value_ref(&obj.status).ok()
    }
}

/// The typed view of one pod or job snapshot: what every watcher used
/// to decode from the same JSON on its own.
#[derive(Debug)]
enum View {
    Pod { spec: PodSpec, status: Option<PodStatus> },
    Job { spec: JobSpec, status: Option<JobStatus> },
}

/// The lazily decoded [`View`] of an [`ApiObject`]. It is a function of
/// the object's JSON, so it takes no part in equality or `Debug`, and a
/// clone starts empty: a copy is usually about to be edited.
#[derive(Default)]
pub(crate) struct ViewCell(OnceCell<View>);

impl ViewCell {
    /// Forget the decoded view (the JSON it came from has changed).
    pub(crate) fn clear(&mut self) {
        self.0.take();
    }
}

impl Clone for ViewCell {
    fn clone(&self) -> Self {
        ViewCell::default()
    }
}

impl PartialEq for ViewCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for ViewCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ViewCell")
    }
}

/// Typed reads of pods and jobs. The first read of a snapshot decodes
/// its spec and status ([`spec_of`] / [`status_of`]); every later read
/// of it, by any watcher, is a borrow. Each panics on an object of
/// another kind.
impl ApiObject {
    fn view(&self) -> &View {
        self.view.0.get_or_init(|| match self.kind {
            kinds::POD => View::Pod { spec: spec_of(self), status: status_of(self) },
            kinds::JOB => View::Job { spec: spec_of(self), status: status_of(self) },
            other => panic!("{other} {} has no typed view", self.full_name()),
        })
    }

    fn pod_view(&self) -> (&PodSpec, Option<&PodStatus>) {
        match self.view() {
            View::Pod { spec, status } => (spec, status.as_ref()),
            View::Job { .. } => panic!("job {} read as a pod", self.full_name()),
        }
    }

    fn job_view(&self) -> (&JobSpec, Option<&JobStatus>) {
        match self.view() {
            View::Job { spec, status } => (spec, status.as_ref()),
            View::Pod { .. } => panic!("pod {} read as a job", self.full_name()),
        }
    }

    /// A pod's spec.
    pub fn pod_spec(&self) -> &PodSpec {
        self.pod_view().0
    }

    /// A pod's status; `None` while null (or not a `PodStatus`).
    pub fn pod_status(&self) -> Option<&PodStatus> {
        self.pod_view().1
    }

    /// A pod's phase (Pending when unset).
    pub fn pod_phase(&self) -> PodPhase {
        self.pod_status().map_or(PodPhase::Pending, |s| s.phase)
    }

    /// A job's spec.
    pub fn job_spec(&self) -> &JobSpec {
        self.job_view().0
    }

    /// A job's status; `None` while null (or not a `JobStatus`).
    pub fn job_status(&self) -> Option<&JobStatus> {
        self.job_view().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_des::SimTime;

    #[test]
    fn job_roundtrips_through_spec_json() {
        let spec = JobSpec {
            parallelism: 2,
            template: PodTemplate {
                image: "alpine".into(),
                run_ms: Some(10),
                userns_base: None,
                node_selector: None,
            },
            ttl_seconds_after_finished: Some(0),
        };
        let obj = make_job("tenant-a", "bench", &spec);
        let back: JobSpec = spec_of(&obj);
        assert_eq!(back, spec);
        assert_eq!(obj.job_spec(), &spec);
        assert_eq!(obj.kind, kinds::JOB);
    }

    #[test]
    fn pod_phase_defaults_to_pending() {
        let pod = ApiObject::new(kinds::POD, "ns", "p", serde_json::json!({"image": "x"}));
        assert_eq!(pod.pod_phase(), PodPhase::Pending);
    }

    #[test]
    fn pod_status_roundtrip() {
        let mut api = crate::api::ApiServer::default();
        let pod = ApiObject::new(
            kinds::POD,
            "ns",
            "p",
            serde_json::to_value(PodSpec {
                job_name: None,
                image: "alpine".into(),
                run_ms: Some(5),
                userns_base: None,
                node_name: None,
                spread_key: None,
                node_selector: None,
                termination_grace_period_secs: 30,
            })
            .unwrap(),
        );
        api.create(pod, SimTime::ZERO).unwrap();
        api.mutate(kinds::POD, "ns", "p", |o| {
            o.status = serde_json::to_value(PodStatus {
                phase: PodPhase::Running,
                started_at_ns: Some(123),
                message: None,
            })
            .unwrap();
        })
        .unwrap();
        let pod = api.get(kinds::POD, "ns", "p").unwrap();
        assert_eq!(pod.pod_phase(), PodPhase::Running);
        assert_eq!(pod.pod_status().unwrap().started_at_ns, Some(123));
    }

    #[test]
    fn default_grace_period_is_thirty_seconds() {
        let spec: PodSpec =
            serde_json::from_value(serde_json::json!({"image": "alpine"})).unwrap();
        assert_eq!(spec.termination_grace_period_secs, 30);
    }
}
