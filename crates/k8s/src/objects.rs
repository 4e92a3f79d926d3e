//! The typed API objects: one closed [`Spec`] / [`Status`] pair over the
//! six [`kinds`] the control plane stores, and typed reads of both.
//!
//! The serde derives are the JSON schema of each kind; only the door
//! (`wire`) encodes or decodes it.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::api::ApiObject;
use crate::service::{ServiceSpec, ServiceStatus};

/// The annotation key carrying VNI requests (paper §III-C1): `vni: true`
/// for a Per-Resource VNI, `vni: <claim-name>` to redeem a VNI Claim.
pub const VNI_ANNOTATION: &str = "vni";

/// The closed set of kinds the API server stores. Kinds order as their
/// names do, so a key that starts with the kind sorts as the string keys
/// it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// Batch job.
    Job,
    /// Cluster node.
    Node,
    /// Pod.
    Pod,
    /// Long-running replicated service (the serving plane).
    Service,
    /// The VNI custom resource (paper CRD).
    Vni,
    /// The VNI Claim custom resource (paper CRD).
    VniClaim,
}

impl Kind {
    /// Every kind, in order.
    pub const ALL: [Kind; 6] =
        [Kind::Job, Kind::Node, Kind::Pod, Kind::Service, Kind::Vni, Kind::VniClaim];

    /// The kind's name, as the API speaks it.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Job => "Job",
            Kind::Node => "Node",
            Kind::Pod => "Pod",
            Kind::Service => "Service",
            Kind::Vni => "Vni",
            Kind::VniClaim => "VniClaim",
        }
    }

    /// Position in [`Kind::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Well-known kinds, by their API names.
pub mod kinds {
    use super::Kind;

    /// Batch job.
    pub const JOB: Kind = Kind::Job;
    /// Pod.
    pub const POD: Kind = Kind::Pod;
    /// Cluster node.
    pub const NODE: Kind = Kind::Node;
    /// The VNI custom resource (paper CRD).
    pub const VNI: Kind = Kind::Vni;
    /// The VNI Claim custom resource (paper CRD).
    pub const VNI_CLAIM: Kind = Kind::VniClaim;
    /// Long-running replicated service (the serving plane).
    pub const SERVICE: Kind = Kind::Service;
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

/// Node spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Pod capacity.
    #[serde(rename = "maxPods")]
    pub max_pods: u32,
}

/// Node status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStatus {
    /// Schedulable.
    pub ready: bool,
}

/// Spec of a VNI CRD instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VniCrdSpec {
    /// The allocated VNI value.
    pub vni: u16,
    /// Whether this is a non-owning ("virtual") instance attached to a
    /// job that redeems a claim (§III-C2, dotted object in Fig. 4).
    #[serde(default)]
    pub r#virtual: bool,
    /// The claim name, for claim-attached instances.
    #[serde(default)]
    pub claim: Option<String>,
}

/// Spec of a VNI Claim (Listing 2 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VniClaimSpec {
    /// The claim's name, which jobs redeem it by.
    pub name: String,
}

/// Desired state of an object, one variant per kind: the variant *is*
/// the object's kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// [`kinds::JOB`].
    Job(JobSpec),
    /// [`kinds::POD`].
    Pod(PodSpec),
    /// [`kinds::NODE`].
    Node(NodeSpec),
    /// [`kinds::VNI`].
    Vni(VniCrdSpec),
    /// [`kinds::VNI_CLAIM`].
    VniClaim(VniClaimSpec),
    /// [`kinds::SERVICE`].
    Service(ServiceSpec),
}

impl Spec {
    /// The kind this spec belongs to.
    pub(crate) fn kind(&self) -> Kind {
        match self {
            Spec::Job(_) => kinds::JOB,
            Spec::Pod(_) => kinds::POD,
            Spec::Node(_) => kinds::NODE,
            Spec::Vni(_) => kinds::VNI,
            Spec::VniClaim(_) => kinds::VNI_CLAIM,
            Spec::Service(_) => kinds::SERVICE,
        }
    }
}

/// Observed state of an object: `None` until a controller writes one
/// (JSON `null`). VNIs and claims never carry one.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// No status yet.
    None,
    /// A pod's.
    Pod(PodStatus),
    /// A job's.
    Job(JobStatus),
    /// A node's.
    Node(NodeStatus),
    /// A service's.
    Service(ServiceStatus),
}

/// Build a Job object.
pub fn make_job(namespace: &str, name: &str, spec: &JobSpec) -> ApiObject {
    ApiObject::from_spec(namespace, name, Spec::Job(spec.clone()))
}

/// Build a Node object.
pub fn make_node(name: &str, max_pods: u32) -> ApiObject {
    let mut node = ApiObject::from_spec("", name, Spec::Node(NodeSpec { max_pods }));
    node.status = Status::Node(NodeStatus { ready: true });
    node
}

/// Typed reads. Each spec read panics on an object of another kind; a
/// status read is `None` while the object has no status.
impl ApiObject {
    /// A pod's spec.
    pub fn pod_spec(&self) -> &PodSpec {
        match &*self.spec {
            Spec::Pod(spec) => spec,
            _ => self.wrong_kind(kinds::POD),
        }
    }

    /// A pod's status.
    pub fn pod_status(&self) -> Option<&PodStatus> {
        match &self.status {
            Status::Pod(status) => Some(status),
            _ => None,
        }
    }

    /// A pod's phase (Pending when unset).
    pub fn pod_phase(&self) -> PodPhase {
        self.pod_status().map_or(PodPhase::Pending, |s| s.phase)
    }

    /// A job's spec.
    pub fn job_spec(&self) -> &JobSpec {
        match &*self.spec {
            Spec::Job(spec) => spec,
            _ => self.wrong_kind(kinds::JOB),
        }
    }

    /// A job's status.
    pub(crate) fn job_status(&self) -> Option<&JobStatus> {
        match &self.status {
            Status::Job(status) => Some(status),
            _ => None,
        }
    }

    /// A VNI CRD's spec.
    pub fn vni_spec(&self) -> &VniCrdSpec {
        match &*self.spec {
            Spec::Vni(spec) => spec,
            _ => self.wrong_kind(kinds::VNI),
        }
    }

    /// A service's spec.
    pub fn service_spec(&self) -> &ServiceSpec {
        match &*self.spec {
            Spec::Service(spec) => spec,
            _ => self.wrong_kind(kinds::SERVICE),
        }
    }

    /// A service's status.
    pub(crate) fn service_status(&self) -> Option<&ServiceStatus> {
        match &self.status {
            Status::Service(status) => Some(status),
            _ => None,
        }
    }

    fn wrong_kind(&self, want: Kind) -> ! {
        panic!("{} {} read as a {want}", self.kind(), self.full_name())
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
        let json = serde_json::to_value(&spec).unwrap();
        assert_eq!(ApiObject::new(kinds::JOB, "tenant-a", "bench", json), obj);
        assert_eq!(obj.job_spec(), &spec);
        assert_eq!(obj.kind(), kinds::JOB);
    }

    #[test]
    fn pod_phase_defaults_to_pending() {
        let pod = ApiObject::new(kinds::POD, "ns", "p", serde_json::json!({"image": "x"}));
        assert_eq!(pod.pod_phase(), PodPhase::Pending);
    }

    #[test]
    fn pod_status_roundtrip() {
        let mut api = crate::api::ApiServer::default();
        let spec = PodSpec {
            job_name: None,
            image: "alpine".into(),
            run_ms: Some(5),
            userns_base: None,
            node_name: None,
            spread_key: None,
            node_selector: None,
            termination_grace_period_secs: 30,
        };
        api.create(ApiObject::from_spec("ns", "p", Spec::Pod(spec)), SimTime::ZERO).unwrap();
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
        let pod = ApiObject::new(kinds::POD, "ns", "p", serde_json::json!({"image": "alpine"}));
        assert_eq!(pod.pod_spec().termination_grace_period_secs, 30);
    }
}
