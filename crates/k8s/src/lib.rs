//! # shs-k8s — Kubernetes-lite control plane
//!
//! The Kubernetes subset the paper's integration plugs into: an API
//! server with typed objects (JSON only at its door) under interned
//! integer ids, resource versions, watches,
//! finalizers and cascading owner deletion (`api`); Jobs/Pods/Nodes
//! (`objects`); a job controller (`job`); a service controller with
//! rolling updates ([`service`]); a PLEG-style pod-lifecycle cache that
//! keeps status reads O(1) (`pleg`); a topology-spread-aware
//! scheduler (`scheduler`); a kubelet pod pipeline with bounded worker
//! pools (`kubelet`); and a Metacontroller-style DecoratorController
//! with `/sync` + `/finalize` webhook apply semantics
//! (`metacontroller`) — the mechanism the paper's VNI Controller is
//! built on (§III-C).
//!
//! Everything is poll-driven (controllers are pure state machines driven
//! by a periodic control-plane tick), which keeps the whole cluster
//! deterministic under simulation.

pub(crate) mod api;
pub(crate) mod job;
pub(crate) mod kubelet;
pub(crate) mod metacontroller;
pub(crate) mod objects;
pub(crate) mod pleg;
pub(crate) mod scheduler;
pub mod service;
pub(crate) mod wire;

pub use api::{
    ApiError, ApiObject, ApiServer, IdMap, KeyHasher, ObjId, ObjectMeta, Shared, WatchEvent,
    WatchType,
};
pub use job::{JobController, KUBELET_FINALIZER};
pub use pleg::{GroupSnapshot, Pleg, PlegSnapshot};
pub use kubelet::{CniAddOutcome, Kubelet, KubeletCounters, KubeletParams, NodeBackend};
pub use metacontroller::{
    DecoratorConfig, DecoratorHooks, FinalizeResponse, Metacontroller,
    SyncResponse,
};
pub use objects::{
    kinds, make_job, make_node, JobSpec, Kind, JobStatus, NodeSpec, NodeStatus, PodPhase, PodSpec,
    PodStatus, PodTemplate, Spec, Status, VniClaimSpec, VniCrdSpec, VNI_ANNOTATION,
};
pub use scheduler::Scheduler;
pub use wire::WireObject;
pub use service::{make_service, pod_ready, ServiceController, ServiceSpec, ServiceStatus};
