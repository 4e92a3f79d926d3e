//! # slingshot-k8s — multi-tenant Slingshot RDMA for Kubernetes
//!
//! The core contribution of the reproduced paper (CLUSTER 2025), built on
//! the `shs-*` substrate crates:
//!
//! * **netns-authenticated CXI services** — the driver extension lives in
//!   `shs-cxi`; this crate exercises it end to end;
//! * **the CXI CNI plugin** ([`cxi_cni::CxiCniPlugin`], §III-B) — a
//!   chained plugin that creates per-container, netns-member CXI services
//!   from VNI CRD instances, enforces the 30 s termination-grace bound,
//!   and cleans up on DEL;
//! * **the VNI Service** (§III-C) — the [`endpoint::VniEndpoint`] webhook
//!   backend with Per-Resource VNI and VNI-Claim ownership models, and
//!   the ACID [`vni_db::VniDb`] with the 30 s reuse quarantine and audit
//!   log;
//! * **the cluster composition** ([`cluster::Cluster`]) that wires hosts,
//!   NICs, the fabric, container runtimes, CNI chains, kubelets and the
//!   control plane into one deterministic simulated cluster;
//! * **cluster-scale fabric sweeps** ([`parsim`]) — named 128–1024-node
//!   dragonfly fabric scenarios running sharded per group under
//!   `shs_des::ShardedSim`, their reports pinned byte for byte by
//!   fixtures.
//!
//! ```
//! use shs_des::{SimDur, SimTime};
//! use slingshot_k8s::{alpine, Cluster, ClusterConfig};
//!
//! let mut cluster = Cluster::new(ClusterConfig::default());
//! cluster.submit_job(SimTime::ZERO, "tenant", "hello",
//!                    &[("vni", "true")], 1, &alpine(), Some(10));
//! cluster.run_until(SimTime::ZERO, SimTime::from_nanos(5_000_000_000),
//!                   SimDur::from_millis(20));
//! assert!(!cluster.job_exists("tenant", "hello"), "completed and reaped");
//! ```

mod chain;
pub mod cluster;
pub mod cxi_cni;
pub mod endpoint;
pub mod parsim;
pub mod scenario;
pub mod sharded_db;
pub mod vni_db;
pub mod workloads;

pub use cluster::{
    alpine, osu_image, Cluster, ClusterConfig, Node, NodeInner, NodePlacement, PodHandle,
};
pub use chain::{NodeChain, NodeCniCtx, NodeCniPlugin};
pub use cxi_cni::{CxiCniParams, CxiCniPlugin, MAX_GRACE_SECS};
pub use endpoint::{EndpointCounters, EndpointHandle, EndpointRole, VniCrdSpec, VniEndpoint};
pub use parsim::{
    parallel_by_name, parallel_library, run_fabric_scenario, FabricClassReport, FabricGroupReport,
    FabricScenario, FabricSweepReport,
};
pub use scenario::{
    by_name, library, ring_allreduce_schedule, run_scenario, run_vni_stress, stress_by_name,
    stress_library, AutoscalePlan, BurstPlan, ClaimPlan, ClassTraffic, Fault, JobPlan,
    JobTraffic, Scenario, ScenarioReport, ServicePlan, ServiceReport, TrafficPattern,
    TrafficPlan, VniMode, VniStressReport, VniStressScenario,
};
pub use sharded_db::ShardedVniDb;
pub use vni_db::{
    AuditEntry, VniDb, VniDbConfig, VniDbCounters, VniDbError, VniDbStats, VniOwner, VniRow,
    VniState,
};
pub use workloads::{
    run_admission_spike, AcquireReleaseWorkload, AdmissionSpikeRun, ChurnHotWorkload,
    ClusterTickIdleWorkload, FabricAdaptiveHotWorkload, FabricTransferHotWorkload,
    PlegStatusReadWorkload, SchedulerPollPendingWorkload, ServiceMeshHotWorkload,
    VniStressWorkload,
};
