//! The CXI CNI plugin (§III-B).
//!
//! The plugin is deployed *chained* after the primary network plugin
//! (see [`NodeChain`](crate::NodeChain) for the chain runner and
//! [`NodeCniCtx`] for the node context). On ADD it
//! (1) extracts the container's network-namespace inode, (2) fetches the
//! job's VNI from the VNI CRD instance in the management plane, and (3)
//! creates a CXI service whose sole member is that netns, realising the
//! virtual network on the node's switch port. On DEL it destroys every
//! CXI service associated with the container and retires unused fabric
//! grants. Containers without the `vni` annotation are untouched.

use shs_cni::{CniArgs, CniError, CniResult};
use shs_cxi::{CxiServiceDesc, SvcMember};
use shs_des::SimDur;
use shs_fabric::Vni;
use shs_k8s::{kinds, spec_of, PodSpec, VNI_ANNOTATION};

use crate::chain::{NodeCniCtx, NodeCniPlugin};
use crate::endpoint::{VniCrdSpec, VniEndpoint};

/// Maximum termination grace period the plugin accepts for VNI pods
/// (§III-C1: the 30 s quarantine bound is only safe if no pod outlives
/// its job by more than 30 s).
pub const MAX_GRACE_SECS: u64 = 30;

/// CXI CNI plugin timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxiCniParams {
    /// One management-plane query (HTTP GET against the API server).
    pub api_query: SimDur,
    /// CXI service creation via the driver (+ fabric grant).
    pub svc_create: SimDur,
    /// CXI service destruction.
    pub svc_destroy: SimDur,
    /// Plugin exec overhead per invocation (binary spawn + config parse).
    pub exec: SimDur,
}

impl Default for CxiCniParams {
    fn default() -> Self {
        CxiCniParams {
            api_query: SimDur::from_millis(5),
            svc_create: SimDur::from_millis(2),
            svc_destroy: SimDur::from_millis(2),
            exec: SimDur::from_millis(10),
        }
    }
}

/// The plugin.
#[derive(Debug, Default)]
pub struct CxiCniPlugin {
    params: CxiCniParams,
    /// ADDs that configured Slingshot access.
    pub adds: u64,
    /// DELs that removed at least one CXI service.
    pub dels: u64,
    /// No-op invocations (pods without the annotation).
    pub noops: u64,
}

impl CxiCniPlugin {
    /// Plugin with explicit timing.
    pub fn new(params: CxiCniParams) -> Self {
        CxiCniPlugin { params, ..Default::default() }
    }

    /// Label attached to CXI services owned by a container.
    fn label_for(container_id: &str) -> String {
        format!("cni:{container_id}")
    }
}

impl NodeCniPlugin for CxiCniPlugin {
    fn kind(&self) -> &str {
        "cxi"
    }

    fn add(
        &mut self,
        ctx: &mut NodeCniCtx<'_>,
        args: &CniArgs,
        mut prev: CniResult,
    ) -> Result<(CniResult, SimDur), (CniError, SimDur)> {
        // Exec + the pod-annotation query happen on every invocation.
        let mut cost = self.params.exec + self.params.api_query;
        // (0) Which pod is this? The runtime passes the pod reference.
        let Some(pod_ref) = &args.pod else {
            self.noops += 1;
            return Ok((prev, self.params.exec)); // non-Kubernetes container
        };
        let Some(pod) = ctx.api.get(kinds::POD, &pod_ref.namespace, &pod_ref.name) else {
            return Err((CniError::invalid_environment("pod not found in API"), cost));
        };
        // (1) Only act when the pod requests CXI capabilities (§III-B:
        // "Our CNI plugin only creates new CXI services if requested by
        // the calling container via annotations").
        let Some(_ann) = pod.annotation(VNI_ANNOTATION) else {
            self.noops += 1;
            return Ok((prev, cost));
        };
        // (2) Enforce the termination grace period bound (§III-C1).
        let spec: PodSpec = spec_of(pod);
        if spec.termination_grace_period_secs > MAX_GRACE_SECS {
            return Err((
                CniError::plugin(
                    120,
                    format!(
                        "terminationGracePeriodSeconds {} exceeds the {MAX_GRACE_SECS}s bound \
                         required for safe VNI recycling",
                        spec.termination_grace_period_secs
                    ),
                ),
                cost,
            ));
        }
        // (3) Fetch the VNI from the job's VNI CRD instance (second query).
        cost += self.params.api_query;
        let Some(job) = &spec.job_name else {
            return Err((CniError::invalid_config("vni annotation on a job-less pod"), cost));
        };
        let crd_name = VniEndpoint::child_name_for_job(job);
        let Some(crd) = ctx.api.get(kinds::VNI, &pod_ref.namespace, &crd_name) else {
            // VNI not (yet) acquired: the pod must not launch (§III-B).
            // The kubelet treats "try again" as a retriable failure.
            return Err((CniError::try_again(format!("VNI CRD {crd_name} not present")), cost));
        };
        let crd_spec: VniCrdSpec = match serde_json::from_value_ref(&crd.spec) {
            Ok(s) => s,
            Err(e) => return Err((CniError::decoding(format!("bad VNI CRD: {e}")), cost)),
        };
        let vni = Vni(crd_spec.vni);
        // (4) Create the CXI service for exactly this netns.
        cost += self.params.svc_create;
        let desc = CxiServiceDesc {
            members: vec![SvcMember::NetNs(args.netns)],
            vnis: vec![vni],
            limits: Default::default(),
            label: Self::label_for(&args.container_id),
        };
        let svc = match ctx.device.alloc_svc(&ctx.root, desc) {
            Ok(id) => id,
            Err(e) => {
                return Err((CniError::plugin(121, format!("CXI service creation: {e}")), cost))
            }
        };
        // (5) Realise the VNI on the wire (fabric-manager grant). An
        // unknown NIC means the node is miswired — fail the ADD (undoing
        // the service) rather than launching a pod with no network.
        let NodeCniCtx { device, fabric, root, nic, .. } = ctx;
        if let Err(e) = fabric.grant_vni(*nic, vni) {
            // Undo exactly the service this ADD created (a label match
            // could also sweep a healthy sibling left by a retried ADD).
            cost += self.params.svc_destroy;
            let msg = match device.driver.svc_destroy(root, svc, &mut device.nic) {
                Ok(_) => format!("fabric VNI grant: {e}"),
                Err(undo) => {
                    format!("fabric VNI grant: {e}; service rollback also failed: {undo}")
                }
            };
            return Err((CniError::plugin(123, msg), cost));
        }
        self.adds += 1;
        prev.extensions.insert("cxi/vni".into(), serde_json::json!(vni.raw()));
        prev.extensions.insert("cxi/service".into(), serde_json::json!(svc.0));
        Ok((prev, cost))
    }

    fn del(&mut self, ctx: &mut NodeCniCtx<'_>, args: &CniArgs) -> (Result<(), CniError>, SimDur) {
        let mut cost = self.params.exec;
        let label = Self::label_for(&args.container_id);
        // Collect VNIs used by the doomed services before removal.
        let vnis: Vec<Vni> = ctx
            .device
            .driver
            .services()
            .iter()
            .filter(|s| s.label == label)
            .flat_map(|s| s.vnis.clone())
            .collect();
        let NodeCniCtx { device, fabric, root, nic, .. } = ctx;
        let destroyed = match device
            .driver
            .svc_destroy_matching(root, &mut device.nic, |s| s.label == label)
        {
            Ok(d) => d,
            Err(e) => {
                return (
                    Err(CniError::plugin(122, format!("CXI service destroy: {e}"))),
                    cost,
                )
            }
        };
        if !destroyed.is_empty() {
            self.dels += 1;
            cost += self.params.svc_destroy;
        }
        // Retire fabric grants no longer referenced by any service.
        for vni in vnis {
            let still_used = device
                .driver
                .services()
                .iter()
                .any(|s| s.vnis.contains(&vni));
            if !still_used && vni != Vni::GLOBAL {
                fabric.revoke_vni(*nic, vni);
            }
        }
        (Ok(()), cost)
    }
}

impl CxiCniPlugin {
    /// CHECK verb: verify a CXI service exists for annotated pods.
    pub fn check(&self, ctx: &NodeCniCtx<'_>, args: &CniArgs) -> Result<(), CniError> {
        let label = Self::label_for(&args.container_id);
        let has = ctx.device.driver.services().iter().any(|s| s.label == label);
        // Pods without the annotation legitimately have no service; CHECK
        // passes when either no annotation or a service exists.
        let Some(pod_ref) = &args.pod else { return Ok(()) };
        let annotated = ctx
            .api
            .get(kinds::POD, &pod_ref.namespace, &pod_ref.name)
            .and_then(|p| p.annotation(VNI_ANNOTATION))
            .is_some();
        if annotated && !has {
            return Err(CniError::invalid_environment("CXI service missing"));
        }
        Ok(())
    }
}
