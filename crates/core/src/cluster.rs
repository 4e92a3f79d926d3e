//! Cluster composition: everything from Fig. 2 of the paper wired
//! together — per-node kernel, Cassini NIC + extended CXI driver,
//! container runtime, chained CNI plugins (bridge + CXI), kubelet; and
//! the cluster-level control plane — API server, scheduler, job
//! controller, and the VNI Service (two decorator controllers sharing
//! one VNI Endpoint + ACID database).
//!
//! The cluster is poll-driven: call [`Cluster::tick`] on a fixed cadence
//! (the harness uses 20 ms) and all controllers and kubelets advance.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use shs_cassini::{CassiniNic, CassiniParams};
use shs_cni::{bridge, BridgePlugin, CniArgs, PodRef};
use shs_containers::{ContainerRuntime, Image, ImageStore, RuntimeParams, UserNsMode};
use shs_cxi::{CxiDevice, CxiDriver, CxiServiceDesc};
use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::{CostModel, Fabric, NicAddr, RoutingPolicy, SwitchId, TopologySpec, Vni};
use shs_k8s::{
    kinds, make_node, ApiObject, ApiServer, CniAddOutcome, DecoratorConfig, JobController,
    JobSpec, Kubelet, KubeletParams, Metacontroller, NodeBackend, Pleg, PodPhase, PodTemplate,
    Scheduler, ServiceController, ServiceSpec, Spec, VniClaimSpec, VNI_ANNOTATION,
};
use shs_oslinux::{Creds, Host, NetNsId, Pid};

use crate::chain::{NodeChain, NodeCniCtx};
use crate::cxi_cni::CxiCniPlugin;
use crate::endpoint::{EndpointHandle, EndpointRole, VniEndpoint};
use crate::vni_db::{VniDb, VniDbConfig};

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes (the paper's testbed has 2).
    pub nodes: usize,
    /// Experiment seed (drives all jitter).
    pub seed: u64,
    /// VNI Endpoint webhook latency (HTTP + handler + DB transaction).
    pub webhook_latency: SimDur,
    /// Kubelet tuning.
    pub kubelet: KubeletParams,
    /// Allocatable VNI range.
    pub vni_range: core::ops::Range<u16>,
    /// VNI reuse quarantine (paper: 30 s).
    pub quarantine: SimDur,
    /// NIC timing model.
    pub nic_params: CassiniParams,
    /// Periodic resync of the job-VNI decorator. `None` (the default)
    /// only reacts to watch events, which matches the paper's webhook
    /// deployment; scenarios that exercise VNI-range exhaustion need a
    /// resync so a job whose acquisition failed is retried once the
    /// quarantine window releases capacity.
    pub vni_resync: Option<SimDur>,
    /// Fabric shape. `None` (the default) is the legacy single switch
    /// with `nodes + 8` edge ports; a dragonfly spec places node *i* on
    /// switch *i* mod switches, so consecutive nodes alternate
    /// dragonfly groups and cross-switch and cross-group contention
    /// scenarios can be expressed (see `COLLECTIVES.md`).
    pub topology: Option<TopologySpec>,
    /// Fabric routing policy. The default (`Minimal`) keeps every
    /// legacy scenario byte-identical; `Adaptive` turns on the per-
    /// message UGAL minimal-vs-Valiant choice (see FABRIC.md).
    pub routing: RoutingPolicy,
    /// Fabric cost model; scenarios override it to lower the ECN
    /// threshold (sender pacing) or bias the UGAL decision.
    pub cost_model: CostModel,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            seed: 42,
            webhook_latency: SimDur::from_millis(12),
            kubelet: KubeletParams::default(),
            vni_range: 1024..4096,
            quarantine: SimDur::from_secs(30),
            nic_params: CassiniParams::default(),
            vni_resync: None,
            topology: None,
            routing: RoutingPolicy::Minimal,
            cost_model: CostModel::default(),
        }
    }
}

/// The image the admission experiments launch (paper: alpine + echo).
pub fn alpine() -> Image {
    Image::alpine()
}

/// The image the communication experiments launch (OSU benchmarks over
/// patched libfabric/Open MPI, Table I).
pub fn osu_image() -> Image {
    Image { reference: "registry.local/library/osu-micro-benchmarks:7.3".into(), size_bytes: 48_000_000 }
}

/// Node-local state (everything except the kubelet, so the kubelet can
/// borrow it as a backend).
pub struct NodeInner {
    /// Node name.
    pub name: String,
    /// The node kernel.
    pub host: Host,
    /// CXI driver + NIC.
    pub device: CxiDevice,
    /// Container runtime.
    pub runtime: ContainerRuntime,
    /// CNI plugin chain (bridge → cxi).
    pub chain: NodeChain,
    /// Fabric address of the node's NIC.
    pub nic: NicAddr,
}

impl NodeInner {
    /// The CRI sandbox id a CNI call carries as its `container_id` (CRI
    /// uses a generated id; we use the stable full name, which is unique
    /// among live pods). The runtime itself names a sandbox by the pod's
    /// (namespace, name), so only the CNI calls format this.
    pub(crate) fn sandbox_id(pod: &ApiObject) -> String {
        format!("{}_{}", pod.meta.namespace, pod.meta.name)
    }

    fn root_creds(&self) -> Creds {
        self.host.credentials(Pid(1)).expect("init exists")
    }
}

/// One worker node.
pub struct Node {
    /// The kubelet.
    pub kubelet: Kubelet,
    /// Everything else.
    pub inner: NodeInner,
}

struct Backend<'a> {
    inner: &'a mut NodeInner,
    fabric: &'a mut Fabric,
}

impl NodeBackend for Backend<'_> {
    fn create_sandbox(&mut self, pod: &ApiObject) -> Result<(NetNsId, SimDur), String> {
        let mode = match pod.pod_spec().userns_base {
            Some(base) => UserNsMode::Mapped { base },
            None => UserNsMode::Host,
        };
        self.inner
            .runtime
            .create_sandbox(&mut self.inner.host, &pod.meta.namespace, &pod.meta.name, mode)
            .map_err(|e| e.to_string())
    }

    fn cni_add(&mut self, api: &ApiServer, pod: &ApiObject, netns: NetNsId) -> CniAddOutcome {
        let args = CniArgs {
            container_id: NodeInner::sandbox_id(pod),
            netns,
            ifname: "eth0".into(),
            pod: Some(PodRef {
                namespace: pod.meta.namespace.to_string(),
                name: pod.meta.name.to_string(),
                uid: pod.meta.uid.to_string(),
            }),
        };
        let root = self.inner.root_creds();
        let mut ctx = NodeCniCtx {
            host: &mut self.inner.host,
            device: &mut self.inner.device,
            fabric: self.fabric,
            api,
            nic: self.inner.nic,
            root,
        };
        match self.inner.chain.add(&mut ctx, &args) {
            Ok((_result, cost)) => CniAddOutcome::Ok(cost),
            Err((e, cost)) if e.code == 11 => CniAddOutcome::Retry(cost),
            Err((e, cost)) => CniAddOutcome::Fatal(cost, e.to_string()),
        }
    }

    fn start_workload(&mut self, pod: &ApiObject) -> Result<(SimDur, Option<SimDur>), String> {
        let spec = pod.pod_spec();
        let image = Image {
            reference: spec.image.clone(),
            size_bytes: 0, // size only matters for publish; ensure() uses the registry's copy
        };
        let run = spec.run_ms.map(SimDur::from_millis);
        self.inner
            .runtime
            .start_container(
                &mut self.inner.host,
                &pod.meta.namespace,
                &pod.meta.name,
                "main",
                &image,
                run,
            )
            .map(|(_pid, cost)| (cost, run))
            .map_err(|e| e.to_string())
    }

    fn cni_del(&mut self, pod: &ApiObject, netns: NetNsId) -> SimDur {
        let args = CniArgs {
            container_id: NodeInner::sandbox_id(pod),
            netns,
            ifname: "eth0".into(),
            pod: Some(PodRef {
                namespace: pod.meta.namespace.to_string(),
                name: pod.meta.name.to_string(),
                uid: pod.meta.uid.to_string(),
            }),
        };
        let root = self.inner.root_creds();
        // DEL must not depend on API state (the pod object may be gone).
        let empty_api = EMPTY_API.with(|a| a.clone());
        let mut ctx = NodeCniCtx {
            host: &mut self.inner.host,
            device: &mut self.inner.device,
            fabric: self.fabric,
            api: &empty_api.borrow(),
            nic: self.inner.nic,
            root,
        };
        self.inner.chain.del(&mut ctx, &args)
    }

    fn remove_sandbox(&mut self, pod: &ApiObject) -> SimDur {
        self.inner
            .runtime
            .remove_sandbox(&mut self.inner.host, &pod.meta.namespace, &pod.meta.name)
            .unwrap_or(SimDur::from_millis(1))
    }
}

thread_local! {
    /// A permanently empty API view handed to CNI DEL (which must be
    /// independent of management-plane state).
    static EMPTY_API: Rc<RefCell<ApiServer>> = Rc::new(RefCell::new(ApiServer::default()));
}

/// The whole simulated cluster.
pub struct Cluster {
    /// Management plane.
    pub api: ApiServer,
    /// The Slingshot fabric.
    pub fabric: Fabric,
    /// Worker nodes.
    pub nodes: Vec<Node>,
    /// Node name → index into `nodes`, built once by [`Cluster::new`].
    node_index: BTreeMap<String, usize>,
    /// Pod scheduler.
    pub scheduler: Scheduler,
    /// Job controller.
    pub job_controller: JobController,
    /// Service controller (serving plane: replica sets + rolling
    /// updates).
    pub service_controller: ServiceController,
    /// VNI decorator controller over Jobs.
    pub vni_jobs: Metacontroller<EndpointHandle>,
    /// VNI decorator controller over Services (same webhook hooks as
    /// jobs: an annotated service owns a `vni-<name>` CRD its pods
    /// resolve through `spec.job_name`).
    pub vni_services: Metacontroller<EndpointHandle>,
    /// VNI decorator controller over VniClaims.
    pub vni_claims: Metacontroller<EndpointHandle>,
    /// PLEG-style pod-lifecycle cache: status reads (`pods_in_phase`,
    /// `job_started_at`, service readiness) come from here instead of
    /// scanning pods.
    pub pleg: Pleg,
    /// Shared VNI endpoint (+ database).
    pub endpoint: Rc<RefCell<VniEndpoint>>,
    /// Configuration.
    pub config: ClusterConfig,
    /// RNG root for this cluster instance.
    pub rng: DetRng,
}

impl Cluster {
    /// Build a cluster per the configuration. All nodes run the extended
    /// CXI driver, carry a default (global-VNI) CXI service for the
    /// single-tenant baseline, and chain `bridge` + `cxi` CNI plugins.
    pub fn new(config: ClusterConfig) -> Self {
        let rng = DetRng::new(config.seed);
        let mut api = ApiServer::default();
        let spec =
            config.topology.unwrap_or_else(|| TopologySpec::single_switch(config.nodes + 8));
        let mut fabric = Fabric::with_topology(config.cost_model, spec, config.routing);
        let switches = spec.total_switches();
        assert!(
            config.nodes <= switches * spec.edge_ports,
            "topology too small: {} nodes over {} switches x {} edge ports",
            config.nodes,
            switches,
            spec.edge_ports
        );
        let mut nodes = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let name = format!("node{i}");
            let nic = NicAddr(i as u32 + 1);
            fabric.attach_to(nic, SwitchId(i % switches));
            fabric.grant_vni(nic, Vni::GLOBAL).expect("node NIC just attached");
            let host = Host::new(&name);
            let mut device = CxiDevice::new(
                CxiDriver::extended(),
                CassiniNic::new(nic, config.nic_params, rng.derive(&format!("nic/{name}"))),
            );
            let root = host.credentials(Pid(1)).expect("init");
            device
                .alloc_svc(&root, CxiServiceDesc::default_service())
                .expect("default service");
            let mut images = ImageStore::default();
            images.publish(alpine());
            images.publish(osu_image());
            // Pod-start/teardown costs calibrated so two nodes provide
            // ~6 admissions/s — the knee the paper's Fig. 10 shows near
            // batch 7 — and a drain phase on the same order as admission.
            let runtime = ContainerRuntime::new(
                RuntimeParams {
                    sandbox_create: SimDur::from_millis(280),
                    container_create: SimDur::from_millis(90),
                    container_start: SimDur::from_millis(130),
                    // Container kill + sandbox teardown + cgroup/volume
                    // cleanup + status round trips: ~1 s per pod, the
                    // rate that lets running jobs accumulate in Figs. 9/11.
                    sandbox_teardown: SimDur::from_millis(950),
                },
                images,
            );
            let mut chain = NodeChain::new();
            chain.push(Box::new(BridgePlugin::new("cni0", format!("10.42.{i}"))));
            chain.push(Box::new(CxiCniPlugin::default()));
            let kubelet = Kubelet::new(&name, config.kubelet);
            // `maxPods` is the bridge's address pool: the scheduler
            // never binds a pod the node's IPAM could not address.
            api.create(make_node(&name, bridge::POOL_SIZE), SimTime::ZERO).expect("node object");
            nodes.push(Node {
                kubelet,
                inner: NodeInner { name, host, device, runtime, chain, nic },
            });
        }

        let endpoint = Rc::new(RefCell::new(VniEndpoint::new(VniDb::new(VniDbConfig {
            range: config.vni_range.clone(),
            quarantine: config.quarantine,
        }))));
        let vni_jobs = Metacontroller::new(
            DecoratorConfig {
                name: "vni-jobs".into(),
                parent_kind: kinds::JOB,
                annotation_filter: Some(VNI_ANNOTATION.into()),
                child_kind: kinds::VNI,
                webhook_latency: config.webhook_latency,
                resync_period: config.vni_resync,
            },
            EndpointHandle { endpoint: Rc::clone(&endpoint), role: EndpointRole::Jobs },
        );
        let vni_services = Metacontroller::new(
            DecoratorConfig {
                name: "vni-services".into(),
                parent_kind: kinds::SERVICE,
                annotation_filter: Some(VNI_ANNOTATION.into()),
                child_kind: kinds::VNI,
                webhook_latency: config.webhook_latency,
                resync_period: config.vni_resync,
            },
            // Same hooks as jobs: the child CRD is named after the
            // parent, and service pods carry the service name in
            // `spec.job_name`, so the CXI CNI lookup is identical.
            // (A service must therefore not share a name with an
            // annotated job in the same namespace.)
            EndpointHandle { endpoint: Rc::clone(&endpoint), role: EndpointRole::Jobs },
        );
        let vni_claims = Metacontroller::new(
            DecoratorConfig {
                name: "vni-claims".into(),
                parent_kind: kinds::VNI_CLAIM,
                annotation_filter: None,
                child_kind: kinds::VNI,
                webhook_latency: config.webhook_latency,
                // Claim finalization depends on the off-cluster user list
                // in the VNI DB; poll it periodically (§III-C2: deletion
                // "will stall otherwise").
                resync_period: Some(SimDur::from_secs(2)),
            },
            EndpointHandle { endpoint: Rc::clone(&endpoint), role: EndpointRole::Claims },
        );

        let node_index = nodes.iter().enumerate().map(|(i, n)| (n.inner.name.clone(), i)).collect();
        Cluster {
            api,
            fabric,
            nodes,
            node_index,
            scheduler: Scheduler::new(),
            job_controller: JobController::new(),
            service_controller: ServiceController::new(),
            vni_jobs,
            vni_services,
            vni_claims,
            pleg: Pleg::new(),
            endpoint,
            config,
            rng,
        }
    }

    /// One control-plane tick: controllers reconcile, kubelets advance,
    /// and the PLEG cache ingests the tick's watch events so status
    /// reads between ticks are served from the cache.
    pub fn tick(&mut self, now: SimTime) {
        self.job_controller.poll(&mut self.api, now);
        self.service_controller.poll(&mut self.api, now);
        self.vni_claims.poll(&mut self.api, now);
        self.vni_jobs.poll(&mut self.api, now);
        self.vni_services.poll(&mut self.api, now);
        self.scheduler.poll(&mut self.api, now);
        for node in &mut self.nodes {
            let mut backend = Backend { inner: &mut node.inner, fabric: &mut self.fabric };
            node.kubelet.poll(&mut self.api, &mut backend, now);
        }
        self.pleg.sync(&self.api);
    }

    /// The oldest resource version one of the cluster's own watchers —
    /// the job, service and three decorator controllers, the scheduler,
    /// every kubelet and the PLEG — has not yet consumed the watch log
    /// past. A run loop that owns every other reader of `api` compacts
    /// through the minimum of this and their cursors; [`Cluster::tick`]
    /// never compacts, since a caller may read the log after it.
    pub fn watch_floor(&self) -> u64 {
        let controllers = [
            self.job_controller.cursor(),
            self.service_controller.cursor(),
            self.vni_claims.cursor(),
            self.vni_jobs.cursor(),
            self.vni_services.cursor(),
            self.scheduler.cursor(),
            self.pleg.cursor(),
        ];
        let kubelets = self.nodes.iter().map(|n| n.kubelet.cursor());
        controllers.into_iter().chain(kubelets).min().expect("seven controllers")
    }

    /// Drive ticks from `from` (exclusive) to `to` (inclusive) on a fixed
    /// cadence.
    pub fn run_until(&mut self, from: SimTime, to: SimTime, tick: SimDur) -> SimTime {
        let mut t = from;
        while t < to {
            t = (t + tick).min(to);
            self.tick(t);
        }
        t
    }

    /// Submit a job. `annotations` may carry the `vni` key.
#[allow(clippy::too_many_arguments)]
    pub fn submit_job(
        &mut self,
        now: SimTime,
        namespace: &str,
        name: &str,
        annotations: &[(&str, &str)],
        parallelism: u32,
        image: &Image,
        run_ms: Option<u64>,
    ) {
        self.submit_job_placed(now, namespace, name, annotations, parallelism, image, run_ms, None)
    }

    /// Submit a job whose pods may only bind to the nodes named by
    /// `pin_nodes` (indices into [`Cluster::nodes`]) — topology-aware
    /// rank placement: pin a collective's ranks into one dragonfly
    /// group, or deliberately skew them across groups. `None` leaves
    /// placement to the spread-first scheduler.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit_job_placed(
        &mut self,
        now: SimTime,
        namespace: &str,
        name: &str,
        annotations: &[(&str, &str)],
        parallelism: u32,
        image: &Image,
        run_ms: Option<u64>,
        pin_nodes: Option<&[usize]>,
    ) {
        let node_selector = pin_nodes.map(|idxs| {
            idxs.iter().map(|&i| self.nodes[i].inner.name.clone()).collect::<Vec<_>>()
        });
        let spec = JobSpec {
            parallelism,
            template: PodTemplate {
                image: image.reference.clone(),
                run_ms,
                userns_base: None,
                node_selector,
            },
            ttl_seconds_after_finished: Some(0),
        };
        let mut job = shs_k8s::make_job(namespace, name, &spec);
        for (k, v) in annotations {
            job.meta.annotations.insert((*k).into(), (*v).into());
        }
        self.api.create(job, now).expect("job name unique");
    }

    /// Submit a long-running service: `replicas` pods that run until
    /// deleted. `annotations` may carry the `vni` key; `pin_nodes`
    /// restricts placement like [`Cluster::submit_job_placed`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit_service(
        &mut self,
        now: SimTime,
        namespace: &str,
        name: &str,
        annotations: &[(&str, &str)],
        replicas: u32,
        image: &Image,
        pin_nodes: Option<&[usize]>,
    ) {
        let node_selector = pin_nodes.map(|idxs| {
            idxs.iter().map(|&i| self.nodes[i].inner.name.clone()).collect::<Vec<_>>()
        });
        let spec = ServiceSpec {
            replicas,
            template: PodTemplate {
                image: image.reference.clone(),
                run_ms: None,
                userns_base: None,
                node_selector,
            },
            max_unavailable: 1,
            max_surge: 1,
            version: 0,
        };
        let mut svc = shs_k8s::make_service(namespace, name, &spec);
        for (k, v) in annotations {
            svc.meta.annotations.insert((*k).into(), (*v).into());
        }
        self.api.create(svc, now).expect("service name unique");
    }

    /// Change a service's replica count (the autoscaler's lever).
    pub(crate) fn scale_service(&mut self, namespace: &str, name: &str, replicas: u32) {
        self.edit_service(namespace, name, |spec| spec.replicas = replicas);
    }

    /// Bump a service's template revision, starting a rolling update.
    pub(crate) fn roll_service(&mut self, namespace: &str, name: &str) {
        self.edit_service(namespace, name, |spec| spec.version += 1);
    }

    fn edit_service(&mut self, namespace: &str, name: &str, f: impl FnOnce(&mut ServiceSpec)) {
        let _ = self.api.edit(kinds::SERVICE, namespace, name, |o| {
            if let Spec::Service(spec) = Rc::make_mut(&mut o.spec) {
                f(spec);
            }
        });
    }

    /// Request deletion of a service (pods cascade).
    pub(crate) fn delete_service(&mut self, namespace: &str, name: &str) {
        let _ = self.api.delete(kinds::SERVICE, namespace, name);
    }

    /// Ready pod names of a service (Running, not terminating) — a PLEG
    /// cache read, no pod scan.
    pub(crate) fn service_ready(&self, namespace: &str, name: &str) -> Vec<String> {
        self.pleg.ready(namespace, name)
    }

    /// Create a VNI Claim (Listing 2 of the paper).
    pub fn create_claim(&mut self, now: SimTime, namespace: &str, name: &str) {
        let claim = ApiObject::from_spec(
            namespace,
            name,
            Spec::VniClaim(VniClaimSpec { name: name.to_string() }),
        );
        self.api.create(claim, now).expect("claim name unique");
    }

    /// Request deletion of a VNI Claim.
    pub fn delete_claim(&mut self, namespace: &str, name: &str) {
        let _ = self.api.delete(kinds::VNI_CLAIM, namespace, name);
    }

    /// Request deletion of a job.
    pub fn delete_job(&mut self, namespace: &str, name: &str) {
        let _ = self.api.delete(kinds::JOB, namespace, name);
    }

    /// Whether a job object still exists (terminating counts as existing).
    pub fn job_exists(&self, namespace: &str, name: &str) -> bool {
        self.api.get(kinds::JOB, namespace, name).is_some()
    }

    /// When the first pod of a job started, if it has. A PLEG group
    /// read: proportional to the job's pod count, never the cluster's.
    pub fn job_started_at(&self, namespace: &str, name: &str) -> Option<SimTime> {
        self.pleg.group_started_at(namespace, name).map(SimTime::from_nanos)
    }

    /// Pods currently in a given phase — an O(1) PLEG cache read,
    /// independent of cluster pod count (the pre-PLEG scan is kept as
    /// [`Pleg::scan`] for the equivalence oracle and benchmark).
    pub(crate) fn pods_in_phase(&self, phase: PodPhase) -> usize {
        self.pleg.count(phase) as usize
    }

    /// A pod's runtime handle: owning node index, workload pid, netns.
    /// `None` until the workload container runs — an unbound pod, a node
    /// this cluster does not have, no sandbox yet, or a sandbox holding
    /// only its pause process. (The scenario engine asks once per rank
    /// per round, so every step is a lookup by borrowed name: the pod in
    /// the API store, its node binding in the snapshot's typed spec,
    /// the node in the name index, the sandbox in the node's runtime.)
    pub fn pod_handle(&self, namespace: &str, name: &str) -> Option<PodHandle> {
        let pod = self.api.get(kinds::POD, namespace, name)?;
        let node_idx = *self.node_index.get(pod.pod_spec().node_name.as_deref()?)?;
        let sandbox = self.nodes[node_idx].inner.runtime.sandbox(namespace, name)?;
        let pid = sandbox.containers.last().map(|c| c.pid)?;
        Some(PodHandle { node_idx, pid, netns: sandbox.netns })
    }

    /// The VNI the pods of job (or service) `namespace/job` authenticate
    /// with, once the VNI Service has decorated it with its CRD.
    pub fn job_vni(&self, namespace: &str, job: &str) -> Option<Vni> {
        self.crd_vni(namespace, &VniEndpoint::child_name_for_job(job))
    }

    /// The VNI recorded in the VNI CRD `namespace/crd`, if it exists — the
    /// lookup behind [`Cluster::job_vni`] for a caller that keeps the CRD
    /// name ([`VniEndpoint::child_name_for_job`]) instead of rebuilding it.
    pub(crate) fn crd_vni(&self, namespace: &str, crd: &str) -> Option<Vni> {
        Some(Vni(self.api.get(kinds::VNI, namespace, crd)?.vni_spec().vni))
    }
}

/// A running pod's node-local identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodHandle {
    /// Index into [`Cluster::nodes`].
    pub node_idx: usize,
    /// Workload process id on that node.
    pub pid: Pid,
    /// The pod's network namespace.
    pub netns: NetNsId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::Lifecycle;

    fn run_cluster(c: &mut Cluster, from_ms: u64, to_ms: u64) {
        c.run_until(
            SimTime::from_nanos(from_ms * 1_000_000),
            SimTime::from_nanos(to_ms * 1_000_000),
            SimDur::from_millis(20),
        );
    }

    #[test]
    fn plain_job_runs_to_completion_and_ttl_reaps_it() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.submit_job(SimTime::ZERO, "t", "echo", &[], 1, &alpine(), Some(10));
        run_cluster(&mut c, 0, 5_000);
        assert!(!c.job_exists("t", "echo"), "ttl=0 deletes after completion");
        assert_eq!(c.api.list(kinds::POD).len(), 0, "pods torn down");
        assert_eq!(c.nodes.iter().map(|n| n.inner.runtime.sandbox_count()).sum::<usize>(), 0);
    }

    #[test]
    fn vni_job_gets_isolated_network_then_cleanup() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.submit_job(
            SimTime::ZERO,
            "t",
            "secure",
            &[(VNI_ANNOTATION, "true")],
            2,
            &alpine(),
            Some(50_000), // long-running so we can inspect mid-flight
        );
        run_cluster(&mut c, 0, 4_000);
        // VNI CRD exists and the pods run with per-netns CXI services.
        let crd = c.api.get(kinds::VNI, "t", "vni-secure").expect("VNI CRD");
        let vni = crd.vni_spec().vni;
        assert!((1024..4096).contains(&vni));
        // Both nodes carry one netns-member service for this job's pods.
        let svc_count: usize = c
            .nodes
            .iter()
            .map(|n| {
                n.inner
                    .device
                    .driver
                    .services()
                    .iter()
                    .filter(|s| s.vnis.contains(&Vni(vni)))
                    .count()
            })
            .sum();
        assert_eq!(svc_count, 2, "one per pod, spread across nodes");
        // Switch grants realised on both ports.
        for n in &c.nodes {
            assert!(c.fabric.nic_has_vni(n.inner.nic, Vni(vni)));
        }
        // Delete the job: everything unwinds (VNI released, services gone).
        c.delete_job("t", "secure");
        run_cluster(&mut c, 4_000, 10_000);
        assert!(!c.job_exists("t", "secure"));
        let ep = c.endpoint.borrow();
        assert_eq!(ep.db.allocated_count(), 0, "VNI released");
        let (model, broken) = Lifecycle::replay(ep.db.quarantine(), &ep.db.audit(), &ep.db.rows());
        assert_eq!((broken, model.orphans(&c)), (vec![], vec![]), "no leaked service or grant");
    }

    #[test]
    fn claim_shared_by_two_jobs() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.create_claim(SimTime::ZERO, "t", "shared");
        run_cluster(&mut c, 0, 500);
        c.submit_job(
            SimTime::from_nanos(500_000_000),
            "t",
            "j1",
            &[(VNI_ANNOTATION, "shared")],
            1,
            &alpine(),
            Some(60_000),
        );
        c.submit_job(
            SimTime::from_nanos(500_000_000),
            "t",
            "j2",
            &[(VNI_ANNOTATION, "shared")],
            1,
            &alpine(),
            Some(60_000),
        );
        run_cluster(&mut c, 500, 5_000);
        let v1 = c.api.get(kinds::VNI, "t", "vni-j1").expect("virtual VNI for j1");
        let v2 = c.api.get(kinds::VNI, "t", "vni-j2").expect("virtual VNI for j2");
        assert_eq!(v1.vni_spec().vni, v2.vni_spec().vni, "jobs share the claim VNI");
        assert!(v1.vni_spec().r#virtual);
        // Claim deletion stalls while jobs use it.
        c.delete_claim("t", "shared");
        run_cluster(&mut c, 5_000, 7_000);
        assert!(c.api.get(kinds::VNI_CLAIM, "t", "shared").is_some(), "stalled");
        // Jobs end; claim then releases.
        c.delete_job("t", "j1");
        c.delete_job("t", "j2");
        run_cluster(&mut c, 7_000, 15_000);
        assert!(c.api.get(kinds::VNI_CLAIM, "t", "shared").is_none(), "claim reaped");
        assert_eq!(c.endpoint.borrow().db.allocated_count(), 0);
    }

    #[test]
    fn job_with_unknown_claim_fails_to_launch() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.submit_job(
            SimTime::ZERO,
            "t",
            "orphan",
            &[(VNI_ANNOTATION, "no-such-claim")],
            1,
            &alpine(),
            Some(10),
        );
        run_cluster(&mut c, 0, 3_000);
        // No VNI CRD appears, the pod retries CNI and never starts.
        assert!(c.api.get(kinds::VNI, "t", "vni-orphan").is_none());
        assert_eq!(c.pods_in_phase(PodPhase::Running), 0);
        assert!(c.job_started_at("t", "orphan").is_none());
        let retries: u64 = c.nodes.iter().map(|n| n.kubelet.counters.cni_retries).sum();
        assert!(retries > 0, "kubelet retried the CNI ADD");
    }

    #[test]
    fn pods_of_vni_job_land_on_distinct_nodes() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.submit_job(
            SimTime::ZERO,
            "t",
            "osu",
            &[(VNI_ANNOTATION, "true")],
            2,
            &osu_image(),
            None,
        );
        run_cluster(&mut c, 0, 4_000);
        let h0 = c.pod_handle("t", "osu-0").expect("pod 0 running");
        let h1 = c.pod_handle("t", "osu-1").expect("pod 1 running");
        assert_ne!(h0.node_idx, h1.node_idx, "topology spread");
        assert_ne!(h0.netns, h1.netns);
    }

    #[test]
    fn pod_handle_is_none_until_the_workload_container_runs() {
        fn sandbox(c: &Cluster) -> Option<&shs_containers::Sandbox> {
            c.nodes.iter().find_map(|n| n.inner.runtime.sandbox("t", "solo-0"))
        }
        let mut c = Cluster::new(ClusterConfig::default());
        c.submit_job(SimTime::ZERO, "t", "solo", &[(VNI_ANNOTATION, "true")], 1, &alpine(), None);
        assert_eq!(c.pod_handle("t", "solo-0"), None, "no pod object yet");
        // Created but unscheduled.
        c.job_controller.poll(&mut c.api, SimTime::ZERO);
        let pod = c.api.get(kinds::POD, "t", "solo-0").expect("job controller created the pod");
        assert_eq!(pod.pod_spec().node_name, None);
        assert_eq!(c.pod_handle("t", "solo-0"), None, "unscheduled");
        // Scheduled but not yet sandboxed.
        c.scheduler.poll(&mut c.api, SimTime::ZERO);
        let pod = c.api.get(kinds::POD, "t", "solo-0").unwrap();
        assert!(pod.pod_spec().node_name.is_some());
        assert!(sandbox(&c).is_none());
        assert_eq!(c.pod_handle("t", "solo-0"), None, "bound, no sandbox");
        // Sandboxed with no container started: the pause process alone
        // is not a workload.
        let mut tick = 0;
        while sandbox(&c).is_none() {
            tick += 1;
            c.tick(SimTime::from_nanos(tick * 20_000_000));
        }
        assert!(sandbox(&c).unwrap().containers.is_empty());
        assert_eq!(c.pod_handle("t", "solo-0"), None, "pause process only");
        // Running: the workload container's pid, never the pause pid.
        run_cluster(&mut c, tick * 20, 4_000);
        let sb = sandbox(&c).unwrap();
        let h = c.pod_handle("t", "solo-0").expect("running");
        assert_eq!(h.pid, sb.containers.last().unwrap().pid);
        assert_ne!(h.pid, sb.pause_pid);
        assert_eq!(h.netns, sb.netns);
        assert_eq!(c.nodes[h.node_idx].inner.host.credentials(h.pid).unwrap().netns, sb.netns);
        // Bound to a node this cluster does not have.
        let bind = |c: &mut Cluster, node: &str| {
            c.api
                .mutate(kinds::POD, "t", "solo-0", |o| {
                    o.spec["node_name"] = serde_json::json!(node)
                })
                .unwrap();
        };
        bind(&mut c, "ghost");
        assert_eq!(c.pod_handle("t", "solo-0"), None, "unknown node");
        bind(&mut c, &format!("node{}", h.node_idx));
        assert_eq!(c.pod_handle("t", "solo-0"), Some(h));
        // Deleted and torn down.
        c.delete_job("t", "solo");
        run_cluster(&mut c, 4_000, 8_000);
        assert!(sandbox(&c).is_none());
        assert_eq!(c.pod_handle("t", "solo-0"), None, "sandbox gone");
        // A name no pod ever had.
        assert_eq!(c.pod_handle("t", "nobody"), None);
    }

    /// The handle of every pod of two small jobs — one that runs 600 ms
    /// and is reaped by its TTL, one submitted later and deleted by hand
    /// — at each 20 ms tick of their lives, pinned as the ticks where an
    /// answer changes.
    #[test]
    fn pod_handle_over_a_whole_job_life_is_pinned() {
        let mut c = Cluster::new(ClusterConfig::default());
        let vni = [(VNI_ANNOTATION, "true")];
        c.submit_job(SimTime::ZERO, "t", "life", &vni, 3, &alpine(), Some(600));
        let mut life: Vec<(u64, [Option<PodHandle>; 4])> = vec![(0, [None; 4])];
        for tick in 1..=300 {
            let now = SimTime::from_nanos(tick * 20_000_000);
            match tick {
                25 => c.submit_job(now, "t", "late", &[], 1, &alpine(), None),
                100 => c.delete_job("t", "late"),
                _ => {}
            }
            c.tick(now);
            let handles = ["life-0", "life-1", "life-2", "late-0"].map(|p| c.pod_handle("t", p));
            if life.last().unwrap().1 != handles {
                life.push((tick, handles));
            }
        }
        let h = |node_idx, pid, netns| {
            Some(PodHandle { node_idx, pid: Pid(pid), netns: NetNsId(netns) })
        };
        let (l0, l1, l2) = (h(0, 4, 66241631842), h(1, 3, 61756531842), h(0, 5, 66241631843));
        let late = h(1, 5, 61756531843);
        assert_eq!(
            life,
            vec![
                (0, [None, None, None, None]),
                (20, [l0, l1, l2, None]),
                (43, [l0, l1, l2, late]),
                // `life` exited at 1 s; its sandboxes go 950 ms later.
                (90, [None, None, None, late]),
                (102, [None, None, None, None]),
            ]
        );
    }

    #[test]
    fn pinning_constrains_ranks_to_the_named_nodes() {
        let mut c = Cluster::new(ClusterConfig {
            nodes: 8,
            topology: Some(TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 }),
            ..Default::default()
        });
        // A pinned job may only land on the named nodes, even though
        // others are less loaded.
        c.submit_job_placed(SimTime::ZERO, "t", "pin", &[], 2, &alpine(), None, Some(&[5, 6]));
        run_cluster(&mut c, 0, 4_000);
        let mut got = vec![
            c.pod_handle("t", "pin-0").expect("pod 0 running").node_idx,
            c.pod_handle("t", "pin-1").expect("pod 1 running").node_idx,
        ];
        got.sort_unstable();
        assert_eq!(got, vec![5, 6]);
    }

    #[test]
    fn vni_service_runs_rolls_and_unwinds() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.submit_service(
            SimTime::ZERO,
            "t",
            "web",
            &[(VNI_ANNOTATION, "true")],
            2,
            &alpine(),
            None,
        );
        run_cluster(&mut c, 0, 4_000);
        // The service owns a VNI CRD and both replicas are ready.
        let crd = c.api.get(kinds::VNI, "t", "vni-web").expect("VNI CRD for the service");
        let vni = crd.vni_spec().vni;
        assert_eq!(c.service_ready("t", "web"), vec!["web-v0-0", "web-v0-1"]);
        assert_eq!(c.pods_in_phase(PodPhase::Running), 2);
        // Rolling update: replicas converge on the new revision without
        // the ready count ever reaching zero (floor = replicas - 1).
        c.roll_service("t", "web");
        run_cluster(&mut c, 4_000, 14_000);
        assert_eq!(c.service_ready("t", "web"), vec!["web-v1-0", "web-v1-1"]);
        // Scale up, then delete: everything unwinds.
        c.scale_service("t", "web", 3);
        run_cluster(&mut c, 14_000, 18_000);
        assert_eq!(c.service_ready("t", "web").len(), 3);
        c.delete_service("t", "web");
        run_cluster(&mut c, 18_000, 26_000);
        assert!(c.api.get(kinds::SERVICE, "t", "web").is_none());
        assert!(c.service_ready("t", "web").is_empty());
        assert_eq!(c.endpoint.borrow().db.allocated_count(), 0, "VNI released");
        assert!(c.fabric.nic_has_vni(c.nodes[0].inner.nic, Vni::GLOBAL));
        assert!(!c.fabric.nic_has_vni(c.nodes[0].inner.nic, Vni(vni)), "grant revoked");
    }

    #[test]
    fn pleg_cache_matches_a_full_scan_mid_flight() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.submit_service(SimTime::ZERO, "t", "web", &[], 3, &alpine(), None);
        c.submit_job(SimTime::ZERO, "t", "batch", &[], 2, &alpine(), Some(1_500));
        for ms in [500u64, 1_000, 2_000, 3_000, 5_000] {
            run_cluster(&mut c, ms.saturating_sub(500), ms);
            let cached = serde_json::to_string(&c.pleg.snapshot()).unwrap();
            let scanned = serde_json::to_string(&Pleg::scan(&c.api)).unwrap();
            assert_eq!(cached, scanned, "at {ms}ms");
        }
    }

    #[test]
    fn ticks_never_compact_and_the_watch_floor_trails_every_watcher() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.submit_job(SimTime::ZERO, "t", "j", &[(VNI_ANNOTATION, "true")], 2, &alpine(), Some(500));
        run_cluster(&mut c, 0, 3_000);
        // A reader the cluster does not know about still sees everything.
        let (history, latest) = c.api.events_since(0);
        assert_eq!(history.first().map(|e| e.rv), Some(1));
        assert_eq!(latest, c.api.latest_rv());
        // Compacting behind the cluster's own watchers loses none of
        // their events: the job still runs to completion and unwinds.
        let floor = c.watch_floor();
        assert!(floor > 0 && floor <= latest);
        c.api.compact(floor);
        run_cluster(&mut c, 3_000, 8_000);
        assert!(!c.job_exists("t", "j"));
        assert_eq!(c.endpoint.borrow().db.allocated_count(), 0, "VNI released");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let mut c = Cluster::new(ClusterConfig { seed, ..Default::default() });
            c.submit_job(
                SimTime::ZERO,
                "t",
                "j",
                &[(VNI_ANNOTATION, "true")],
                1,
                &alpine(),
                Some(10),
            );
            run_cluster(&mut c, 0, 3_000);
            let acquisitions = c.endpoint.borrow().counters.acquisitions;
            (
                c.api.requests,
                acquisitions,
                c.nodes.iter().map(|n| n.kubelet.counters.pods_started).sum::<u64>(),
            )
        };
        assert_eq!(run(7), run(7));
    }
}
