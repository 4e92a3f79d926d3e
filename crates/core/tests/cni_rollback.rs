//! Regression tests for the CNI chain error path: when a plugin fails
//! mid-chain, the earlier plugins' node state must be fully rolled back
//! — in particular, the CXI plugin's service and the fabric-manager
//! grant must not leak (they are the node-side "VNI reservation").

use shs_cassini::{CassiniNic, CassiniParams};
use shs_cni::{BridgePlugin, CniArgs, CniError, CniResult, PodRef};
use shs_cxi::{CxiDevice, CxiDriver};
use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::{Fabric, NicAddr, Vni};
use shs_k8s::{kinds, ApiObject, ApiServer, VniCrdSpec, VNI_ANNOTATION};
use shs_oslinux::{Creds, Gid, Host, Pid, Uid};
use slingshot_k8s::{CxiCniPlugin, NodeChain, NodeCniCtx, NodeCniPlugin};

/// A plugin that always fails its ADD, simulating e.g. a broken
/// bandwidth-shaping plugin configured after `cxi` in the conflist.
struct ExplodingPlugin;

impl NodeCniPlugin for ExplodingPlugin {
    fn kind(&self) -> &str {
        "exploding"
    }
    fn add(
        &mut self,
        _ctx: &mut NodeCniCtx<'_>,
        _args: &CniArgs,
        _prev: CniResult,
    ) -> Result<(CniResult, SimDur), (CniError, SimDur)> {
        Err((CniError::plugin(199, "boom"), SimDur::from_millis(1)))
    }
    fn del(&mut self, _ctx: &mut NodeCniCtx<'_>, _args: &CniArgs) -> (Result<(), CniError>, SimDur) {
        (Ok(()), SimDur::from_millis(1))
    }
}

struct Rig {
    host: Host,
    device: CxiDevice,
    fabric: Fabric,
    api: ApiServer,
    nic: NicAddr,
    root: Creds,
}

const TEST_VNI: u16 = 1500;

/// A node rig with one annotated pod (VNI CRD present) whose sandbox
/// netns already exists — the state a kubelet would hand the chain.
fn rig() -> (Rig, CniArgs) {
    let mut host = Host::new("n0");
    let nic = NicAddr(1);
    let mut fabric = Fabric::new(4);
    fabric.attach(nic);
    fabric.grant_vni(nic, Vni::GLOBAL).unwrap();
    let device = CxiDevice::new(
        CxiDriver::extended(),
        CassiniNic::new(nic, CassiniParams::default(), DetRng::new(3)),
    );
    let root = host.credentials(Pid(1)).expect("init");
    let pause = host.spawn_detached("pause", Uid(0), Gid(0));
    let netns = host.unshare_net_ns(pause).expect("netns");

    let mut api = ApiServer::default();
    let mut pod = ApiObject::new(
        kinds::POD,
        "t",
        "victim-0",
        serde_json::json!({ "image": "alpine", "job_name": "victim" }),
    );
    pod.meta.annotations.insert(VNI_ANNOTATION.into(), "true".into());
    api.create(pod, SimTime::ZERO).expect("pod");
    let crd = ApiObject::new(
        kinds::VNI,
        "t",
        "vni-victim",
        serde_json::to_value(VniCrdSpec { vni: TEST_VNI, r#virtual: false, claim: None })
            .expect("spec"),
    );
    api.create(crd, SimTime::ZERO).expect("crd");

    let args = CniArgs {
        container_id: "t_victim-0".into(),
        netns,
        ifname: "eth0".into(),
        pod: Some(PodRef { namespace: "t".into(), name: "victim-0".into(), uid: "u1".into() }),
    };
    (Rig { host, device, fabric, api, nic, root }, args)
}

/// A second pod of the same job (same VNI CRD) on the same node, with
/// its own sandbox netns.
fn sibling_pod(rig: &mut Rig) -> CniArgs {
    let pause = rig.host.spawn_detached("pause", Uid(0), Gid(0));
    let netns = rig.host.unshare_net_ns(pause).expect("netns");
    let mut pod = ApiObject::new(
        kinds::POD,
        "t",
        "victim-1",
        serde_json::json!({ "image": "alpine", "job_name": "victim" }),
    );
    pod.meta.annotations.insert(VNI_ANNOTATION.into(), "true".into());
    rig.api.create(pod, SimTime::ZERO).expect("pod");
    CniArgs {
        container_id: "t_victim-1".into(),
        netns,
        ifname: "eth0".into(),
        pod: Some(PodRef { namespace: "t".into(), name: "victim-1".into(), uid: "u2".into() }),
    }
}

impl Rig {
    fn ctx(&mut self) -> NodeCniCtx<'_> {
        NodeCniCtx {
            host: &mut self.host,
            device: &mut self.device,
            fabric: &mut self.fabric,
            api: &self.api,
            nic: self.nic,
            root: self.root,
            judge: None,
        }
    }

    fn cni_services(&self) -> usize {
        self.device
            .driver
            .services()
            .iter()
            .filter(|s| s.label.starts_with("cni:"))
            .count()
    }

    fn has_grant(&self, vni: u16) -> bool {
        self.fabric.nic_has_vni(self.nic, Vni(vni))
    }
}

#[test]
fn mid_chain_failure_rolls_back_cxi_service_and_fabric_grant() {
    let (mut rig, args) = rig();
    let mut chain = NodeChain::new();
    chain.push(Box::new(BridgePlugin::new("cni0", "10.42.0")));
    chain.push(Box::new(CxiCniPlugin::default()));
    chain.push(Box::new(ExplodingPlugin));

    let (err, cost) = {
        let mut ctx = rig.ctx();
        chain.add(&mut ctx, &args).expect_err("third plugin explodes")
    };
    assert_eq!(err.code, 199);
    assert!(cost > SimDur::ZERO, "rollback cost is accounted");

    // The CXI service created by the second plugin must be destroyed...
    assert_eq!(rig.cni_services(), 0, "no leaked CXI service");
    // ...and its switch-port grant (the wire-level VNI reservation) gone.
    assert!(!rig.has_grant(TEST_VNI), "no leaked fabric grant");
    // The global VNI of the default service is untouched.
    assert!(rig.has_grant(Vni::GLOBAL.raw()));
}

#[test]
fn rollback_is_idempotent_with_an_explicit_del() {
    // After a failed ADD the runtime still issues a DEL (CNI spec); it
    // must be a no-op rather than an error.
    let (mut rig, args) = rig();
    let mut chain = NodeChain::new();
    chain.push(Box::new(BridgePlugin::new("cni0", "10.42.0")));
    chain.push(Box::new(CxiCniPlugin::default()));
    chain.push(Box::new(ExplodingPlugin));
    {
        let mut ctx = rig.ctx();
        chain.add(&mut ctx, &args).expect_err("explodes");
        let cost = chain.del(&mut ctx, &args);
        assert!(cost > SimDur::ZERO);
    }
    assert_eq!(rig.cni_services(), 0);
    assert!(!rig.has_grant(TEST_VNI));
}

#[test]
fn sibling_pod_rollback_leaves_first_pods_service_and_grant_intact() {
    // Pod 0 of the job ADDs cleanly; pod 1 (same VNI, same node) then
    // fails mid-chain. Its rollback must remove only pod 1's service and
    // must NOT revoke the shared switch-port grant pod 0 still relies
    // on; the grant goes only when the last service using the VNI does.
    let (mut rig, args0) = rig();
    let mut good = NodeChain::new();
    good.push(Box::new(BridgePlugin::new("cni0", "10.42.0")));
    good.push(Box::new(CxiCniPlugin::default()));
    {
        let mut ctx = rig.ctx();
        good.add(&mut ctx, &args0).expect("clean ADD for pod 0");
    }
    assert_eq!(rig.cni_services(), 1);
    assert!(rig.has_grant(TEST_VNI));

    let args1 = sibling_pod(&mut rig);
    let mut failing = NodeChain::new();
    failing.push(Box::new(BridgePlugin::new("cni0", "10.43.0")));
    failing.push(Box::new(CxiCniPlugin::default()));
    failing.push(Box::new(ExplodingPlugin));
    {
        let mut ctx = rig.ctx();
        failing.add(&mut ctx, &args1).expect_err("pod 1 ADD explodes");
    }
    assert_eq!(rig.cni_services(), 1, "pod 1's service rolled back, pod 0's kept");
    assert!(rig.has_grant(TEST_VNI), "shared grant survives the sibling rollback");

    // Tearing down pod 0 (the last user) retires the grant.
    {
        let mut ctx = rig.ctx();
        good.del(&mut ctx, &args0);
    }
    assert_eq!(rig.cni_services(), 0, "DEL tears the service down");
    assert!(!rig.has_grant(TEST_VNI), "grant retired with the last service");
}
