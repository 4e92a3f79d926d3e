//! Cross-crate security properties: the motivating
//! vulnerability and the paper's fix, exercised through the full stack
//! (container runtime → namespaces → CXI driver → fabric).

use shs_cassini::{CassiniNic, CassiniParams};
use shs_cni::CniArgs;
use shs_containers::{ContainerRuntime, Image, UserNsMode};
use shs_cxi::{CxiDevice, CxiDriver, CxiServiceDesc, SvcMember};
use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::{Fabric, NicAddr, TrafficClass, TransferOutcome, Vni};
use shs_k8s::kinds;
use shs_oslinux::{Gid, Host, Pid, Uid};
use slingshot_k8s::{osu_image, Cluster, ClusterConfig};

fn device_on(host: &Host, addr: u32, driver: CxiDriver, seed: u64) -> CxiDevice {
    let _ = host;
    CxiDevice::new(driver, CassiniNic::new(NicAddr(addr), CassiniParams::default(), DetRng::new(seed)))
}

/// §III: inside a user-namespaced container, the stock driver can be
/// fooled by setuid; the extended (userns-aware) driver cannot; and the
/// netns member type doesn't care about uids at all.
#[test]
fn uid_spoofing_through_the_container_runtime() {
    for (extended, expect_attack_success) in [(false, true), (true, false)] {
        let mut host = Host::new("n0");
        let driver = if extended { CxiDriver::extended() } else { CxiDriver::stock() };
        let mut dev = device_on(&host, 1, driver, 9);
        let root = host.credentials(Pid(1)).unwrap();

        // Victim service authenticating uid 4242 (legacy onboarding).
        let svc = dev
            .alloc_svc(
                &root,
                CxiServiceDesc {
                    members: vec![SvcMember::Uid(Uid(4242))],
                    vnis: vec![Vni(600)],
                    limits: Default::default(),
                    label: "victim".into(),
                },
            )
            .unwrap();

        // Attacker pod: user-namespaced sandbox via the *real* runtime.
        let mut rt = ContainerRuntime::default();
        rt.images.publish(Image::alpine());
        rt.create_sandbox(&mut host, "t", "attacker", UserNsMode::Mapped { base: 100_000 })
            .unwrap();
        let (pid, _) = rt
            .start_container(&mut host, "t", "attacker", "sh", &Image::alpine(), None)
            .unwrap();
        // Container root may setuid inside its namespace.
        host.setuid(pid, Uid(4242)).unwrap();

        let res = dev.ep_alloc_on(&host, pid, svc, Vni(600), TrafficClass::Dedicated);
        assert_eq!(
            res.is_ok(),
            expect_attack_success,
            "extended={extended}: stock driver is vulnerable, extended is not"
        );
    }
}

/// Netns authentication is invariant under uid games and applies per
/// sandbox: two pods with identical uids do not share services.
#[test]
fn netns_member_is_container_granular() {
    let mut host = Host::new("n0");
    let mut dev = device_on(&host, 1, CxiDriver::extended(), 10);
    let root = host.credentials(Pid(1)).unwrap();
    let mut rt = ContainerRuntime::default();
    rt.images.publish(Image::alpine());
    let (ns_a, _) = rt.create_sandbox(&mut host, "t", "pod-a", UserNsMode::Host).unwrap();
    let (_ns_b, _) = rt.create_sandbox(&mut host, "t", "pod-b", UserNsMode::Host).unwrap();
    let alpine = Image::alpine();
    let (pid_a, _) = rt.start_container(&mut host, "t", "pod-a", "m", &alpine, None).unwrap();
    let (pid_b, _) = rt.start_container(&mut host, "t", "pod-b", "m", &alpine, None).unwrap();

    let svc = dev
        .alloc_svc(
            &root,
            CxiServiceDesc {
                members: vec![SvcMember::NetNs(ns_a)],
                vnis: vec![Vni(700)],
                limits: Default::default(),
                label: "pod-a".into(),
            },
        )
        .unwrap();
    assert!(dev.ep_alloc_on(&host, pid_a, svc, Vni(700), TrafficClass::Dedicated).is_ok());
    assert!(
        dev.ep_alloc_on(&host, pid_b, svc, Vni(700), TrafficClass::Dedicated).is_err(),
        "same uid, different sandbox: denied"
    );
}

/// Switch-level enforcement: even with endpoints in hand, packets on a
/// VNI not granted to both ports die in the fabric.
#[test]
fn fabric_enforces_vni_on_both_ports() {
    let mut fabric = Fabric::new(4);
    let (a, b) = (NicAddr(1), NicAddr(2));
    fabric.attach(a);
    fabric.attach(b);
    fabric.grant_vni(a, Vni(5)).unwrap();
    // b is NOT granted VNI 5.
    let out = fabric.transfer(SimTime::ZERO, a, b, Vni(5), TrafficClass::Dedicated, 64, 1);
    assert!(matches!(out, TransferOutcome::Dropped(_)));
    fabric.grant_vni(b, Vni(5)).unwrap();
    let out = fabric.transfer(SimTime::ZERO, a, b, Vni(5), TrafficClass::Dedicated, 64, 2);
    assert!(matches!(out, TransferOutcome::Delivered { .. }));
}

/// Full-stack tenant isolation: endpoint creation on a foreign tenant's
/// VNI is refused; the monitor/no-annotation pod gets nothing either.
#[test]
fn cross_tenant_endpoint_refused_in_cluster() {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.submit_job(SimTime::ZERO, "a", "appa", &[("vni", "true")], 1, &osu_image(), None);
    cluster.submit_job(SimTime::ZERO, "b", "appb", &[("vni", "true")], 1, &osu_image(), None);
    cluster.run_until(SimTime::ZERO, SimTime::from_nanos(8_000_000_000), SimDur::from_millis(20));

    let vni_a = cluster.job_vni("a", "appa").expect("CRD");

    let hb = cluster.pod_handle("b", "appb-0").expect("tenant b running");
    let node = &mut cluster.nodes[hb.node_idx];
    assert!(
        shs_ofi::OfiEp::open(
            &node.inner.host,
            &mut node.inner.device,
            hb.pid,
            vni_a,
            TrafficClass::Dedicated
        )
        .is_err(),
        "tenant b must not join tenant a's VNI"
    );
}

/// The CXI CNI plugin refuses pods whose termination grace period
/// exceeds the 30 s bound required for safe VNI recycling (§III-C1).
#[test]
fn grace_period_bound_is_enforced() {
    use shs_k8s::{ApiObject, ApiServer, PodSpec};
    use slingshot_k8s::{CxiCniPlugin, NodeCniCtx, NodeCniPlugin};

    let mut host = Host::new("n0");
    let mut dev = device_on(&host, 1, CxiDriver::extended(), 11);
    let mut fabric = Fabric::new(4);
    fabric.attach(NicAddr(1));
    let mut api = ApiServer::default();
    let spec = PodSpec {
        job_name: Some("j".into()),
        image: "alpine".into(),
        run_ms: None,
        userns_base: None,
        node_name: Some("n0".into()),
        spread_key: None,
        node_selector: None,
        termination_grace_period_secs: 60, // too long
    };
    let mut pod =
        ApiObject::new(kinds::POD, "t", "p", serde_json::to_value(spec).unwrap());
    pod.meta.annotations.insert("vni".into(), "true".into());
    api.create(pod, SimTime::ZERO).unwrap();

    let sandbox_pid = host.spawn_detached("pause", Uid::ROOT, Gid::ROOT);
    let netns = host.unshare_net_ns(sandbox_pid).unwrap();
    let root = host.credentials(Pid(1)).unwrap();
    let mut ctx = NodeCniCtx {
        host: &mut host,
        device: &mut dev,
        fabric: &mut fabric,
        api: &api,
        nic: NicAddr(1),
        root,
        judge: None,
    };
    let args = CniArgs {
        container_id: "t_p".into(),
        netns,
        ifname: "eth0".into(),
        pod: Some(shs_cni::PodRef { namespace: "t".into(), name: "p".into(), uid: "1".into() }),
    };
    let mut plugin = CxiCniPlugin::default();
    let (err, _cost) = plugin.add(&mut ctx, &args, Default::default()).unwrap_err();
    assert_eq!(err.code, 120, "grace period violation is a fatal plugin error");
}

/// No CXI service survives its container: after job deletion every
/// cni-labelled service on every node is gone, even with pods straggling
/// up to the grace period.
#[test]
fn no_service_leaks_after_job_deletion() {
    let mut cluster = Cluster::new(ClusterConfig::default());
    for i in 0..4 {
        cluster.submit_job(
            SimTime::ZERO,
            "t",
            &format!("leaky-{i}"),
            &[("vni", "true")],
            2,
            &osu_image(),
            None,
        );
    }
    let now = cluster.run_until(
        SimTime::ZERO,
        SimTime::from_nanos(12_000_000_000),
        SimDur::from_millis(20),
    );
    let before: usize = cluster
        .nodes
        .iter()
        .map(|n| n.inner.device.driver.services().iter().filter(|s| s.label.starts_with("cni:")).count())
        .sum();
    assert_eq!(before, 8, "two pods per job, four jobs");
    for i in 0..4 {
        cluster.delete_job("t", &format!("leaky-{i}"));
    }
    cluster.run_until(now, now + SimDur::from_secs(20), SimDur::from_millis(20));
    let after: usize = cluster
        .nodes
        .iter()
        .map(|n| n.inner.device.driver.services().iter().filter(|s| s.label.starts_with("cni:")).count())
        .sum();
    assert_eq!(after, 0, "CNI DEL must destroy every container's services");
    assert_eq!(cluster.endpoint.borrow().db.allocated_count(), 0);
}

/// Two tenants may use the same job name: namespaces `a` and `b` each
/// run a `vni: true` job called `app`. The API server keys objects by
/// an id interned from (kind, namespace, name), so the two jobs, pods
/// and VNI CRDs are distinct objects. Each tenant gets its own VNI,
/// each pod's CXI service carries only its own tenant's, `b`'s rank
/// cannot open an endpoint on `a`'s, and deleting `a/app` leaves
/// `b/app`'s VNI, service and grant in place with no lifecycle verdict.
#[test]
fn same_job_name_in_two_namespaces_stays_isolated() {
    let mut cluster = Cluster::new(ClusterConfig::default());
    for ns in ["a", "b"] {
        cluster.submit_job(SimTime::ZERO, ns, "app", &[("vni", "true")], 1, &osu_image(), None);
    }
    let tick = SimDur::from_millis(20);
    let now = cluster.run_until(SimTime::ZERO, SimTime::from_nanos(8_000_000_000), tick);

    let vni_a = cluster.job_vni("a", "app").expect("a's VNI CRD");
    let vni_b = cluster.job_vni("b", "app").expect("b's VNI CRD");
    assert_ne!(vni_a, vni_b, "one VNI per tenant");
    assert!(vni_a != Vni::GLOBAL && vni_b != Vni::GLOBAL);

    // The VNIs of the CXI services whose member is the pod's netns.
    let service_vnis = |cluster: &Cluster, ns: &str| {
        let h = cluster.pod_handle(ns, "app-0").expect("pod running");
        let node = &cluster.nodes[h.node_idx].inner;
        let services = node.device.driver.services().iter();
        let own = services.filter(|s| s.members.contains(&SvcMember::NetNs(h.netns)));
        own.flat_map(|s| s.vnis.iter().copied()).collect::<Vec<Vni>>()
    };
    assert_eq!(service_vnis(&cluster, "a"), [vni_a]);
    assert_eq!(service_vnis(&cluster, "b"), [vni_b]);

    let hb = cluster.pod_handle("b", "app-0").expect("tenant b running");
    let node = &mut cluster.nodes[hb.node_idx];
    let open = |node: &mut slingshot_k8s::Node, vni| {
        let inner = &mut node.inner;
        shs_ofi::OfiEp::open(&inner.host, &mut inner.device, hb.pid, vni, TrafficClass::Dedicated)
    };
    assert!(open(node, vni_a).is_err(), "b's rank must not join a's VNI");
    assert!(open(node, vni_b).is_ok(), "b's rank joins its own VNI");

    cluster.delete_job("a", "app");
    cluster.run_until(now, now + SimDur::from_secs(20), tick);
    assert!(!cluster.job_exists("a", "app"), "a/app reaped");
    assert_eq!(cluster.job_vni("a", "app"), None);
    assert_eq!(cluster.job_vni("b", "app"), Some(vni_b), "b keeps its VNI");
    assert_eq!(service_vnis(&cluster, "b"), [vni_b], "b keeps its service");
    let nic = cluster.nodes[hb.node_idx].inner.nic;
    assert!(cluster.fabric.nic_has_vni(nic, vni_b), "b keeps its grant");
    let verdicts = cluster.lifecycle.verdicts();
    assert!(verdicts.is_empty(), "the online judge saw nothing wrong: {verdicts:?}");
}
