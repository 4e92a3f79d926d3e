//! Multi-tenant isolation demo (paper use-case 1, §I):
//!
//! Two tenants run side by side on the same two nodes. Each gets its own
//! Virtual Network; the Rosetta switch refuses to route across VNIs, and
//! the netns-member CXI services make the driver-level authentication
//! container-granular. The demo also replays the user-namespace
//! UID-spoofing attack from §III against both the stock and the extended
//! driver.
//!
//! ```text
//! cargo run --release --example multi_tenant_isolation
//! ```

use shs_cassini::{CassiniNic, CassiniParams};
use shs_cxi::{CxiDevice, CxiDriver, CxiServiceDesc, SvcMember};
use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::{NicAddr, SwitchId, TrafficClass, Vni};
use shs_harness::job_communicator;
use shs_oslinux::{Gid, Host, IdMapEntry, Pid, Uid};
use slingshot_k8s::{osu_image, Cluster, ClusterConfig};

fn main() {
    let mut cluster = Cluster::new(ClusterConfig::default());

    // Two tenants, each with a 2-rank RDMA job in its own namespace.
    for tenant in ["tenant-a", "tenant-b"] {
        cluster.submit_job(
            SimTime::ZERO,
            tenant,
            "app",
            &[("vni", "true")],
            2,
            &osu_image(),
            None,
        );
    }
    let now = cluster.run_until(
        SimTime::ZERO,
        SimTime::from_nanos(10_000_000_000),
        SimDur::from_millis(20),
    );

    let vni_a = cluster.job_vni("tenant-a", "app").expect("VNI CRD for tenant-a/app");
    let vni_b = cluster.job_vni("tenant-b", "app").expect("VNI CRD for tenant-b/app");
    assert_ne!(vni_a, vni_b);
    println!("tenant-a got {vni_a}, tenant-b got {vni_b} — mutually exclusive by construction");

    // Intra-tenant traffic flows.
    {
        let (mut comm, mut devs) =
            job_communicator(&mut cluster, "tenant-a", "app", vni_a, TrafficClass::Dedicated, now)
                .expect("tenant-a authenticates on its own VNI");
        comm.send(&mut devs, 0, 1, 1, 4096);
        assert!(comm.recv(1, 1));
        println!("tenant-a intra-job RDMA: OK");
        comm.close(&mut devs);
    }

    // Cross-tenant: tenant-b's pod cannot even *open* an endpoint on
    // tenant-a's VNI — no CXI service in its netns offers it.
    let b0 = cluster.pod_handle("tenant-b", "app-0").expect("running");
    {
        let node = &mut cluster.nodes[b0.node_idx];
        let err = shs_ofi::OfiEp::open(
            &node.inner.host,
            &mut node.inner.device,
            b0.pid,
            vni_a,
            TrafficClass::Dedicated,
        )
        .expect_err("cross-tenant endpoint must be refused");
        println!("tenant-b opening an endpoint on tenant-a's VNI: {err}");
    }

    // Even a forged NIC-level message on the wrong VNI dies at the switch.
    {
        let drops_before = cluster.fabric.switch_at(SwitchId(0)).counters.total_drops();
        let src = cluster.nodes[0].inner.nic;
        let dst = cluster.nodes[1].inner.nic;
        let out = cluster.fabric.transfer(
            now,
            src,
            dst,
            Vni(4000), // never granted
            TrafficClass::Dedicated,
            4096,
            999,
        );
        println!("forged packet on un-granted VNI: {out:?}");
        assert!(cluster.fabric.switch_at(SwitchId(0)).counters.total_drops() > drops_before);
    }

    // --- The §III UID-spoofing attack, stock vs extended driver -------
    println!("\nReplaying the user-namespace UID-spoofing attack:");
    for (label, driver) in [("stock driver", CxiDriver::stock()), ("extended driver", CxiDriver::extended())]
    {
        let mut host = Host::new("attack-node");
        let nic = CassiniNic::new(NicAddr(99), CassiniParams::default(), DetRng::new(1));
        let mut dev = CxiDevice::new(driver, nic);
        let root = host.credentials(Pid(1)).expect("init");
        // Victim's CXI service authenticates uid 4242.
        let id = dev
            .alloc_svc(
                &root,
                CxiServiceDesc {
                    members: vec![SvcMember::Uid(Uid(4242))],
                    vnis: vec![Vni(500)],
                    limits: Default::default(),
                    label: "victim".into(),
                },
            )
            .expect("victim service");
        // Mallory: container root in a wide user namespace, setuid(victim).
        let mallory = host.spawn_detached("mallory", Uid(3000), Gid(3000));
        let map = vec![IdMapEntry { inside_start: 0, outside_start: 100_000, count: 65_536 }];
        host.unshare_user_ns(mallory, map.clone(), map, Uid::ROOT, Gid::ROOT).expect("userns");
        host.setuid(mallory, Uid(4242)).expect("spoof inside userns");
        let res = dev.ep_alloc_on(&host, mallory, id, Vni(500), TrafficClass::Dedicated);
        match res {
            Ok(_) => println!("  {label}: attack SUCCEEDED (the vulnerability the paper fixes)"),
            Err(e) => println!("  {label}: attack blocked ({e})"),
        }
    }
}
