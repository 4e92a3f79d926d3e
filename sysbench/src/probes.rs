//! `[probe]` layer metrics: fixed-count loops over one layer's public
//! hot function, on inputs shaped like the workloads that lean on it.
//! Where `slingshot_k8s::workloads` / `shs_harness` already define the
//! loop `bench-run` and the Criterion targets time, the probe steps
//! that shared definition, so the three harnesses time the same thing.
//!
//! Every probe is independent of the workload seed: its number reads
//! the same in every workload's `--trace 1` output, up to host noise.

use std::hint::black_box;
use std::time::Instant;

use serde_json::json;
use shs_cassini::{CassiniNic, CassiniParams, RxMessage, ServiceEntry, SvcId};
use shs_cxi::{CxiDevice, CxiDriver, CxiServiceDesc, SvcMember};
use shs_des::{stats, DetRng, Sim, SimDur, SimTime};
use shs_fabric::{
    CostModel, Fabric, FaultKind, NicAddr, RoutingPolicy, SwitchId, TopologySpec, TrafficClass, Vni,
};
use shs_harness::OsuAllreduceWorkload;
use shs_k8s::{kinds, make_node, ApiObject, ApiServer, Pleg, Scheduler};
use shs_oslinux::{Gid, Host, Pid, Uid};
use shs_vnistore::{Store, StoreConfig};
use slingshot_k8s::{
    alpine, AcquireReleaseWorkload, ChurnHotWorkload, Cluster, ClusterConfig,
    FabricAdaptiveHotWorkload, FabricTransferHotWorkload, PlegStatusReadWorkload,
    VniStressWorkload,
};

use crate::workloads::Counts;

/// Timed samples per probe; the metric is their median.
const SAMPLES: usize = 5;

/// Median ns per call of `op` over [`SAMPLES`] batches of `iters` calls.
fn measure(iters: u64, mut op: impl FnMut()) -> f64 {
    let per_op: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&per_op)
}

/// Schedule + pop against a calendar holding 10 k pending events.
fn des_hold() -> f64 {
    let mut sim = Sim::new(0u64);
    let mut rng = DetRng::new(1);
    let mut delay = move || SimDur::from_nanos(1 + rng.below(1_000_000));
    for _ in 0..10_000 {
        sim.after(delay(), |s| s.world += 1);
    }
    let ns = measure(20_000, || {
        sim.after(delay(), |s| s.world += 1);
        sim.step();
    });
    black_box(sim.world);
    ns
}

/// The 12-NIC, 3-group x 2-switch dragonfly of `FabricTransferHotWorkload`.
fn hot_fabric(policy: RoutingPolicy) -> Fabric {
    let spec = TopologySpec {
        groups: 3,
        switches_per_group: 2,
        edge_ports: 4,
    };
    let mut fabric = Fabric::with_topology(CostModel::default(), spec, policy);
    for i in 0..FabricTransferHotWorkload::NICS {
        let nic = NicAddr(i + 1);
        fabric.attach_to(nic, SwitchId(i as usize % spec.total_switches()));
        fabric.grant_vni(nic, Vni(7)).expect("just attached");
    }
    fabric
}

/// The adaptive hot loop with one group trunk cut, so a share of the
/// transfers walks the fallback chain.
fn fabric_transfer_faulted() -> f64 {
    let mut fabric = hot_fabric(RoutingPolicy::Adaptive);
    let topo = fabric.topology();
    let (a, b) = topo
        .trunk_links()
        .into_iter()
        .find(|&(a, b)| topo.group_of(a) != topo.group_of(b))
        .expect("a 3-group dragonfly has global links");
    fabric.apply_fault(FaultKind::LinkDown(a, b));
    let n = u64::from(FabricTransferHotWorkload::NICS);
    let (mut now, mut i) = (SimTime::ZERO, 0u64);
    measure(20_000, || {
        let src = i % n;
        let dst = (src + 1 + (i * 5) % (n - 1)) % n;
        now += SimDur::from_micros(2);
        i += 1;
        black_box(fabric.transfer(
            now,
            NicAddr(src as u32 + 1),
            NicAddr(dst as u32 + 1),
            Vni(7),
            TrafficClass::ALL[(i % 4) as usize],
            FabricTransferHotWorkload::SIZE,
            i,
        ));
    })
}

/// One port grant + revoke, the fabric's whole share of a pod's life.
fn fabric_grant_revoke() -> f64 {
    let mut fabric = hot_fabric(RoutingPolicy::Minimal);
    let mut i = 0u32;
    measure(20_000, || {
        let nic = NicAddr(i % FabricTransferHotWorkload::NICS + 1);
        let vni = Vni(100 + (i % 64) as u16);
        i += 1;
        fabric.grant_vni(nic, vni).expect("attached");
        black_box(fabric.revoke_vni(nic, vni));
    })
}

/// `send` on one NIC, `deliver` + `poll_rx` on its peer, 8-byte message.
fn cassini_send_deliver() -> f64 {
    let mut fabric = Fabric::new(4);
    let rng = DetRng::new(2);
    let mut nics: Vec<CassiniNic> = (1..=2)
        .map(|a| CassiniNic::new(NicAddr(a), CassiniParams::default(), rng.derive("nic")))
        .collect();
    let mut eps = Vec::new();
    for nic in &mut nics {
        fabric.attach(nic.addr);
        fabric.grant_vni(nic.addr, Vni(1)).expect("attached");
        nic.configure_service(ServiceEntry {
            id: SvcId(1),
            vnis: vec![Vni(1)],
            limits: Default::default(),
            enabled: true,
        });
        eps.push(
            nic.alloc_endpoint(SvcId(1), Vni(1), TrafficClass::Dedicated)
                .expect("endpoint"),
        );
    }
    let (a, b) = nics.split_at_mut(1);
    let (a, b) = (&mut a[0], &mut b[0]);
    let (mut now, mut id) = (SimTime::ZERO, 0u64);
    measure(20_000, || {
        let out = a
            .send(now, &mut fabric, eps[0], b.addr, eps[1], id, 8)
            .expect("endpoint");
        let msg = RxMessage {
            src: a.addr,
            src_ep: eps[0],
            tag: id,
            len: 8,
            msg_id: id,
            delivered_at: now,
        };
        b.deliver(eps[1], Vni(1), msg).expect("same VNI");
        black_box((out, b.poll_rx(eps[1]).expect("endpoint")));
        now += SimDur::from_micros(10);
        id += 1;
    })
}

/// A CXI device on a host with one containerised process in its own
/// network namespace: `(host, device, app pid, its netns member)`.
fn cxi_rig() -> (Host, CxiDevice, Pid, SvcMember) {
    let mut host = Host::new("n0");
    let dev = CxiDevice::new(
        CxiDriver::extended(),
        CassiniNic::new(NicAddr(1), CassiniParams::default(), DetRng::new(1)),
    );
    let app = host.spawn_detached("app", Uid(1000), Gid(1000));
    let netns = host.unshare_net_ns(app).expect("live process");
    (host, dev, app, SvcMember::NetNs(netns))
}

fn netns_service(member: &SvcMember) -> CxiServiceDesc {
    CxiServiceDesc {
        members: vec![*member],
        vnis: vec![Vni(100)],
        limits: Default::default(),
        label: "probe".into(),
    }
}

/// What the CXI CNI plugin does per container: one netns-member service
/// allocated, then destroyed.
fn cxi_svc_alloc_destroy() -> f64 {
    let (host, mut dev, _, member) = cxi_rig();
    let root = host.credentials(Pid(1)).expect("init");
    measure(5_000, || {
        let id = dev
            .alloc_svc(&root, netns_service(&member))
            .expect("root allocates");
        black_box(dev.destroy_svc(&root, id).expect("root destroys"));
    })
}

/// The §III-A member check on endpoint creation (netns member).
fn cxi_ep_auth() -> f64 {
    let (host, mut dev, app, member) = cxi_rig();
    let root = host.credentials(Pid(1)).expect("init");
    dev.alloc_svc(&root, netns_service(&member))
        .expect("root allocates");
    measure(20_000, || {
        let ep = dev
            .ep_alloc(&host, app, Vni(100), TrafficClass::Dedicated)
            .expect("member");
        dev.ep_free(ep).expect("frees");
        black_box(ep);
    })
}

/// One pod sandbox's namespace life: spawn, unshare, procfs lookup,
/// exit, delete. Dead processes stay in the table, as they do over a
/// 500-job spike.
fn netns_cycle() -> f64 {
    let mut host = Host::new("n0");
    measure(400, || {
        let pid = host.spawn_detached("pause", Uid(0), Gid(0));
        let ns = host.unshare_net_ns(pid).expect("live process");
        black_box(host.proc_netns_inode(pid).expect("live process"));
        host.exit(pid).expect("live process");
        host.delete_net_ns(ns).expect("empty namespace");
    })
}

fn pod(ns: &str, name: &str) -> ApiObject {
    ApiObject::new(
        kinds::POD,
        ns,
        name,
        json!({"image": "x", "job_name": name}),
    )
}

fn api_create_delete() -> f64 {
    let mut api = ApiServer::default();
    for i in 0..500 {
        api.create(pod("bench", &format!("standing-{i}")), SimTime::ZERO)
            .expect("fresh name");
    }
    let mut i = 0u64;
    measure(5_000, || {
        let name = format!("p{i}");
        i += 1;
        api.create(pod("bench", &name), SimTime::ZERO)
            .expect("fresh name");
        api.delete(kinds::POD, "bench", &name).expect("exists");
    })
}

fn api_list_namespaced_1k() -> f64 {
    let mut api = ApiServer::default();
    for i in 0..1_000 {
        api.create(pod("bench", &format!("a{i}")), SimTime::ZERO)
            .expect("fresh name");
        api.create(pod("other", &format!("b{i}")), SimTime::ZERO)
            .expect("fresh name");
    }
    measure(500, || {
        black_box(api.list_namespaced(kinds::POD, "bench").len());
    })
}

/// One scheduler pass over 100 pods that stay pending behind two full
/// nodes — the per-tick scan a spike pays while it waits for capacity.
fn scheduler_poll_100_pending() -> f64 {
    let mut api = ApiServer::default();
    for n in 0..2 {
        api.create(make_node(&format!("node{n}"), 50), SimTime::ZERO)
            .expect("fresh name");
    }
    for i in 0..200 {
        api.create(pod("bench", &format!("p{i:03}")), SimTime::ZERO)
            .expect("fresh name");
    }
    let mut sched = Scheduler::new();
    sched.poll(&mut api, SimTime::ZERO);
    assert_eq!(
        sched.pending(),
        100,
        "two 50-pod nodes leave 100 of 200 pods pending"
    );
    measure(200, || sched.poll(&mut api, SimTime::ZERO))
}

/// One pod status write ingested by the PLEG cache, at 1 k pods.
fn pleg_sync() -> f64 {
    let mut api = ApiServer::default();
    for i in 0..1_000 {
        api.create(pod("bench", &format!("p{i}")), SimTime::ZERO)
            .expect("fresh name");
    }
    let mut pleg = Pleg::new();
    pleg.sync(&api);
    let mut i = 0u64;
    measure(5_000, || {
        api.mutate(kinds::POD, "bench", &format!("p{}", i % 1_000), |o| {
            o.status = json!({"phase": "Running", "started_at_ns": i});
        })
        .expect("exists");
        i += 1;
        pleg.sync(&api);
    })
}

/// One `Cluster::tick` on the 2-node testbed with 500 settled pods.
fn tick_idle_500_pods() -> f64 {
    let mut cluster = Cluster::new(ClusterConfig::default());
    for i in 0..500 {
        cluster.submit_job(
            SimTime::ZERO,
            "bench",
            &format!("idle-{i:03}"),
            &[],
            1,
            &alpine(),
            None,
        );
    }
    let tick = SimDur::from_millis(20);
    let mut t = SimTime::ZERO;
    while cluster.pleg.count(shs_k8s::PodPhase::Running) < 500 {
        t = cluster.run_until(t, t + SimDur::from_secs(1), tick);
        assert!(
            t < SimTime::from_nanos(3_600_000_000_000),
            "500 idle pods never settled"
        );
    }
    measure(200, || {
        t += tick;
        cluster.tick(t);
    })
}

/// Steps per second of the stress workload at `shards` store shards
/// (the `vni_stress-s<N>` curve of `bench-run`, at its size).
fn sharded_ops_per_s(shards: usize) -> f64 {
    const OPS: u64 = 20_000;
    let per_s: Vec<f64> = (0..3)
        .map(|_| {
            let mut w = VniStressWorkload::new(shards, 2_000);
            let start = Instant::now();
            for _ in 0..OPS {
                w.step();
            }
            black_box(w.finish());
            OPS as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&per_s)
}

fn put_one(store: &mut Store, i: u64) {
    let mut txn = store.begin();
    txn.put("vnis", &i.to_be_bytes(), b"row");
    black_box(txn.commit());
}

fn store_commit() -> f64 {
    let mut store = Store::new(StoreConfig {
        snapshot_every: None,
        ..Default::default()
    });
    let mut i = 0u64;
    measure(5_000, || {
        put_one(&mut store, i);
        i += 1;
    })
}

/// The same commit inside an open group-commit batch flushed every 64
/// commits, plus the exact WAL accounting of that run.
fn store_commit_grouped(counts: &mut Counts) -> f64 {
    let mut store = Store::new(StoreConfig {
        snapshot_every: None,
        ..Default::default()
    });
    store.group_begin();
    let mut i = 0u64;
    let ns = measure(5_000, || {
        put_one(&mut store, i);
        i += 1;
        if i.is_multiple_of(VniStressWorkload::FLUSH_EVERY) {
            store.group_flush();
        }
    });
    store.group_end();
    let s = store.stats();
    counts.insert("vnistore.commits", s.commits as f64);
    counts.insert("vnistore.fsyncs", s.fsyncs as f64);
    counts.insert("vnistore.snapshots", s.snapshots as f64);
    counts.insert(
        "vnistore.wal_bytes_per_commit",
        s.wal_bytes as f64 / s.commits as f64,
    );
    ns
}

/// Full recovery of 1 k live rows after 10 k commits of churn, under
/// the truncating snapshot cadence the VNI database runs with.
fn store_recover_ms() -> f64 {
    let config = StoreConfig {
        snapshot_every: Some(256),
        snapshot_wal_factor: 1,
    };
    let mut store = Store::new(config);
    for i in 0..1_000u64 {
        let mut txn = store.begin();
        txn.put("vnis", &i.to_be_bytes(), b"live row");
        txn.commit();
    }
    for i in 0..10_000u64 {
        let mut txn = store.begin();
        txn.put("hot", &(i % 8).to_be_bytes(), &i.to_be_bytes());
        txn.commit();
    }
    let disk = store.shutdown();
    measure(20, || {
        let store = Store::recover(disk.clone(), config);
        assert_eq!(store.row_count("vnis"), 1_000, "recovery lost rows");
    }) / 1e6
}

/// Run every probe; returns the metrics by name.
pub fn run_all() -> Counts {
    let mut m = Counts::new();
    m.insert("des.sim.hold_ns", des_hold());
    let mut w = FabricTransferHotWorkload::new();
    m.insert(
        "fabric.transfer_ns",
        measure(20_000, || {
            black_box(w.step());
        }),
    );
    let mut w = FabricAdaptiveHotWorkload::new();
    m.insert(
        "fabric.transfer_adaptive_ns",
        measure(20_000, || {
            black_box(w.step());
        }),
    );
    m.insert("fabric.transfer_faulted_ns", fabric_transfer_faulted());
    m.insert("fabric.grant_revoke_ns", fabric_grant_revoke());
    m.insert("cassini.send_deliver_ns", cassini_send_deliver());
    m.insert("cxi.svc_alloc_destroy_ns", cxi_svc_alloc_destroy());
    m.insert("cxi.ep_auth_ns", cxi_ep_auth());
    let mut w = OsuAllreduceWorkload::new();
    m.insert(
        "mpi.allreduce_8x64k_ns",
        measure(200, || {
            black_box(w.step());
        }),
    );
    assert_eq!(w.lost(), 0, "the allreduce rig must stay lossless");
    m.insert("oslinux.netns_cycle_ns", netns_cycle());
    m.insert("k8s.api.create_delete_ns", api_create_delete());
    m.insert("k8s.api.list_ns_1k", api_list_namespaced_1k());
    m.insert(
        "k8s.scheduler.poll_ns_100pending",
        scheduler_poll_100_pending(),
    );
    m.insert("k8s.pleg.sync_ns", pleg_sync());
    let mut w = PlegStatusReadWorkload::new(10_000);
    m.insert(
        "k8s.pleg.status_read_ns_10k",
        measure(20_000, || {
            black_box(w.cached_read());
        }),
    );
    m.insert("core.tick_ns_idle_500pods", tick_idle_500_pods());
    let mut w = AcquireReleaseWorkload::new();
    m.insert(
        "core.vni_db.acquire_release_ns",
        measure(150, || {
            black_box(w.step());
        }),
    );
    let mut w = ChurnHotWorkload::new();
    m.insert(
        "core.vni_db.churn_hot_ns",
        measure(200, || {
            black_box(w.step());
        }),
    );
    m.insert("core.sharded_db.ops_per_s_s1", sharded_ops_per_s(1));
    m.insert("core.sharded_db.ops_per_s_s2", sharded_ops_per_s(2));
    m.insert("core.sharded_db.ops_per_s_s4", sharded_ops_per_s(4));
    m.insert("vnistore.commit_ns", store_commit());
    let grouped_ns = store_commit_grouped(&mut m);
    m.insert("vnistore.commit_grouped_ns", grouped_ns);
    m.insert("vnistore.recover_ms", store_recover_ms());
    m
}
