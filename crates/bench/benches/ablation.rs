//! Ablation benches for the design choices DESIGN.md calls out:
//! * webhook latency vs admission delay (the VNI Service's only
//!   data-free knob),
//! * snapshotting policy of the ACID store,
//! * DRC (pre-existing credential path) vs the VNI-Service flow,
//! * per-message vs per-endpoint authentication (why kernel-bypass keeps
//!   the data path overhead at zero).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use shs_cxi::{CxiDevice, CxiDriver, DrcBroker};
use shs_cassini::{CassiniNic, CassiniParams};
use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::NicAddr;
use shs_oslinux::{Host, Pid, Uid};
use shs_vnistore::{Store, StoreConfig};
use slingshot_k8s::{alpine, Cluster, ClusterConfig};

/// Admission of a fixed burst under different webhook latencies: shows
/// that the VNI Service stays off the critical path until its latency
/// approaches the pod-setup pipeline's.
fn bench_webhook_latency_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_vs_webhook_latency");
    for ms in [5u64, 50, 200] {
        group.bench_function(format!("webhook_{ms}ms"), |b| {
            b.iter(|| {
                let mut cluster = Cluster::new(ClusterConfig {
                    webhook_latency: SimDur::from_millis(ms),
                    seed: 3,
                    ..Default::default()
                });
                for i in 0..6 {
                    cluster.submit_job(
                        SimTime::ZERO,
                        "t",
                        &format!("j{i}"),
                        &[("vni", "true")],
                        1,
                        &alpine(),
                        Some(10),
                    );
                }
                cluster.run_until(
                    SimTime::ZERO,
                    SimTime::from_nanos(10_000_000_000),
                    SimDur::from_millis(20),
                );
                let started = (0..6)
                    .filter(|i| cluster.job_started_at("t", &format!("j{i}")).is_some())
                    .count();
                black_box(started)
            })
        });
    }
    group.finish();
}

/// WAL-only vs periodic snapshots: recovery cost after N transactions.
fn bench_store_recovery_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_recovery");
    for (name, snapshot_every) in [("wal_only", None), ("snapshot_64", Some(64u64))] {
        group.bench_function(name, |b| {
            let mut store = Store::new(StoreConfig { snapshot_every, ..Default::default() });
            for i in 0..512u32 {
                let mut txn = store.begin();
                txn.put("vnis", &i.to_be_bytes(), &i.to_le_bytes());
                txn.commit();
            }
            let disk = store.shutdown();
            b.iter(|| {
                let recovered = Store::recover(disk.clone(), StoreConfig::default());
                black_box(recovered.row_count("vnis"))
            })
        });
    }
    group.finish();
}

/// DRC redemption vs the paper's CNI-driven service creation: both end
/// in a CXI service; the paper's point is that only the latter is
/// container-granular. Cost-wise they are comparable.
fn bench_drc_vs_cni_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("credential_paths");
    group.bench_function("drc_redeem", |b| {
        let host = Host::new("n0");
        let root = host.credentials(Pid(1)).unwrap();
        let mut broker = DrcBroker::new(100..60_000);
        let mut dev = CxiDevice::new(
            CxiDriver::extended(),
            CassiniNic::new(NicAddr(1), CassiniParams::default(), DetRng::new(4)),
        );
        b.iter(|| {
            // The minimal broker never recycles VNIs; restart it when the
            // range runs dry so long criterion runs keep measuring the
            // same acquire+redeem path.
            let cred = match broker.acquire(Uid(1000)) {
                Ok(c) => c,
                Err(_) => {
                    broker = DrcBroker::new(100..60_000);
                    broker.acquire(Uid(1000)).expect("fresh range")
                }
            };
            let svc = broker.redeem(cred.id, &root, &mut dev, Uid(1000)).expect("redeem");
            // Keep the device's service table bounded.
            dev.destroy_svc(&root, svc).expect("destroy");
            broker.release(cred.id).expect("release");
            black_box(svc)
        })
    });
    group.bench_function("vni_service_sync", |b| {
        use shs_k8s::{ApiObject, DecoratorHooks};
        use slingshot_k8s::{EndpointHandle, EndpointRole, ShardedVniDb, VniDbConfig, VniEndpoint};
        use std::cell::RefCell;
        use std::rc::Rc;
        let cfg = VniDbConfig { range: 1024..60_000, quarantine: SimDur::from_secs(30) };
        let ep = Rc::new(RefCell::new(VniEndpoint::new(ShardedVniDb::new(cfg, 1))));
        let mut handle = EndpointHandle { endpoint: ep, role: EndpointRole::Jobs };
        let mut i = 0u64;
        b.iter(|| {
            let mut job = ApiObject::new("Job", "t", &format!("j{i}"), serde_json::json!({}));
            i += 1;
            job.meta.annotations.insert("vni".into(), "true".into());
            black_box(handle.sync(&job, &[], SimTime::ZERO))
        })
    });
    group.finish();
}

criterion_group! {
    name = ablation;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_webhook_latency_sweep, bench_store_recovery_policy, bench_drc_vs_cni_path
}
criterion_main!(ablation);
