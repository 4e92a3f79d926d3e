//! The five workloads: inputs generated from the seed, one repeat of
//! fixed work on fresh state, and the correctness checks on its output.
//!
//! Every workload hands the program only plain input values
//! (`Scenario`, `FabricScenario`, `VniStressScenario`, `CommConfig`, an
//! admission `Pattern` + seeds). A repeat returns an [`Outcome`]: the
//! deterministic serialized report (the digest source), the op counts,
//! the violated checks, and the exact counters read from the report.
//!
//! `admission-spike` and `vni-churn` can be re-driven through public
//! API without copying program logic, so their traced repeat owns the
//! loop (`Cluster::new` / `submit_job` / `Cluster::tick` /
//! `JobTracker::observe`, and `VniStressWorkload::new` / `step` /
//! `finish` / `crash` / `ShardedVniDb::recover`) and must reproduce the
//! untraced report byte for byte. The other three get one span around
//! the monolithic entry point.

use std::collections::BTreeMap;

use shs_des::{stats, DetRng, SimDur, SimTime};
use shs_fabric::{CostModel, RoutingPolicy, SweepConfig, Topology, TopologySpec, TrafficClass};
use shs_harness::{
    median_overhead_pct, run_admission, run_comm, AdmissionRun, AdmissionSeries, CommConfig,
    CommResult, JobTracker, Metric, Pattern,
};
use slingshot_k8s::{
    alpine, run_fabric_scenario, run_scenario, run_vni_stress, Cluster, ClusterConfig,
    FabricScenario, FabricSweepReport, JobPlan, Scenario, ScenarioReport, ServicePlan,
    ShardedVniDb, TrafficPattern, TrafficPlan, VniDbConfig, VniMode, VniStressReport,
    VniStressScenario, VniStressWorkload,
};

use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "admission-spike",
    "tenant-traffic",
    "fabric-sweep-t1",
    "vni-churn",
    "osu-pair",
];

/// Work divisor of `--smoke` (the `cargo test` scale).
const SMOKE_DIVISOR: u64 = 50;

/// Simulated-seconds cap of one admission half. A 500-job spike drains
/// in under 200 s; the cap only bounds a regression that stops draining.
const ADMISSION_CAP_S: u64 = 3_600;

/// Exact counters and simulated-time figures of one repeat, keyed by
/// per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// What one repeat produced.
pub struct Outcome {
    /// The deterministic report, serialized: equal bytes on every
    /// repeat of one seed, traced or not.
    pub report: String,
    /// Input-defined ops this repeat attempted.
    pub attempted: u64,
    /// Ops that failed (see the README for each workload's definition).
    pub failed: u64,
    /// Violated correctness checks, empty when the repeat is correct.
    pub violations: Vec<String>,
    /// `[count]` layer metrics and `sim_*` figures read off the report.
    pub counts: Counts,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.violations.push(what.to_string());
        }
    }
}

/// One workload with its seed-generated inputs.
pub enum Workload {
    /// Paper Fig. 11: a job spike on the 2-node testbed, `vni:true`
    /// then `vni:false`.
    AdmissionSpike {
        /// Jobs submitted at t=0 in each half.
        jobs: usize,
        /// Cluster seed of the `vni:true` half.
        seed_with: u64,
        /// Cluster seed of the `vni:false` half.
        seed_without: u64,
    },
    /// A multi-tenant scenario through the whole stack.
    TenantTraffic(Box<Scenario>),
    /// The 1024-node sharded fabric sweep on one thread. The traced pass
    /// also runs its 2-thread twin (see [`Workload::run_twin`]).
    FabricSweep(Box<FabricScenario>),
    /// Tenant churn through the sharded VNI database, with crash +
    /// recovery.
    VniChurn(VniStressScenario),
    /// OSU latency + bandwidth over host / `vni:false` / `vni:true`.
    OsuPair {
        /// `osu_latency` configuration.
        latency: CommConfig,
        /// `osu_bw` configuration.
        bandwidth: CommConfig,
    },
}

fn ms(x: u64) -> SimTime {
    SimTime::from_nanos(x * 1_000_000)
}

/// The `tenant-traffic` scenario: sized so the serial
/// `Fabric::transfer` + Cassini + CXI-auth + `des::Sim` path carries
/// about three quarters of the wall time and the control plane the rest.
fn tenant_traffic(seed: u64, smoke: bool) -> Scenario {
    let mut rng = DetRng::new(seed).derive("sysbench/tenant-traffic");
    let rounds = if smoke {
        2_500 / SMOKE_DIVISOR as u32
    } else {
        2_500
    };
    let mut jobs = Vec::new();
    for i in 0..8u64 {
        let pattern = if i % 2 == 0 {
            TrafficPattern::Allreduce
        } else {
            TrafficPattern::Ring
        };
        jobs.push(JobPlan {
            tenant: format!("tenant-{i}"),
            name: format!("mpi{i}"),
            ranks: 4,
            arrival: ms(500 + rng.below(400)),
            run_ms: None,
            vni: VniMode::Dedicated,
            delete_at: Some(ms(34_000)),
            traffic: Some(TrafficPlan {
                rounds,
                interval: SimDur::from_millis(10),
                size: 16 * 1024,
                tc: if i % 2 == 0 {
                    TrafficClass::Dedicated
                } else {
                    TrafficClass::BulkData
                },
                burst: 4,
                pattern,
            }),
            pin_nodes: None,
        });
    }
    for wave in 0..3u64 {
        for i in 0..8u64 {
            jobs.push(JobPlan {
                tenant: "churn".into(),
                name: format!("w{wave}j{i}"),
                ranks: 1,
                arrival: ms(1_000 + wave * 7_000 + i * 100 + rng.below(50)),
                run_ms: Some(500),
                vni: VniMode::Dedicated,
                delete_at: None,
                traffic: None,
                pin_nodes: None,
            });
        }
    }
    let services = (0..2u64)
        .map(|i| ServicePlan {
            tenant: format!("web-{i}"),
            name: format!("frontend{i}"),
            replicas: 3,
            arrival: ms(500 + rng.below(200)),
            vni: VniMode::Dedicated,
            tc: TrafficClass::LowLatency,
            request_interval: SimDur::from_millis(20),
            requests_per_fire: 4,
            request_bytes: 2048,
            response_bytes: 4096,
            slo_p99: SimDur::from_micros(500),
            update_at: Some(ms(10_000)),
            delete_at: Some(ms(36_000)),
            burst: None,
            autoscale: None,
            pin_nodes: None,
        })
        .collect();
    Scenario {
        name: "sysbench-tenant-traffic".into(),
        description: "8 tenants x 4-rank allreduce/ring jobs, 2 rolling services and 3 churn \
                      waves on a 16-node adaptive dragonfly"
            .into(),
        config: ClusterConfig {
            seed,
            nodes: 16,
            topology: Some(TopologySpec {
                groups: 3,
                switches_per_group: 2,
                edge_ports: 16,
            }),
            routing: RoutingPolicy::Adaptive,
            ..Default::default()
        },
        claims: vec![],
        jobs,
        services,
        faults: vec![],
        horizon: ms(42_000),
        tick: SimDur::from_millis(20),
    }
}

/// `dragonfly-1024` at the smallest packet size: 1000 messages of 256 B
/// per node, half of them cross-group.
fn fabric_sweep(seed: u64, smoke: bool) -> FabricScenario {
    FabricScenario {
        name: "sysbench-fabric-sweep",
        description: "1024-node 4-group dragonfly sweep, 256 B messages, 50% cross-group",
        config: SweepConfig {
            spec: TopologySpec {
                groups: 4,
                switches_per_group: 8,
                edge_ports: 32,
            },
            policy: RoutingPolicy::Minimal,
            nodes_per_switch: 32,
            messages_per_node: if smoke {
                1_000 / SMOKE_DIVISOR as u32
            } else {
                1_000
            },
            payload_bytes: 256,
            interval_ns: 2_000,
            cross_group_every: 2,
            seed,
            model: CostModel::default(),
            faults: Vec::new(),
        },
    }
}

impl Workload {
    /// Generate the named workload's inputs from `seed`.
    pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let scale = if smoke { SMOKE_DIVISOR } else { 1 };
        Some(match name {
            "admission-spike" => Workload::AdmissionSpike {
                jobs: (500 / scale) as usize,
                // The seed offsets `run_pattern` gives its two halves.
                seed_with: seed.wrapping_add(1_000),
                seed_without: seed.wrapping_add(2_000),
            },
            "tenant-traffic" => Workload::TenantTraffic(Box::new(tenant_traffic(seed, smoke))),
            "fabric-sweep-t1" => Workload::FabricSweep(Box::new(fabric_sweep(seed, smoke))),
            "vni-churn" => Workload::VniChurn(VniStressScenario {
                name: "sysbench-vni-churn".into(),
                description: "10k tenants churning through the sharded VNI database under \
                              WAL group commit, then crash + recover + audit"
                    .into(),
                seed,
                tenants: 10_000,
                ops: 500_000 / scale,
                shards: 1,
            }),
            "osu-pair" => {
                let shrink = |mut c: CommConfig| {
                    if smoke {
                        c.runs = 2;
                        c.osu.iterations = (c.osu.iterations / 10).max(2);
                        c.osu.warmup = 2;
                    }
                    c
                };
                Workload::OsuPair {
                    latency: shrink(CommConfig::quick(Metric::Latency, seed)),
                    bandwidth: shrink(CommConfig::quick(Metric::Bandwidth, seed)),
                }
            }
            _ => return None,
        })
    }

    /// Most worker threads a pass over the workload runs at once.
    pub fn threads(&self, traced: bool) -> usize {
        match self {
            Workload::FabricSweep(_) if traced => 2,
            _ => 1,
        }
    }

    /// One repeat through the program's monolithic entry points.
    pub fn run(&self) -> Outcome {
        match self {
            Workload::AdmissionSpike {
                jobs,
                seed_with,
                seed_without,
            } => {
                let pattern = Pattern::Spike { jobs: *jobs };
                let with = run_admission(pattern, true, *seed_with, ADMISSION_CAP_S);
                let without = run_admission(pattern, false, *seed_without, ADMISSION_CAP_S);
                admission_outcome(*jobs, with, without, Counts::new())
            }
            Workload::TenantTraffic(sc) => {
                let report = run_scenario(sc);
                let json = serde_json::to_string(&report).expect("report serializes");
                scenario_outcome(&report, json)
            }
            Workload::FabricSweep(sc) => sweep_outcome(&run_fabric_scenario(sc, 1)),
            Workload::VniChurn(sc) => stress_outcome(&run_vni_stress(sc), Counts::new()),
            Workload::OsuPair { latency, bandwidth } => osu_outcome(
                latency,
                bandwidth,
                &run_comm(Metric::Latency, latency),
                &run_comm(Metric::Bandwidth, bandwidth),
            ),
        }
    }

    /// The same inputs through the same layer used differently: the
    /// fabric sweep on two worker threads (the barrier/exchange path
    /// with real parallelism). Its report must equal the 1-thread one
    /// byte for byte. `None` for workloads without such a twin.
    pub fn run_twin(&self, tr: &mut Tracer) -> Option<Outcome> {
        let Workload::FabricSweep(sc) = self else {
            return None;
        };
        Some(sweep_outcome(
            &tr.span("core.parsim.run_t2", |_| run_fabric_scenario(sc, 2)),
        ))
    }

    /// One repeat with wall-clock spans around every call into a layer.
    pub fn run_traced(&self, tr: &mut Tracer) -> Outcome {
        match self {
            Workload::AdmissionSpike {
                jobs,
                seed_with,
                seed_without,
            } => {
                let mut counts = Counts::new();
                let t0 = tr.now_ns();
                let with = traced_admission(tr, *jobs, true, *seed_with, &mut counts);
                let t1 = tr.now_ns();
                let without = traced_admission(tr, *jobs, false, *seed_without, &mut Counts::new());
                let t2 = tr.now_ns();
                // Host cost of the paper's integration per job: the two
                // halves differ only in the `vni` annotation.
                let extra_ns = (t1 - t0) as f64 - (t2 - t1) as f64;
                counts.insert(
                    "core.vni_integration_host_us_per_job",
                    extra_ns / 1e3 / *jobs as f64,
                );
                admission_outcome(*jobs, with, without, counts)
            }
            Workload::TenantTraffic(sc) => {
                let spec = sc
                    .config
                    .topology
                    .expect("tenant-traffic runs on a dragonfly");
                tr.span("fabric.topology.new", |_| {
                    std::hint::black_box(Topology::new(spec, sc.config.routing));
                });
                tr.span("core.cluster.new", |_| {
                    std::hint::black_box(Cluster::new(sc.config.clone()));
                });
                let report = tr.span("core.scenario.run", |_| run_scenario(sc));
                let json = tr.span("harness.report.json", |_| {
                    serde_json::to_string(&report).expect("report serializes")
                });
                scenario_outcome(&report, json)
            }
            Workload::FabricSweep(sc) => {
                tr.span("fabric.topology.new", |_| {
                    std::hint::black_box(Topology::new(sc.config.spec, sc.config.policy));
                });
                sweep_outcome(&tr.span("core.parsim.run", |_| run_fabric_scenario(sc, 1)))
            }
            Workload::VniChurn(sc) => {
                let mut counts = Counts::new();
                let report = traced_stress(tr, sc, &mut counts);
                stress_outcome(&report, counts)
            }
            Workload::OsuPair { latency, bandwidth } => {
                let lat = tr.span("mpi.osu.latency", |_| run_comm(Metric::Latency, latency));
                let bw = tr.span("mpi.osu.bandwidth", |_| {
                    run_comm(Metric::Bandwidth, bandwidth)
                });
                osu_outcome(latency, bandwidth, &lat, &bw)
            }
        }
    }
}

/// `run_admission`'s loop for a spike, re-driven through public API
/// with a span around each call into `core` and `harness`.
fn traced_admission(
    tr: &mut Tracer,
    jobs: usize,
    vni: bool,
    seed: u64,
    counts: &mut Counts,
) -> AdmissionRun {
    let mut cluster = tr.span("core.cluster.new", |_| {
        Cluster::new(ClusterConfig {
            seed,
            ..Default::default()
        })
    });
    let mut tracker = JobTracker::default();
    let ann: &[(&str, &str)] = if vni { &[("vni", "true")] } else { &[] };
    let tick = SimDur::from_millis(20);
    let image = alpine();
    let mut samples = Vec::new();
    let mut t = SimTime::ZERO;
    let mut objects_peak = 0usize;
    for sec in 0..ADMISSION_CAP_S {
        let sec_start = SimTime::from_nanos(sec * 1_000_000_000);
        if sec == 0 {
            for i in 0..jobs {
                let name = format!("job-000-{i:03}");
                tr.span("core.cluster.submit_job", |_| {
                    cluster.submit_job(sec_start, "bench", &name, ann, 1, &image, Some(10));
                });
                tracker.submitted(&name, 0, sec_start);
            }
        }
        let sec_end = SimTime::from_nanos((sec + 1) * 1_000_000_000);
        t = t.max(sec_start);
        while t < sec_end {
            t = (t + tick).min(sec_end);
            tr.span("core.cluster.tick", |_| cluster.tick(t));
        }
        tr.span("harness.tracker.observe", |_| {
            tracker.observe(&cluster.api, t)
        });
        objects_peak = objects_peak.max(cluster.api.object_count());
        samples.push((sec + 1, tracker.running()));
        if tracker.all_deleted() {
            break;
        }
    }
    let k = cluster.nodes.iter().map(|n| n.kubelet.counters);
    counts.insert(
        "k8s.pods_started",
        k.clone().map(|c| c.pods_started).sum::<u64>() as f64,
    );
    counts.insert(
        "k8s.pods_removed",
        k.clone().map(|c| c.pods_removed).sum::<u64>() as f64,
    );
    counts.insert(
        "k8s.cni_retries",
        k.clone().map(|c| c.cni_retries).sum::<u64>() as f64,
    );
    counts.insert(
        "k8s.pods_failed",
        k.map(|c| c.pods_failed).sum::<u64>() as f64,
    );
    counts.insert("k8s.api.objects_peak", objects_peak as f64);
    let ep = cluster.endpoint.borrow();
    let c = ep.db.counters();
    counts.insert("core.vni.acquires", c.acquires as f64);
    counts.insert("core.vni.reuse_share", ratio(c.reuse_allocs, c.acquires));
    counts.insert("core.vni.exhaustions", c.exhaustions as f64);
    counts.insert("core.vni.txns", ep.db.txn_count() as f64);
    AdmissionRun {
        samples,
        jobs: tracker.jobs.values().copied().collect(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn admission_outcome(
    jobs: usize,
    with: AdmissionRun,
    without: AdmissionRun,
    mut counts: Counts,
) -> Outcome {
    let report = format!("{with:?}\n{without:?}");
    let unfinished = |r: &AdmissionRun| {
        r.jobs
            .iter()
            .filter(|j| j.started.is_none() || j.deleted.is_none())
            .count() as u64
    };
    let failed = unfinished(&with) + unfinished(&without);
    let jobs_seen = with.jobs.len() + without.jobs.len();
    let drained = [&with, &without]
        .iter()
        .all(|r| r.samples.last().is_some_and(|s| s.1 == 0));
    let with = AdmissionSeries {
        name: "vni:true",
        runs: vec![with],
    };
    let without = AdmissionSeries {
        name: "vni:false",
        runs: vec![without],
    };
    let delays = with.all_delays();
    counts.insert("sim_admission_p50_s", stats::median(&delays));
    counts.insert("sim_admission_p95_s", stats::percentile(&delays, 95.0));
    counts.insert("sim_vni_overhead_pct", median_overhead_pct(&with, &without));
    let mut out = Outcome {
        report,
        attempted: 2 * jobs as u64,
        failed,
        violations: vec![],
        counts,
    };
    out.check(jobs_seen == 2 * jobs, "every submitted job has a record");
    out.check(failed == 0, "all jobs admitted and reaped in both halves");
    out.check(drained, "running-jobs series ends at zero in both halves");
    out
}

fn scenario_outcome(r: &ScenarioReport, json: String) -> Outcome {
    let t = &r.traffic;
    let svc = |f: fn(&slingshot_k8s::ServiceReport) -> u64| r.services.iter().map(f).sum::<u64>();
    let requests = svc(|s| s.requests);
    let attempted = t.authorized_sends + t.auth_failures + requests;
    let lost_sends = t.authorized_sends.saturating_sub(t.delivered + t.dropped);
    let lost_requests = requests.saturating_sub(svc(|s| s.completed) + svc(|s| s.dropped));
    let unfinished = r.jobs.planned - r.jobs.started.min(r.jobs.reaped);
    let failed = lost_sends + lost_requests + t.auth_failures + svc(|s| s.auth_failures);
    let iso = &r.isolation;
    let mut counts = Counts::new();
    counts.insert("des.events", r.events_executed as f64);
    counts.insert(
        "fabric.msgs",
        (t.delivered + 2 * svc(|s| s.completed)) as f64,
    );
    counts.insert(
        "fabric.switch_hops",
        t.by_job.iter().map(|j| j.fabric_switch_hops).sum::<u64>() as f64,
    );
    counts.insert("fabric.drops", (t.dropped + svc(|s| s.dropped)) as f64);
    counts.insert("fabric.reroutes", t.fabric_reroutes.unwrap_or(0) as f64);
    counts.insert("fabric.ecn_marks", t.fabric_ecn_marks.unwrap_or(0) as f64);
    counts.insert("fabric.sim_msg_mean_ns", t.mean_latency_ns as f64);
    counts.insert("fabric.sim_msg_max_ns", t.max_latency_ns as f64);
    counts.insert(
        "cxi.cross_tenant_denied_share",
        ratio(iso.cross_tenant_denied, iso.cross_tenant_attempts),
    );
    counts.insert("k8s.pods_started", r.kubelet.pods_started as f64);
    counts.insert("k8s.pods_removed", r.kubelet.pods_removed as f64);
    counts.insert("k8s.cni_retries", r.kubelet.cni_retries as f64);
    counts.insert("k8s.pods_failed", r.kubelet.pods_failed as f64);
    counts.insert("core.vni.acquires", r.vni.acquisitions as f64);
    counts.insert("core.vni.exhaustions", r.vni.exhaustions as f64);
    counts.insert("core.vni.txns", r.vni.txn_count as f64);
    counts.insert("harness.report_bytes", json.len() as f64);
    let mut out = Outcome {
        report: json,
        attempted,
        failed,
        violations: vec![],
        counts,
    };
    out.check(r.passed, "scenario report passed");
    out.check(lost_sends == 0, "sent = delivered + drops");
    out.check(lost_requests == 0, "requests = completed + dropped");
    out.check(unfinished == 0, "every planned job started and was reaped");
    out.check(
        iso.cross_tenant_attempts > 0 && iso.cross_tenant_denied == iso.cross_tenant_attempts,
        "every cross-tenant probe denied",
    );
    out
}

fn sweep_outcome(r: &FabricSweepReport) -> Outcome {
    let route_drops = r.route_drops.unwrap_or(0);
    let failed = r
        .sent
        .saturating_sub(r.delivered + r.congestion_drops + route_drops);
    let json = serde_json::to_string(r).expect("report serializes");
    let mut counts = Counts::new();
    counts.insert("des.events", r.events_executed as f64);
    counts.insert("des.parallel.windows", r.windows as f64);
    counts.insert(
        "des.parallel.events_per_window",
        ratio(r.events_executed, r.windows),
    );
    counts.insert("des.parallel.cross_injected", r.cross_group_injected as f64);
    counts.insert("fabric.msgs", r.delivered as f64);
    counts.insert("fabric.switch_hops", r.switch_hops as f64);
    counts.insert("fabric.drops", (r.congestion_drops + route_drops) as f64);
    counts.insert("fabric.sim_msg_mean_ns", r.mean_latency_ns as f64);
    counts.insert("fabric.sim_msg_max_ns", r.max_latency_ns as f64);
    counts.insert("harness.report_bytes", json.len() as f64);
    let mut out = Outcome {
        report: json,
        attempted: r.sent,
        failed,
        violations: vec![],
        counts,
    };
    out.check(r.passed, "sweep report passed");
    out.check(failed == 0, "sent = delivered + drops");
    out
}

/// `run_vni_stress`'s sequence re-driven through public API; one span
/// per group-commit window of [`VniStressWorkload::FLUSH_EVERY`] steps.
fn traced_stress(tr: &mut Tracer, sc: &VniStressScenario, counts: &mut Counts) -> VniStressReport {
    let mut w = tr.span("core.stress.new", |_| {
        VniStressWorkload::new(sc.shards, sc.tenants)
    });
    let mut left = sc.ops;
    while left > 0 {
        let n = left.min(VniStressWorkload::FLUSH_EVERY);
        tr.span("core.stress.step_window", |_| {
            for _ in 0..n {
                w.step();
            }
        });
        left -= n;
    }
    let (mut db, now, ops, _) = tr.span("core.stress.finish", |_| w.finish());
    let (consistent, stats, c, rows, audit_len, txns) = tr.span("core.sharded_db.audit", |_| {
        (
            db.check_index_consistency().is_ok(),
            db.stats(now),
            db.counters(),
            db.rows(),
            db.audit_len() as u64,
            db.txn_count(),
        )
    });
    let config = VniDbConfig {
        range: VniStressWorkload::RANGE,
        quarantine: db.quarantine(),
    };
    let mut rng = DetRng::new(sc.seed);
    let disks = tr.span("core.sharded_db.crash", |_| db.crash(&mut rng));
    let device_bytes: usize = disks.iter().map(|d| d.len()).sum();
    counts.insert("vnistore.device_bytes", device_bytes as f64);
    let recovered_db = tr.span("core.sharded_db.recover", |_| {
        ShardedVniDb::recover(disks, config)
    });
    let recovered = tr.span("core.sharded_db.audit", |_| {
        recovered_db.rows() == rows
            && recovered_db.audit_len() as u64 == audit_len
            && recovered_db.check_index_consistency().is_ok()
    });
    VniStressReport {
        scenario: sc.name.clone(),
        description: sc.description.clone(),
        seed: sc.seed,
        tenants: sc.tenants,
        ops,
        acquires: c.acquires,
        reuse_allocs: c.reuse_allocs,
        releases: c.releases,
        exhaustions: c.exhaustions,
        audit_len,
        txns,
        allocated_at_end: stats.allocated as u64,
        quarantined_at_end: stats.quarantined as u64,
        horizon_ms: now.as_nanos() / 1_000_000,
        consistent,
        recovered,
        passed: consistent && recovered,
    }
}

fn stress_outcome(r: &VniStressReport, mut counts: Counts) -> Outcome {
    let json = serde_json::to_string(r).expect("report serializes");
    counts.insert("core.vni.acquires", r.acquires as f64);
    counts.insert("core.vni.reuse_share", ratio(r.reuse_allocs, r.acquires));
    counts.insert("core.vni.exhaustions", r.exhaustions as f64);
    counts.insert("core.vni.txns", r.txns as f64);
    counts.insert("harness.report_bytes", json.len() as f64);
    let mut out = Outcome {
        report: json,
        attempted: r.ops,
        // A step that met an exhausted range fell back to a release
        // instead of the acquire the input asked for.
        failed: r.exhaustions,
        violations: vec![],
        counts,
    };
    out.check(r.passed, "stress report passed");
    out.check(r.consistent, "index invariants held");
    out.check(r.recovered, "recovery reproduces rows + audit length");
    out.check(r.audit_len == r.ops, "one audit entry per step");
    out
}

/// OSU messages one `run_comm` sends: per size, a latency iteration is
/// a ping and a pong, a bandwidth iteration is a window plus its ack.
fn osu_messages(metric: Metric, cfg: &CommConfig) -> u64 {
    let iters = u64::from(cfg.osu.iterations + cfg.osu.warmup);
    let per_size = match metric {
        Metric::Latency => 2 * iters,
        Metric::Bandwidth => iters * (u64::from(cfg.osu.window) + 1),
    };
    3 * u64::from(cfg.runs) * cfg.osu.sizes.len() as u64 * per_size
}

fn osu_outcome(
    latency: &CommConfig,
    bandwidth: &CommConfig,
    lat: &CommResult,
    bw: &CommResult,
) -> Outcome {
    let shape_ok = |r: &CommResult, cfg: &CommConfig| {
        r.modes.len() == 3
            && r.modes.iter().all(|m| {
                m.values.len() == cfg.runs as usize
                    && m.values.iter().all(|run| {
                        run.len() == cfg.osu.sizes.len()
                            && run.iter().all(|v| v.is_finite() && *v > 0.0)
                    })
            })
    };
    let worst = |r: &CommResult| {
        r.overhead_of("vni:true")
            .iter()
            .map(|o| o.0.abs())
            .fold(0.0, f64::max)
    };
    let mut counts = Counts::new();
    counts.insert("sim_osu_lat_overhead_pct", worst(lat));
    counts.insert("sim_osu_bw_overhead_pct", worst(bw));
    let lat_msgs = osu_messages(Metric::Latency, latency);
    let bw_msgs = osu_messages(Metric::Bandwidth, bandwidth);
    counts.insert("fabric.msgs", (lat_msgs + bw_msgs) as f64);
    counts.insert("mpi.osu_lat_msgs", lat_msgs as f64);
    counts.insert("mpi.osu_bw_msgs", bw_msgs as f64);
    let ok = shape_ok(lat, latency) && shape_ok(bw, bandwidth);
    let attempted = lat_msgs + bw_msgs;
    let mut out = Outcome {
        report: format!("{lat:?}\n{bw:?}"),
        attempted,
        failed: if ok { 0 } else { attempted },
        violations: vec![],
        counts,
    };
    out.check(
        ok,
        "every mode x run x size measured a finite positive value",
    );
    // The paper's claim (Figs. 6/8): the data path is unchanged, so the
    // integration's mean overhead stays inside run-to-run jitter.
    out.check(
        worst(lat) < 2.0,
        "vni:true latency overhead within 2% of host",
    );
    out.check(
        worst(bw) < 2.0,
        "vni:true bandwidth overhead within 2% of host",
    );
    out
}
