//! `bench-run` — the machine-readable perf trajectory.
//!
//! ```text
//! bench-run [--quick] [--baseline FILE] [--gate] [--label NAME] [--out FILE]
//!           [--shards LIST]
//! ```
//!
//! Times the control-plane hot paths the paper's VNI Database serializes
//! (§III-C2) and the end-to-end scenario engine, then emits one JSON
//! document (`shs-bench/v1`) with the **median ns/op** per benchmark and
//! **events/sec** per scenario. Every row is named once, in [`table`],
//! and timed by one dispatcher, [`time_row`], which the first pass and
//! the gate retry share. Passing `--baseline FILE` (a previous
//! `bench-run` output) folds that run's medians in as
//! `baseline_median_ns_per_op` plus a `speedup_vs_baseline` ratio
//! (3 decimals) and the raw signed `delta_pct`, so every PR's
//! `results/BENCH_pr<N>.json` records before *and* after. A benchmark
//! the baseline file does not know about gets an explicit
//! `"baseline_median_ns_per_op": null`. Adding `--gate` turns the
//! comparison into a CI check: the run exits non-zero when any metric
//! regresses by more than [`shs_harness::gate::MAX_REGRESSION_PCT`]
//! percent (new metrics are informational — see `shs_harness::gate`).
//! A metric that regresses on its first measurement is re-measured up
//! to [`GATE_RETRIES`] times and judged on its best result: on a
//! shared machine a throttle window makes unchanged code read 50%
//! slow, and one unlucky sample must not fail CI — a real regression
//! is slow on every attempt. The baseline is read before anything is
//! timed: an unreadable file, invalid JSON, or — under `--gate` — a
//! file sharing no row name with this run is a usage error (exit 2).
//!
//! Benchmarks:
//! * `vni_db_acquire_release` — allocate/release cycles at the default
//!   range width (3072) with the clock pinned at t=0, so released VNIs
//!   pile up in quarantine and the allocator must step past them;
//! * `vni_db_churn_hot` — the high-occupancy hot path: 3000 of 3072
//!   VNIs stay allocated while one tenant churns through the remainder,
//!   the clock advancing past the 30 s quarantine each cycle;
//! * `store_txn_commit` — a single-put ACID transaction (WAL append +
//!   fsync + apply), the floor under every VniDb operation;
//! * `store_txn_commit_grouped` — the same single-put transaction
//!   inside an open WAL group-commit batch flushed every 64 commits:
//!   the amortized per-commit cost the control plane pays under load;
//! * `store_recover_hist10k` / `store_recover_hist100k` — full store
//!   recovery from a shut-down device after 10k vs 100k commits of
//!   churn over the **same** live-row count. The truncating snapshot
//!   cadence keeps the device (and so the recovery scan) O(live rows):
//!   10× the history must not mean 10× the recovery time, and each
//!   entry records its `device_bytes` so the bound is visible;
//! * `fabric_transfer_hot` / `fabric_adaptive_hot` — one multi-switch
//!   fabric transfer under static and UGAL adaptive routing (the pair's
//!   gap is the injection-time queue compare);
//! * `osu_allreduce` — one 8-rank, 64 KiB ring allreduce over a 2-group
//!   dragonfly (every hop crossing the group trunk), the collective
//!   hot path of the `shs_mpi::Communicator`;
//! * `service_mesh_hot` — one TSoR-style request/response round trip
//!   per op between 8 replica NICs on the 3-group dragonfly (the
//!   response leg departs at the request's arrival instant), the
//!   serving-plane data path;
//! * `pleg_status_read_100` / `pleg_status_read_10k` — one PLEG-cached
//!   cluster status read (Running count + one group's ready count) at
//!   100 vs 10,000 pods. The pair is the serving plane's O(1)
//!   acceptance record: the cached median must stay flat across the
//!   100× pod-count step while the `pod_scan_status_read_*` pair — the
//!   same answer computed by the pre-PLEG full pod scan — grows
//!   linearly; the emitted `"pleg_status_reads"` block records both
//!   ratios;
//! * `cluster_tick_idle_500pods` — one `Cluster::tick` on the 2-node
//!   testbed with 500 settled, run-forever pods: every controller, the
//!   scheduler, both kubelets and the PLEG sync finding nothing to do.
//!   A tick must cost O(changes), so this row must not track the pod
//!   count;
//! * `admission_spike_500` — the paper's Fig. 11 end to end: 500
//!   `vni: true` jobs submitted at once, ticked until the last pod is
//!   reaped; one op is the whole run (≈13 k ticks);
//! * `scheduler_poll_100pending` — one pod status write plus one
//!   scheduler pass with 100 pods pending behind full nodes: what each
//!   tick of an oversubscribed spike pays while it waits for capacity.
//!
//! The workloads are defined once, in `slingshot_k8s::workloads` and
//! `shs_harness::OsuAllreduceWorkload`; `sysbench` probes the same ones.
//!
//! Scenarios (`churn`, `steady-state`) run once under the DES clock;
//! their event counts are deterministic, their wall-clock is not.
//!
//! The **sharded fabric sweep**: the 1024-node `dragonfly-1024` sweep
//! runs once under the sharded engine and is emitted as one
//! `dragonfly-1024` scenario row; a `"parallel"` block records its
//! deterministic shape (nodes, shards, windows, cross-group events).
//!
//! The **control-plane sharding curve**: a bench-scale tenant-churn
//! stress run (2000 tenants through the sharded VNI database under
//! group commit, ending in a crash-recovery audit) runs once per
//! `--shards` entry (default `1,2,4`), emitting one `vni_stress-s<N>`
//! scenario row each. The run asserts the stress report —
//! allocations, audit length, transaction count, recovery outcome —
//! is **identical at every shard count** before reporting; only
//! wall-clock (and so ops/sec) may differ between rows.
//!
//! The emitted document also records a top-level `"host"` fingerprint
//! (core count, OS, architecture, CPU model): medians are only
//! comparable like-for-like, and the fingerprint makes cross-host
//! comparisons visibly suspect instead of silently wrong.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::{json, Value};
use shs_des::stats::median;
use shs_harness::gate::{self, GateCheck};
use shs_harness::{HostInfo, OsuAllreduceWorkload};
use shs_vnistore::{SimDisk, Store, StoreConfig};
use slingshot_k8s::{
    by_name, parallel_by_name, run_admission_spike, run_fabric_scenario, run_scenario,
    run_vni_stress, AcquireReleaseWorkload, ChurnHotWorkload, ClusterTickIdleWorkload,
    FabricAdaptiveHotWorkload, FabricTransferHotWorkload, PlegStatusReadWorkload,
    SchedulerPollPendingWorkload, ServiceMeshHotWorkload, VniStressReport, VniStressScenario,
};

/// The fabric-sweep row: the 1024-node library sweep.
const SWEEP_SCENARIO: &str = "dragonfly-1024";

/// `--shards` when the flag is absent.
const DEFAULT_SHARDS: [usize; 3] = [1, 2, 4];

/// Tenant identities cycled by the bench-scale stress run.
const STRESS_TENANTS: u64 = 2_000;

/// Steps per bench-scale stress run (`vni_stress-s<N>` rows). Fixed
/// across `--quick` and full mode — the run ends in a crash+recovery
/// whose fixed cost amortizes over the op count, so rows are only
/// gate-comparable to a baseline recorded at the *same* size (unlike
/// the pure per-op micros, where iteration count cancels out).
const STRESS_OPS: u64 = 20_000;

/// Commits per durability barrier in `store_txn_commit_grouped` — the
/// same cadence `VniStressWorkload` flushes its group batches at.
const GROUP_FLUSH_EVERY: u64 = 64;

/// Live rows both recovery benchmarks leave on the device; only the
/// churn *history* differs between them.
const RECOVER_LIVE: u64 = 1_000;

/// Spike runs per sample of `admission_spike_500`: one op is already
/// ~13 k ticks, so the sample is its own average.
const SPIKE_ITERS: u64 = 1;

/// How many fresh measurements a first-pass gate regression earns
/// before the gate fails it. The entry keeps its **best** measurement
/// and the baseline-derived fields are re-folded to match.
const GATE_RETRIES: usize = 2;

struct Opts {
    quick: bool,
    baseline: Option<PathBuf>,
    gate: bool,
    label: String,
    out: Option<PathBuf>,
    /// Shard counts for the control-plane sharding curve (one
    /// `vni_stress-s<N>` scenario row per entry).
    shards: Vec<usize>,
}

/// Sample/iteration budgets shared by the first measurement pass and
/// gate-mode re-measurement.
#[derive(Clone, Copy)]
struct Budgets {
    samples: usize,
    ar_iters: u64,
    churn_iters: u64,
    store_iters: u64,
}

/// One row of the emitted document. [`Row::name`] is the row's name in
/// the JSON; [`time_row`] times it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Row {
    AcquireRelease,
    ChurnHot,
    StoreCommit,
    StoreCommitGrouped,
    /// Full store recovery after this many commits of churn.
    StoreRecover(u64),
    FabricTransferHot,
    FabricAdaptiveHot,
    OsuAllreduce,
    ServiceMeshHot,
    /// One PLEG-cached status read at this many pods.
    PlegStatusRead(u64),
    /// The same read by a full pod scan — the linear-growth contrast.
    PodScanStatusRead(u64),
    ClusterTickIdle,
    AdmissionSpike,
    SchedulerPollPending,
    /// A library scenario under the DES clock.
    Scenario(&'static str),
    /// The 1024-node sharded fabric sweep.
    Sweep,
    /// `vni_stress-s<N>`: the bench-scale stress run at N store shards
    /// (one row of the control-plane sharding curve).
    Stress(usize),
}

impl Row {
    fn name(self) -> String {
        // 10_000 → "10k", 100 → "100".
        let count = |n: u64| if n >= 1_000 { format!("{}k", n / 1_000) } else { n.to_string() };
        match self {
            Row::AcquireRelease => "vni_db_acquire_release".into(),
            Row::ChurnHot => "vni_db_churn_hot".into(),
            Row::StoreCommit => "store_txn_commit".into(),
            Row::StoreCommitGrouped => "store_txn_commit_grouped".into(),
            Row::StoreRecover(history) => format!("store_recover_hist{}", count(history)),
            Row::FabricTransferHot => "fabric_transfer_hot".into(),
            Row::FabricAdaptiveHot => "fabric_adaptive_hot".into(),
            Row::OsuAllreduce => "osu_allreduce".into(),
            Row::ServiceMeshHot => "service_mesh_hot".into(),
            Row::PlegStatusRead(pods) => format!("pleg_status_read_{}", count(pods)),
            Row::PodScanStatusRead(pods) => format!("pod_scan_status_read_{}", count(pods)),
            Row::ClusterTickIdle => "cluster_tick_idle_500pods".into(),
            Row::AdmissionSpike => "admission_spike_500".into(),
            Row::SchedulerPollPending => "scheduler_poll_100pending".into(),
            Row::Scenario(name) => name.into(),
            Row::Sweep => SWEEP_SCENARIO.into(),
            Row::Stress(shards) => format!("vni_stress-s{shards}"),
        }
    }

    /// Scenario rows go in `"scenarios"` and are judged on events/sec
    /// (higher is better); the rest go in `"benchmarks"`, on ns/op.
    fn is_scenario(self) -> bool {
        matches!(self, Row::Scenario(_) | Row::Sweep | Row::Stress(_))
    }

    /// The field the row's value, baseline and gate live in.
    fn field(self) -> &'static str {
        if self.is_scenario() {
            "events_per_sec"
        } else {
            "median_ns_per_op"
        }
    }
}

/// Every row `bench-run` emits, in emission order: 17 benchmarks, then
/// the scenarios, ending in one stress row per `shards` entry.
fn table(shards: &[usize]) -> Vec<Row> {
    let mut rows = vec![
        Row::AcquireRelease,
        Row::ChurnHot,
        Row::StoreCommit,
        Row::StoreCommitGrouped,
        Row::StoreRecover(10_000),
        Row::StoreRecover(100_000),
        Row::FabricTransferHot,
        Row::FabricAdaptiveHot,
        Row::OsuAllreduce,
        Row::ServiceMeshHot,
        Row::PlegStatusRead(100),
        Row::PlegStatusRead(10_000),
        Row::PodScanStatusRead(100),
        Row::PodScanStatusRead(10_000),
        Row::ClusterTickIdle,
        Row::AdmissionSpike,
        Row::SchedulerPollPending,
        Row::Scenario("churn"),
        Row::Scenario("steady-state"),
        Row::Sweep,
    ];
    rows.extend(shards.iter().map(|&n| Row::Stress(n)));
    rows
}

/// What timing a row yields besides its entry.
enum Shape {
    None,
    /// A top-level block of the document this row's run determines:
    /// `allocator_counters` (churn-hot) or `parallel` (the sweep).
    Block(&'static str, Value),
    /// The stress run's report — identical at every shard count, so
    /// recorded once as `control`.
    Stress(VniStressReport),
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        baseline: None,
        gate: false,
        label: "bench-run".into(),
        out: None,
        shards: DEFAULT_SHARDS.to_vec(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--gate" => opts.gate = true,
            "--shards" => {
                let v = args.next().unwrap_or_else(|| usage("--shards needs a list, e.g. 1,2,4"));
                opts.shards = v
                    .split(',')
                    .map(|t| match t.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => n,
                        _ => usage("--shards entries must be integers >= 1"),
                    })
                    .collect();
                if opts.shards.is_empty() {
                    usage("--shards needs at least one entry");
                }
            }
            "--baseline" => {
                let v = args.next().unwrap_or_else(|| usage("--baseline needs a path"));
                opts.baseline = Some(PathBuf::from(v));
            }
            "--label" => {
                opts.label = args.next().unwrap_or_else(|| usage("--label needs a value"));
            }
            "--out" => {
                let v = args.next().unwrap_or_else(|| usage("--out needs a path"));
                opts.out = Some(PathBuf::from(v));
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if opts.gate && opts.baseline.is_none() {
        usage("--gate needs --baseline FILE to gate against");
    }
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("bench-run: {msg}");
    eprintln!(
        "usage: bench-run [--quick] [--baseline FILE] [--gate] [--label NAME] [--out FILE] \
         [--shards LIST]"
    );
    std::process::exit(2);
}

/// Time `op` for `samples` batches of `iters` calls; returns the median
/// ns/op over samples (each sample's mean is one data point).
fn measure(samples: usize, iters: u64, mut op: impl FnMut()) -> f64 {
    let mut per_op = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        per_op.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&per_op)
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// Speedup ratios get three decimals: at one decimal a real 0.96×
/// reads as the alarming 1.0×→0.9× step that made PR 5's noise look
/// like a regression (and a real 1.04× win disappears entirely).
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Time one row: its JSON entry (before any baseline fold) and what
/// else the run determined. The first pass and the gate retry both
/// come through here.
fn time_row(row: Row, b: &Budgets) -> (Value, Shape) {
    let Budgets { samples, ar_iters, churn_iters, store_iters } = *b;
    let name = row.name();
    let bench = |median_ns: f64, iters: u64| {
        let entry = json!({
            "name": name,
            "median_ns_per_op": round1(median_ns),
            "samples": samples,
            "iters_per_sample": iters,
        });
        (entry, Shape::None)
    };
    let scenario = |events: u64, wall_s: f64| {
        json!({
            "name": name,
            "events_executed": events,
            "wall_ms": round1(wall_s * 1e3),
            "events_per_sec": round1(events as f64 / wall_s),
        })
    };
    match row {
        Row::AcquireRelease => {
            let mut w = AcquireReleaseWorkload::new();
            bench(measure(samples, ar_iters, || _ = w.step()), ar_iters)
        }
        Row::ChurnHot => {
            let mut w = ChurnHotWorkload::new();
            let (entry, _) = bench(measure(samples, churn_iters, || _ = w.step()), churn_iters);
            let counters = serde_json::to_value(w.db().counters()).expect("counters serialize");
            (entry, Shape::Block("allocator_counters", counters))
        }
        Row::StoreCommit => bench(store_commit(samples, store_iters, false), store_iters),
        Row::StoreCommitGrouped => bench(store_commit(samples, store_iters, true), store_iters),
        Row::StoreRecover(history) => {
            let disk = churned_disk(history);
            let med = measure(samples, churn_iters, || {
                let store = Store::recover(disk.clone(), recover_config());
                assert_eq!(store.row_count("vnis") as u64, RECOVER_LIVE, "recovery lost rows");
            });
            let (mut entry, shape) = bench(med, churn_iters);
            entry["device_bytes"] = json!(disk.len());
            (entry, shape)
        }
        Row::FabricTransferHot => {
            let mut w = FabricTransferHotWorkload::new();
            bench(measure(samples, store_iters, || _ = w.step()), store_iters)
        }
        Row::FabricAdaptiveHot => {
            let mut w = FabricAdaptiveHotWorkload::new();
            bench(measure(samples, store_iters, || _ = w.step()), store_iters)
        }
        Row::OsuAllreduce => {
            let mut w = OsuAllreduceWorkload::new();
            let med = measure(samples, churn_iters, || _ = w.step());
            assert_eq!(w.lost(), 0, "the benchmark rig must stay lossless");
            bench(med, churn_iters)
        }
        Row::ServiceMeshHot => {
            let mut w = ServiceMeshHotWorkload::new();
            bench(measure(samples, store_iters, || _ = w.step()), store_iters)
        }
        Row::PlegStatusRead(pods) => {
            let mut w = PlegStatusReadWorkload::new(pods);
            bench(measure(samples, store_iters, || _ = w.cached_read()), store_iters)
        }
        Row::PodScanStatusRead(pods) => {
            let mut w = PlegStatusReadWorkload::new(pods);
            bench(measure(samples, churn_iters, || _ = w.scan_read()), churn_iters)
        }
        Row::ClusterTickIdle => {
            let mut w = ClusterTickIdleWorkload::new(500);
            bench(measure(samples, store_iters, || w.step()), store_iters)
        }
        Row::AdmissionSpike => {
            let med = measure(samples, SPIKE_ITERS, || {
                let run = run_admission_spike(500, true, 42);
                assert_eq!((run.pods_started, run.pods_failed), (500, 0));
            });
            bench(med, SPIKE_ITERS)
        }
        Row::SchedulerPollPending => {
            let mut w = SchedulerPollPendingWorkload::new(100);
            bench(measure(samples, store_iters, || _ = w.step()), store_iters)
        }
        Row::Scenario(library_name) => {
            let s = by_name(library_name, 42).expect("library scenario");
            let start = Instant::now();
            let report = run_scenario(&s);
            (scenario(report.events_executed, start.elapsed().as_secs_f64()), Shape::None)
        }
        Row::Sweep => {
            let sweep = parallel_by_name(SWEEP_SCENARIO, 42).expect("library sweep");
            let start = Instant::now();
            let r = run_fabric_scenario(&sweep, 1);
            let wall_s = start.elapsed().as_secs_f64();
            assert!(r.passed, "bench sweep must conserve messages: {r:?}");
            let parallel = json!({
                "scenario": SWEEP_SCENARIO,
                "nodes": r.nodes,
                "shards": r.shards,
                "lookahead_ns": r.lookahead_ns,
                "events_executed": r.events_executed,
                "windows": r.windows,
                "cross_group_injected": r.cross_group_injected,
            });
            (scenario(r.events_executed, wall_s), Shape::Block("parallel", parallel))
        }
        Row::Stress(shards) => {
            let s = VniStressScenario {
                name: "vni-stress-bench".into(),
                description: "bench-scale tenant churn through the sharded VNI database".into(),
                seed: 42,
                tenants: STRESS_TENANTS,
                ops: STRESS_OPS,
                shards,
            };
            let start = Instant::now();
            let report = run_vni_stress(&s);
            let wall_s = start.elapsed().as_secs_f64();
            assert!(report.passed, "bench stress run must stay consistent and recover: {report:?}");
            let mut entry = scenario(report.ops, wall_s);
            entry["shards"] = json!(shards);
            entry["txns"] = json!(report.txns);
            (entry, Shape::Stress(report))
        }
    }
}

/// Median ns per single-put transaction (WAL append + fsync + apply).
/// `grouped` runs every commit inside an open WAL group-commit batch
/// flushed every [`GROUP_FLUSH_EVERY`] commits — so each op's cost is
/// the staged append plus its 1/64th share of one batch frame + fsync,
/// the amortized figure every control-plane transaction pays under
/// tenant-churn load.
fn store_commit(samples: usize, iters: u64, grouped: bool) -> f64 {
    let mut store = Store::new(StoreConfig { snapshot_every: None, ..Default::default() });
    if grouped {
        store.group_begin();
    }
    let mut i = 0u64;
    let med = measure(samples, iters, || {
        let mut txn = store.begin();
        txn.put("vnis", &i.to_be_bytes(), b"row");
        i += 1;
        txn.commit();
        if grouped && i.is_multiple_of(GROUP_FLUSH_EVERY) {
            store.group_flush();
        }
    });
    if grouped {
        store.group_end();
    }
    med
}

/// Store config for the recovery benchmarks: the WAL-growth-triggered
/// truncating snapshot cadence the VNI database runs under, which is
/// what bounds the device at O(live rows).
fn recover_config() -> StoreConfig {
    StoreConfig { snapshot_every: Some(256), snapshot_wal_factor: 1 }
}

/// Build a shut-down device holding [`RECOVER_LIVE`] stable rows plus
/// `history` commits of churn over a handful of hot keys. Under the
/// truncating snapshot cadence the device length is governed by the
/// live rows, not `history`.
fn churned_disk(history: u64) -> SimDisk {
    let mut store = Store::new(recover_config());
    for i in 0..RECOVER_LIVE {
        let mut txn = store.begin();
        txn.put("vnis", &i.to_be_bytes(), b"live row");
        txn.commit();
    }
    for i in 0..history {
        let mut txn = store.begin();
        txn.put("hot", &(i % 8).to_be_bytes(), &i.to_be_bytes());
        txn.commit();
    }
    store.shutdown()
}

/// Baseline values from a previous bench-run output, keyed by row name
/// (`median_ns_per_op` for benchmarks, `events_per_sec` for
/// scenarios). Read before anything is timed: an unreadable or
/// non-JSON file is a usage error, and so under `--gate` is a file
/// naming none of `rows` — gating against it would compare nothing and
/// pass.
fn load_baseline(path: &Path, rows: &[Row], gate: bool) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        usage(&format!("cannot read baseline {}", path.display()));
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        usage(&format!("baseline {} is not valid JSON", path.display()));
    };
    let mut out = Vec::new();
    for (section, field) in [("benchmarks", "median_ns_per_op"), ("scenarios", "events_per_sec")] {
        for e in doc[section].as_array().into_iter().flatten() {
            if let (Some(name), Some(v)) = (e["name"].as_str(), e[field].as_f64()) {
                out.push((name.to_string(), v));
            }
        }
    }
    if gate && !rows.iter().any(|r| baseline_of(&out, *r).is_some()) {
        usage(&format!("baseline {} shares no row with this run", path.display()));
    }
    out
}

fn baseline_of(baseline: &[(String, f64)], row: Row) -> Option<f64> {
    let name = row.name();
    baseline.iter().find(|(n, _)| *n == name).map(|&(_, b)| b)
}

fn fold_baseline(entries: &mut [(Row, Value)], baseline: &[(String, f64)]) {
    for (row, e) in entries.iter_mut() {
        let field = row.field();
        let Some(current) = e[field].as_f64() else { continue };
        let Value::Object(map) = e else { continue };
        let Some(base) = baseline_of(baseline, *row) else {
            // New benchmark: no history in this baseline file. The
            // explicit null tells readers (and the gate) "compared,
            // nothing to compare against" rather than "not compared".
            map.insert(format!("baseline_{field}"), Value::Null);
            continue;
        };
        map.insert(format!("baseline_{field}"), json!(round1(base)));
        if current > 0.0 && base > 0.0 {
            let ratio = if row.is_scenario() { current / base } else { base / current };
            map.insert("speedup_vs_baseline".into(), json!(round3(ratio)));
            // Raw signed regression percentage (positive = worse),
            // unrounded — the number the gate thresholds.
            map.insert(
                "delta_pct".into(),
                json!(gate::regression_pct(current, base, row.is_scenario())),
            );
        }
    }
}

/// Gate-mode de-flaking: every entry whose first measurement regresses
/// past the threshold is re-timed by [`time_row`] up to
/// [`GATE_RETRIES`] times and keeps its best result. A transient
/// scheduler/throttle window does not survive three attempts; a real
/// regression fails all of them.
fn retry_regressions(entries: &mut [(Row, Value)], baseline: &[(String, f64)], budgets: &Budgets) {
    for _ in 0..GATE_RETRIES {
        let mut any_failing = false;
        for (row, e) in entries.iter_mut() {
            let (field, higher_is_better) = (row.field(), row.is_scenario());
            let Some(current) = e[field].as_f64() else { continue };
            let Some(base) = baseline_of(baseline, *row) else { continue };
            if gate::regression_pct(current, base, higher_is_better) <= gate::MAX_REGRESSION_PCT {
                continue;
            }
            any_failing = true;
            let (fresh_entry, _) = time_row(*row, budgets);
            let fresh = fresh_entry[field].as_f64().expect("a timed row carries its field");
            let keep = if higher_is_better { fresh > current } else { fresh < current };
            eprintln!(
                "bench-run: gate retry {}: first pass {current} {field}, re-measured {fresh} — \
                 keeping {}",
                row.name(),
                if keep { fresh } else { current },
            );
            if keep {
                *e = fresh_entry;
            }
        }
        if !any_failing {
            break;
        }
    }
    // Speedup/delta must describe the kept measurements.
    fold_baseline(entries, baseline);
}

/// The gate's view of folded entries, in entry order.
fn gate_checks(entries: &[(Row, Value)]) -> Vec<GateCheck> {
    entries
        .iter()
        .filter_map(|(row, e)| {
            let field = row.field();
            Some(GateCheck {
                name: row.name(),
                current: e[field].as_f64()?,
                baseline: e[format!("baseline_{field}").as_str()].as_f64(),
                higher_is_better: row.is_scenario(),
            })
        })
        .collect()
}

fn main() {
    let opts = parse_args();
    let rows = table(&opts.shards);
    let baseline = opts.baseline.as_deref().map(|p| load_baseline(p, &rows, opts.gate));
    // Sample/iteration budgets keep acquire_release inside one workload
    // epoch (the backlog profile stays comparable across runs) and keep
    // churn_hot affordable on un-indexed builds.
    let budgets = if opts.quick {
        Budgets { samples: 7, ar_iters: 100, churn_iters: 10, store_iters: 200 }
    } else {
        Budgets { samples: 15, ar_iters: 150, churn_iters: 20, store_iters: 500 }
    };

    let mut doc = json!({
        "schema": "shs-bench/v1",
        "label": opts.label,
        "quick": opts.quick,
        "host": HostInfo::detect(),
    });
    let mut entries = Vec::with_capacity(rows.len());
    let mut stress: Option<VniStressReport> = None;
    for &row in &rows {
        eprintln!("bench-run: timing {} ...", row.name());
        let (entry, shape) = time_row(row, &budgets);
        match shape {
            Shape::None => {}
            Shape::Block(key, block) => doc[key] = block,
            // The sharding curve: only wall-clock (and so ops/sec) may
            // differ between its rows.
            Shape::Stress(report) => match &stress {
                Some(first) => assert_eq!(&report, first, "stress report diverged at {}", row.name()),
                None => stress = Some(report),
            },
        }
        entries.push((row, entry));
    }

    let mut gate_report = None;
    if let Some(base) = &baseline {
        fold_baseline(&mut entries, base);
        if opts.gate {
            retry_regressions(&mut entries, base, &budgets);
            gate_report = Some(gate::evaluate(&gate_checks(&entries), gate::MAX_REGRESSION_PCT));
        }
    }

    let section = |scenarios: bool| -> Vec<Value> {
        entries.iter().filter(|(r, _)| r.is_scenario() == scenarios).map(|(_, e)| e.clone()).collect()
    };
    doc["benchmarks"] = json!(section(false));
    doc["scenarios"] = json!(section(true));
    let r = stress.expect("the table ends in stress rows");
    doc["control"] = json!({
        "scenario": r.scenario,
        "tenants": r.tenants,
        "ops": r.ops,
        "acquires": r.acquires,
        "reuse_allocs": r.reuse_allocs,
        "audit_len": r.audit_len,
        "txns": r.txns,
        "recovered": r.recovered,
    });
    // The serving plane's O(1) acceptance record: the cached ratio
    // across the 100× pod-count step must stay near 1.0 while the scan
    // ratio tracks the pod count.
    let ns = |row: Row| {
        let (_, e) = entries.iter().find(|(r, _)| *r == row).expect("status-read rows are timed");
        e["median_ns_per_op"].as_f64().expect("a benchmark row carries its median")
    };
    let (cached_100, cached_10k) = (ns(Row::PlegStatusRead(100)), ns(Row::PlegStatusRead(10_000)));
    let (scan_100, scan_10k) = (ns(Row::PodScanStatusRead(100)), ns(Row::PodScanStatusRead(10_000)));
    doc["pleg_status_reads"] = json!({
        "cached_100_ns": cached_100,
        "cached_10k_ns": cached_10k,
        "cached_ratio_10k_vs_100": round3(cached_10k / cached_100),
        "scan_100_ns": scan_100,
        "scan_10k_ns": scan_10k,
        "scan_ratio_10k_vs_100": round3(scan_10k / scan_100),
    });

    let text = serde_json::to_string_pretty(&doc).expect("serializes");
    println!("{text}");
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("bench-run: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
    if let Some(report) = gate_report {
        for line in &report.informational {
            eprintln!("bench-run: gate [info] {line}");
        }
        if !report.passed() {
            for line in &report.failures {
                eprintln!("bench-run: gate FAIL {line}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "bench-run: gate passed (no metric regressed >{}% vs baseline)",
            gate::MAX_REGRESSION_PCT
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The file CI gates against.
    const BASELINE: &str = include_str!("../../../../results/BENCH_pr26.json");

    /// The first pass and the gate retry both time a [`Row`] through
    /// [`time_row`], so no row can be reachable by one and not the
    /// other; what can drift is the table. At the default `--shards`
    /// it must name exactly the baseline's rows, in order, so
    /// `--gate --baseline results/BENCH_pr26.json` compares every one.
    #[test]
    fn the_default_table_is_the_baselines_rows() {
        let doc: Value = serde_json::from_str(BASELINE).expect("baseline parses");
        let recorded: Vec<&str> = ["benchmarks", "scenarios"]
            .into_iter()
            .flat_map(|s| doc[s].as_array().expect("a row array"))
            .map(|e| e["name"].as_str().expect("a row name"))
            .collect();
        let names: Vec<String> = table(&DEFAULT_SHARDS).into_iter().map(Row::name).collect();
        assert_eq!(names, recorded);
        assert_eq!(names.len(), 17 + 6);
        let benchmarks = table(&DEFAULT_SHARDS).into_iter().filter(|r| !r.is_scenario()).count();
        assert_eq!(benchmarks, doc["benchmarks"].as_array().expect("benchmarks").len());
    }
}
