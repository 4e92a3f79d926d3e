//! The metric tables `BENCHMARK.json` pins. `tests/smoke.rs` asserts
//! the two agree name for name; `--agree` reads its bounds from here.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A wall-clock span the benchmark records around a public call.
    Span,
    /// A fixed-count loop over the layer's public hot function.
    Probe,
    /// An exact counter or simulated-time figure read from the run's
    /// report: repeats exactly for one seed.
    Count,
}

/// One end-to-end metric: what a user of the system waits on or pays.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// One per-layer metric. Its direction and the end-to-end metric it is
/// predicted to move are in `BENCHMARK.json` and the README table.
pub struct Layer {
    /// `crate.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Source.
    pub kind: Kind,
}

/// Every workload prints all of these with `--trace 0`.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, kind: Kind) -> Layer {
    Layer { name, unit, kind }
}

use Kind::{Count, Probe, Span};

/// Every workload prints all of these with `--trace 1`; a metric whose
/// layer the workload does not enter reads 0.
pub const PER_LAYER: [Layer; 82] = [
    // des
    layer("des.events", "count", Count),
    layer("des.host_ns_per_event", "ns", Span),
    layer("des.sim.hold_ns", "ns", Probe),
    layer("des.parallel.windows", "count", Count),
    layer("des.parallel.events_per_window", "count", Count),
    layer("des.parallel.cross_injected", "count", Count),
    layer("des.parallel.window_ns", "ns", Span),
    layer("des.parallel.t2_window_ns", "ns", Span),
    layer("des.parallel.t2_speedup", "ratio", Span),
    // fabric
    layer("fabric.transfer_ns", "ns", Probe),
    layer("fabric.transfer_adaptive_ns", "ns", Probe),
    layer("fabric.transfer_faulted_ns", "ns", Probe),
    layer("fabric.shardsim.host_ns_per_msg", "ns", Span),
    layer("fabric.grant_revoke_ns", "ns", Probe),
    layer("fabric.topology_build_ms", "ms", Span),
    layer("fabric.msgs", "count", Count),
    layer("fabric.switch_hops", "count", Count),
    layer("fabric.drops", "count", Count),
    layer("fabric.reroutes", "count", Count),
    layer("fabric.ecn_marks", "count", Count),
    layer("fabric.sim_msg_mean_ns", "ns", Count),
    layer("fabric.sim_msg_max_ns", "ns", Count),
    // cassini
    layer("cassini.send_deliver_ns", "ns", Probe),
    // cxi
    layer("cxi.svc_alloc_destroy_ns", "ns", Probe),
    layer("cxi.ep_auth_ns", "ns", Probe),
    layer("cxi.cross_tenant_denied_share", "share", Count),
    // mpi / ofi
    layer("mpi.allreduce_8x64k_ns", "ns", Probe),
    layer("mpi.osu_lat_host_ns_per_msg", "ns", Span),
    layer("mpi.osu_bw_host_ns_per_msg", "ns", Span),
    // oslinux
    layer("oslinux.netns_cycle_ns", "ns", Probe),
    // k8s (cni and containers are counted here and timed inside core.tick_*)
    layer("k8s.api.create_delete_ns", "ns", Probe),
    layer("k8s.api.list_ns_1k", "ns", Probe),
    layer("k8s.scheduler.poll_ns_100pending", "ns", Probe),
    layer("k8s.pleg.sync_ns", "ns", Probe),
    layer("k8s.pleg.status_read_ns_10k", "ns", Probe),
    layer("k8s.pods_started", "count", Count),
    layer("k8s.pods_removed", "count", Count),
    layer("k8s.cni_retries", "count", Count),
    layer("k8s.pods_failed", "count", Count),
    layer("k8s.api.objects_peak", "count", Count),
    // core
    layer("core.cluster.new_ms", "ms", Span),
    layer("core.ticks", "count", Count),
    layer("core.tick_ns_p50", "ns", Span),
    layer("core.tick_ns_p99", "ns", Span),
    layer("core.tick_ns_idle_500pods", "ns", Probe),
    layer("core.submit_job_ns", "ns", Span),
    layer("core.vni_integration_host_us_per_job", "us", Span),
    layer("core.vni_db.acquire_release_ns", "ns", Probe),
    layer("core.vni_db.churn_hot_ns", "ns", Probe),
    layer("core.sharded_db.ops_per_s_s1", "1/s", Probe),
    layer("core.sharded_db.ops_per_s_s2", "1/s", Probe),
    layer("core.sharded_db.ops_per_s_s4", "1/s", Probe),
    layer("core.sharded_db.recover_ms", "ms", Span),
    layer("core.stress.steps_ms", "ms", Span),
    layer("core.vni.acquires", "count", Count),
    layer("core.vni.reuse_share", "share", Count),
    layer("core.vni.exhaustions", "count", Count),
    layer("core.vni.txns", "count", Count),
    layer("core.scenario.run_ms", "ms", Span),
    layer("core.parsim.run_ms", "ms", Span),
    layer("core.parsim.run_t2_ms", "ms", Span),
    // vnistore
    layer("vnistore.commit_ns", "ns", Probe),
    layer("vnistore.commit_grouped_ns", "ns", Probe),
    layer("vnistore.recover_ms", "ms", Probe),
    layer("vnistore.commits", "count", Count),
    layer("vnistore.fsyncs", "count", Count),
    layer("vnistore.wal_bytes_per_commit", "B", Count),
    layer("vnistore.snapshots", "count", Count),
    layer("vnistore.device_bytes", "B", Count),
    // harness
    layer("harness.report_json_ns", "ns", Span),
    layer("harness.report_bytes", "B", Count),
    layer("harness.tracker_observe_ns", "ns", Span),
    // simulated results and the failure share: deterministic per seed
    layer("sim_admission_p50_s", "s", Count),
    layer("sim_admission_p95_s", "s", Count),
    layer("sim_vni_overhead_pct", "%", Count),
    layer("sim_osu_lat_overhead_pct", "%", Count),
    layer("sim_osu_bw_overhead_pct", "%", Count),
    layer("failed_share", "share", Count),
    // the benchmark itself
    layer("bench.trace_overhead_pct", "%", Span),
    layer("bench.spans_recorded", "count", Count),
    layer("bench.probes_s", "s", Span),
    layer("bench.repeat_ms", "ms", Span),
];
