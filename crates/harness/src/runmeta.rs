//! Run-level metrics appended to `scenario-run` output.
//!
//! The scenario reports themselves are **byte-deterministic** for a
//! fixed seed; wall-clock throughput is not. This module keeps the two
//! apart: [`scenario_run_document`] emits one JSON object whose
//! `"parallel_reports"` and `"reports"` keys (the determinism-checked
//! sections) serialize first and whose `"run_metrics"` key — the only
//! place wall-clock time and events/sec appear — serializes after
//! them. Comparing two runs up to the `"run_metrics"` key is exactly
//! the old whole-output comparison.
//!
//! The `"parallel_reports"` section holds the cluster-scale fabric
//! sweeps ([`FabricSweepReport`]) run under the sharded engine (the key
//! keeps its name from when that engine had worker threads).

use serde::Serialize;
use serde_json::Value;
use slingshot_k8s::{FabricSweepReport, ScenarioReport, VniStressReport};

/// Fingerprint of the machine a measurement ran on. Performance numbers
/// in `results/BENCH_pr<N>.json` are only comparable like-for-like;
/// recording the host makes cross-host comparisons visibly suspect
/// instead of silently wrong. Host-dependent, so it lives with the
/// wall-clock metrics, outside the determinism-checked sections.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HostInfo {
    /// Logical cores visible to the process.
    pub cores: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: &'static str,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: &'static str,
    /// CPU model string from `/proc/cpuinfo`, when readable.
    pub cpu_model: Option<String>,
}

impl HostInfo {
    /// Probe the current host.
    pub fn detect() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        });
        HostInfo { cores, os: std::env::consts::OS, arch: std::env::consts::ARCH, cpu_model }
    }
}

/// Wall-clock metrics of one `scenario-run` invocation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunMetrics {
    /// Total wall-clock across all scenarios, in milliseconds.
    /// **Non-deterministic** — lives outside the checked section.
    pub wall_clock_ms: f64,
    /// DES events executed across all scenarios — k8s and fabric
    /// sweeps alike (deterministic).
    pub des_events_executed: u64,
    /// Events per wall-clock second (non-deterministic).
    pub events_per_sec: f64,
    /// ACID transactions the VNI databases committed (deterministic):
    /// k8s scenarios plus control-plane stress runs.
    pub vni_txns: u64,
    /// The machine this run executed on (host-dependent).
    pub host: HostInfo,
}

impl RunMetrics {
    /// Fold per-scenario reports and a measured wall-clock into the
    /// run-level metrics block.
    pub fn from_reports(reports: &[ScenarioReport], wall_clock_secs: f64) -> Self {
        Self::from_run(reports, &[], &[], wall_clock_secs)
    }

    /// [`RunMetrics::from_reports`], plus the fabric sweeps (their
    /// shard events count toward the run's event total) and the
    /// control-plane stress runs (their transactions count toward
    /// `vni_txns`).
    pub fn from_run(
        reports: &[ScenarioReport],
        parallel: &[FabricSweepReport],
        control: &[VniStressReport],
        wall_clock_secs: f64,
    ) -> Self {
        let des_events_executed = reports.iter().map(|r| r.events_executed).sum::<u64>()
            + parallel.iter().map(|r| r.events_executed).sum::<u64>();
        let vni_txns = reports.iter().map(|r| r.vni.txn_count).sum::<u64>()
            + control.iter().map(|r| r.txns).sum::<u64>();
        let events_per_sec = if wall_clock_secs > 0.0 {
            (des_events_executed as f64 / wall_clock_secs * 10.0).round() / 10.0
        } else {
            0.0
        };
        RunMetrics {
            wall_clock_ms: (wall_clock_secs * 10_000.0).round() / 10.0,
            des_events_executed,
            events_per_sec,
            vni_txns,
            host: HostInfo::detect(),
        }
    }
}

/// The full `scenario-run` output document: the deterministic sections
/// first — `"control_reports"`, `"parallel_reports"`, then `"reports"`
/// — and `"run_metrics"` after them (JSON object keys serialize in
/// BTree order, and every report key sorts before `"run_metrics"`).
pub fn scenario_run_document(
    reports: &[ScenarioReport],
    parallel: &[FabricSweepReport],
    control: &[VniStressReport],
    metrics: &RunMetrics,
) -> Value {
    serde_json::json!({
        "control_reports": control,
        "parallel_reports": parallel,
        "reports": reports,
        "run_metrics": metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_des::SimDur;
    use slingshot_k8s::{
        parallel_by_name, run_fabric_scenario, run_scenario, run_vni_stress, JobPlan, Scenario,
        VniMode, VniStressScenario,
    };

    fn tiny_report() -> ScenarioReport {
        let scenario = Scenario {
            name: "meta-tiny".into(),
            description: "one dedicated job".into(),
            config: slingshot_k8s::ClusterConfig { seed: 5, ..Default::default() },
            claims: vec![],
            jobs: vec![JobPlan {
                tenant: "t".into(),
                name: "j".into(),
                ranks: 1,
                arrival: shs_des::SimTime::from_nanos(100_000_000),
                run_ms: Some(200),
                vni: VniMode::Dedicated,
                delete_at: None,
                traffic: None,
                pin_nodes: None,
            }],
            services: vec![],
            faults: vec![],
            horizon: shs_des::SimTime::from_nanos(3_000_000_000),
            tick: SimDur::from_millis(20),
        };
        run_scenario(&scenario)
    }

    fn tiny_parallel_report() -> FabricSweepReport {
        let sc = parallel_by_name("trunk-contended-128", 5).expect("library sweep");
        run_fabric_scenario(&sc, 1)
    }

    fn tiny_stress_report() -> VniStressReport {
        run_vni_stress(&VniStressScenario {
            name: "meta-stress-tiny".into(),
            description: "a few hundred control-plane transactions".into(),
            seed: 5,
            tenants: 100,
            ops: 400,
            shards: 2,
        })
    }

    #[test]
    fn metrics_fold_deterministic_fields_from_reports() {
        let r = tiny_report();
        let m = RunMetrics::from_reports(std::slice::from_ref(&r), 0.5);
        assert_eq!(m.des_events_executed, r.events_executed);
        assert_eq!(m.vni_txns, r.vni.txn_count);
        assert!(m.vni_txns > 0, "the job's acquire/release committed transactions");
        assert!((m.events_per_sec - r.events_executed as f64 / 0.5).abs() < 0.1);
    }

    #[test]
    fn metrics_count_parallel_sweep_events_and_stress_txns() {
        let r = tiny_report();
        let p = tiny_parallel_report();
        let c = tiny_stress_report();
        assert!(p.events_executed > 0);
        assert!(c.passed && c.txns > 0, "stress run committed transactions");
        let m = RunMetrics::from_run(
            std::slice::from_ref(&r),
            std::slice::from_ref(&p),
            std::slice::from_ref(&c),
            0.5,
        );
        assert_eq!(m.des_events_executed, r.events_executed + p.events_executed);
        assert_eq!(
            m.vni_txns,
            r.vni.txn_count + c.txns,
            "sweeps run no VNI transactions; stress runs add theirs"
        );
        assert!(m.host.cores >= 1, "host fingerprint is probed");
    }

    #[test]
    fn report_sections_serialize_before_run_metrics() {
        let r = tiny_report();
        let p = tiny_parallel_report();
        let c = tiny_stress_report();
        let m = RunMetrics::from_run(
            std::slice::from_ref(&r),
            std::slice::from_ref(&p),
            std::slice::from_ref(&c),
            0.25,
        );
        let doc = scenario_run_document(
            std::slice::from_ref(&r),
            std::slice::from_ref(&p),
            std::slice::from_ref(&c),
            &m,
        );
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let control_at = text.find("\"control_reports\"").expect("control_reports key");
        let parallel_at = text.find("\"parallel_reports\"").expect("parallel_reports key");
        let reports_at = text.find("\"reports\"").expect("reports key");
        let metrics_at = text.find("\"run_metrics\"").expect("run_metrics key");
        assert!(control_at < parallel_at, "deterministic sections lead the document");
        assert!(parallel_at < reports_at, "deterministic sections lead the document");
        assert!(reports_at < metrics_at, "determinism-checked sections must come first");
        assert!(
            text.find("\"wall_clock_ms\"").expect("wall clock") > metrics_at,
            "wall-clock lives only inside run_metrics"
        );
        assert!(
            text.find("\"cpu_model\"").expect("host fingerprint") > metrics_at,
            "the host fingerprint is host-dependent, so it lives inside run_metrics"
        );
    }

    #[test]
    fn determinism_checked_section_ignores_wall_clock() {
        let r1 = tiny_report();
        let r2 = tiny_report();
        let p1 = tiny_parallel_report();
        let p2 = tiny_parallel_report();
        let c1 = tiny_stress_report();
        let c2 = tiny_stress_report();
        // Two runs with very different wall-clocks...
        let d1 = scenario_run_document(
            std::slice::from_ref(&r1),
            std::slice::from_ref(&p1),
            std::slice::from_ref(&c1),
            &RunMetrics::from_run(
                std::slice::from_ref(&r1),
                std::slice::from_ref(&p1),
                std::slice::from_ref(&c1),
                0.1,
            ),
        );
        let d2 = scenario_run_document(
            std::slice::from_ref(&r2),
            std::slice::from_ref(&p2),
            std::slice::from_ref(&c2),
            &RunMetrics::from_run(
                std::slice::from_ref(&r2),
                std::slice::from_ref(&p2),
                std::slice::from_ref(&c2),
                9.9,
            ),
        );
        // ...agree byte-for-byte on the deterministic sections.
        assert_eq!(
            serde_json::to_string_pretty(&d1["reports"]).unwrap(),
            serde_json::to_string_pretty(&d2["reports"]).unwrap()
        );
        assert_eq!(
            serde_json::to_string_pretty(&d1["parallel_reports"]).unwrap(),
            serde_json::to_string_pretty(&d2["parallel_reports"]).unwrap()
        );
        assert_eq!(
            serde_json::to_string_pretty(&d1["control_reports"]).unwrap(),
            serde_json::to_string_pretty(&d2["control_reports"]).unwrap()
        );
        assert_ne!(d1["run_metrics"], d2["run_metrics"]);
    }
}
