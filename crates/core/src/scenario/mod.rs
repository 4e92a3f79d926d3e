//! The end-to-end multi-tenant scenario engine.
//!
//! Everything below the composition layer is a pure state machine; this
//! module is where the whole stack is driven as one system under the
//! deterministic DES clock. A [`Scenario`] describes tenants, jobs,
//! claims, traffic and fault injections; [`run_scenario`] schedules it
//! as `shs_des::Sim` events over a real
//! [`Cluster`](crate::cluster::Cluster) and checks tenant isolation **at
//! every hop** while it runs:
//!
//! * pod admission goes through the real scheduler, kubelet, CNI chain
//!   and VNI Service (admission latency is measured per job);
//! * every rank authenticates against its node's CXI driver (netns
//!   member check) when a traffic round opens, before any of its
//!   messages touches the fabric — exactly like an RDMA application
//!   opening an endpoint — and the verdict is good for that round only;
//! * every traffic round also mounts an **adversarial cross-tenant
//!   probe**: a pod tries to authenticate against another tenant's VNI,
//!   and — should the driver ever admit it — the fabric's per-port VNI
//!   enforcement is the last line. Any delivery on a foreign VNI counts
//!   as an isolation violation;
//! * after the horizon, the engine audits the end state: no CXI service
//!   may outlive its pod, no switch-port grant may outlive its VNI
//!   allocation, and the [`VniDb`](crate::vni_db::VniDb) audit log must
//!   show every VNI reuse separated by the full quarantine window.
//!
//! The built-in [`library`] covers the cluster-scale situations the
//! paper's design must survive: steady multi-tenant operation, a
//! churn/teardown storm, quarantine pressure on a tiny VNI range, a
//! node drain, an oversubscribed VNI space, and — on 2- and 3-group
//! dragonfly fabrics — a noisy-neighbour contention duel, an N→1 incast
//! with per-traffic-class drop accounting, cross-group collectives, a
//! trunk cut, a flapping link, adaptive routing, and three serving-plane
//! scenarios (service mesh, autoscale burst, rolling update). The
//! `scenario-run` binary in `shs-harness` executes them and emits the
//! JSON [`ScenarioReport`]s; for one seed the report bytes are identical
//! across runs.
//!
//! The module is split along its seams, and the import rule is the
//! design: `spec` (plain data; imports no sibling), `library` (the named
//! scenarios; imports `spec` only), `engine` (the DES event handlers and
//! `run_scenario`; imports `spec`, and `report` for its two entry
//! points), `report` (the result schema, the end-state audit and the
//! aggregation; reads `engine`'s world after the run) and `stress` (the
//! control-plane stress scenarios; imports none of the others). See
//! ARCHITECTURE.md § "The scenario engine".

// Keeps `run_scenario` and the event handlers from growing back into
// one 400-line function (threshold in `clippy.toml`).
#![warn(clippy::too_many_lines)]

mod engine;
mod library;
mod report;
mod spec;
mod stress;

pub use engine::run_scenario;
pub use library::{
    adaptive_incast, autoscale_burst, by_name, churn, collective_noisy_neighbor,
    cross_group_allreduce, flapping_link_incast, incast, library, node_drain, noisy_neighbor,
    oversubscribed, quarantine_pressure, rolling_update_allreduce, service_mesh_allreduce,
    steady_state, trunk_cut_allreduce,
};
pub use report::{
    ClassTraffic, IsolationReport, JobOutcome, JobTraffic, JobsReport, KubeletReport,
    ScenarioReport, ServiceReport, TrafficReport, VniReport,
};
pub use shs_fabric::ring_allreduce_schedule;
pub use spec::{
    AutoscalePlan, BurstPlan, ClaimPlan, Fault, JobPlan, Scenario, ServicePlan, TrafficPattern,
    TrafficPlan, VniMode,
};
pub use stress::{
    run_vni_stress, stress_by_name, stress_library, VniStressReport, VniStressScenario,
};

#[cfg(test)]
mod tests {
    use super::library::{job, ms, scenario, service, traffic};
    use super::*;
    use crate::cluster::ClusterConfig;
    use shs_fabric::TrafficClass;

    fn tiny() -> Scenario {
        let ring = traffic(3, 500, 1024, TrafficClass::Dedicated, 1, TrafficPattern::Ring);
        scenario(
            "tiny",
            "two dedicated tenants with traffic",
            ClusterConfig { seed: 11, ..Default::default() },
            vec![
                job("t0", "a", 2, 500, VniMode::Dedicated).until(6_000).sending(ring),
                job("t1", "b", 2, 800, VniMode::Dedicated).until(6_000).sending(ring),
            ],
            12_000,
        )
    }

    #[test]
    fn tiny_scenario_passes_all_isolation_assertions() {
        let r = run_scenario(&tiny());
        assert_eq!(r.jobs.started, 2, "both jobs admitted");
        assert!(r.traffic.delivered > 0, "rank traffic flowed");
        assert!(r.isolation.cross_tenant_attempts > 0, "probes mounted");
        assert_eq!(r.isolation.cross_vni_deliveries, 0);
        assert_eq!(r.isolation.quarantine_violations, 0);
        assert_eq!(r.isolation.leaked_services, 0);
        assert_eq!(r.isolation.stale_grants, 0);
        assert!(r.passed, "report: {r:?}");
    }

    #[test]
    fn tiny_scenario_is_deterministic() {
        let a = run_scenario(&tiny());
        let b = run_scenario(&tiny());
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn library_has_fifteen_distinct_scenarios() {
        let lib = library(1);
        assert_eq!(lib.len(), 15);
        let names: std::collections::BTreeSet<_> =
            lib.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 15);
        assert!(by_name("churn", 1).is_some());
        assert!(by_name("noisy-neighbor", 1).is_some());
        assert!(by_name("incast", 1).is_some());
        assert!(by_name("collective-noisy-neighbor", 1).is_some());
        assert!(by_name("cross-group-allreduce", 1).is_some());
        assert!(by_name("trunk-cut-allreduce", 1).is_some());
        assert!(by_name("flapping-link-incast", 1).is_some());
        assert!(by_name("adaptive-incast", 1).is_some());
        assert!(by_name("service-mesh-allreduce", 1).is_some());
        assert!(by_name("autoscale-burst", 1).is_some());
        assert!(by_name("rolling-update-allreduce", 1).is_some());
        assert!(by_name("nope", 1).is_none());
    }

    /// A 2-replica service carrying request/response traffic on a
    /// single switch: round trips complete, latency samples accrue, and
    /// the report carries the serving-plane section.
    fn tiny_service() -> Scenario {
        let svc = ServicePlan {
            requests_per_fire: 2,
            delete_at: Some(ms(8_000)),
            ..service("svc", "echo", 2, 250, 512, 1024, 200)
        };
        Scenario {
            services: vec![svc],
            ..scenario(
                "tiny-service",
                "one 2-replica request/response service",
                ClusterConfig { seed: 7, ..Default::default() },
                vec![],
                12_000,
            )
        }
    }

    #[test]
    fn tiny_service_scenario_serves_and_unwinds_clean() {
        let r = run_scenario(&tiny_service());
        assert_eq!(r.services.len(), 1);
        let s = &r.services[0];
        assert_eq!(s.service, "svc/echo");
        assert!(s.completed > 0, "round trips completed: {s:?}");
        assert_eq!(s.auth_failures, 0);
        assert!(s.slo_met, "p99 {} vs slo {}", s.p99_latency_ns, s.slo_p99_ns);
        assert!(s.floor_held, "min_ready {} floor {}", s.min_ready, s.ready_floor);
        assert_eq!(r.vni.allocated_at_end, 0, "service VNI released at teardown");
        assert!(r.passed, "report: {r:?}");
        // The serving-plane section serializes; job-only reports omit it
        // (pinned by tests/report_identity.rs against committed fixtures).
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"services\""));
    }

    #[test]
    fn tiny_service_scenario_is_deterministic() {
        let a = run_scenario(&tiny_service());
        let b = run_scenario(&tiny_service());
        assert_eq!(a, b);
    }

    #[test]
    fn request_response_pattern_completes_round_trips() {
        let mut s = tiny();
        for j in &mut s.jobs {
            if let Some(tp) = &mut j.traffic {
                tp.pattern = TrafficPattern::RequestResponse;
            }
        }
        let r = run_scenario(&s);
        // Each ring slot issues a request and a response leg.
        assert!(r.traffic.delivered > 0);
        assert_eq!(r.traffic.delivered % 2, 0, "paired legs: {r:?}");
        assert!(r.passed, "report: {r:?}");
    }
}
