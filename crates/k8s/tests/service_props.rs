//! The service-lifecycle proptest oracle pinning this PR's two
//! serving-plane contracts:
//!
//! 1. **PLEG equivalence** — after any sequence of scale / rolling
//!    update / crash / reconcile / kubelet-settle operations, the
//!    PLEG-cached status snapshot is **byte-identical** (serialized
//!    JSON) to a full pod scan of the API server.
//! 2. **Rolling-update availability floor** — a reconcile pass never
//!    *voluntarily* drops the ready count below
//!    `replicas - max_unavailable`: whatever readiness a crash already
//!    destroyed, the controller only rebuilds, formally
//!    `ready_after >= min(ready_before, floor)` across every reconcile,
//!    at every virtual instant of the op sequence.

use proptest::prelude::*;
use shs_des::SimTime;
use shs_k8s::{
    kinds, make_service, pod_ready, ApiServer, Pleg, PodPhase, PodTemplate,
    ServiceController, ServiceSpec, KUBELET_FINALIZER,
};

const NS: &str = "ns";
const SVC: &str = "web";

#[derive(Debug, Clone)]
enum Op {
    /// Set `spec.replicas`.
    Scale { replicas: u32 },
    /// Bump `spec.version` — starts a rolling update.
    Roll,
    /// Mark the `idx`-th live pod (sorted by name) Failed.
    Crash { idx: u8 },
    /// One controller reconcile pass.
    Reconcile,
    /// Kubelet-like settle: Pending pods become Running, terminating
    /// pods finish teardown (finalizer removed, pod reaped).
    Settle,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (1u32..6).prop_map(|replicas| Op::Scale { replicas }),
        2 => Just(Op::Roll),
        2 => (0u8..8).prop_map(|idx| Op::Crash { idx }),
        4 => Just(Op::Reconcile),
        4 => Just(Op::Settle),
    ]
}

fn svc_spec(replicas: u32) -> ServiceSpec {
    ServiceSpec {
        replicas,
        template: PodTemplate {
            image: "nginx".into(),
            run_ms: None,
            userns_base: None,
            node_selector: None,
        },
        max_unavailable: 1,
        max_surge: 1,
        version: 0,
    }
}

fn ready_count(api: &ApiServer) -> usize {
    api.list_namespaced(kinds::POD, NS).into_iter().filter(|p| pod_ready(p)).count()
}

fn settle(api: &mut ApiServer) {
    let pods: Vec<(String, bool, PodPhase)> = api
        .list_namespaced(kinds::POD, NS)
        .into_iter()
        .map(|p| (p.meta.name.to_string(), p.meta.deletion_requested, p.pod_phase()))
        .collect();
    for (name, terminating, phase) in pods {
        if terminating {
            let _ = api.remove_finalizer(kinds::POD, NS, &name, KUBELET_FINALIZER);
        } else if phase == PodPhase::Pending {
            let _ = api.mutate(kinds::POD, NS, &name, |o| {
                o.status = serde_json::json!({"phase": "Running", "started_at_ns": 1});
            });
        }
    }
}

fn crash(api: &mut ApiServer, idx: u8) {
    let live: Vec<String> = api
        .list_namespaced(kinds::POD, NS)
        .into_iter()
        .filter(|p| !p.meta.deletion_requested)
        .map(|p| p.meta.name.to_string())
        .collect();
    if live.is_empty() {
        return;
    }
    let name = live[idx as usize % live.len()].clone();
    let _ = api.mutate(kinds::POD, NS, &name, |o| {
        o.status = serde_json::json!({"phase": "Failed"});
    });
}

/// Run one op; returns the floor-invariant violation, if any.
fn apply(
    api: &mut ApiServer,
    sc: &mut ServiceController,
    op: &Op,
    step: u64,
) -> Result<(), String> {
    match op {
        Op::Scale { replicas } => {
            let r = *replicas;
            let _ = api.mutate(kinds::SERVICE, NS, SVC, |o| {
                o.spec["replicas"] = serde_json::json!(r);
            });
        }
        Op::Roll => {
            let _ = api.mutate(kinds::SERVICE, NS, SVC, |o| {
                let spec = &mut o.spec;
                let v = spec["version"].as_u64().unwrap_or(0);
                spec["version"] = serde_json::json!(v + 1);
            });
        }
        Op::Crash { idx } => crash(api, *idx),
        Op::Reconcile => {
            // The floor invariant is a property of the *controller's*
            // transition: ready may only go below the floor if a crash
            // already put it there, never by a reconcile decision.
            let spec: ServiceSpec =
                api.get(kinds::SERVICE, NS, SVC).expect("service exists").service_spec().clone();
            let floor = spec.replicas.saturating_sub(spec.max_unavailable) as usize;
            let before = ready_count(api);
            sc.poll(api, SimTime::from_nanos(step));
            let after = ready_count(api);
            if after < before.min(floor) {
                return Err(format!(
                    "reconcile dropped ready below the floor at step {step}: \
                     before={before} after={after} floor={floor}"
                ));
            }
        }
        Op::Settle => settle(api),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Contract 1: the PLEG cache is indistinguishable — byte for byte —
    /// from a full pod scan after **every** operation of any service
    /// lifecycle history.
    #[test]
    fn pleg_cache_is_byte_identical_to_a_full_scan(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut api = ApiServer::default();
        api.create(make_service(NS, SVC, &svc_spec(3)), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        let mut pleg = Pleg::new();
        for (step, op) in ops.iter().enumerate() {
            // Ignore floor verdicts here; this property is about reads.
            let _ = apply(&mut api, &mut sc, op, step as u64);
            pleg.sync(&api);
            let cached = serde_json::to_string(&pleg.snapshot()).expect("serializes");
            let scanned = serde_json::to_string(&Pleg::scan(&api)).expect("serializes");
            prop_assert_eq!(cached, scanned, "cache diverged from scan after {:?}", op);
        }
    }

    /// Contract 2: across any lifecycle history, no reconcile ever
    /// voluntarily drops the ready count below
    /// `replicas - max_unavailable`.
    #[test]
    fn rolling_updates_never_dip_below_the_ready_floor(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut api = ApiServer::default();
        api.create(make_service(NS, SVC, &svc_spec(3)), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        for (step, op) in ops.iter().enumerate() {
            if let Err(violation) = apply(&mut api, &mut sc, op, step as u64) {
                return Err(TestCaseError::fail(violation));
            }
        }
    }

    /// Crash-free corollary, the form the paper's operator cares about:
    /// once a service is fully ready, a pure rolling update (no crashes)
    /// keeps `ready >= replicas - max_unavailable` at every instant and
    /// `alive <= replicas + max_surge`, and converges with every pod on
    /// the new revision.
    #[test]
    fn a_clean_roll_holds_floor_and_ceiling_at_every_instant(
        replicas in 1u32..6,
        interleave in prop::collection::vec(any::<bool>(), 4..40),
    ) {
        let mut api = ApiServer::default();
        api.create(make_service(NS, SVC, &svc_spec(replicas)), SimTime::ZERO).unwrap();
        let mut sc = ServiceController::new();
        sc.poll(&mut api, SimTime::ZERO);
        settle(&mut api);
        sc.poll(&mut api, SimTime::ZERO);
        prop_assert_eq!(ready_count(&api), replicas as usize);

        api.mutate(kinds::SERVICE, NS, SVC, |o| {
            o.spec["version"] = serde_json::json!(1);
        }).unwrap();
        let floor = replicas.saturating_sub(1) as usize;
        let ceiling = (replicas + 1) as usize;
        for (step, settle_now) in interleave.iter().enumerate() {
            sc.poll(&mut api, SimTime::from_nanos(step as u64));
            prop_assert!(ready_count(&api) >= floor, "floor broken at step {}", step);
            let alive = api
                .list_namespaced(kinds::POD, NS)
                .into_iter()
                .filter(|p| !p.meta.deletion_requested)
                .count();
            prop_assert!(alive <= ceiling, "surge ceiling broken at step {}: {}", step, alive);
            if *settle_now {
                settle(&mut api);
            }
        }
        // Drive to convergence regardless of how the interleaving ended.
        for step in 0..2 * replicas as u64 + 4 {
            settle(&mut api);
            sc.poll(&mut api, SimTime::from_nanos(1_000 + step));
        }
        let pods = api.list_namespaced(kinds::POD, NS);
        prop_assert_eq!(pods.len(), replicas as usize);
        for p in pods {
            prop_assert_eq!(p.pod_spec().job_name.as_deref(), Some(SVC));
            prop_assert_eq!(
                p.annotation("service.simk8s/revision"), Some("1"), "pod not rolled"
            );
        }
        prop_assert_eq!(ready_count(&api), replicas as usize);
    }
}
