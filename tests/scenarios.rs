//! End-to-end checks over the named scenario library: every scenario
//! must pass its isolation assertions, and a fixed seed must reproduce
//! the JSON report byte for byte (the `scenario-run` contract).

use slingshot_k8s::{library, parallel_by_name, parallel_library, run_fabric_scenario, run_scenario};

#[test]
fn every_library_scenario_passes_isolation_assertions() {
    for scenario in library(42) {
        let r = run_scenario(&scenario);
        assert!(
            r.passed,
            "{}: isolation assertions failed: {:?}",
            scenario.name, r.isolation
        );
        assert_eq!(
            r.jobs.started, r.jobs.planned,
            "{}: every planned job must eventually admit",
            scenario.name
        );
        assert_eq!(r.isolation.cross_vni_deliveries, 0, "{}", scenario.name);
        assert_eq!(r.isolation.quarantine_violations, 0, "{}", scenario.name);
        assert_eq!(r.isolation.leaked_services, 0, "{}", scenario.name);
        assert_eq!(r.isolation.stale_grants, 0, "{}", scenario.name);
    }
}

#[test]
fn scenario_reports_are_byte_identical_for_a_fixed_seed() {
    let run = |seed: u64| {
        let reports: Vec<_> = library(seed).iter().map(run_scenario).collect();
        serde_json::to_string_pretty(&reports).expect("serializes")
    };
    assert_eq!(run(42), run(42), "same seed, same bytes");
    assert_ne!(run(42), run(7), "the seed actually reaches the cluster");
}

#[test]
fn parallel_scenarios_pass_and_seeds_reach_the_sweep() {
    for sweep in parallel_library(42) {
        let r = run_fabric_scenario(&sweep, 1);
        assert!(r.passed, "{}: {:?}", sweep.name, r);
        assert_eq!(
            r.sent,
            r.delivered + r.congestion_drops + r.route_drops.unwrap_or(0),
            "{} conserves",
            sweep.name
        );
    }
    let sc = |seed| {
        let s = parallel_by_name("dragonfly-256-valiant", seed).expect("library sweep");
        serde_json::to_string_pretty(&run_fabric_scenario(&s, 1)).expect("serializes")
    };
    assert_ne!(sc(42), sc(7), "the seed actually reaches the traffic pattern");
}

#[test]
fn the_1024_node_scenario_completes() {
    // The 1024-node, 4-group dragonfly sweep completes and passes, with
    // traffic genuinely crossing groups.
    let sweep = parallel_by_name("dragonfly-1024", 42).expect("headline scenario");
    let r = run_fabric_scenario(&sweep, 1);
    assert_eq!(r.nodes, 1024);
    assert_eq!(r.per_group.len(), 4);
    assert!(r.passed, "{r:?}");
    assert!(r.delivered > 0 && r.cross_group_injected > 0);
}

#[test]
fn service_scenario_reports_are_byte_identical_across_threads() {
    // The `scenario-run` contract for the three serving-plane
    // scenarios: the same report must come back whether the scenario
    // runs inline or on any of several concurrent workers (no ambient
    // thread state may leak into the clock — `cargo test` itself relies
    // on it).
    for name in ["service-mesh-allreduce", "autoscale-burst", "rolling-update-allreduce"] {
        let s = slingshot_k8s::by_name(name, 42).expect("library scenario");
        let base = serde_json::to_string_pretty(&run_scenario(&s)).expect("serializes");
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let name = name.to_string();
                std::thread::spawn(move || {
                    let s = slingshot_k8s::by_name(&name, 42).expect("library scenario");
                    serde_json::to_string_pretty(&run_scenario(&s)).expect("serializes")
                })
            })
            .collect();
        for (i, w) in workers.into_iter().enumerate() {
            assert_eq!(w.join().expect("worker"), base, "{name}: worker {i} diverged");
        }
    }
}

#[test]
fn scenarios_exercise_their_designed_pressure() {
    let by: std::collections::BTreeMap<String, _> = library(42)
        .iter()
        .map(|s| (s.name.clone(), run_scenario(s)))
        .collect();

    let steady = &by["steady-state"];
    assert!(steady.traffic.delivered > 0, "multi-tenant traffic flowed");
    assert!(steady.isolation.cross_tenant_attempts > 0, "adversarial probes ran");
    assert_eq!(
        steady.isolation.cross_tenant_attempts,
        steady.isolation.cross_tenant_denied,
        "every cross-tenant probe was denied at some hop"
    );
    assert!(steady.vni.redemptions > 0, "the claim was redeemed");

    let churn = &by["churn"];
    assert_eq!(churn.vni.acquisitions, 18);
    assert_eq!(churn.vni.releases, 18);
    assert_eq!(churn.vni.allocated_at_end, 0, "teardown storm leaves nothing behind");

    let qp = &by["quarantine-pressure"];
    assert!(qp.vni.exhaustions > 0, "the 3-wide range saturated");
    assert!(qp.kubelet.cni_retries > 0, "pods retried while undecorated");

    let drain = &by["node-drain"];
    assert_eq!(drain.isolation.placement_violations, 0);
    assert_eq!(drain.kubelet.pods_failed, 0);

    let over = &by["oversubscribed"];
    assert!(over.vni.exhaustions > 0, "standing backlog hit exhaustion");
    assert_eq!(over.jobs.started, 5, "backlog fully drained via quarantine expiry");

    // The contention scenarios run on a 2-group dragonfly, so the
    // per-traffic-class section must be present.
    let class = |r: &slingshot_k8s::ScenarioReport, name: &str| {
        r.traffic
            .by_class
            .iter()
            .find(|c| c.class == name)
            .unwrap_or_else(|| panic!("{}: class {name} missing", r.scenario))
            .clone()
    };

    let nn = &by["noisy-neighbor"];
    let victim = class(nn, "low-latency");
    let bulk = class(nn, "bulk-data");
    assert!(victim.delivered > 0 && bulk.delivered > 0);
    // Bounded slowdown: the latency tenant shares only the group link
    // with the bulk burst, and per-class trunk scheduling keeps it at
    // (near-)unloaded latency — worst case well under 2x the ~766 ns
    // unloaded two-switch path — while the bulk class queues for tens
    // of microseconds and gets clipped by congestion management.
    assert!(
        victim.max_latency_ns < 1_600,
        "victim slowdown unbounded: {} ns",
        victim.max_latency_ns
    );
    assert!(bulk.trunk_queued_ns_max > 10_000, "the noisy tenant actually queued");
    assert!(bulk.max_latency_ns > 50 * victim.max_latency_ns);
    assert_eq!(victim.congestion_drops, 0);

    let inc = &by["incast"];
    let probe = class(inc, "low-latency");
    let fanin = class(inc, "bulk-data");
    // N→1 congestion: finite per-class trunk queues clip the incast and
    // account the drops on the bulk class only.
    assert!(fanin.congestion_drops > 0, "incast overflow must be dropped");
    assert_eq!(fanin.dropped, fanin.congestion_drops, "all bulk drops are congestion");
    assert_eq!(probe.congestion_drops, 0, "low-latency class spared");
    assert!(fanin.delivered > 0, "congestion management clips, not starves");

    // The collective scenarios carry per-tenant fabric accounting.
    let jt = |r: &slingshot_k8s::ScenarioReport, name: &str| {
        r.traffic
            .by_job
            .iter()
            .find(|j| j.job == name)
            .unwrap_or_else(|| panic!("{}: job {name} missing from by_job", r.scenario))
            .clone()
    };

    let cnn = &by["collective-noisy-neighbor"];
    let victim = jt(cnn, "hpc/allreduce");
    let bulk = jt(cnn, "noisy/bulk");
    // The 8-rank allreduce really crossed the group trunk on every ring
    // hop (2 switches per delivered message) with full per-tenant VNI
    // accounting, and the bulk burst could not slow it meaningfully:
    // bounded slowdown, zero loss, zero cross-tenant leakage.
    assert_eq!(victim.fabric_switch_hops, 2 * victim.delivered);
    assert_eq!(victim.sends, victim.delivered, "collective loses nothing");
    assert_eq!(victim.fabric_congestion_drops, 0);
    assert!(
        victim.max_latency_ns < 25_000,
        "collective slowdown unbounded: {} ns",
        victim.max_latency_ns
    );
    // WRR clips the bulk class instead: it queues for tens of µs on the
    // trunk and loses part of its burst to congestion management.
    assert!(bulk.fabric_congestion_drops > 0, "bulk burst must be clipped");
    assert_eq!(bulk.dropped, bulk.fabric_congestion_drops);
    assert!(bulk.max_latency_ns > 10 * victim.max_latency_ns);
    assert_eq!(cnn.isolation.cross_tenant_attempts, cnn.isolation.cross_tenant_denied);

    let cga = &by["cross-group-allreduce"];
    let skew = jt(cga, "skew/wide");
    let pack = jt(cga, "pack/tight");
    // Hop delta: the packed tenant's allreduce never leaves its switch
    // (1 hop/message); the skewed tenant pays 2 switches on every hop.
    assert_eq!(pack.fabric_switch_hops, pack.delivered);
    assert_eq!(skew.fabric_switch_hops, 2 * skew.delivered);
    // Congestion-drop delta: only the skewed tenant's converging
    // uplinks overflow the trunk queue.
    assert!(skew.fabric_congestion_drops > 0, "skewed placement must congest the trunk");
    assert_eq!(skew.dropped, skew.fabric_congestion_drops);
    assert_eq!(pack.fabric_congestion_drops, 0);
    assert_eq!(pack.sends, pack.delivered, "packed placement loses nothing");

    // Fault resilience: the trunk cut at 5 s lands mid-collective, so
    // the second half of the allreduce must complete over the 3-switch
    // detour through the spare group — visible as the per-tenant
    // reroute count and hop totals above the 2-hops/message minimum —
    // without losing a single message.
    let tca = &by["trunk-cut-allreduce"];
    let coll = jt(tca, "hpc/ring");
    assert_eq!(coll.sends, coll.delivered, "the collective survives the cut");
    assert!(
        coll.fabric_reroutes.unwrap_or(0) > 0,
        "the cut must force deterministic reroutes"
    );
    assert!(
        coll.fabric_switch_hops > 2 * coll.delivered,
        "detoured messages pay 3 switches: {} hops over {} messages",
        coll.fabric_switch_hops,
        coll.delivered
    );
    assert_eq!(coll.fabric_congestion_drops, 0);

    // Link flaps: two down/up cycles on the incast trunk. Bulk keeps
    // flowing via the detour during the outages (reroutes accrue) and
    // the low-latency probe sharing the trunk sees zero loss and stays
    // within 2x the ~1.1 µs unloaded 3-switch detour latency.
    let flap = &by["flapping-link-incast"];
    let probe = class(flap, "low-latency");
    let fanin = class(flap, "bulk-data");
    assert_eq!(probe.dropped, 0, "probe loses nothing through the flaps");
    assert_eq!(probe.congestion_drops, 0);
    assert!(
        probe.max_latency_ns < 2_000,
        "probe latency bound broken: {} ns",
        probe.max_latency_ns
    );
    assert!(
        flap.traffic.fabric_reroutes.unwrap_or(0) > 0,
        "the outages must actually force reroutes"
    );
    assert!(fanin.delivered > 0, "bulk kept flowing through the flaps");

    // The serving plane: TSoR request/response round trips ride the
    // same fabric, WRR classes and per-tenant VNI accounting as the
    // collectives, with adversarial probes in both directions.
    let svc = |r: &slingshot_k8s::ScenarioReport, name: &str| {
        r.services
            .iter()
            .find(|s| s.service == name)
            .unwrap_or_else(|| panic!("{}: service {name} missing", r.scenario))
            .clone()
    };

    let mesh = &by["service-mesh-allreduce"];
    let frontend = svc(mesh, "mesh/frontend");
    assert!(frontend.completed > 0, "round trips completed under the allreduce");
    assert_eq!(frontend.auth_failures, 0);
    assert!(
        frontend.slo_met,
        "mesh p99 {} ns must hold the {} ns SLO on the contended trunk",
        frontend.p99_latency_ns,
        frontend.slo_p99_ns
    );
    assert!(frontend.floor_held);
    let coll = jt(mesh, "hpc/allreduce");
    assert_eq!(coll.sends, coll.delivered, "the collective shares the trunk without loss");
    assert!(mesh.isolation.cross_tenant_attempts > 0, "both tenants probed each other");
    assert_eq!(mesh.isolation.cross_tenant_attempts, mesh.isolation.cross_tenant_denied);

    let auto = &by["autoscale-burst"];
    let api = svc(auto, "web/api");
    assert_eq!(api.replicas, 2, "baseline from the plan");
    assert_eq!(api.max_ready, 6, "the burst drove the autoscaler to its ceiling");
    assert!(api.slo_met && api.floor_held);
    assert_eq!(auto.vni.allocated_at_end, 0, "scale-down and deletion released every VNI");

    // The PR's acceptance gate: the allreduce completes with zero
    // drops and the service's p99 stays under SLO while replicas roll.
    let roll = &by["rolling-update-allreduce"];
    let ring = jt(roll, "hpc/ring");
    assert_eq!(ring.sends, ring.delivered, "allreduce survives the roll with zero drops");
    assert_eq!(ring.dropped, 0);
    assert_eq!(ring.fabric_congestion_drops, 0);
    let front = svc(roll, "web/frontend");
    assert!(
        front.slo_met,
        "p99 {} ns must hold the {} ns SLO through the roll",
        front.p99_latency_ns,
        front.slo_p99_ns
    );
    assert!(
        front.floor_held && front.min_ready >= front.ready_floor,
        "ready floor broken mid-roll: min {} floor {}",
        front.min_ready,
        front.ready_floor
    );
    assert_eq!(front.ready_floor, 3, "replicas 4, maxUnavailable 1");
    assert!(front.max_ready > front.replicas, "the surge replica was visible mid-roll");
}

#[test]
fn adaptive_routing_lowers_trunk_pressure_vs_minimal_under_incast() {
    // The adaptive-vs-static A/B: the same 3→1 incast once under UGAL
    // (the library scenario) and once with the routing flipped back to
    // minimal. UGAL's spillover through the spare group must strictly
    // lower the worst bulk-class trunk queue depth, and the
    // low-latency class takes zero drops on both sides.
    let adaptive = slingshot_k8s::by_name("adaptive-incast", 42).expect("library scenario");
    let mut minimal = adaptive.clone();
    minimal.config.routing = shs_fabric::RoutingPolicy::Minimal;

    let a = run_scenario(&adaptive);
    let m = run_scenario(&minimal);
    let class = |r: &slingshot_k8s::ScenarioReport, name: &str| {
        r.traffic
            .by_class
            .iter()
            .find(|c| c.class == name)
            .unwrap_or_else(|| panic!("{}: class {name} missing", r.scenario))
            .clone()
    };

    let a_bulk = class(&a, "bulk-data");
    let m_bulk = class(&m, "bulk-data");
    assert!(
        a_bulk.trunk_queued_ns_max < m_bulk.trunk_queued_ns_max,
        "UGAL must lower the worst trunk queue depth: adaptive {} ns vs minimal {} ns",
        a_bulk.trunk_queued_ns_max,
        m_bulk.trunk_queued_ns_max
    );
    assert!(
        a_bulk.delivered >= m_bulk.delivered,
        "spillover must not cost bulk goodput: adaptive {} vs minimal {}",
        a_bulk.delivered,
        m_bulk.delivered
    );
    for (side, r) in [("adaptive", &a), ("minimal", &m)] {
        let ll = class(r, "low-latency");
        assert_eq!(ll.dropped, 0, "{side}: low-latency class must take zero drops");
        assert_eq!(ll.congestion_drops, 0, "{side}");
        assert!(r.passed, "{side}: {:?}", r.isolation);
    }
}
