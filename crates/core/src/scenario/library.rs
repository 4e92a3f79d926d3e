//! The named scenario **library**: fifteen [`Scenario`] constructors
//! built from shared parts. Imports the spec only — a library entry is
//! data, and the private helpers below exist so that each constructor
//! states what is *particular* to its scenario (placement, cadence,
//! burst sizing, faults) and nothing else.

use shs_des::{SimDur, SimTime};
use shs_fabric::{RoutingPolicy, TopologySpec, TrafficClass};
use shs_k8s::KubeletParams;

use super::spec::{
    AutoscalePlan, BurstPlan, ClaimPlan, Fault, JobPlan, Scenario, ServicePlan, TrafficPattern,
    TrafficPlan, VniMode,
};
use crate::cluster::ClusterConfig;

// ---- Parts ----------------------------------------------------------------

pub(super) fn ms(x: u64) -> SimTime {
    SimTime::from_nanos(x * 1_000_000)
}

/// A scenario of jobs only — no claims, services or faults — on the
/// standard 20 ms control-plane tick; callers add the rest with
/// struct-update syntax.
pub(super) fn scenario(
    name: &str,
    description: &str,
    config: ClusterConfig,
    jobs: Vec<JobPlan>,
    horizon_ms: u64,
) -> Scenario {
    Scenario {
        name: name.into(),
        description: description.into(),
        config,
        claims: vec![],
        jobs,
        services: vec![],
        faults: vec![],
        horizon: ms(horizon_ms),
        tick: SimDur::from_millis(20),
    }
}

/// A job that runs until deleted, sends nothing and lands wherever the
/// scheduler spreads it; refine with the consuming methods below.
pub(super) fn job(tenant: &str, name: &str, ranks: u32, arrival_ms: u64, vni: VniMode) -> JobPlan {
    JobPlan {
        tenant: tenant.into(),
        name: name.into(),
        ranks,
        arrival: ms(arrival_ms),
        run_ms: None,
        vni,
        delete_at: None,
        traffic: None,
        pin_nodes: None,
    }
}

impl JobPlan {
    /// Complete on its own after `ms` of work.
    fn run_for(self, ms: u64) -> Self {
        JobPlan { run_ms: Some(ms), ..self }
    }

    /// Delete explicitly at `delete_ms`.
    pub(super) fn until(self, delete_ms: u64) -> Self {
        JobPlan { delete_at: Some(ms(delete_ms)), ..self }
    }

    /// Exchange `traffic` between the ranks.
    pub(super) fn sending(self, traffic: TrafficPlan) -> Self {
        JobPlan { traffic: Some(traffic), ..self }
    }

    /// Pin the ranks to these node indices.
    fn on(self, nodes: impl IntoIterator<Item = usize>) -> Self {
        JobPlan { pin_nodes: Some(nodes.into_iter().collect()), ..self }
    }
}

pub(super) fn traffic(
    rounds: u32,
    interval_ms: u64,
    size: u64,
    tc: TrafficClass,
    burst: u32,
    pattern: TrafficPattern,
) -> TrafficPlan {
    TrafficPlan { rounds, interval: SimDur::from_millis(interval_ms), size, tc, burst, pattern }
}

fn std_traffic() -> TrafficPlan {
    traffic(8, 1_000, 4096, TrafficClass::Dedicated, 1, TrafficPattern::Ring)
}

/// A dedicated-VNI, low-latency service arriving at 0.5 s, issuing four
/// requests per generator fire and deleted at 40 s — no roll, burst,
/// autoscaling or pinning.
pub(super) fn service(
    tenant: &str,
    name: &str,
    replicas: u32,
    interval_ms: u64,
    request_bytes: u64,
    response_bytes: u64,
    slo_p99_us: u64,
) -> ServicePlan {
    ServicePlan {
        tenant: tenant.into(),
        name: name.into(),
        replicas,
        arrival: ms(500),
        vni: VniMode::Dedicated,
        tc: TrafficClass::LowLatency,
        request_interval: SimDur::from_millis(interval_ms),
        requests_per_fire: 4,
        request_bytes,
        response_bytes,
        slo_p99: SimDur::from_micros(slo_p99_us),
        update_at: None,
        delete_at: Some(ms(40_000)),
        burst: None,
        autoscale: None,
        pin_nodes: None,
    }
}

/// `nodes` nodes round-robined over a dragonfly of `groups` one-switch
/// groups. Two groups are what the contention scenarios run on: rank-
/// to-rank rings and incasts must cross the single global link. Three
/// are what the fault/adaptive scenarios run on: the smallest
/// all-to-all group graph where every trunk has an alternate (Valiant)
/// path, so a single link cut degrades routes instead of partitioning
/// the fabric.
pub(super) fn dragonfly(seed: u64, nodes: usize, groups: usize, routing: RoutingPolicy) -> ClusterConfig {
    ClusterConfig {
        seed,
        nodes,
        topology: Some(TopologySpec { groups, switches_per_group: 1, edge_ports: 8 }),
        routing,
        ..Default::default()
    }
}

/// A VNI range too small for the plan, with the decorator resync and
/// the kubelet retry budget that let the backlog drain as quarantine
/// expires.
fn scarce_vnis(
    seed: u64,
    vni_range: core::ops::Range<u16>,
    retry_backoff_ms: u64,
    max_attempts: u32,
) -> ClusterConfig {
    ClusterConfig {
        seed,
        vni_range,
        vni_resync: Some(SimDur::from_millis(1_000)),
        kubelet: KubeletParams {
            retry_backoff: SimDur::from_millis(retry_backoff_ms),
            max_attempts,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The 3→1 incast shape: three ranks burst `size`-byte bulk messages
/// into rank 0 while a light low-latency pair rings alongside at twice
/// the cadence.
fn incast_pair(size: u64) -> [JobPlan; 2] {
    let sink = job("sink", "fanin", 4, 500, VniMode::Dedicated).until(30_000).sending(traffic(
        10,
        1_000,
        size,
        TrafficClass::BulkData,
        4,
        TrafficPattern::Incast,
    ));
    let probe = job("probe", "probe", 2, 1_000, VniMode::Dedicated).until(30_000).sending(traffic(
        20,
        500,
        64,
        TrafficClass::LowLatency,
        1,
        TrafficPattern::Ring,
    ));
    [sink, probe]
}

/// The incast pair placed on 11 nodes round-robined over 3 groups: the
/// sink's rank 0 lands on switch 0 (node 0) and its three senders on
/// switch 1 (nodes 1/4/7), so the whole incast crosses the (0,1) trunk;
/// the probe pair (nodes 9/10) rings across the same trunk.
fn pinned_incast_pair(size: u64) -> Vec<JobPlan> {
    let [sink, probe] = incast_pair(size);
    vec![sink.on([0, 1, 4, 7]), probe.on([9, 10])]
}

/// An 8-rank ring allreduce of 64 KiB pinned to nodes 0-7 of a 2-group
/// fabric: round-robin placement alternates groups, so every ring hop
/// crosses the trunk.
fn trunk_allreduce(tenant: &str, name: &str, tc: TrafficClass) -> JobPlan {
    job(tenant, name, 8, 500, VniMode::Dedicated).until(30_000).on(0..8).sending(traffic(
        10,
        1_000,
        1 << 16,
        tc,
        1,
        TrafficPattern::Allreduce,
    ))
}

// ---- The fifteen scenarios ------------------------------------------------

/// Three tenants with dedicated VNIs, a shared claim, and a baseline
/// global-VNI job, all exchanging traffic concurrently, then torn down.
pub(crate) fn steady_state(seed: u64) -> Scenario {
    let mut jobs: Vec<JobPlan> =
        [("tenant-a", "alpha"), ("tenant-b", "beta"), ("tenant-c", "gamma")]
            .iter()
            .zip(0u64..)
            .map(|((tenant, name), i)| {
                job(tenant, name, 2, 500 + 500 * i, VniMode::Dedicated)
                    .until(30_000)
                    .sending(std_traffic())
            })
            .collect();
    jobs.push(
        job("acme", "delta", 2, 2_000, VniMode::Claim("shared".into()))
            .until(28_000)
            .sending(std_traffic()),
    );
    jobs.push(
        job("plain", "omega", 2, 2_500, VniMode::Global).until(30_000).sending(TrafficPlan {
            size: 2048,
            tc: TrafficClass::BulkData,
            ..std_traffic()
        }),
    );
    Scenario {
        claims: vec![ClaimPlan {
            tenant: "acme".into(),
            name: "shared".into(),
            create_at: SimTime::ZERO,
            delete_at: Some(ms(31_000)),
        }],
        ..scenario(
            "steady-state",
            "3 dedicated-VNI tenants + a shared claim + a global-VNI baseline, \
             concurrent traffic, clean teardown",
            ClusterConfig { seed, ..Default::default() },
            jobs,
            45_000,
        )
    }
}

/// Waves of short-lived jobs: allocation, completion, TTL reaping and
/// quarantine all cycling at once.
pub fn churn(seed: u64) -> Scenario {
    let jobs = (0..3u64)
        .flat_map(|wave| {
            (0..6u64).map(move |i| {
                let arrival = 1_000 + wave * 7_000 + i * 100;
                job("churn", &format!("w{wave}j{i}"), 1, arrival, VniMode::Dedicated).run_for(500)
            })
        })
        .collect();
    scenario(
        "churn",
        "3 waves x 6 short jobs; teardown storm must leave zero leaked state",
        ClusterConfig { seed, ..Default::default() },
        jobs,
        60_000,
    )
}

/// Nine jobs over a three-VNI range: progress is gated by quarantine
/// expiry, and reuse must respect the full 30 s window.
pub(crate) fn quarantine_pressure(seed: u64) -> Scenario {
    let jobs = (0..9u64)
        .map(|i| job("qp", &format!("q{i}"), 1, 200 * i, VniMode::Dedicated).run_for(300))
        .collect();
    scenario(
        "quarantine-pressure",
        "9 jobs through a 3-wide VNI range; reuse gated by the 30s quarantine",
        scarce_vnis(seed, 2048..2051, 1_000, 200),
        jobs,
        100_000,
    )
}

/// Drain a node mid-run: its jobs are evicted, replacements may only
/// land on the surviving nodes, and the drained node must end clean.
pub(crate) fn node_drain(seed: u64) -> Scenario {
    let wave = |prefix: &'static str, count: u64, first_arrival: u64| {
        (0..count).map(move |i| {
            job("dr", &format!("{prefix}{i}"), 2, first_arrival + 500 * i, VniMode::Dedicated)
                .until(40_000)
                .sending(TrafficPlan { rounds: 6, size: 1024, ..std_traffic() })
        })
    };
    Scenario {
        faults: vec![Fault::DrainNode { node: 0, at: ms(10_000) }],
        ..scenario(
            "node-drain",
            "cordon + evict node0 at t=10s; replacements must avoid it and it \
             must end with no leaked services or grants",
            ClusterConfig { seed, nodes: 3, ..Default::default() },
            wave("d", 4, 500).chain(wave("r", 2, 15_000)).collect(),
            55_000,
        )
    }
}

/// Five long-running jobs over a two-VNI range: a standing backlog that
/// only drains as earlier tenants release and quarantine expires.
pub fn oversubscribed(seed: u64) -> Scenario {
    let jobs = [10_000u64, 10_000, 55_000, 55_000, 100_000]
        .iter()
        .zip(0u64..)
        .map(|(&delete_ms, i)| {
            job("over", &format!("o{i}"), 1, 300 * (i + 1), VniMode::Dedicated).until(delete_ms)
        })
        .collect();
    scenario(
        "oversubscribed",
        "5 standing jobs over a 2-wide VNI range; the backlog drains only \
         through release + quarantine expiry",
        scarce_vnis(seed, 3000..3002, 2_000, 100),
        jobs,
        110_000,
    )
}

/// A bulk-data tenant and a latency-sensitive tenant contending for the
/// same group link of a 2-group dragonfly: per-traffic-class trunk
/// scheduling must keep the victim's slowdown bounded while the noisy
/// neighbour's burst drains (and may be clipped by congestion
/// management).
pub(crate) fn noisy_neighbor(seed: u64) -> Scenario {
    // 4 ranks, one per node: the ring has two bulk flows per trunk
    // direction, so the group link actually backlogs (one sender alone
    // is already serialized by its own uplink).
    let noisy = job("noisy", "bulk", 4, 500, VniMode::Dedicated).until(30_000).sending(traffic(
        12,
        1_000,
        1 << 20,
        TrafficClass::BulkData,
        8,
        TrafficPattern::Ring,
    ));
    let victim = job("victim", "latency", 2, 1_000, VniMode::Dedicated)
        .until(30_000)
        .sending(traffic(24, 500, 64, TrafficClass::LowLatency, 1, TrafficPattern::Ring));
    scenario(
        "noisy-neighbor",
        "bulk tenant vs latency tenant across a group link; per-class trunk \
         scheduling must bound the victim's slowdown",
        // 6 nodes, 3 per group: the bulk tenant occupies 4, the victim
        // gets the two idle ones (one per group), so the tenants share
        // *only* the group link — the resource traffic classes arbitrate.
        dragonfly(seed, 6, 2, RoutingPolicy::Minimal),
        vec![noisy, victim],
        45_000,
    )
}

/// N→1 congestion: three ranks incast large bulk messages into rank 0
/// across the group link while a light low-latency pair shares the same
/// trunk; congestion management must clip the incast (per-class drop
/// accounting) without touching the low-latency class.
pub fn incast(seed: u64) -> Scenario {
    scenario(
        "incast",
        "3→1 bulk incast across the group link; finite per-class trunk queues \
         drop the overflow, counted per class, sparing low-latency probes",
        dragonfly(seed, 4, 2, RoutingPolicy::Minimal),
        incast_pair(1 << 21).into(),
        45_000,
    )
}

/// A tenant's 8-rank ring allreduce — every hop crossing the 2-group
/// trunk (round-robin placement alternates groups) — while a bulk-class
/// tenant bursts megabyte messages over the same group link: WRR trunk
/// scheduling must keep the collective's slowdown bounded and
/// congestion management must clip only the bulk class, with zero
/// cross-tenant leakage under the standing adversarial probes.
pub(crate) fn collective_noisy_neighbor(seed: u64) -> Scenario {
    // 10 nodes round-robined over 2 groups: the collective's 8 ranks
    // pin to nodes 0-7 (alternating groups, so every ring hop crosses
    // the trunk), the bulk pair to the two leftover nodes 8/9 (one per
    // group, so its burst rides the same trunk).
    let coll = trunk_allreduce("hpc", "allreduce", TrafficClass::LowLatency);
    // A 500 ms cadence from a 1 s arrival makes every other bulk round
    // land exactly on a collective round instant, so the two tenants
    // genuinely contend for the trunk there: WRR stretches the bulk
    // class 5x ((8+2)/2) while the collective is active, which backlogs
    // the staggered burst past the 100 µs trunk queue bound — the
    // clipping is visible as bulk-only congestion drops.
    let noisy = job("noisy", "bulk", 2, 1_000, VniMode::Dedicated)
        .until(30_000)
        .on([8, 9])
        .sending(traffic(24, 500, 1 << 20, TrafficClass::BulkData, 8, TrafficPattern::Ring));
    scenario(
        "collective-noisy-neighbor",
        "8-rank cross-group allreduce under a bulk burst on the group trunk; \
         WRR must bound the collective's slowdown, congestion management may \
         clip only the bulk class",
        dragonfly(seed, 10, 2, RoutingPolicy::Minimal),
        vec![coll, noisy],
        45_000,
    )
}

/// Placement skew vs. packed placement for the same 4-rank allreduce:
/// one tenant's ranks alternate dragonfly groups (every ring hop
/// crosses the trunk, two uplinks converge per trunk direction), the
/// other's pack into one group (pure intra-switch). The per-tenant
/// report must show the hop inflation (2 hops/message vs 1) and the
/// congestion drops only the skewed tenant takes.
pub(crate) fn cross_group_allreduce(seed: u64) -> Scenario {
    let allreduce =
        traffic(8, 1_000, 4 << 20, TrafficClass::Dedicated, 1, TrafficPattern::Allreduce);
    // 12 nodes round-robined over 2 groups: even nodes in group 0, odd
    // in group 1. The skewed tenant pins nodes 0-3 (ranks alternate
    // groups); the packed tenant pins four even nodes (all group 0).
    let skewed = job("skew", "wide", 4, 500, VniMode::Dedicated)
        .until(30_000)
        .on([0, 1, 2, 3])
        .sending(allreduce);
    let packed = job("pack", "tight", 4, 1_000, VniMode::Dedicated)
        .until(30_000)
        .on([4, 6, 8, 10])
        .sending(allreduce);
    scenario(
        "cross-group-allreduce",
        "the same 4-rank allreduce placed skewed across groups vs packed into \
         one; per-tenant accounting must show the hop and congestion-drop \
         deltas",
        dragonfly(seed, 12, 2, RoutingPolicy::Minimal),
        vec![skewed, packed],
        45_000,
    )
}

/// A 4-rank ring allreduce whose every hop crosses the (0,1) trunk of a
/// 3-group dragonfly, with that trunk cut mid-run: UGAL routing must
/// finish the collective by detouring through group 2 (the per-tenant
/// report shows the reroute count and the 2→3 hop inflation).
pub(crate) fn trunk_cut_allreduce(seed: u64) -> Scenario {
    // 6 nodes round-robined over 3 groups (node i → switch i % 3): the
    // collective pins nodes 0/1/3/4, so ranks alternate switches 0 and
    // 1 and every ring hop rides the (0,1) trunk. The cut at 5 s lands
    // between allreduce rounds 4 and 5: the first half of the traffic
    // takes the 2-switch minimal route, the second half detours
    // 0→2→1.
    let coll = job("hpc", "ring", 4, 500, VniMode::Dedicated)
        .until(30_000)
        .on([0, 1, 3, 4])
        .sending(traffic(8, 1_000, 1 << 20, TrafficClass::Dedicated, 1, TrafficPattern::Allreduce));
    Scenario {
        faults: vec![Fault::LinkDown { at: ms(5_000), a: 0, b: 1 }],
        ..scenario(
            "trunk-cut-allreduce",
            "4-rank cross-group allreduce loses its trunk mid-collective; UGAL \
             reroutes through the third group and the tenant report shows the \
             reroute count and hop inflation",
            dragonfly(seed, 6, 3, RoutingPolicy::Adaptive),
            vec![coll],
            45_000,
        )
    }
}

/// The incast shape on a 3-group fabric while the contended trunk flaps
/// down/up twice: bulk traffic must keep flowing through the detour
/// during the down windows and the low-latency probe sharing the trunk
/// must see zero drops throughout.
pub(crate) fn flapping_link_incast(seed: u64) -> Scenario {
    Scenario {
        // The (0,1) link — the trunk the pinned incast and its probe
        // both cross — flaps down at 3 s and 9 s and recovers at 6 s
        // and 12 s, squarely inside both traffic windows.
        faults: vec![
            Fault::LinkDown { at: ms(3_000), a: 0, b: 1 },
            Fault::LinkUp { at: ms(6_000), a: 0, b: 1 },
            Fault::LinkDown { at: ms(9_000), a: 0, b: 1 },
            Fault::LinkUp { at: ms(12_000), a: 0, b: 1 },
        ],
        ..scenario(
            "flapping-link-incast",
            "3→1 bulk incast while its trunk flaps down/up twice; UGAL detours \
             through the spare group during the outages and the low-latency probe \
             must take zero drops",
            dragonfly(seed, 11, 3, RoutingPolicy::Adaptive),
            pinned_incast_pair(1 << 21),
            45_000,
        )
    }
}

/// The incast shape with UGAL adaptive routing on a healthy 3-group
/// fabric — the A/B counterpart to running the same scenario with
/// [`RoutingPolicy::Minimal`]: diverting part of the burst through the
/// spare group must lower the worst bulk-class trunk queue depth while
/// the low-latency probe keeps zero drops (asserted by the scenario
/// suite, which runs both sides).
pub(crate) fn adaptive_incast(seed: u64) -> Scenario {
    scenario(
        "adaptive-incast",
        "3→1 bulk incast on a 3-group fabric under UGAL adaptive routing; \
         spillover through the spare group lowers the worst trunk queue depth \
         vs minimal routing, sparing the low-latency probe",
        dragonfly(seed, 11, 3, RoutingPolicy::Adaptive),
        // Same placement as the flapping scenario, no faults: three
        // senders on switch 1 incast into switch 0, so minimal routing
        // funnels every burst down the (0,1) trunk while UGAL can spill
        // over the 1→2→0 detour once the direct queue crosses the UGAL
        // break-even. The burst is sized *below* the 100 µs
        // congestion-clip bound (12 × 128 KiB ≈ 60 µs of minimal-route
        // backlog), so the trunk pressure is visible as accepted queue
        // depth rather than being flattened into drops — the quantity
        // the A/B compares.
        pinned_incast_pair(1 << 17),
        45_000,
    )
}

/// A latency-sensitive microservice mesh sharing the 2-group trunk with
/// an 8-rank HPC allreduce: the service's request/response round trips
/// ride the low-latency WRR class while the collective saturates the
/// dedicated class, and the service's p99 must stay under its SLO with
/// isolation asserted adversarially in both directions.
pub(crate) fn service_mesh_allreduce(seed: u64) -> Scenario {
    // 10 nodes round-robined over 2 groups: the collective's 8 ranks pin
    // to nodes 0-7 (every ring hop crosses the trunk), the mesh's 4
    // replicas to the leftover nodes 8/9 — one per group, so about half
    // its request round trips cross the same contended trunk.
    let mesh = ServicePlan {
        pin_nodes: Some(vec![8, 9]),
        ..service("mesh", "frontend", 4, 200, 2048, 4096, 500)
    };
    Scenario {
        services: vec![mesh],
        ..scenario(
            "service-mesh-allreduce",
            "4-replica microservice mesh rides the low-latency class across the \
             trunk an 8-rank allreduce saturates; the mesh p99 must hold its SLO \
             and both tenants probe each other's VNI",
            dragonfly(seed, 10, 2, RoutingPolicy::Minimal),
            vec![trunk_allreduce("hpc", "allreduce", TrafficClass::Dedicated)],
            45_000,
        )
    }
}

/// A serving tenant under a demand spike: the deterministic autoscaler
/// must grow the replica set to absorb the burst (surge-bounded rollout
/// of new pods through the full scheduler/kubelet/CNI/VNI chain), then
/// shrink back to baseline — all while the p99 SLO and the availability
/// floor hold.
pub(crate) fn autoscale_burst(seed: u64) -> Scenario {
    // A quiet second tenant holding its own VNI, so the service's
    // per-fire adversarial probe has a foreign VNI to attack.
    let bg = job("batch", "bg", 1, 1_000, VniMode::Dedicated).until(42_000);
    let api = ServicePlan {
        // 10s-20s: demand jumps 4 → 28 requests per fire, which drives
        // the autoscaler to its 6-replica ceiling until the spike ends.
        burst: Some(BurstPlan { from: ms(10_000), until: ms(20_000), extra: 24 }),
        autoscale: Some(AutoscalePlan { per_replica: 4, max_replicas: 6 }),
        ..service("web", "api", 2, 250, 1024, 2048, 200)
    };
    Scenario {
        services: vec![api],
        ..scenario(
            "autoscale-burst",
            "open-loop demand spike drives the service from 2 to 6 replicas and \
             back; admission rides the full scheduler/kubelet/CNI/VNI chain and \
             the p99 SLO must hold throughout",
            ClusterConfig { seed, nodes: 4, ..Default::default() },
            vec![bg],
            50_000,
        )
    }
}

/// The serving-plane acceptance scenario: a rolling update of the
/// service **while** an 8-rank allreduce crosses the same trunk. The
/// roll must respect `maxUnavailable`/`maxSurge` in virtual time (the
/// ready count never dips below the floor), the service p99 must stay
/// under SLO while replicas are replaced, and the collective must
/// complete with zero drops.
pub(crate) fn rolling_update_allreduce(seed: u64) -> Scenario {
    let web = ServicePlan {
        // The template revision bumps at 10s, squarely inside the
        // collective's traffic window: replicas roll one at a time
        // (surge 1 / maxUnavailable 1) while both tenants keep sending.
        update_at: Some(ms(10_000)),
        pin_nodes: Some(vec![8, 9]),
        ..service("web", "frontend", 4, 200, 2048, 4096, 500)
    };
    Scenario {
        services: vec![web],
        ..scenario(
            "rolling-update-allreduce",
            "surge-bounded rolling update of a 4-replica service while an 8-rank \
             allreduce saturates the shared trunk; the ready floor, the service \
             p99 SLO and the collective's zero-drop run must all hold",
            dragonfly(seed, 10, 2, RoutingPolicy::Minimal),
            vec![trunk_allreduce("hpc", "ring", TrafficClass::Dedicated)],
            45_000,
        )
    }
}

/// The named scenario library executed by `scenario-run`.
pub fn library(seed: u64) -> Vec<Scenario> {
    vec![
        steady_state(seed),
        churn(seed),
        quarantine_pressure(seed),
        node_drain(seed),
        oversubscribed(seed),
        noisy_neighbor(seed),
        incast(seed),
        collective_noisy_neighbor(seed),
        cross_group_allreduce(seed),
        trunk_cut_allreduce(seed),
        flapping_link_incast(seed),
        adaptive_incast(seed),
        service_mesh_allreduce(seed),
        autoscale_burst(seed),
        rolling_update_allreduce(seed),
    ]
}

/// Look up one library scenario by name.
pub fn by_name(name: &str, seed: u64) -> Option<Scenario> {
    library(seed).into_iter().find(|s| s.name == name)
}
