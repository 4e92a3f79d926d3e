//! The scenario **report**: the serialized result schema, the isolation
//! verdict, and the aggregation of the engine's raw counters into a
//! [`ScenarioReport`]. Reads the engine's `World` after the run; the
//! only things it mutates are the VNI database's expiry sweep, which
//! the lifecycle judge then applies, and the sort order of the latency
//! samples.

use serde::Serialize;
use shs_des::SimTime;
use shs_fabric::TrafficClass;

use super::engine::{ClassAgg, ServiceTrack, World};
use super::spec::{Scenario, TrafficPattern};
use crate::lifecycle::Rule;

/// Per-job outcome in the report.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct JobOutcome {
    /// `tenant/name`.
    pub job: String,
    /// Whether the first pod ever started.
    pub started: bool,
    /// Submission → first pod start, in microseconds.
    pub admission_us: Option<u64>,
    /// Whether the job object was gone at the horizon (completed and
    /// reaped, or deleted).
    pub reaped: bool,
}

/// Job lifecycle metrics.
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct JobsReport {
    /// Jobs in the plan.
    pub planned: u64,
    /// Jobs whose first pod started.
    pub started: u64,
    /// Jobs gone (reaped/deleted) at the horizon.
    pub reaped: u64,
    /// Mean admission latency (µs) over started jobs.
    pub admission_mean_us: u64,
    /// Worst admission latency (µs).
    pub admission_max_us: u64,
    /// Per-job detail, in plan order.
    pub outcomes: Vec<JobOutcome>,
}

/// Per-traffic-class slice of the fabric traffic, emitted for
/// multi-switch topologies (single-switch scenarios have no trunk
/// links, so the section is omitted and their reports are unchanged).
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct ClassTraffic {
    /// Traffic-class name (`low-latency`, `dedicated`, `bulk-data`,
    /// `best-effort`).
    pub class: String,
    /// Authorized sends on this class.
    pub sends: u64,
    /// Messages delivered end to end.
    pub delivered: u64,
    /// Authorized messages the fabric dropped (any reason).
    pub dropped: u64,
    /// Messages dropped by trunk congestion management, summed over
    /// every inter-switch link (per-hop counters rolled up).
    pub congestion_drops: u64,
    /// Worst queueing delay accepted at any trunk link (ns).
    pub trunk_queued_ns_max: u64,
    /// Mean delivery latency (ns) over delivered messages.
    pub mean_latency_ns: u64,
    /// Worst delivery latency (ns).
    pub max_latency_ns: u64,
}

/// Per-tenant (per-job) slice of the fabric traffic, emitted for
/// scenarios that run collective patterns — the per-VNI accounting
/// surface that makes placement effects (hops per message, trunk
/// congestion drops) attributable to a tenant. Engine-side counters
/// come from the traffic rounds; `fabric_*` fields come from the
/// fabric's **per-VNI** counters, so for jobs holding a dedicated VNI
/// the two views reconcile exactly. Caveat: the fabric counts per VNI,
/// not per job — jobs that share a claim VNI (or reuse a
/// quarantine-expired VNI within one horizon) each report the combined
/// fabric totals for that VNI, while their engine-side counters stay
/// per-job. Collective scenarios comparing `fabric_*` across tenants
/// should give each tenant a dedicated VNI, as the library ones do.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct JobTraffic {
    /// `tenant/name`.
    pub job: String,
    /// The VNI the job's ranks authenticated with (absent if the job
    /// never completed a traffic round).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub vni: Option<u16>,
    /// Authorized sends by this job's ranks.
    pub sends: u64,
    /// Messages delivered end to end.
    pub delivered: u64,
    /// Messages the fabric dropped (any reason).
    pub dropped: u64,
    /// Delivered payload bytes.
    pub payload_bytes: u64,
    /// Mean delivery latency (ns) over delivered messages.
    pub mean_latency_ns: u64,
    /// Worst delivery latency (ns).
    pub max_latency_ns: u64,
    /// Total switch hops of this tenant's delivered messages, from the
    /// fabric's per-VNI counters (1 per message on a single switch; 2+
    /// when routes cross trunks — the placement-skew signal).
    pub fabric_switch_hops: u64,
    /// This tenant's messages dropped by trunk congestion management,
    /// from the fabric's per-VNI counters.
    pub fabric_congestion_drops: u64,
    /// Deliveries that took a repaired (non-policy) route because a
    /// fault masked the preferred path; absent when zero so reports
    /// from fault-free runs are byte-identical to earlier versions.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric_reroutes: Option<u64>,
    /// ECN marks accrued by this tenant's deliveries; absent when zero
    /// (the default mark threshold never fires).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric_ecn_marks: Option<u64>,
}

/// Fabric traffic metrics (authorized rank-to-rank sends).
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct TrafficReport {
    /// Completed traffic rounds.
    pub rounds: u64,
    /// Rounds skipped because ranks were not (yet) running.
    pub skipped_rounds: u64,
    /// Sends whose sender authenticated against its own VNI.
    pub authorized_sends: u64,
    /// Messages delivered end to end.
    pub delivered: u64,
    /// Authorized messages the fabric dropped.
    pub dropped: u64,
    /// Senders that failed to authenticate against their *own* VNI.
    pub auth_failures: u64,
    /// Mean delivery latency (ns) over delivered messages.
    pub mean_latency_ns: u64,
    /// Worst delivery latency (ns).
    pub max_latency_ns: u64,
    /// Delivered payload bytes.
    pub payload_bytes: u64,
    /// Per-traffic-class counters, active classes only; present only on
    /// multi-switch topologies.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub by_class: Vec<ClassTraffic>,
    /// Per-tenant traffic accounting, present only for scenarios that
    /// run collective patterns (all other reports are unchanged).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub by_job: Vec<JobTraffic>,
    /// Whole-fabric reroute count (deliveries that took a repaired
    /// route after a fault); absent when zero, so fault-free reports
    /// are byte-identical to earlier versions.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric_reroutes: Option<u64>,
    /// Whole-fabric ECN mark count; absent when zero.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric_ecn_marks: Option<u64>,
}

/// VNI Service metrics (from the endpoint counters and the database).
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct VniReport {
    /// Successful acquisitions.
    pub acquisitions: u64,
    /// Releases into quarantine.
    pub releases: u64,
    /// Claim redemptions.
    pub redemptions: u64,
    /// Acquisitions refused on an exhausted range.
    pub exhaustions: u64,
    /// Claim deletions deferred because users remained.
    pub stalled_claim_deletes: u64,
    /// Allocated rows at the horizon.
    pub allocated_at_end: u64,
    /// Quarantined rows at the horizon (after the expiry sweep).
    pub quarantined_at_end: u64,
    /// Audit-log length at the horizon.
    pub audit_len: u64,
    /// ACID transactions committed by the VNI database over the run —
    /// the §III-C2 serialization point, made countable. Deterministic
    /// for a fixed scenario + seed.
    pub txn_count: u64,
}

/// Kubelet counters summed over nodes.
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct KubeletReport {
    /// Pods started.
    pub pods_started: u64,
    /// Pods fully torn down.
    pub pods_removed: u64,
    /// CNI ADD retries.
    pub cni_retries: u64,
    /// Pods marked Failed.
    pub pods_failed: u64,
}

/// Per-service serving-plane metrics: open-loop request/response
/// traffic outcomes, the p99-vs-SLO verdict, and the rolling-update
/// availability floor observed over the run. Emitted only for
/// scenarios that plan services, so job-only reports are byte-identical
/// to earlier versions.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct ServiceReport {
    /// `tenant/name`.
    pub service: String,
    /// Baseline replica count from the plan.
    pub replicas: u64,
    /// The VNI the service's replicas authenticated with (absent if no
    /// request was ever issued).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub vni: Option<u16>,
    /// Request-generator fires that issued traffic.
    pub fires: u64,
    /// Generator fires skipped because fewer than two replicas were
    /// ready (startup ramp, or a roll that lost the fleet).
    pub skipped_fires: u64,
    /// Requests issued (each is a request leg + a response leg).
    pub requests: u64,
    /// Round trips completed (both legs delivered).
    pub completed: u64,
    /// Round trips lost to a fabric drop on either leg.
    pub dropped: u64,
    /// Replicas that failed to authenticate against the service VNI.
    pub auth_failures: u64,
    /// Delivered payload bytes (both legs).
    pub payload_bytes: u64,
    /// Median round-trip latency (ns).
    pub p50_latency_ns: u64,
    /// 99th-percentile round-trip latency (ns).
    pub p99_latency_ns: u64,
    /// Worst round-trip latency (ns).
    pub max_latency_ns: u64,
    /// The plan's p99 SLO (ns).
    pub slo_p99_ns: u64,
    /// p99 met the SLO (and at least one round trip completed).
    pub slo_met: bool,
    /// Fewest ready replicas observed at any control-plane tick after
    /// the service first reached full readiness (and before deletion).
    pub min_ready: u64,
    /// Most ready replicas observed (the autoscale high-water mark).
    pub max_ready: u64,
    /// The rolling-update availability floor,
    /// `replicas − maxUnavailable`.
    pub ready_floor: u64,
    /// Ready replicas never dropped below the floor once full readiness
    /// was reached.
    pub floor_held: bool,
}

/// Isolation assertions — every field except the `*_attempts`/`denied`
/// counters must be zero for the scenario to pass.
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct IsolationReport {
    /// Adversarial cross-tenant probes mounted.
    pub cross_tenant_attempts: u64,
    /// Probes denied (driver auth or fabric enforcement).
    pub cross_tenant_denied: u64,
    /// Probes that *delivered* on a foreign VNI (violation).
    pub cross_vni_deliveries: u64,
    /// Audit entries the [`Lifecycle`](crate::lifecycle::Lifecycle)
    /// judge rejects (a VNI reissued inside its quarantine, or while a
    /// node still carries it, among others), plus rows it contradicts.
    pub quarantine_violations: u64,
    /// [`Rule::LeakedService`] verdicts: CXI services that outlived
    /// their pod's sandbox.
    pub leaked_services: u64,
    /// [`Rule::StaleGrant`] verdicts: switch grants a CNI DEL left with
    /// no CXI service on the node carrying them.
    pub stale_grants: u64,
    /// Workloads started on a drained node after the drain, or without
    /// their CNI ADD ([`Rule::StartOnDrained`], [`Rule::StartWithoutAdd`]).
    pub placement_violations: u64,
}

/// The full JSON report of one scenario run. Deterministic: for a fixed
/// scenario + seed the serialized bytes are identical across runs.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Cluster seed.
    pub seed: u64,
    /// Horizon in milliseconds.
    pub horizon_ms: u64,
    /// DES events executed.
    pub events_executed: u64,
    /// Job lifecycle metrics.
    pub jobs: JobsReport,
    /// Traffic metrics.
    pub traffic: TrafficReport,
    /// VNI Service metrics.
    pub vni: VniReport,
    /// Kubelet metrics.
    pub kubelet: KubeletReport,
    /// Serving-plane metrics, one per planned service; empty (and
    /// omitted from the JSON) for job-only scenarios, so their reports
    /// are byte-identical to earlier versions.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub services: Vec<ServiceReport>,
    /// Isolation assertions.
    pub isolation: IsolationReport,
    /// Whether every isolation assertion (and traffic liveness, where
    /// the plan generates traffic) held.
    pub passed: bool,
}

impl ScenarioReport {
    fn evaluate(&mut self, traffic_expected: bool) {
        let iso = &self.isolation;
        let services_ok = self
            .services
            .iter()
            .all(|s| s.auth_failures == 0 && s.completed > 0 && s.slo_met && s.floor_held);
        self.passed = iso.cross_vni_deliveries == 0
            && iso.quarantine_violations == 0
            && iso.leaked_services == 0
            && iso.stale_grants == 0
            && iso.placement_violations == 0
            && services_ok
            && (!traffic_expected
                || (self.traffic.delivered > 0 && self.traffic.auth_failures == 0));
    }
}

/// Aggregate the run into the report. Takes the finished
/// [`audit_isolation`] verdict, which has already swept the expired
/// quarantines the VNI section here counts.
pub(super) fn build(
    scenario: &Scenario,
    w: &mut World,
    events_executed: u64,
    isolation: IsolationReport,
) -> ScenarioReport {
    let traffic_expected = scenario.jobs.iter().any(|j| j.traffic.is_some() && j.ranks >= 2);
    let mut report = ScenarioReport {
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        seed: scenario.config.seed,
        horizon_ms: scenario.horizon.as_nanos() / 1_000_000,
        events_executed,
        jobs: jobs_report(w),
        traffic: traffic_report(scenario, w),
        vni: vni_report(w, scenario.horizon),
        kubelet: w.cluster.nodes.iter().fold(KubeletReport::default(), |mut acc, n| {
            acc.pods_started += n.kubelet.counters.pods_started;
            acc.pods_removed += n.kubelet.counters.pods_removed;
            acc.cni_retries += n.kubelet.counters.cni_retries;
            acc.pods_failed += n.kubelet.counters.pods_failed;
            acc
        }),
        services: w.services.iter_mut().map(service_report).collect(),
        isolation,
        passed: false,
    };
    report.evaluate(traffic_expected);
    report
}

/// `tenant/name`, the report key of a job or service.
fn key(tenant: &str, name: &str) -> String {
    format!("{tenant}/{name}")
}

// ---- End-state audit ------------------------------------------------------

/// The isolation verdict at the horizon: the adversarial-probe tallies,
/// and the cluster's lifecycle judge's verdicts counted by rule. The
/// judge has followed the whole run; here it applies the horizon's
/// quarantine sweep and compares itself with the database's rows.
pub(super) fn audit_isolation(w: &mut World, horizon: SimTime) -> IsolationReport {
    let cluster = &mut w.cluster;
    {
        let mut ep = cluster.endpoint.borrow_mut();
        // Sweep first, so the log and the rows are what `acquire` acts on.
        ep.db.sweep_expired(horizon);
        cluster.lifecycle.pull(&ep.db);
        cluster.lifecycle.finish(&ep.db.rows());
    }
    let mut iso = IsolationReport {
        cross_tenant_attempts: w.m.cross_attempts,
        cross_tenant_denied: w.m.cross_denied,
        cross_vni_deliveries: w.m.cross_deliveries,
        ..Default::default()
    };
    for verdict in cluster.lifecycle.verdicts() {
        let count = match verdict.rule {
            Rule::AcquireHeld
            | Rule::AcquireInQuarantine
            | Rule::NotHeld
            | Rule::ExpireNotQuarantined
            | Rule::ExpireEarly
            | Rule::UnknownEvent
            | Rule::RowDiverged
            | Rule::AcquireWhileGranted => &mut iso.quarantine_violations,
            Rule::LeakedService => &mut iso.leaked_services,
            Rule::StaleGrant => &mut iso.stale_grants,
            Rule::StartWithoutAdd | Rule::StartOnDrained => &mut iso.placement_violations,
        };
        *count += 1;
    }
    iso
}

// ---- Aggregation ----------------------------------------------------------

/// VNI database end state — `stats` sweeps expired quarantines so the
/// reported split is consistent with what `acquire` would see.
fn vni_report(w: &World, horizon: SimTime) -> VniReport {
    let mut ep = w.cluster.endpoint.borrow_mut();
    let counters = ep.counters;
    let stats = ep.db.stats(horizon);
    VniReport {
        acquisitions: counters.acquisitions,
        releases: counters.releases,
        redemptions: counters.redemptions,
        exhaustions: counters.exhaustions,
        stalled_claim_deletes: counters.stalled_claim_deletes,
        allocated_at_end: stats.allocated as u64,
        quarantined_at_end: stats.quarantined as u64,
        audit_len: ep.db.audit_len() as u64,
        txn_count: ep.db.txn_count(),
    }
}

fn jobs_report(w: &World) -> JobsReport {
    let outcomes: Vec<JobOutcome> = w
        .jobs
        .iter()
        .map(|t| JobOutcome {
            job: key(&t.plan.tenant, &t.plan.name),
            started: t.started_at.is_some(),
            admission_us: t.started_at.map(|at| (at - t.plan.arrival).as_nanos() / 1_000),
            reaped: !w.cluster.job_exists(&t.plan.tenant, &t.plan.name),
        })
        .collect();
    let admissions: Vec<u64> = outcomes.iter().filter_map(|o| o.admission_us).collect();
    JobsReport {
        planned: outcomes.len() as u64,
        started: admissions.len() as u64,
        reaped: outcomes.iter().filter(|o| o.reaped).count() as u64,
        admission_mean_us: admissions
            .iter()
            .sum::<u64>()
            .checked_div(admissions.len() as u64)
            .unwrap_or(0),
        admission_max_us: admissions.iter().copied().max().unwrap_or(0),
        outcomes,
    }
}

fn traffic_report(scenario: &Scenario, w: &World) -> TrafficReport {
    // Every authorized send was booked under exactly one class, so the
    // totals are the four class slices folded together.
    let total = w.m.class.iter().copied().fold(ClassAgg::default(), ClassAgg::merged);
    let fabric_totals = w.cluster.fabric.traffic_totals();
    TrafficReport {
        rounds: w.m.rounds,
        skipped_rounds: w.m.skipped_rounds,
        authorized_sends: total.sends,
        delivered: total.delivered,
        dropped: total.dropped,
        auth_failures: w.m.auth_failures,
        mean_latency_ns: total.mean_latency_ns(),
        max_latency_ns: total.lat_max_ns,
        payload_bytes: total.bytes,
        by_class: by_class(w),
        by_job: by_job(scenario, w),
        fabric_reroutes: (fabric_totals.reroutes > 0).then_some(fabric_totals.reroutes),
        fabric_ecn_marks: (fabric_totals.ecn_marks > 0).then_some(fabric_totals.ecn_marks),
    }
}

/// Per-class traffic slice: only multi-switch topologies have trunk
/// links (and thus per-hop class counters); single-switch scenarios
/// omit the section so their reports stay byte-identical.
fn by_class(w: &World) -> Vec<ClassTraffic> {
    if w.cluster.fabric.topology().switch_count() <= 1 {
        return Vec::new();
    }
    let trunk_totals = w.cluster.fabric.trunk_class_totals();
    TrafficClass::ALL
        .iter()
        .filter_map(|&tc| {
            let agg = &w.m.class[tc.index()];
            let trunk = &trunk_totals[tc.index()];
            if agg.sends == 0 && trunk.congestion_drops == 0 {
                return None;
            }
            Some(ClassTraffic {
                class: tc.to_string(),
                sends: agg.sends,
                delivered: agg.delivered,
                dropped: agg.dropped,
                congestion_drops: trunk.congestion_drops,
                trunk_queued_ns_max: trunk.queued_ns_max,
                mean_latency_ns: agg.mean_latency_ns(),
                max_latency_ns: agg.lat_max_ns,
            })
        })
        .collect()
}

/// Per-tenant accounting: only collective scenarios carry it, so the
/// pre-collective report library stays byte-identical.
fn by_job(scenario: &Scenario, w: &World) -> Vec<JobTraffic> {
    let collective = scenario
        .jobs
        .iter()
        .any(|j| j.traffic.is_some_and(|t| t.pattern == TrafficPattern::Allreduce));
    if !collective {
        return Vec::new();
    }
    w.jobs
        .iter()
        .zip(&w.m.per_job)
        .map(|(t, agg)| {
            let fab = t.vni_seen.map(|v| w.cluster.fabric.traffic(v)).unwrap_or_default();
            JobTraffic {
                job: key(&t.plan.tenant, &t.plan.name),
                vni: t.vni_seen.map(|v| v.0),
                sends: agg.sends,
                delivered: agg.delivered,
                dropped: agg.dropped,
                payload_bytes: agg.bytes,
                mean_latency_ns: agg.mean_latency_ns(),
                max_latency_ns: agg.lat_max_ns,
                fabric_switch_hops: fab.switch_hops,
                fabric_congestion_drops: fab.congestion_drops,
                fabric_reroutes: (fab.reroutes > 0).then_some(fab.reroutes),
                fabric_ecn_marks: (fab.ecn_marks > 0).then_some(fab.ecn_marks),
            }
        })
        .collect()
}

/// Serving-plane slice: per-service request/response outcomes, the
/// p99-vs-SLO verdict, and the availability floor observed while the
/// service was live.
fn service_report(t: &mut ServiceTrack) -> ServiceReport {
    t.latencies.sort_unstable();
    // Nearest-rank percentile: ceil(q·n/100)ᵗʰ smallest sample.
    let pct = |q: u64| -> u64 {
        if t.latencies.is_empty() {
            return 0;
        }
        let rank = (t.latencies.len() as u64 * q).div_ceil(100).max(1);
        t.latencies[rank as usize - 1]
    };
    let p99 = pct(99);
    let floor = u64::from(t.plan.replicas.saturating_sub(1));
    ServiceReport {
        service: key(&t.plan.tenant, &t.plan.name),
        replicas: u64::from(t.plan.replicas),
        vni: t.vni_seen.map(|v| v.0),
        fires: t.fires,
        skipped_fires: t.skipped_fires,
        requests: t.requests,
        completed: t.completed,
        dropped: t.dropped,
        auth_failures: t.auth_failures,
        payload_bytes: t.payload_bytes,
        p50_latency_ns: pct(50),
        p99_latency_ns: p99,
        max_latency_ns: t.latencies.last().copied().unwrap_or(0),
        slo_p99_ns: t.plan.slo_p99.as_nanos(),
        slo_met: t.completed > 0 && p99 <= t.plan.slo_p99.as_nanos(),
        min_ready: t.min_ready.unwrap_or(0),
        max_ready: t.max_ready,
        ready_floor: floor,
        floor_held: t.min_ready.is_some_and(|m| m >= floor),
    }
}
