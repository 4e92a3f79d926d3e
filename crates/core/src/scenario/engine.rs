//! The scenario **engine**: a [`Scenario`] scheduled as `shs_des::Sim`
//! events over a real [`Cluster`], with tenant isolation checked at
//! every hop while it runs.
//!
//! Jobs and services are one kind of tenant workload here. Each has a
//! *membership rule* (which pods send: a job's full rank set, a
//! service's PLEG-ready replicas) and a *round shape* (what they send:
//! [`TrafficPattern::round_ops`], or round-robin request/response pairs);
//! everything tenant-facing below that is written once, on [`World`]:
//! the VNI lookup ([`resolve_vni`]), the CXI member check
//! ([`World::authed`]), the fabric send ([`World::transfer`]) and the
//! adversarial probe ([`World::foreign_vni`] + [`probe_cross`]). A new
//! workload kind adds a membership rule and a round shape — never a
//! second send path.

use std::collections::BTreeSet;

use shs_des::{Sim, SimDur, SimTime};
use shs_fabric::{FaultKind, SwitchId, TrafficClass, TransferOutcome, Vni};
use shs_k8s::{kinds, spec_of, PodSpec};

use super::report::{self, ScenarioReport};
use super::spec::{Fault, JobPlan, Scenario, ServicePlan, TrafficPlan, VniMode};
use crate::cluster::{alpine, Cluster, PodHandle};

pub(super) struct JobTrack {
    pub(super) plan: JobPlan,
    pub(super) started_at: Option<SimTime>,
    rounds_done: u32,
    /// The VNI the job's ranks authenticated with, captured at the
    /// first traffic round (the CRD is reaped at teardown, so the
    /// end-state audit could no longer resolve it).
    pub(super) vni_seen: Option<Vni>,
}

pub(super) struct ServiceTrack {
    pub(super) plan: ServicePlan,
    pub(super) vni_seen: Option<Vni>,
    /// Round-trip latency samples (ns), sorted once at report time.
    pub(super) latencies: Vec<u64>,
    pub(super) fires: u64,
    pub(super) skipped_fires: u64,
    pub(super) requests: u64,
    pub(super) completed: u64,
    pub(super) dropped: u64,
    pub(super) auth_failures: u64,
    pub(super) payload_bytes: u64,
    /// Round-robin cursor over the ready replica list.
    rr: usize,
    /// Last desired replica count pushed by the autoscaler.
    desired: u32,
    /// Fewest ready replicas seen since the service first reached
    /// `replicas` ready pods (`None` until it has).
    pub(super) min_ready: Option<u64>,
    pub(super) max_ready: u64,
}

/// One slice (per class, per job, or all of them merged) of the
/// authorized-send counters.
#[derive(Default, Clone, Copy)]
pub(super) struct ClassAgg {
    pub(super) sends: u64,
    pub(super) delivered: u64,
    pub(super) dropped: u64,
    pub(super) bytes: u64,
    lat_sum_ns: u64,
    pub(super) lat_max_ns: u64,
}

impl ClassAgg {
    /// Book one authorized `size`-byte send and its outcome (the
    /// delivery latency, or `None` for a fabric drop).
    fn book(&mut self, size: u64, latency_ns: Option<u64>) {
        self.sends += 1;
        match latency_ns {
            Some(lat) => {
                self.delivered += 1;
                self.bytes += size;
                self.lat_sum_ns += lat;
                self.lat_max_ns = self.lat_max_ns.max(lat);
            }
            None => self.dropped += 1,
        }
    }

    /// The two slices as one.
    pub(super) fn merged(self, other: ClassAgg) -> ClassAgg {
        ClassAgg {
            sends: self.sends + other.sends,
            delivered: self.delivered + other.delivered,
            dropped: self.dropped + other.dropped,
            bytes: self.bytes + other.bytes,
            lat_sum_ns: self.lat_sum_ns + other.lat_sum_ns,
            lat_max_ns: self.lat_max_ns.max(other.lat_max_ns),
        }
    }

    /// Mean delivery latency (ns) over delivered messages.
    pub(super) fn mean_latency_ns(&self) -> u64 {
        self.lat_sum_ns.checked_div(self.delivered).unwrap_or(0)
    }
}

/// Raw run counters. Every authorized send is booked once per slice it
/// belongs to (its class, its job); the report derives the totals.
#[derive(Default)]
pub(super) struct Raw {
    pub(super) rounds: u64,
    pub(super) skipped_rounds: u64,
    pub(super) auth_failures: u64,
    pub(super) cross_attempts: u64,
    pub(super) cross_denied: u64,
    pub(super) cross_deliveries: u64,
    pub(super) class: [ClassAgg; 4],
    /// Per-job slices of the same counters, in plan order.
    pub(super) per_job: Vec<ClassAgg>,
}

pub(super) struct World {
    pub(super) cluster: Cluster,
    horizon: SimTime,
    tick: SimDur,
    pub(super) jobs: Vec<JobTrack>,
    pub(super) services: Vec<ServiceTrack>,
    pub(super) m: Raw,
    msg_id: u64,
    /// (node index, drain instant)
    pub(super) drained: Vec<(usize, SimTime)>,
}

impl World {
    fn new(scenario: &Scenario) -> World {
        World {
            cluster: Cluster::new(scenario.config.clone()),
            horizon: scenario.horizon,
            tick: scenario.tick,
            jobs: scenario
                .jobs
                .iter()
                .map(|p| JobTrack {
                    plan: p.clone(),
                    started_at: None,
                    rounds_done: 0,
                    vni_seen: None,
                })
                .collect(),
            services: scenario
                .services
                .iter()
                .map(|p| ServiceTrack {
                    plan: p.clone(),
                    vni_seen: None,
                    latencies: Vec::new(),
                    fires: 0,
                    skipped_fires: 0,
                    requests: 0,
                    completed: 0,
                    dropped: 0,
                    auth_failures: 0,
                    payload_bytes: 0,
                    rr: 0,
                    desired: p.replicas,
                    min_ready: None,
                    max_ready: 0,
                })
                .collect(),
            m: Raw {
                per_job: vec![ClassAgg::default(); scenario.jobs.len()],
                ..Default::default()
            },
            msg_id: 0,
            drained: Vec::new(),
        }
    }

    /// The next fabric message id. Ids salt adaptive routing, so every
    /// send — authorized, refused or adversarial — draws exactly one,
    /// in program order.
    fn next_id(&mut self) -> u64 {
        self.msg_id += 1;
        self.msg_id
    }

    /// The member check every RDMA application passes once at startup:
    /// does the node's CXI driver admit `pod`'s netns to `vni`?
    fn authed(&self, pod: PodHandle, vni: Vni) -> bool {
        let node = &self.cluster.nodes[pod.node_idx].inner;
        node.device.driver.find_service(&node.host, pod.pid, vni).is_ok()
    }

    /// Push one message between two nodes' NICs through the fabric;
    /// the delivery instant, or `None` if the fabric dropped it.
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &mut self,
        now: SimTime,
        src_node: usize,
        dst_node: usize,
        vni: Vni,
        tc: TrafficClass,
        size: u64,
        id: u64,
    ) -> Option<SimTime> {
        let Cluster { nodes, fabric, .. } = &mut self.cluster;
        let (src_nic, dst_nic) = (nodes[src_node].inner.nic, nodes[dst_node].inner.nic);
        match fabric.transfer(now, src_nic, dst_nic, vni, tc, size, id) {
            TransferOutcome::Delivered { arrival, .. } => Some(arrival),
            TransferOutcome::Dropped(_) => None,
        }
    }

    /// The adversarial probe target: the first tenant workload — jobs,
    /// then services, so the two planes probe each other — currently
    /// decorated with a non-global VNI other than `own`.
    fn foreign_vni(&self, own: Vni) -> Option<Vni> {
        let jobs = self.jobs.iter().map(|t| (&t.plan.vni, &t.plan.tenant, &t.plan.name));
        let services = self.services.iter().map(|t| (&t.plan.vni, &t.plan.tenant, &t.plan.name));
        jobs.chain(services).find_map(|(mode, tenant, name)| {
            let v = resolve_vni(&self.cluster, mode, tenant, name)?;
            (v != own && v != Vni::GLOBAL).then_some(v)
        })
    }
}

fn annotations(mode: &VniMode) -> Vec<(&str, &str)> {
    match mode {
        VniMode::Global => vec![],
        VniMode::Dedicated => vec![("vni", "true")],
        VniMode::Claim(claim) => vec![("vni", claim)],
    }
}

/// The VNI the pods of job or service `tenant/name` would authenticate
/// with, if decorated yet.
fn resolve_vni(cluster: &Cluster, mode: &VniMode, tenant: &str, name: &str) -> Option<Vni> {
    match mode {
        VniMode::Global => Some(Vni::GLOBAL),
        _ => cluster.job_vni(tenant, name),
    }
}

fn tick_ev(sim: &mut Sim<World>) {
    let now = sim.now();
    sim.world.cluster.tick(now);
    // Admission tracking: record the first pod-start instant per job.
    // (This runs every 20 ms tick — borrow jobs and cluster as disjoint
    // fields rather than cloning job keys.)
    let w = &mut sim.world;
    for t in &mut w.jobs {
        if t.started_at.is_none() && now >= t.plan.arrival {
            t.started_at = w.cluster.job_started_at(&t.plan.tenant, &t.plan.name);
        }
    }
    // Availability-floor tracking: sample the PLEG-cached ready count of
    // every live service at every tick, so a rolling update dipping
    // below `replicas − maxUnavailable` between request fires is caught.
    for t in &mut w.services {
        if now < t.plan.arrival || t.plan.delete_at.is_some_and(|d| now >= d) {
            continue;
        }
        let ready = w.cluster.pleg.ready_count(&t.plan.tenant, &t.plan.name) as u64;
        t.max_ready = t.max_ready.max(ready);
        if t.min_ready.is_some() || ready >= u64::from(t.plan.replicas) {
            t.min_ready = Some(t.min_ready.map_or(ready, |m| m.min(ready)));
        }
    }
    let (tick, horizon) = (w.tick, w.horizon);
    if now < horizon {
        sim.after(tick, tick_ev);
    }
}

/// Authenticate `src` against `vni` and push one message through the
/// fabric, booking the outcome under the message's class and job.
/// Returns the delivery instant so an answered send can chain its reply
/// off the arrival.
#[allow(clippy::too_many_arguments)]
fn send_authorized(
    w: &mut World,
    now: SimTime,
    ji: usize,
    src: PodHandle,
    dst: PodHandle,
    vni: Vni,
    size: u64,
    tc: TrafficClass,
) -> Option<SimTime> {
    let id = w.next_id();
    if !w.authed(src, vni) {
        w.m.auth_failures += 1;
        return None;
    }
    let arrival = w.transfer(now, src.node_idx, dst.node_idx, vni, tc, size, id);
    let latency_ns = arrival.map(|at| (at - now).as_nanos());
    w.m.class[tc.index()].book(size, latency_ns);
    w.m.per_job[ji].book(size, latency_ns);
    arrival
}

fn probe_cross(w: &mut World, now: SimTime, attacker: PodHandle, foreign: Vni, tc: TrafficClass) {
    w.m.cross_attempts += 1;
    let id = w.next_id();
    // Hop 1: the CXI driver must refuse the endpoint (netns member).
    // Hop 2: even an admitted endpoint must die at the switch port.
    let victim_node = (attacker.node_idx + 1) % w.cluster.nodes.len();
    let delivered = w.authed(attacker, foreign)
        && w.transfer(now, attacker.node_idx, victim_node, foreign, tc, 64, id).is_some();
    if delivered {
        w.m.cross_deliveries += 1;
    } else {
        w.m.cross_denied += 1;
    }
}

/// The self-rescheduling event behind a job's [`TrafficPlan`]: one
/// round per interval until the planned rounds are done, the job is
/// deleted, or the horizon passes.
fn traffic_round(sim: &mut Sim<World>, ji: usize) {
    let now = sim.now();
    let w = &mut sim.world;
    let p = &w.jobs[ji].plan;
    let Some(tp) = p.traffic else { return };
    if p.delete_at.is_some_and(|d| now >= d) {
        return;
    }
    let complete = job_round(w, now, ji, tp);
    if !complete && now + tp.interval <= w.horizon {
        sim.after(tp.interval, move |s| traffic_round(s, ji));
    }
}

/// One traffic round of job `ji` — skipped, not consumed, unless every
/// planned rank is running (the job's membership rule) and the job is
/// decorated with its VNI. Returns whether the planned rounds are done.
fn job_round(w: &mut World, now: SimTime, ji: usize, tp: TrafficPlan) -> bool {
    let p = &w.jobs[ji].plan;
    let handles: Vec<PodHandle> = (0..p.ranks)
        .map_while(|r| w.cluster.pod_handle(&p.tenant, &format!("{}-{r}", p.name)))
        .collect();
    let vni = resolve_vni(&w.cluster, &p.vni, &p.tenant, &p.name);
    let (true, Some(vni)) = (handles.len() == p.ranks as usize, vni) else {
        w.m.skipped_rounds += 1;
        return false;
    };
    w.m.rounds += 1;
    w.jobs[ji].vni_seen = Some(vni);
    for (src, dst, bytes, answered) in tp.pattern.round_ops(handles.len(), tp.size) {
        let (src, dst) = (handles[src], handles[dst]);
        for _ in 0..tp.burst.max(1) {
            let arrival = send_authorized(w, now, ji, src, dst, vni, bytes, tp.tc);
            // The response leg departs when the request arrives, like
            // a real RPC.
            if let (true, Some(at)) = (answered, arrival) {
                send_authorized(w, at, ji, dst, src, vni, bytes, tp.tc);
            }
        }
    }
    if let Some(foreign) = w.foreign_vni(vni) {
        probe_cross(w, now, handles[0], foreign, tp.tc);
    }
    w.jobs[ji].rounds_done += 1;
    w.jobs[ji].rounds_done >= tp.rounds
}

fn drain_ev(sim: &mut Sim<World>, node_idx: usize) {
    let now = sim.now();
    let w = &mut sim.world;
    let name = w.cluster.nodes[node_idx].inner.name.clone();
    let _ = w.cluster.api.mutate(kinds::NODE, "", &name, |o| {
        o.status = serde_json::json!({ "ready": false });
    });
    // Evict: delete every job with a pod bound to the drained node.
    let mut doomed: BTreeSet<(String, String)> = BTreeSet::new();
    for pod in w.cluster.api.list(kinds::POD) {
        let spec: PodSpec = spec_of(pod);
        if spec.node_name.as_deref() == Some(name.as_str()) {
            if let Some(job) = spec.job_name {
                doomed.insert((pod.meta.namespace.clone(), job));
            }
        }
    }
    for (ns, job) in doomed {
        w.cluster.delete_job(&ns, &job);
    }
    w.drained.push((node_idx, now));
}

/// One TSoR-style round trip: authenticate both replicas against the
/// service VNI (both ends hold an RDMA endpoint: the client to send the
/// request, the server to send the response), push the request leg,
/// then the response leg dispatched at the request's arrival instant;
/// the latency sample is the full round trip in virtual time.
fn service_request(
    w: &mut World,
    now: SimTime,
    si: usize,
    src: PodHandle,
    dst: PodHandle,
    vni: Vni,
) {
    let (req_id, resp_id) = (w.next_id(), w.next_id());
    let t = &mut w.services[si];
    let (tc, req, resp) = (t.plan.tc, t.plan.request_bytes, t.plan.response_bytes);
    t.requests += 1;
    if !(w.authed(src, vni) && w.authed(dst, vni)) {
        w.services[si].auth_failures += 1;
        return;
    }
    let done =
        w.transfer(now, src.node_idx, dst.node_idx, vni, tc, req, req_id).and_then(|arrival| {
            w.transfer(arrival, dst.node_idx, src.node_idx, vni, tc, resp, resp_id)
        });
    let t = &mut w.services[si];
    match done {
        Some(done) => {
            t.completed += 1;
            t.payload_bytes += req + resp;
            t.latencies.push((done - now).as_nanos());
        }
        None => t.dropped += 1,
    }
}

/// One open-loop generator fire: compute the demand (baseline + burst
/// window), drive the autoscaler, then round-robin the requests over
/// the PLEG-cached ready replica list, plus one adversarial cross-VNI
/// probe per fire.
fn service_fire(w: &mut World, now: SimTime, si: usize) {
    let plan = w.services[si].plan.clone();
    let mut demand = plan.requests_per_fire;
    if let Some(b) = &plan.burst {
        if now >= b.from && now < b.until {
            demand += b.extra;
        }
    }
    if let Some(a) = &plan.autoscale {
        let desired = demand.div_ceil(a.per_replica.max(1)).clamp(plan.replicas, a.max_replicas);
        if w.services[si].desired != desired {
            w.services[si].desired = desired;
            w.cluster.scale_service(&plan.tenant, &plan.name, desired);
        }
    }
    let vni = resolve_vni(&w.cluster, &plan.vni, &plan.tenant, &plan.name);
    // Membership rule: whichever replicas are ready, at least two.
    let ready = w.cluster.service_ready(&plan.tenant, &plan.name);
    let handles: Vec<PodHandle> =
        ready.iter().filter_map(|p| w.cluster.pod_handle(&plan.tenant, p)).collect();
    let (Some(vni), true) = (vni, handles.len() >= 2) else {
        w.services[si].skipped_fires += 1;
        return;
    };
    w.services[si].fires += 1;
    w.services[si].vni_seen = Some(vni);
    let n = handles.len();
    let mut rr = w.services[si].rr;
    for _ in 0..demand {
        let (src, dst) = (handles[rr % n], handles[(rr + 1) % n]);
        rr += 1;
        service_request(w, now, si, src, dst, vni);
    }
    w.services[si].rr = rr % n;
    if let Some(foreign) = w.foreign_vni(vni) {
        probe_cross(w, now, handles[0], foreign, plan.tc);
    }
}

/// The self-rescheduling generator event behind [`ServicePlan`]'s
/// open-loop arrivals: one fire per interval until the service is
/// deleted or the horizon passes.
fn service_round(sim: &mut Sim<World>, si: usize) {
    let now = sim.now();
    let w = &mut sim.world;
    let p = &w.services[si].plan;
    let interval = p.request_interval;
    if p.delete_at.is_some_and(|d| now >= d) {
        return;
    }
    service_fire(w, now, si);
    if now + interval <= w.horizon {
        sim.after(interval, move |s| service_round(s, si));
    }
}

/// Schedule a by-name cluster call (`delete_job`, `roll_service`, …) at
/// `at`, if the plan asks for one.
fn at_named(
    sim: &mut Sim<World>,
    at: Option<SimTime>,
    tenant: &str,
    name: &str,
    call: fn(&mut Cluster, &str, &str),
) {
    if let Some(at) = at {
        let (ns, name) = (tenant.to_string(), name.to_string());
        sim.at(at, move |s| call(&mut s.world.cluster, &ns, &name));
    }
}

/// Turn the plan into its initial events: the control-plane tick, then
/// claims, jobs, services and faults in plan order (same-instant events
/// fire in the order scheduled here).
fn schedule(sim: &mut Sim<World>, scenario: &Scenario) {
    sim.at(SimTime::ZERO, tick_ev);
    for claim in &scenario.claims {
        let (ns, name) = (claim.tenant.clone(), claim.name.clone());
        sim.at(claim.create_at, move |s| {
            let now = s.now();
            s.world.cluster.create_claim(now, &ns, &name);
        });
        at_named(sim, claim.delete_at, &claim.tenant, &claim.name, Cluster::delete_claim);
    }
    for (ji, plan) in scenario.jobs.iter().enumerate() {
        let p = plan.clone();
        sim.at(plan.arrival, move |s| {
            let now = s.now();
            s.world.cluster.submit_job_placed(
                now,
                &p.tenant,
                &p.name,
                &annotations(&p.vni),
                p.ranks,
                &alpine(),
                p.run_ms,
                p.pin_nodes.as_deref(),
            );
            if let Some(tp) = &p.traffic {
                s.after(tp.interval, move |s2| traffic_round(s2, ji));
            }
        });
        at_named(sim, plan.delete_at, &plan.tenant, &plan.name, Cluster::delete_job);
    }
    for (si, plan) in scenario.services.iter().enumerate() {
        let p = plan.clone();
        sim.at(plan.arrival, move |s| {
            let now = s.now();
            s.world.cluster.submit_service(
                now,
                &p.tenant,
                &p.name,
                &annotations(&p.vni),
                p.replicas,
                &alpine(),
                p.pin_nodes.as_deref(),
            );
            s.after(p.request_interval, move |s2| service_round(s2, si));
        });
        at_named(sim, plan.update_at, &plan.tenant, &plan.name, Cluster::roll_service);
        at_named(sim, plan.delete_at, &plan.tenant, &plan.name, Cluster::delete_service);
    }
    for fault in &scenario.faults {
        let (at, kind) = match *fault {
            Fault::DrainNode { node, at } => {
                sim.at(at, move |s| drain_ev(s, node));
                continue;
            }
            Fault::LinkDown { at, a, b } => (at, FaultKind::LinkDown(SwitchId(a), SwitchId(b))),
            Fault::LinkUp { at, a, b } => (at, FaultKind::LinkUp(SwitchId(a), SwitchId(b))),
            Fault::SwitchDown { at, switch } => (at, FaultKind::SwitchDown(SwitchId(switch))),
        };
        sim.at(at, move |s| s.world.cluster.fabric.apply_fault(kind));
    }
}

/// Execute a scenario end to end; never panics on isolation failures —
/// they are reported in the returned [`ScenarioReport`].
pub fn run_scenario(scenario: &Scenario) -> ScenarioReport {
    let mut sim = Sim::new(World::new(scenario));
    schedule(&mut sim, scenario);
    sim.run_until(scenario.horizon);
    let events_executed = sim.events_executed();
    let isolation = report::audit_isolation(&sim.world, scenario.horizon);
    report::build(scenario, &mut sim.world, events_executed, isolation)
}
