//! The scenario **engine**: a [`Scenario`] scheduled as `shs_des::Sim`
//! events over a real [`Cluster`], with tenant isolation checked at
//! every hop while it runs.
//!
//! Jobs and services are one kind of tenant workload here. Each has a
//! *membership rule* (which pods send: a job's full rank set, a
//! service's PLEG-ready replicas) and a *round shape* (what they send:
//! [`TrafficPattern::round_ops`], or round-robin request/response pairs);
//! everything tenant-facing below that is written once, on [`World`]:
//! the VNI lookup ([`resolve_vni`]), the membership resolution that
//! opens a round ([`World::admit`]: pod handle + the CXI member check,
//! [`World::authed`], once per participant), the fabric send
//! ([`World::transfer`]) and the adversarial probe
//! ([`World::foreign_vni`] + [`probe_cross`]). A new workload kind adds
//! a membership rule and a round shape — never a second send path.
//!
//! What the run schedules is data: [`Ev`], one `Copy` variant per kind
//! of happening, each naming its plan entry by position, and
//! [`schedule`] turns a plan into its initial events in plan order.
//!
//! A round or a fire is one DES event, and nothing mutates a host, a
//! driver or the API inside one. So everything that is constant for the
//! event — who takes part, on which VNI, and whether the node's driver
//! admits each of them — is established once at the top of it, the way
//! an RDMA application authenticates when it opens its endpoint; a send
//! is then a message id, `Fabric::transfer` and two bookings. None of
//! it is carried to the next event: a CNI DEL, a service destroy or a
//! rolling update between two rounds is seen by the very next one.

use std::collections::BTreeSet;
use std::rc::Rc;

use shs_des::{Event, Sim, SimDur, SimTime};
use shs_fabric::{FaultKind, SwitchId, TrafficClass, TransferOutcome, Vni};
use shs_k8s::{kinds, spec_of, PodSpec};

use super::report::{self, ScenarioReport};
use super::spec::{ClaimPlan, Fault, JobPlan, Scenario, ServicePlan, TrafficPlan, VniMode};
use crate::cluster::{alpine, Cluster, PodHandle};

/// One round as `(src rank, dst rank, bytes, answered)` sends.
type RoundOps = [(usize, usize, u64, bool)];

pub(super) struct JobTrack {
    pub(super) plan: JobPlan,
    /// The rank pods' names, `<job>-<rank>`: a plan constant.
    pods: Vec<String>,
    /// What one round sends ([`TrafficPattern::round_ops`] of the plan's
    /// ranks and size): a plan constant, shared so a round can walk it
    /// while it books into the world.
    ops: Rc<RoundOps>,
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

/// One participant of a round, as established at the top of its event:
/// where the pod runs and whether its node's CXI driver admits it to
/// the round's VNI. Never kept past the event.
#[derive(Clone, Copy)]
struct Member {
    pod: PodHandle,
    admitted: bool,
}

pub(super) struct World {
    pub(super) cluster: Cluster,
    horizon: SimTime,
    tick: SimDur,
    /// The plan's claims, which [`Ev::ClaimCreate`] and
    /// [`Call::DeleteClaim`] name by position.
    claims: Vec<ClaimPlan>,
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
            claims: scenario.claims.clone(),
            jobs: scenario
                .jobs
                .iter()
                .map(|p| JobTrack {
                    plan: p.clone(),
                    pods: (0..p.ranks).map(|r| format!("{}-{r}", p.name)).collect(),
                    ops: p
                        .traffic
                        .map_or_else(Vec::new, |tp| tp.pattern.round_ops(p.ranks as usize, tp.size))
                        .into(),
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

    /// The member check an RDMA application passes when it opens its
    /// endpoint: does the node's CXI driver admit `pod`'s netns to
    /// `vni`, on the live host and driver state? The engine asks once
    /// per participant per round — the longest a verdict can be trusted
    /// without a cluster-wide change signal, since any other event may
    /// run a CNI DEL or destroy a service.
    fn authed(&self, pod: PodHandle, vni: Vni) -> bool {
        let node = &self.cluster.nodes[pod.node_idx].inner;
        node.device.driver.find_service(&node.host, pod.pid, vni).is_ok()
    }

    /// This event's members: each of `pods` with its driver's verdict
    /// on `vni`, asked where the pod's endpoint would be opened.
    fn admit(&self, pods: impl Iterator<Item = PodHandle>, vni: Vni) -> Vec<Member> {
        pods.map(|pod| Member { pod, admitted: self.authed(pod, vni) }).collect()
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

/// Everything a scenario run schedules, as plain data. A variant names
/// its plan entry (claim, job, service, node) by position in the plan,
/// so an event holds no strings and is `Copy`.
#[derive(Clone, Copy)]
enum Ev {
    /// The control-plane tick, every `scenario.tick` through the horizon.
    Tick,
    /// Create claim `i`.
    ClaimCreate(usize),
    /// Submit job `i`, then start its traffic rounds.
    JobArrival(usize),
    /// Submit service `i`, then start its request generator.
    ServiceArrival(usize),
    /// One traffic round of job `i` ([`traffic_round`]).
    TrafficRound(usize),
    /// One generator fire of service `i` ([`service_round`]).
    ServiceRound(usize),
    /// A by-name cluster call on plan entry `i`.
    Call(Call, usize),
    /// Drain node `i`.
    Drain(usize),
    /// A fabric fault.
    Fabric(FaultKind),
}

/// A by-name cluster call a plan schedules on one of its entries.
#[derive(Clone, Copy)]
enum Call {
    DeleteClaim,
    DeleteJob,
    RollService,
    DeleteService,
}

impl Call {
    /// Make the call on plan entry `i` — a claim, a job or a service,
    /// as the call's kind says.
    fn run(self, w: &mut World, i: usize) {
        let (tenant, name, call): (_, _, fn(&mut Cluster, &str, &str)) = match self {
            Call::DeleteClaim => (&w.claims[i].tenant, &w.claims[i].name, Cluster::delete_claim),
            Call::DeleteJob => (&w.jobs[i].plan.tenant, &w.jobs[i].plan.name, Cluster::delete_job),
            Call::RollService => {
                (&w.services[i].plan.tenant, &w.services[i].plan.name, Cluster::roll_service)
            }
            Call::DeleteService => {
                (&w.services[i].plan.tenant, &w.services[i].plan.name, Cluster::delete_service)
            }
        };
        call(&mut w.cluster, tenant, name);
    }
}

impl Event<World> for Ev {
    fn fire(self, sim: &mut Sim<World, Ev>) {
        let now = sim.now();
        match self {
            Ev::Tick => tick_ev(sim),
            Ev::ClaimCreate(ci) => {
                let w = &mut sim.world;
                w.cluster.create_claim(now, &w.claims[ci].tenant, &w.claims[ci].name);
            }
            Ev::JobArrival(ji) => {
                let w = &mut sim.world;
                let p = &w.jobs[ji].plan;
                w.cluster.submit_job_placed(
                    now,
                    &p.tenant,
                    &p.name,
                    &annotations(&p.vni),
                    p.ranks,
                    &alpine(),
                    p.run_ms,
                    p.pin_nodes.as_deref(),
                );
                if let Some(tp) = p.traffic {
                    sim.schedule_after(tp.interval, Ev::TrafficRound(ji));
                }
            }
            Ev::ServiceArrival(si) => {
                let w = &mut sim.world;
                let p = &w.services[si].plan;
                w.cluster.submit_service(
                    now,
                    &p.tenant,
                    &p.name,
                    &annotations(&p.vni),
                    p.replicas,
                    &alpine(),
                    p.pin_nodes.as_deref(),
                );
                let interval = p.request_interval;
                sim.schedule_after(interval, Ev::ServiceRound(si));
            }
            Ev::TrafficRound(ji) => traffic_round(sim, ji),
            Ev::ServiceRound(si) => service_round(sim, si),
            Ev::Call(call, i) => call.run(&mut sim.world, i),
            Ev::Drain(node) => drain_ev(sim, node),
            Ev::Fabric(kind) => sim.world.cluster.fabric.apply_fault(kind),
        }
    }
}

fn tick_ev(sim: &mut Sim<World, Ev>) {
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
        sim.schedule_after(tick, Ev::Tick);
    }
}

/// Push one message from `src` through the fabric — or count it as
/// refused, if the driver did not admit `src` to `vni` when the round
/// opened — booking the outcome under the message's class and job.
/// Returns the delivery instant so an answered send can chain its reply
/// off the arrival.
#[allow(clippy::too_many_arguments)]
fn send_authorized(
    w: &mut World,
    now: SimTime,
    ji: usize,
    src: Member,
    dst: Member,
    vni: Vni,
    size: u64,
    tc: TrafficClass,
) -> Option<SimTime> {
    let id = w.next_id();
    debug_assert_eq!(src.admitted, w.authed(src.pod, vni), "verdict went stale inside one event");
    if !src.admitted {
        w.m.auth_failures += 1;
        return None;
    }
    let arrival = w.transfer(now, src.pod.node_idx, dst.pod.node_idx, vni, tc, size, id);
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
fn traffic_round(sim: &mut Sim<World, Ev>, ji: usize) {
    let now = sim.now();
    let w = &mut sim.world;
    let p = &w.jobs[ji].plan;
    let Some(tp) = p.traffic else { return };
    if p.delete_at.is_some_and(|d| now >= d) {
        return;
    }
    let complete = job_round(w, now, ji, tp);
    if !complete && now + tp.interval <= w.horizon {
        sim.schedule_after(tp.interval, Ev::TrafficRound(ji));
    }
}

/// One traffic round of job `ji` — skipped, not consumed, unless every
/// planned rank is running (the job's membership rule) and the job is
/// decorated with its VNI. Returns whether the planned rounds are done.
fn job_round(w: &mut World, now: SimTime, ji: usize, tp: TrafficPlan) -> bool {
    let t = &w.jobs[ji];
    let p = &t.plan;
    let running = t.pods.iter().map_while(|pod| w.cluster.pod_handle(&p.tenant, pod));
    let vni = resolve_vni(&w.cluster, &p.vni, &p.tenant, &p.name);
    let ranks = vni.map_or_else(Vec::new, |vni| w.admit(running, vni));
    let (true, Some(vni)) = (ranks.len() == t.pods.len(), vni) else {
        w.m.skipped_rounds += 1;
        return false;
    };
    let ops = Rc::clone(&t.ops);
    w.m.rounds += 1;
    w.jobs[ji].vni_seen = Some(vni);
    for &(src, dst, bytes, answered) in ops.iter() {
        let (src, dst) = (ranks[src], ranks[dst]);
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
        probe_cross(w, now, ranks[0].pod, foreign, tp.tc);
    }
    w.jobs[ji].rounds_done += 1;
    w.jobs[ji].rounds_done >= tp.rounds
}

fn drain_ev(sim: &mut Sim<World, Ev>, node_idx: usize) {
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

/// One TSoR-style round trip: it needs both replicas admitted to the
/// service VNI (both ends hold an RDMA endpoint: the client to send the
/// request, the server to send the response); then the request leg,
/// then the response leg dispatched at the request's arrival instant;
/// the latency sample is the full round trip in virtual time.
fn service_request(w: &mut World, now: SimTime, si: usize, src: Member, dst: Member, vni: Vni) {
    let (req_id, resp_id) = (w.next_id(), w.next_id());
    let t = &mut w.services[si];
    let (tc, req, resp) = (t.plan.tc, t.plan.request_bytes, t.plan.response_bytes);
    t.requests += 1;
    let admitted = src.admitted && dst.admitted;
    debug_assert_eq!(
        admitted,
        w.authed(src.pod, vni) && w.authed(dst.pod, vni),
        "verdict went stale inside one event"
    );
    if !admitted {
        w.services[si].auth_failures += 1;
        return;
    }
    let (src, dst) = (src.pod.node_idx, dst.pod.node_idx);
    let done = w
        .transfer(now, src, dst, vni, tc, req, req_id)
        .and_then(|arrival| w.transfer(arrival, dst, src, vni, tc, resp, resp_id));
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
    // Membership rule: whichever replicas are ready, at least two.
    let ready = w.cluster.service_ready(&plan.tenant, &plan.name);
    let running = ready.iter().filter_map(|p| w.cluster.pod_handle(&plan.tenant, p));
    let vni = resolve_vni(&w.cluster, &plan.vni, &plan.tenant, &plan.name);
    let replicas = vni.map_or_else(Vec::new, |vni| w.admit(running, vni));
    let (Some(vni), true) = (vni, replicas.len() >= 2) else {
        w.services[si].skipped_fires += 1;
        return;
    };
    w.services[si].fires += 1;
    w.services[si].vni_seen = Some(vni);
    let n = replicas.len();
    let mut rr = w.services[si].rr;
    for _ in 0..demand {
        let (src, dst) = (replicas[rr % n], replicas[(rr + 1) % n]);
        rr += 1;
        service_request(w, now, si, src, dst, vni);
    }
    w.services[si].rr = rr % n;
    if let Some(foreign) = w.foreign_vni(vni) {
        probe_cross(w, now, replicas[0].pod, foreign, plan.tc);
    }
}

/// The self-rescheduling generator event behind [`ServicePlan`]'s
/// open-loop arrivals: one fire per interval until the service is
/// deleted or the horizon passes.
fn service_round(sim: &mut Sim<World, Ev>, si: usize) {
    let now = sim.now();
    let w = &mut sim.world;
    let p = &w.services[si].plan;
    let interval = p.request_interval;
    if p.delete_at.is_some_and(|d| now >= d) {
        return;
    }
    service_fire(w, now, si);
    if now + interval <= w.horizon {
        sim.schedule_after(interval, Ev::ServiceRound(si));
    }
}

/// Schedule `call` on plan entry `i` at `at`, if the plan asks for one.
fn at_call(sim: &mut Sim<World, Ev>, at: Option<SimTime>, call: Call, i: usize) {
    if let Some(at) = at {
        sim.schedule(at, Ev::Call(call, i));
    }
}

/// Turn the plan into its initial events: the control-plane tick, then
/// claims, jobs, services and faults in plan order (same-instant events
/// fire in the order scheduled here).
fn schedule(sim: &mut Sim<World, Ev>, scenario: &Scenario) {
    sim.schedule(SimTime::ZERO, Ev::Tick);
    for (ci, claim) in scenario.claims.iter().enumerate() {
        sim.schedule(claim.create_at, Ev::ClaimCreate(ci));
        at_call(sim, claim.delete_at, Call::DeleteClaim, ci);
    }
    for (ji, plan) in scenario.jobs.iter().enumerate() {
        sim.schedule(plan.arrival, Ev::JobArrival(ji));
        at_call(sim, plan.delete_at, Call::DeleteJob, ji);
    }
    for (si, plan) in scenario.services.iter().enumerate() {
        sim.schedule(plan.arrival, Ev::ServiceArrival(si));
        at_call(sim, plan.update_at, Call::RollService, si);
        at_call(sim, plan.delete_at, Call::DeleteService, si);
    }
    for fault in &scenario.faults {
        let (at, ev) = match *fault {
            Fault::DrainNode { node, at } => (at, Ev::Drain(node)),
            Fault::LinkDown { at, a, b } => {
                (at, Ev::Fabric(FaultKind::LinkDown(SwitchId(a), SwitchId(b))))
            }
            Fault::LinkUp { at, a, b } => {
                (at, Ev::Fabric(FaultKind::LinkUp(SwitchId(a), SwitchId(b))))
            }
            Fault::SwitchDown { at, switch } => {
                (at, Ev::Fabric(FaultKind::SwitchDown(SwitchId(switch))))
            }
        };
        sim.schedule(at, ev);
    }
}

/// Execute a scenario end to end; never panics on isolation failures —
/// they are reported in the returned [`ScenarioReport`].
pub fn run_scenario(scenario: &Scenario) -> ScenarioReport {
    let mut sim: Sim<World, Ev> = Sim::typed(World::new(scenario));
    schedule(&mut sim, scenario);
    sim.run_until(scenario.horizon);
    let events_executed = sim.events_executed();
    let isolation = report::audit_isolation(&sim.world, scenario.horizon);
    report::build(scenario, &mut sim.world, events_executed, isolation)
}

#[cfg(test)]
mod tests {
    use shs_cxi::{CxiDevice, CxiServiceDesc, SvcMember};
    use shs_fabric::RoutingPolicy;
    use shs_oslinux::Pid;

    use super::super::library::{dragonfly, job, ms, scenario, service, traffic};
    use super::super::spec::TrafficPattern;
    use super::*;

    const BURST: u32 = 2;
    const SIZE: u64 = 4096;
    /// The rank (and the replica index) whose CXI service gets revoked.
    const VICTIM: usize = 2;
    const TC: TrafficClass = TrafficClass::Dedicated;

    /// A 4-rank job and a 3-replica service, each on its own VNI, driven
    /// to running on a two-group dragonfly. Their own traffic events are
    /// planned past the 5 s bring-up, so every round and fire below is
    /// issued by hand and counted exactly.
    fn running(pattern: TrafficPattern) -> Sim<World, Ev> {
        let never = 600_000;
        let mpi = job("hpc", "mpi", 4, 500, VniMode::Dedicated).sending(traffic(
            u32::MAX,
            never,
            SIZE,
            TC,
            BURST,
            pattern,
        ));
        let web = ServicePlan {
            requests_per_fire: 6,
            ..service("web", "front", 3, never, 512, 1024, 500)
        };
        let sc = Scenario {
            services: vec![web],
            ..scenario(
                "refusal",
                "one job and one service with a pod revoked behind the API's back",
                dragonfly(5, 4, 2, RoutingPolicy::Minimal),
                vec![mpi],
                never,
            )
        };
        let mut sim: Sim<World, Ev> = Sim::typed(World::new(&sc));
        schedule(&mut sim, &sc);
        sim.run_until(ms(5_000));
        let w = &sim.world;
        assert!((0..4).all(|r| w.cluster.pod_handle("hpc", &format!("mpi-{r}")).is_some()));
        assert_eq!(w.cluster.service_ready("web", "front").len(), 3);
        assert_eq!((w.m.rounds, w.services[0].fires), (0, 0), "nothing sent during bring-up");
        sim
    }

    /// Destroy `pod`'s CXI service straight on its node's driver, as
    /// root — not through the API, so the pod still resolves and the
    /// engine still sees a full rank set. Returns what it takes to put
    /// the service back.
    fn revoke(w: &mut World, pod: PodHandle) -> CxiServiceDesc {
        let node = &mut w.cluster.nodes[pod.node_idx].inner;
        let root = node.host.credentials(Pid(1)).unwrap();
        let member = SvcMember::NetNs(pod.netns);
        let CxiDevice { driver, nic } = &mut node.device;
        let svc = driver.services().iter().find(|s| s.members.contains(&member)).unwrap();
        let desc = CxiServiceDesc {
            members: svc.members.clone(),
            vnis: svc.vnis.clone(),
            limits: svc.limits,
            label: svc.label.clone(),
        };
        let gone =
            driver.svc_destroy_matching(&root, nic, |s| s.members.contains(&member)).unwrap();
        assert_eq!(gone.len(), 1, "one netns-member service per pod");
        desc
    }

    fn restore(w: &mut World, pod: PodHandle, desc: CxiServiceDesc) {
        let node = &mut w.cluster.nodes[pod.node_idx].inner;
        let root = node.host.credentials(Pid(1)).unwrap();
        node.device.alloc_svc(&root, desc).unwrap();
    }

    fn rank(w: &World, r: usize) -> PodHandle {
        w.cluster.pod_handle("hpc", &format!("mpi-{r}")).unwrap()
    }

    fn replica(w: &World, i: usize) -> PodHandle {
        let ready = w.cluster.service_ready("web", "front");
        w.cluster.pod_handle("web", &ready[i]).unwrap()
    }

    /// Everything a round or a fire may move, as one comparable value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Books {
        msg_id: u64,
        rounds: u64,
        job_refused: u64,
        /// (sends, delivered, dropped, bytes) of job 0 and of [`TC`].
        job: (u64, u64, u64, u64),
        class: (u64, u64, u64, u64),
        other_class_sends: u64,
        /// (attempts, denied, deliveries) of the cross-tenant probe.
        cross: (u64, u64, u64),
        svc: SvcBooks,
    }

    /// Service 0's counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct SvcBooks {
        fires: u64,
        requests: u64,
        completed: u64,
        dropped: u64,
        refused: u64,
        payload_bytes: u64,
        latency_samples: usize,
    }

    fn books(w: &World) -> Books {
        let agg = |a: &ClassAgg| (a.sends, a.delivered, a.dropped, a.bytes);
        let s = &w.services[0];
        Books {
            msg_id: w.msg_id,
            rounds: w.m.rounds,
            job_refused: w.m.auth_failures,
            job: agg(&w.m.per_job[0]),
            class: agg(&w.m.class[TC.index()]),
            other_class_sends: w.m.class.iter().map(|c| c.sends).sum::<u64>()
                - w.m.class[TC.index()].sends,
            cross: (w.m.cross_attempts, w.m.cross_denied, w.m.cross_deliveries),
            svc: SvcBooks {
                fires: s.fires,
                requests: s.requests,
                completed: s.completed,
                dropped: s.dropped,
                refused: s.auth_failures,
                payload_bytes: s.payload_bytes,
                latency_samples: s.latencies.len(),
            },
        }
    }

    /// One hand-issued round of job 0; returns the books after it.
    fn round(w: &mut World, now: SimTime) -> Books {
        let tp = w.jobs[0].plan.traffic.unwrap();
        assert!(!job_round(w, now, 0, tp), "u32::MAX rounds are never done");
        books(w)
    }

    /// `before` moved by one round of `attempted` legs, `refused` of
    /// them refused at the driver and the rest delivered with `bytes`
    /// each, plus the round's one (denied) cross-tenant probe.
    fn after_round(before: Books, attempted: u64, refused: u64, bytes: u64) -> Books {
        let sent = attempted - refused;
        let add = |(s, d, x, b): (u64, u64, u64, u64)| (s + sent, d + sent, x, b + sent * bytes);
        Books {
            msg_id: before.msg_id + attempted + 1,
            rounds: before.rounds + 1,
            job_refused: before.job_refused + refused,
            job: add(before.job),
            class: add(before.class),
            cross: (before.cross.0 + 1, before.cross.1 + 1, before.cross.2),
            ..before
        }
    }

    #[test]
    fn a_revoked_rank_is_refused_leg_by_leg_and_nobody_else_is() {
        // (pattern, legs attempted, legs refused, bytes per leg) of one
        // round at burst 2 with rank 2 of 4 revoked.
        for (pattern, attempted, refused, bytes) in [
            // 4 ring sends x 2; rank 2's own two are refused.
            (TrafficPattern::Ring, 8, 2, SIZE),
            // Ranks 1..=3 into rank 0, x 2.
            (TrafficPattern::Incast, 6, 2, SIZE),
            // 2 (n - 1) n = 24 chunk sends x 2, six per rank.
            (TrafficPattern::Allreduce, 48, 12, SIZE / 4),
            // 8 requests; rank 2's two are refused and so never
            // answered, the other six are, and rank 2 owes two of those
            // responses (to rank 1): 14 legs, 4 refused.
            (TrafficPattern::RequestResponse, 14, 4, SIZE),
        ] {
            let mut sim = running(pattern);
            let (now, w) = (sim.now(), &mut sim.world);
            let victim = rank(w, VICTIM);
            revoke(w, victim);
            let before = books(w);
            let after = round(w, now);
            assert_eq!(after, after_round(before, attempted, refused, bytes), "{pattern:?}");
            assert_eq!(after.cross.2, 0, "{pattern:?}: no probe delivered");
            assert!(rank(w, VICTIM) == victim, "the pod itself is untouched");
        }
    }

    #[test]
    fn a_revoked_replica_fails_every_request_it_is_either_end_of() {
        let mut sim = running(TrafficPattern::Ring);
        let (now, w) = (sim.now(), &mut sim.world);
        let victim = replica(w, 1);
        revoke(w, victim);
        let before = books(w);
        // Six requests round-robin over the pairs (0,1) (1,2) (2,0)
        // twice: replica 1 is the server of the first and the client of
        // the second, so four are refused and two complete. Every
        // request draws its two message ids before it is judged.
        service_fire(w, now, 0);
        let after = books(w);
        let expect = Books {
            msg_id: before.msg_id + 12 + 1,
            cross: (before.cross.0 + 1, before.cross.1 + 1, 0),
            svc: SvcBooks {
                fires: 1,
                requests: 6,
                completed: 2,
                dropped: 0,
                refused: 4,
                payload_bytes: 2 * (512 + 1024),
                latency_samples: 2,
            },
            ..before
        };
        assert_eq!(after, expect);
        // One request per fire walks the same pairs one at a time: the
        // victim as server, the victim as client, then a pair without it.
        w.services[0].plan.requests_per_fire = 1;
        for (fire, refused, completed) in [(2, 5, 2), (3, 6, 2), (4, 6, 3)] {
            service_fire(w, now, 0);
            let s = books(w).svc;
            assert_eq!((s.fires, s.refused, s.completed), (fire, refused, completed));
        }
        assert_eq!(books(w).job_refused, before.job_refused, "service refusals are the service's");
    }

    /// The rule the engine's data path rests on: a verdict is good for
    /// the event that computed it and not a moment longer. Driver state
    /// changed between two rounds of one job is seen by the very next
    /// round, in both directions.
    #[test]
    fn a_verdict_never_outlives_the_round_that_computed_it() {
        let mut sim = running(TrafficPattern::Ring);
        let (now, w) = (sim.now(), &mut sim.world);
        let step = SimDur::from_millis(10);
        let rest = books(w);
        let clean = round(w, now);
        assert_eq!(clean, after_round(rest, 8, 0, SIZE), "round k - 1: delivered");
        let victim = rank(w, VICTIM);
        let desc = revoke(w, victim);
        let refused = round(w, now + step);
        assert_eq!(refused, after_round(clean, 8, 2, SIZE), "round k: refused");
        restore(w, victim, desc);
        let healed = round(w, now + step + step);
        assert_eq!(healed, after_round(refused, 8, 0, SIZE), "round k + 1: delivered");
    }
}
