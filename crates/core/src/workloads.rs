//! Canonical benchmark workloads (VNI database and fabric), timed by
//! the `bench-run` trajectory binary (`shs-harness`) and probed by
//! `sysbench`. One definition of each workload means both always time
//! **the same thing** — tune a prefill count or clock step here and
//! both pick it up, keeping cross-PR comparisons in
//! `results/BENCH_pr<N>.json` like-for-like.
//!
//! The two VNI-database workloads run at the default range width
//! (3072, §III-C1's VNI space minus the reserved global VNI); the
//! fabric workload runs on a 3-group dragonfly topology; the three
//! control-plane workloads ([`ClusterTickIdleWorkload`],
//! [`run_admission_spike`], [`SchedulerPollPendingWorkload`]) run on the
//! paper's 2-node testbed.

use std::collections::VecDeque;

use shs_des::{SimDur, SimTime};
use shs_fabric::{
    CostModel, Fabric, NicAddr, RoutingPolicy, SwitchId, TopologySpec, TrafficClass,
    TransferOutcome, Vni,
};
use shs_k8s::{kinds, make_node, ApiObject, ApiServer, Pleg, PodPhase, Scheduler};

use crate::cluster::{alpine, Cluster, ClusterConfig};
use crate::sharded_db::ShardedVniDb;
use crate::vni_db::{VniDb, VniDbConfig, VniOwner};

/// Allocate/release cycles with the clock pinned at t=0: released VNIs
/// pile up in quarantine (a teardown storm inside one 30 s window), so
/// the allocator must get past an ever-growing quarantined prefix.
/// Nothing ever becomes reusable at a pinned clock, so once the range
/// is exhausted (every 3072 steps) the workload resets to a fresh
/// database and the backlog profile restarts — any sample budget is
/// safe.
#[derive(Debug)]
pub struct AcquireReleaseWorkload {
    db: VniDb,
    i: u64,
    epoch_steps: u64,
}

impl AcquireReleaseWorkload {
    /// Fresh database at the default range width.
    pub fn new() -> Self {
        AcquireReleaseWorkload { db: VniDb::new(VniDbConfig::default()), i: 0, epoch_steps: 0 }
    }

    /// One acquire + release for a fresh owner.
    pub fn step(&mut self) -> Vni {
        if self.epoch_steps >= VniDbConfig::default().range.len() as u64 {
            // Every VNI is now quarantined at the pinned clock: restart
            // the epoch instead of panicking on Exhausted.
            self.db = VniDb::new(VniDbConfig::default());
            self.epoch_steps = 0;
        }
        let owner = VniOwner::Job { key: format!("ns/j{}", self.i) };
        self.i += 1;
        self.epoch_steps += 1;
        let vni = self.db.acquire(owner, SimTime::ZERO).expect("capacity");
        self.db.release(vni, SimTime::ZERO).expect("release");
        vni
    }

    /// The database under measurement (counter inspection).
    pub fn db(&self) -> &VniDb {
        &self.db
    }
}

impl Default for AcquireReleaseWorkload {
    fn default() -> Self {
        Self::new()
    }
}

/// The high-occupancy hot path: [`ChurnHotWorkload::STANDING`] of the
/// 3072 default-range VNIs are held by standing tenants while one job
/// churns through the remainder, the clock stepping past the 30 s
/// quarantine each cycle — every acquire must get past the standing
/// allocations to the single reusable VNI.
#[derive(Debug)]
pub struct ChurnHotWorkload {
    db: VniDb,
    now: SimTime,
    i: u64,
}

impl ChurnHotWorkload {
    /// VNIs held by standing tenants for the whole workload.
    pub const STANDING: u64 = 3000;

    /// Database prefilled with the standing allocations.
    pub fn new() -> Self {
        let mut db = VniDb::new(VniDbConfig::default());
        for i in 0..Self::STANDING {
            db.acquire(VniOwner::Job { key: format!("standing/s{i}") }, SimTime::ZERO)
                .expect("prefill capacity");
        }
        ChurnHotWorkload { db, now: SimTime::ZERO, i: 0 }
    }

    /// One churn cycle: advance past the quarantine window, acquire for
    /// a fresh owner, release immediately.
    pub fn step(&mut self) -> Vni {
        self.now += SimDur::from_secs(31);
        let owner = VniOwner::Job { key: format!("hot/h{}", self.i) };
        self.i += 1;
        let vni = self.db.acquire(owner, self.now).expect("capacity");
        self.db.release(vni, self.now).expect("release");
        vni
    }

    /// The database under measurement (counter inspection).
    pub fn db(&self) -> &VniDb {
        &self.db
    }
}

impl Default for ChurnHotWorkload {
    fn default() -> Self {
        Self::new()
    }
}

/// The multi-switch fabric hot path: message transfers across a 3-group
/// × 2-switch dragonfly (12 NICs, one shared VNI), cycling sources,
/// destinations and traffic classes so every step exercises routing,
/// edge-link reservation and the per-class trunk scheduler. The clock
/// advances a fixed 2 µs per step, keeping link backlogs bounded and the
/// step cost flat over any sample budget.
#[derive(Debug)]
pub struct FabricTransferHotWorkload {
    fabric: Fabric,
    now: SimTime,
    i: u64,
}

impl FabricTransferHotWorkload {
    /// NICs attached round-robin across the six switches.
    pub const NICS: u32 = 12;

    /// Payload bytes per transfer (two MTUs).
    pub const SIZE: u64 = 4096;

    /// Fresh fabric with every NIC granted the measurement VNI.
    pub fn new() -> Self {
        let spec = TopologySpec { groups: 3, switches_per_group: 2, edge_ports: 4 };
        let mut fabric =
            Fabric::with_topology(CostModel::default(), spec, RoutingPolicy::Minimal);
        let switches = spec.total_switches();
        for i in 0..Self::NICS {
            let nic = NicAddr(i + 1);
            fabric.attach_to(nic, SwitchId(i as usize % switches));
            fabric.grant_vni(nic, Vni(7)).expect("just attached");
        }
        FabricTransferHotWorkload { fabric, now: SimTime::ZERO, i: 0 }
    }

    /// One transfer between a deterministically cycling NIC pair.
    pub fn step(&mut self) -> TransferOutcome {
        let n = Self::NICS as u64;
        let src = self.i % n;
        let dst = (src + 1 + (self.i * 5) % (n - 1)) % n;
        let tc = TrafficClass::ALL[(self.i % 4) as usize];
        self.now += SimDur::from_micros(2);
        self.i += 1;
        self.fabric.transfer(
            self.now,
            NicAddr(src as u32 + 1),
            NicAddr(dst as u32 + 1),
            Vni(7),
            tc,
            Self::SIZE,
            self.i,
        )
    }

    /// The fabric under measurement (counter inspection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

impl Default for FabricTransferHotWorkload {
    fn default() -> Self {
        Self::new()
    }
}

/// The adaptive-routing twin of [`FabricTransferHotWorkload`]: the same
/// 12-NIC cycling and 2 µs clock step on the same 3-group dragonfly,
/// but under [`RoutingPolicy::Adaptive`] — so every step pays the UGAL
/// queue-compare (minimal vs. salted Valiant) at injection on top of
/// routing, edge-link reservation and the per-class trunk scheduler.
/// The `fabric_adaptive_hot` bench row keeps that premium visible next
/// to the static `fabric_transfer_hot` baseline.
#[derive(Debug)]
pub struct FabricAdaptiveHotWorkload {
    fabric: Fabric,
    now: SimTime,
    i: u64,
}

impl FabricAdaptiveHotWorkload {
    /// NICs attached round-robin across the six switches.
    pub const NICS: u32 = FabricTransferHotWorkload::NICS;

    /// Payload bytes per transfer (two MTUs).
    pub const SIZE: u64 = FabricTransferHotWorkload::SIZE;

    /// Fresh adaptive fabric with every NIC granted the measurement VNI.
    pub fn new() -> Self {
        let spec = TopologySpec { groups: 3, switches_per_group: 2, edge_ports: 4 };
        let mut fabric =
            Fabric::with_topology(CostModel::default(), spec, RoutingPolicy::Adaptive);
        let switches = spec.total_switches();
        for i in 0..Self::NICS {
            let nic = NicAddr(i + 1);
            fabric.attach_to(nic, SwitchId(i as usize % switches));
            fabric.grant_vni(nic, Vni(7)).expect("just attached");
        }
        FabricAdaptiveHotWorkload { fabric, now: SimTime::ZERO, i: 0 }
    }

    /// One transfer between a deterministically cycling NIC pair.
    pub fn step(&mut self) -> TransferOutcome {
        let n = Self::NICS as u64;
        let src = self.i % n;
        let dst = (src + 1 + (self.i * 5) % (n - 1)) % n;
        let tc = TrafficClass::ALL[(self.i % 4) as usize];
        self.now += SimDur::from_micros(2);
        self.i += 1;
        self.fabric.transfer(
            self.now,
            NicAddr(src as u32 + 1),
            NicAddr(dst as u32 + 1),
            Vni(7),
            tc,
            Self::SIZE,
            self.i,
        )
    }

    /// The fabric under measurement (counter inspection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

impl Default for FabricAdaptiveHotWorkload {
    fn default() -> Self {
        Self::new()
    }
}

/// The serving-plane data path behind the `service_mesh_hot` bench row:
/// TSoR-style request/response round trips between
/// [`ServiceMeshHotWorkload::REPLICAS`] replica NICs spread over the
/// same 3-group dragonfly as [`FabricTransferHotWorkload`]. Each step
/// is the two-leg RPC the scenario engine's
/// [`TrafficPattern::RequestResponse`] issues: the request transfers at
/// `now`, the response departs at the request's arrival instant, and
/// the step returns the round-trip latency — so the row times routing,
/// edge-link reservation and the low-latency trunk class twice per op,
/// plus the virtual-time composition of the two legs.
///
/// [`TrafficPattern::RequestResponse`]:
///     crate::scenario::TrafficPattern::RequestResponse
#[derive(Debug)]
pub struct ServiceMeshHotWorkload {
    fabric: Fabric,
    now: SimTime,
    i: u64,
}

impl ServiceMeshHotWorkload {
    /// Replica NICs attached round-robin across the six switches.
    pub const REPLICAS: u32 = 8;

    /// Request payload bytes (one MTU).
    pub const REQUEST: u64 = 2048;

    /// Response payload bytes (two MTUs).
    pub const RESPONSE: u64 = 4096;

    /// Fresh fabric with every replica granted the service VNI.
    pub fn new() -> Self {
        let spec = TopologySpec { groups: 3, switches_per_group: 2, edge_ports: 4 };
        let mut fabric =
            Fabric::with_topology(CostModel::default(), spec, RoutingPolicy::Minimal);
        let switches = spec.total_switches();
        for i in 0..Self::REPLICAS {
            let nic = NicAddr(i + 1);
            fabric.attach_to(nic, SwitchId(i as usize % switches));
            fabric.grant_vni(nic, Vni(9)).expect("just attached");
        }
        ServiceMeshHotWorkload { fabric, now: SimTime::ZERO, i: 0 }
    }

    /// One request/response round trip between the next round-robin
    /// replica pair; `Some(round_trip_ns)` when both legs delivered.
    pub fn step(&mut self) -> Option<u64> {
        let n = u64::from(Self::REPLICAS);
        let src = NicAddr((self.i % n) as u32 + 1);
        let dst = NicAddr(((self.i + 1) % n) as u32 + 1);
        self.now += SimDur::from_micros(2);
        self.i += 1;
        let req = self.fabric.transfer(
            self.now,
            src,
            dst,
            Vni(9),
            TrafficClass::LowLatency,
            Self::REQUEST,
            2 * self.i,
        );
        let TransferOutcome::Delivered { arrival, .. } = req else { return None };
        let resp = self.fabric.transfer(
            arrival,
            dst,
            src,
            Vni(9),
            TrafficClass::LowLatency,
            Self::RESPONSE,
            2 * self.i + 1,
        );
        let TransferOutcome::Delivered { arrival: done, .. } = resp else { return None };
        Some((done - self.now).as_nanos())
    }

    /// The fabric under measurement (counter inspection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

impl Default for ServiceMeshHotWorkload {
    fn default() -> Self {
        Self::new()
    }
}

/// The status-read pair behind the `pleg_status_read_*` /
/// `pod_scan_status_read_*` bench rows: a cluster of `pods` Running
/// pods spread over [`PlegStatusReadWorkload::GROUPS`] services, read
/// either through the PLEG cache ([`cached_read`] — a per-phase counter
/// lookup plus one group's ready count, O(1) in the pod count) or by
/// the pre-PLEG full pod scan ([`scan_read`] — O(pods)). Benchmarked at
/// 100 and 10,000 pods, the cached median must stay flat while the scan
/// median grows linearly — the serving plane's O(1) acceptance record.
///
/// [`cached_read`]: PlegStatusReadWorkload::cached_read
/// [`scan_read`]: PlegStatusReadWorkload::scan_read
#[derive(Debug)]
pub struct PlegStatusReadWorkload {
    api: ApiServer,
    pleg: Pleg,
    groups: Vec<String>,
    i: u64,
}

impl PlegStatusReadWorkload {
    /// Service groups the pods are spread over.
    pub const GROUPS: u64 = 8;

    /// A settled cluster of `pods` Running pods, PLEG synced once.
    pub fn new(pods: u64) -> Self {
        let groups: Vec<String> = (0..Self::GROUPS).map(|g| format!("svc{g}")).collect();
        let mut api = ApiServer::default();
        for i in 0..pods {
            let group = &groups[(i % Self::GROUPS) as usize];
            let name = format!("{group}-{i}");
            api.create(
                ApiObject::new(
                    kinds::POD,
                    "bench",
                    &name,
                    serde_json::json!({"image": "x", "job_name": group}),
                ),
                SimTime::ZERO,
            )
            .expect("fresh pod name");
            api.mutate(kinds::POD, "bench", &name, |o| {
                o.status = serde_json::json!({"phase": "Running", "started_at_ns": i});
            })
            .expect("just created");
        }
        let mut pleg = Pleg::new();
        pleg.sync(&api);
        PlegStatusReadWorkload { api, pleg, groups, i: 0 }
    }

    /// One cached status read: the cluster-wide Running count plus the
    /// next round-robin group's ready count — the reads `Cluster`
    /// status queries issue every control-plane tick.
    pub fn cached_read(&mut self) -> u64 {
        let group = &self.groups[(self.i % Self::GROUPS) as usize];
        self.i += 1;
        self.pleg.count(PodPhase::Running) + self.pleg.ready_count("bench", group) as u64
    }

    /// The same answer computed the pre-PLEG way: a full pod scan.
    pub fn scan_read(&mut self) -> u64 {
        let group = &self.groups[(self.i % Self::GROUPS) as usize];
        self.i += 1;
        let snap = Pleg::scan(&self.api);
        let ready =
            snap.groups.get(&format!("bench/{group}")).map_or(0, |g| g.ready.len() as u64);
        snap.phase_counts[1] + ready
    }

    /// Total pods in the cluster under measurement.
    pub fn pod_count(&self) -> u64 {
        self.pleg.pod_count()
    }
}

/// The control-plane cadence every cluster workload ticks at.
const TICK: SimDur = SimDur::from_millis(20);

/// The idle control-plane tick behind the `cluster_tick_idle_<N>pods`
/// bench row: the 2-node testbed with `pods` single-pod jobs that run
/// until killed, settled so that nothing is queued, due or changing.
/// One [`step`] is one [`Cluster::tick`] — five controllers, the
/// scheduler, two kubelets and the PLEG sync finding no work. Its cost
/// must not depend on `pods`.
///
/// [`step`]: ClusterTickIdleWorkload::step
pub struct ClusterTickIdleWorkload {
    cluster: Cluster,
    now: SimTime,
}

impl ClusterTickIdleWorkload {
    /// Submit `pods` run-forever jobs and tick until all are Running.
    pub fn new(pods: usize) -> Self {
        let mut cluster = Cluster::new(ClusterConfig::default());
        for i in 0..pods {
            cluster.submit_job(SimTime::ZERO, "bench", &format!("idle-{i:03}"), &[], 1, &alpine(), None);
        }
        let mut now = SimTime::ZERO;
        while cluster.pods_in_phase(PodPhase::Running) < pods {
            now = cluster.run_until(now, now + SimDur::from_secs(1), TICK);
            assert!(now < SimTime::from_nanos(3_600_000_000_000), "{pods} idle pods never settled");
        }
        ClusterTickIdleWorkload { cluster, now }
    }

    /// One idle tick.
    pub fn step(&mut self) {
        self.now += TICK;
        self.cluster.tick(self.now);
    }

    /// The settled cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }
}

/// What one [`run_admission_spike`] did (all deterministic in the seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionSpikeRun {
    /// Control-plane ticks until the last pod object was reaped.
    pub ticks: u64,
    /// Pods started, summed over the kubelets.
    pub pods_started: u64,
    /// Pods marked Failed, summed over the kubelets.
    pub pods_failed: u64,
}

/// The paper's Fig. 11 spike behind the `admission_spike_<N>` bench
/// row: `jobs` single-pod 10 ms jobs submitted at t=0 on the 2-node
/// testbed (with the `vni: true` annotation when `vni`), ticked until
/// every job has been admitted, has completed, and its pod has been torn
/// down and reaped. One call is the whole control plane end to end.
pub fn run_admission_spike(jobs: usize, vni: bool, seed: u64) -> AdmissionSpikeRun {
    let mut cluster = Cluster::new(ClusterConfig { seed, ..Default::default() });
    let annotations: &[(&str, &str)] = if vni { &[("vni", "true")] } else { &[] };
    for i in 0..jobs {
        cluster.submit_job(SimTime::ZERO, "bench", &format!("job-{i:03}"), annotations, 1, &alpine(), Some(10));
    }
    // Only the Node objects outlive the spike.
    let (mut now, mut ticks) = (SimTime::ZERO, 0u64);
    while cluster.api.object_count() > cluster.nodes.len() {
        now += TICK;
        cluster.tick(now);
        ticks += 1;
        assert!(now < SimTime::from_nanos(3_600_000_000_000), "{jobs}-job spike never drained");
    }
    let counters = || cluster.nodes.iter().map(|n| n.kubelet.counters);
    AdmissionSpikeRun {
        ticks,
        pods_started: counters().map(|c| c.pods_started).sum(),
        pods_failed: counters().map(|c| c.pods_failed).sum(),
    }
}

/// One scheduler pass over pods that stay pending behind full nodes —
/// what every tick of a spike pays while it waits for capacity — behind
/// the `scheduler_poll_<N>pending` bench row. Two ready nodes of
/// `pending / 2` seats each are filled by the first poll, leaving
/// `pending` pods unschedulable. One [`step`] writes one bound pod's
/// status (so the watch stream is not empty, as on any tick where
/// something happened) and polls: one event ingested, `pending` pods
/// tried and left pending, nothing listed.
///
/// [`step`]: SchedulerPollPendingWorkload::step
#[derive(Debug)]
pub struct SchedulerPollPendingWorkload {
    api: ApiServer,
    scheduler: Scheduler,
    pending: u64,
    i: u64,
}

impl SchedulerPollPendingWorkload {
    /// `2 * pending` pods over two nodes with `pending` seats in total.
    pub fn new(pending: u64) -> Self {
        let mut api = ApiServer::default();
        for n in 0..2 {
            api.create(make_node(&format!("node{n}"), (pending / 2) as u32), SimTime::ZERO)
                .expect("fresh node name");
        }
        for i in 0..2 * pending {
            let pod = ApiObject::new(kinds::POD, "bench", &format!("p{i:04}"), serde_json::json!({"image": "x"}));
            api.create(pod, SimTime::ZERO).expect("fresh pod name");
        }
        let mut scheduler = Scheduler::new();
        scheduler.poll(&mut api, SimTime::ZERO);
        assert_eq!(scheduler.pending() as u64, pending, "full nodes leave half the pods pending");
        SchedulerPollPendingWorkload { api, scheduler, pending, i: 0 }
    }

    /// One status write on a bound pod, then one scheduler pass.
    pub fn step(&mut self) -> usize {
        // Pods bind in name order, so the first `pending` names are bound.
        let name = format!("p{:04}", self.i % self.pending);
        self.i += 1;
        self.api
            .mutate(kinds::POD, "bench", &name, |o| o.status = serde_json::json!({"phase": "Running"}))
            .expect("bound pod exists");
        self.scheduler.poll(&mut self.api, SimTime::ZERO);
        self.scheduler.pending()
    }
}

/// The control-plane stress workload behind the `vni_stress` scenarios
/// and bench rows: a rolling population of tenants churning through the
/// widest legal VNI range (1024..65535) against a [`ShardedVniDb`] in
/// group-commit mode.
///
/// Each step advances the clock 100 ms and performs exactly one
/// successful control-plane transaction: while the live population is
/// below half the range, a **fresh tenant** acquires; at capacity the
/// **oldest live tenant** releases — so steady state alternates
/// acquire/release, quarantine continuously recycles VNIs (the 30 s
/// window spans 300 steps, far below the free slack), and the audit log
/// grows by one entry per step. Every [`VniStressWorkload::FLUSH_EVERY`]
/// steps the open batch group-commits — one WAL record and one fsync
/// per shard per window.
///
/// Everything is derived from the step index, so runs are deterministic
/// and — because the facade preserves single-store allocation order —
/// identical at any shard count.
#[derive(Debug)]
pub struct VniStressWorkload {
    db: ShardedVniDb,
    now: SimTime,
    tenants: u64,
    next_tenant: u64,
    live: VecDeque<(u64, Vni)>,
    cap: usize,
    ops: u64,
    exhaustions: u64,
}

impl VniStressWorkload {
    /// Steps per group-commit window.
    pub const FLUSH_EVERY: u64 = 64;

    /// The stress range: the full VNI space above the reserved global
    /// VNI (§III-C1), minus the all-ones value.
    pub const RANGE: core::ops::Range<u16> = 1024..65535;

    /// Fresh workload: `tenants` distinct tenant identities cycled over
    /// `shards` store shards.
    pub fn new(shards: usize, tenants: u64) -> Self {
        Self::with_config(
            shards,
            tenants,
            VniDbConfig { range: Self::RANGE, quarantine: SimDur::from_secs(30) },
        )
    }

    /// Like [`VniStressWorkload::new`] with an explicit database config
    /// (tests use narrow ranges to reach quarantine pressure quickly).
    pub fn with_config(shards: usize, tenants: u64, config: VniDbConfig) -> Self {
        let tenants = tenants.max(1);
        // Capping the live population at the tenant count keeps every
        // cycled id released before its identity comes around again, so
        // each acquire is genuinely fresh (not an idempotent re-read).
        let cap = (config.range.len() / 2).clamp(1, tenants as usize);
        let mut db = ShardedVniDb::new(config, shards);
        db.group_begin();
        VniStressWorkload {
            db,
            now: SimTime::ZERO,
            tenants,
            next_tenant: 0,
            live: VecDeque::new(),
            cap,
            ops: 0,
            exhaustions: 0,
        }
    }

    /// One control-plane transaction (see the type docs), plus a group
    /// flush at window boundaries.
    pub fn step(&mut self) {
        self.now += SimDur::from_millis(100);
        if self.live.len() >= self.cap {
            self.release_oldest();
        } else {
            let id = self.next_tenant % self.tenants;
            self.next_tenant += 1;
            let owner = VniOwner::Job { key: format!("stress/t{id}") };
            match self.db.acquire(owner, self.now) {
                Ok(vni) => self.live.push_back((id, vni)),
                Err(_) => {
                    // Quarantine backlog ate the slack (cannot happen at
                    // the documented parameters, but the workload must
                    // make progress at any): fall back to a release.
                    self.exhaustions += 1;
                    self.release_oldest();
                }
            }
        }
        self.ops += 1;
        if self.ops.is_multiple_of(Self::FLUSH_EVERY) {
            self.db.group_flush();
        }
    }

    fn release_oldest(&mut self) {
        if let Some((_, vni)) = self.live.pop_front() {
            self.db.release(vni, self.now).expect("live VNI releases");
        }
    }

    /// Flush and close the group, returning the database and the final
    /// clock for end-state inspection.
    pub fn finish(mut self) -> (ShardedVniDb, SimTime, u64, u64) {
        self.db.group_end();
        (self.db, self.now, self.ops, self.exhaustions)
    }

    /// The database under measurement (counter inspection).
    pub fn db(&self) -> &ShardedVniDb {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_steps_use_distinct_owners() {
        let mut w = AcquireReleaseWorkload::new();
        let a = w.step();
        let b = w.step();
        // At a pinned clock the released VNI stays quarantined, so each
        // step moves to the next free VNI.
        assert_ne!(a, b);
        assert_eq!(w.db().counters().acquires, 2);
    }

    #[test]
    fn acquire_release_survives_range_exhaustion_by_resetting() {
        // 3072 steps quarantine the whole default range; step 3073 must
        // roll into a fresh epoch instead of panicking (bench sample
        // budgets should never be able to abort a measurement run).
        let mut w = AcquireReleaseWorkload::new();
        let first = w.step();
        for _ in 0..3_071 {
            w.step(); // finish the first epoch: all 3072 VNIs quarantined
        }
        assert_eq!(w.step(), first, "fresh epoch restarts at the range base");
    }

    #[test]
    fn fabric_transfer_hot_delivers_and_spans_switches() {
        let mut w = FabricTransferHotWorkload::new();
        let mut delivered = 0;
        for _ in 0..200 {
            if matches!(w.step(), TransferOutcome::Delivered { .. }) {
                delivered += 1;
            }
        }
        assert!(delivered > 150, "the hot loop mostly delivers: {delivered}/200");
        let t = w.fabric().traffic(Vni(7));
        assert!(
            t.switch_hops > t.messages,
            "pairs must cross switches ({} hops / {} msgs)",
            t.switch_hops,
            t.messages
        );
        // Deterministic: a fresh workload replays the same outcomes.
        let mut w2 = FabricTransferHotWorkload::new();
        for _ in 0..200 {
            w2.step();
        }
        assert_eq!(w2.fabric().traffic(Vni(7)).messages, t.messages);
    }

    #[test]
    fn fabric_adaptive_hot_delivers_and_is_deterministic() {
        let mut w = FabricAdaptiveHotWorkload::new();
        let mut delivered = 0;
        for _ in 0..200 {
            if matches!(w.step(), TransferOutcome::Delivered { .. }) {
                delivered += 1;
            }
        }
        assert!(delivered > 150, "the adaptive hot loop mostly delivers: {delivered}/200");
        let t = w.fabric().traffic(Vni(7));
        assert!(t.switch_hops > t.messages, "pairs must cross switches");
        // Deterministic: a fresh workload replays the same outcomes, so
        // the bench row is stable across samples.
        let mut w2 = FabricAdaptiveHotWorkload::new();
        for _ in 0..200 {
            w2.step();
        }
        assert_eq!(w2.fabric().traffic(Vni(7)), t);
    }

    #[test]
    fn service_mesh_hot_round_trips_and_is_deterministic() {
        let mut w = ServiceMeshHotWorkload::new();
        let run = |w: &mut ServiceMeshHotWorkload| {
            let mut completed = 0u64;
            let mut total_ns = 0u64;
            for _ in 0..200 {
                if let Some(ns) = w.step() {
                    completed += 1;
                    total_ns += ns;
                }
            }
            (completed, total_ns)
        };
        let (completed, total_ns) = run(&mut w);
        assert!(completed > 150, "the mesh hot loop mostly completes: {completed}/200");
        let t = w.fabric().traffic(Vni(9));
        assert_eq!(t.messages, 2 * completed, "two delivered legs per round trip");
        // The round trip is two one-way latencies: strictly above one
        // unloaded hop, and the response leg really departed at the
        // request's arrival (total round trips sum both legs).
        assert!(total_ns / completed > w.fabric().unloaded_ns(64));
        // Deterministic: a fresh workload replays the same outcomes.
        let mut w2 = ServiceMeshHotWorkload::new();
        assert_eq!(run(&mut w2), (completed, total_ns));
    }

    #[test]
    fn control_plane_workloads_settle_and_repeat() {
        let mut idle = ClusterTickIdleWorkload::new(40);
        let requests = idle.cluster().api.requests;
        for _ in 0..50 {
            idle.step();
        }
        assert_eq!(idle.cluster().api.requests, requests, "an idle tick writes nothing");
        assert_eq!(idle.cluster().pods_in_phase(PodPhase::Running), 40);

        let spike = run_admission_spike(30, true, 9);
        assert_eq!((spike.pods_started, spike.pods_failed), (30, 0));
        assert_eq!(spike, run_admission_spike(30, true, 9), "deterministic in the seed");

        let mut sched = SchedulerPollPendingWorkload::new(100);
        for _ in 0..250 {
            assert_eq!(sched.step(), 100, "full nodes: everything stays pending");
        }
    }

    #[test]
    fn pleg_status_reads_agree_with_the_full_scan_at_any_size() {
        for pods in [100u64, 1_000] {
            let mut cached = PlegStatusReadWorkload::new(pods);
            let mut scanned = PlegStatusReadWorkload::new(pods);
            assert_eq!(cached.pod_count(), pods);
            // Same round-robin cursor on both sides: every cached answer
            // must equal the O(pods) scan answer, across a full group
            // rotation.
            for _ in 0..2 * PlegStatusReadWorkload::GROUPS {
                assert_eq!(cached.cached_read(), scanned.scan_read());
            }
        }
    }

    #[test]
    fn vni_stress_alternates_acquire_release_at_capacity() {
        // 800-wide range → cap 400; the 30 s window spans 300 steps, so
        // the 400-wide free slack absorbs the quarantine backlog (the
        // regime the full-range stress scenarios run in) and the first
        // released VNIs recycle from step ~700.
        let cfg = VniDbConfig {
            range: 1024..1824,
            quarantine: SimDur::from_secs(30),
        };
        let mut w = VniStressWorkload::with_config(1, 1000, cfg);
        for _ in 0..1200 {
            w.step();
        }
        let (mut db, now, ops, exhaustions) = w.finish();
        assert_eq!(ops, 1200);
        let c = db.counters();
        assert!(c.releases > 0, "steady state releases");
        assert!(c.reuse_allocs > 0, "quarantined VNIs recycle");
        assert_eq!(exhaustions, 0, "slack absorbs the quarantine backlog");
        let stats = db.stats(now);
        assert_eq!(stats.allocated, 400, "live population pinned at capacity");
        db.check_index_consistency().unwrap();
    }

    #[test]
    fn vni_stress_end_state_is_shard_count_invariant() {
        let run = |shards: usize| {
            let cfg = VniDbConfig {
                range: 1024..1152,
                quarantine: SimDur::from_secs(30),
            };
            let mut w = VniStressWorkload::with_config(shards, 500, cfg);
            for _ in 0..600 {
                w.step();
            }
            let (mut db, now, ops, exhaustions) = w.finish();
            db.check_index_consistency().unwrap();
            let stats = db.stats(now);
            (db.rows(), db.audit(), db.txn_count(), stats, ops, exhaustions)
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    #[test]
    fn churn_hot_reaches_steady_state_reuse() {
        let mut w = ChurnHotWorkload::new();
        assert_eq!(w.db().counters().acquires, ChurnHotWorkload::STANDING);
        let first = w.step(); // consumes a fresh VNI past the standing block
        for _ in 0..3 {
            // Steady state: the clock stepped past the window, so the
            // same VNI is reused every cycle.
            assert_eq!(w.step(), first);
        }
        let c = w.db().counters();
        assert_eq!(c.reuse_allocs, 3);
        assert_eq!(w.db().allocated_count() as u64, ChurnHotWorkload::STANDING);
    }
}
