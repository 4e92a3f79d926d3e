//! The scenario **spec**: plain data describing tenants, jobs, claims,
//! services, traffic and fault injections. Nothing here runs anything —
//! the engine interprets a [`Scenario`], the library builds them — and
//! nothing here imports a sibling module, so a spec can be built and
//! printed without the engine.

use shs_des::{SimDur, SimTime};
use shs_fabric::{ring_allreduce_schedule, TrafficClass};

use crate::cluster::ClusterConfig;

/// How a job attaches to the VNI Service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VniMode {
    /// No annotation: the pod rides the globally accessible VNI
    /// (single-tenant baseline).
    Global,
    /// `vni: "true"` — the job owns a fresh VNI (Per-Resource model).
    Dedicated,
    /// `vni: "<claim>"` — the job redeems a named VNI Claim.
    Claim(String),
}

/// Shape of one traffic round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrafficPattern {
    /// Every rank sends to its ring successor (`i → (i+1) mod n`).
    #[default]
    Ring,
    /// Every rank but rank 0 sends to rank 0 — the N→1 congestion
    /// pattern that backlogs the links converging on rank 0's switch.
    Incast,
    /// One MPI-style ring allreduce per round, decomposed into its
    /// point-to-point chunk sends (`n − 1` reduce-scatter steps then
    /// `n − 1` allgather steps, each rank passing a `≈ size/n` chunk to
    /// its ring successor — [`ring_allreduce_schedule`], the very
    /// function `shs_mpi::Communicator::allreduce` steps through), so
    /// every hop flows through fabric routing, trunk WRR and per-VNI
    /// accounting.
    /// `burst` scales the chunk count per step.
    Allreduce,
    /// TCP-over-RDMA request/response (modeled on TSoR): every rank
    /// sends a request of `size` bytes to its ring successor, which
    /// answers with a `size`-byte response dispatched at the request's
    /// *arrival* instant — so the pair's virtual-time latency composes
    /// like a real RPC. Long-running [`ServicePlan`]s use the same
    /// two-leg model with independent request/response sizes, per-
    /// request latency samples, and a p99 SLO.
    RequestResponse,
}

impl TrafficPattern {
    /// One round over `n` ranks with `size`-byte messages, as the
    /// ordered `(src rank, dst rank, bytes, answered)` sends it is made
    /// of; `answered` sends are echoed by the receiver at their arrival
    /// instant. A round needs two ranks: below that it is empty.
    pub(super) fn round_ops(self, n: usize, size: u64) -> Vec<(usize, usize, u64, bool)> {
        if n < 2 {
            return Vec::new();
        }
        let answered = self == TrafficPattern::RequestResponse;
        match self {
            TrafficPattern::Ring | TrafficPattern::RequestResponse => {
                (0..n).map(|i| (i, (i + 1) % n, size, answered)).collect()
            }
            TrafficPattern::Incast => (1..n).map(|i| (i, 0, size, answered)).collect(),
            TrafficPattern::Allreduce => ring_allreduce_schedule(n, size)
                .into_iter()
                .flatten()
                .map(|(src, dst, len)| (src, dst, len, answered))
                .collect(),
        }
    }
}

/// Rank-to-rank traffic a job generates once its pods run.
#[derive(Debug, Clone, Copy)]
pub struct TrafficPlan {
    /// Rounds to complete (rounds before all ranks run are skipped, not
    /// consumed).
    pub rounds: u32,
    /// Gap between rounds.
    pub interval: SimDur,
    /// Payload bytes per message.
    pub size: u64,
    /// Traffic class of the job's messages.
    pub tc: TrafficClass,
    /// Messages each sender issues back-to-back per round (1 = the
    /// classic one-message round).
    pub burst: u32,
    /// Communication pattern of a round.
    pub pattern: TrafficPattern,
}

/// One job in a scenario.
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// Tenant namespace.
    pub tenant: String,
    /// Job name.
    pub name: String,
    /// Ranks (pod parallelism).
    pub ranks: u32,
    /// Submission instant.
    pub arrival: SimTime,
    /// Workload duration (`None` runs until the job is deleted).
    pub run_ms: Option<u64>,
    /// VNI attachment model.
    pub vni: VniMode,
    /// Explicit deletion instant, if any.
    pub delete_at: Option<SimTime>,
    /// Traffic the ranks exchange.
    pub traffic: Option<TrafficPlan>,
    /// Topology-aware rank placement: restrict this job's pods to these
    /// node indices (see `Cluster::submit_job_placed`). `None` leaves
    /// placement to the spread-first scheduler.
    pub pin_nodes: Option<Vec<usize>>,
}

/// One VNI Claim in a scenario.
#[derive(Debug, Clone)]
pub struct ClaimPlan {
    /// Tenant namespace.
    pub tenant: String,
    /// Claim name.
    pub name: String,
    /// Creation instant.
    pub create_at: SimTime,
    /// Deletion-request instant (deletion stalls while users remain).
    pub delete_at: Option<SimTime>,
}

/// A demand spike window for a [`ServicePlan`]'s request generator.
#[derive(Debug, Clone, Copy)]
pub struct BurstPlan {
    /// Start of the spike (inclusive).
    pub from: SimTime,
    /// End of the spike (exclusive).
    pub until: SimTime,
    /// Extra requests added to every generator fire inside the window.
    pub extra: u32,
}

/// Deterministic demand-driven horizontal autoscaling for a
/// [`ServicePlan`]: at every generator fire the desired replica count
/// is `clamp(ceil(demand / per_replica), replicas, max_replicas)`, and
/// the service is rescaled through the API server whenever it changes.
#[derive(Debug, Clone, Copy)]
pub struct AutoscalePlan {
    /// Requests one replica absorbs per generator fire.
    pub per_replica: u32,
    /// Replica-count ceiling.
    pub max_replicas: u32,
}

/// One long-running serving-plane [`Service`](shs_k8s::service) in a
/// scenario: a replica set kept converged by the deterministic service
/// controller, carrying open-loop TSoR-style request/response traffic
/// between its replicas through the same fabric (WRR classes, adaptive
/// routing, fault model) and the same per-hop isolation checks as the
/// MPI jobs.
#[derive(Debug, Clone)]
pub struct ServicePlan {
    /// Tenant namespace.
    pub tenant: String,
    /// Service name (must not collide with an annotated job's name in
    /// the namespace — both own the VNI CRD `vni-<name>`).
    pub name: String,
    /// Baseline replica count (also the autoscale floor).
    pub replicas: u32,
    /// Creation instant.
    pub arrival: SimTime,
    /// VNI attachment model.
    pub vni: VniMode,
    /// Traffic class of the service's requests and responses.
    pub tc: TrafficClass,
    /// Open-loop request-generator cadence (fires regardless of
    /// completion, like TSoR clients).
    pub request_interval: SimDur,
    /// Requests issued per generator fire (before any burst).
    pub requests_per_fire: u32,
    /// Request payload bytes.
    pub request_bytes: u64,
    /// Response payload bytes.
    pub response_bytes: u64,
    /// p99 latency SLO over full request+response round trips.
    pub slo_p99: SimDur,
    /// Rolling-update instant (bumps the template revision), if any.
    pub update_at: Option<SimTime>,
    /// Deletion instant, if any.
    pub delete_at: Option<SimTime>,
    /// Demand spike window, if any.
    pub burst: Option<BurstPlan>,
    /// Demand-driven autoscaling, if any.
    pub autoscale: Option<AutoscalePlan>,
    /// Restrict replicas to these node indices (`None` leaves placement
    /// to the spread-first scheduler).
    pub pin_nodes: Option<Vec<usize>>,
}

/// Fault injections.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Cordon a node (status `ready: false`) and evict every job that
    /// has a pod bound to it.
    DrainNode {
        /// Index into [`Cluster::nodes`](crate::cluster::Cluster::nodes).
        node: usize,
        /// Injection instant.
        at: SimTime,
    },
    /// Cut the trunk between two switches. In-flight messages are
    /// unaffected; subsequent transfers reroute deterministically (or
    /// drop with `NoRoute` if the fabric is partitioned).
    LinkDown {
        /// Injection instant.
        at: SimTime,
        /// One endpoint switch index.
        a: usize,
        /// The other endpoint switch index.
        b: usize,
    },
    /// Restore a previously cut trunk.
    LinkUp {
        /// Injection instant.
        at: SimTime,
        /// One endpoint switch index.
        a: usize,
        /// The other endpoint switch index.
        b: usize,
    },
    /// Take a whole switch out of service (kills every trunk touching
    /// it; endpoints stay bound and drop with `NoRoute`).
    SwitchDown {
        /// Injection instant.
        at: SimTime,
        /// Switch index.
        switch: usize,
    },
}

/// A complete scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (stable identifier, used by `scenario-run`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Cluster configuration the scenario runs on.
    pub config: ClusterConfig,
    /// VNI Claims to create/delete.
    pub claims: Vec<ClaimPlan>,
    /// Jobs to submit.
    pub jobs: Vec<JobPlan>,
    /// Long-running services to run.
    pub services: Vec<ServicePlan>,
    /// Fault injections.
    pub faults: Vec<Fault>,
    /// Simulated end of the scenario.
    pub horizon: SimTime,
    /// Control-plane tick cadence.
    pub tick: SimDur,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_ops_describe_each_pattern() {
        let size = 1000;
        for n in 2..=8usize {
            let ring = TrafficPattern::Ring.round_ops(n, size);
            let successor: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, size, false)).collect();
            assert_eq!(ring, successor, "ring: n sends, each to its successor");

            let rr = TrafficPattern::RequestResponse.round_ops(n, size);
            let answered: Vec<_> = successor.iter().map(|&(s, d, b, _)| (s, d, b, true)).collect();
            assert_eq!(rr, answered, "request/response: the ring, every send answered");

            let incast = TrafficPattern::Incast.round_ops(n, size);
            let fan_in: Vec<_> = (1..n).map(|i| (i, 0, size, false)).collect();
            assert_eq!(incast, fan_in, "incast: n-1 sends, all into rank 0");

            let allreduce = TrafficPattern::Allreduce.round_ops(n, size);
            let schedule: Vec<_> = ring_allreduce_schedule(n, size)
                .into_iter()
                .flatten()
                .map(|(s, d, len)| (s, d, len, false))
                .collect();
            assert_eq!(allreduce, schedule, "allreduce: the shared ring schedule, flattened");
            assert_eq!(allreduce.len(), 2 * (n - 1) * n);
        }
    }

    #[test]
    fn a_round_needs_two_ranks() {
        for pattern in [
            TrafficPattern::Ring,
            TrafficPattern::Incast,
            TrafficPattern::Allreduce,
            TrafficPattern::RequestResponse,
        ] {
            assert!(pattern.round_ops(0, 64).is_empty());
            assert!(pattern.round_ops(1, 64).is_empty());
        }
    }
}
