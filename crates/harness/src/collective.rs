//! Collective-communication harness: OSU-style collective benchmarks
//! over the dragonfly fabric, both standalone (bare-metal rig) and over
//! a real [`Cluster`](slingshot_k8s::Cluster)'s pods.
//!
//! Two surfaces:
//!
//! * [`OsuAllreduceWorkload`] — the canonical `osu_allreduce` benchmark
//!   workload (8 ranks round-robined across a 2-group dragonfly, 64 KiB
//!   ring allreduce), shared by the Criterion `micro` target and the
//!   `bench-run` trajectory binary so both time the same thing;
//! * [`job_communicator`] — open an N-rank [`Communicator`] over the
//!   pods of a running job, authenticating each rank through its node's
//!   CXI driver exactly like an MPI application inside the pod would.
//!
//! See `COLLECTIVES.md` at the repository root for the algorithms and
//! the expected dragonfly scaling.

use shs_cxi::CxiDevice;
use shs_des::SimTime;
use shs_fabric::{Fabric, TopologySpec, TrafficClass, Vni};
use shs_mpi::{CommDevices, Communicator, RankSite};
use shs_ofi::OfiError;
use shs_oslinux::Host;
use slingshot_k8s::{Node, PodHandle};

pub use shs_mpi::CollectiveRig;

/// Open an N-rank [`Communicator`] over the pods of a running job:
/// `handles[r]` is rank *r*'s pod (from [`Cluster::pod_handle`]), and
/// each rank authenticates through its own node's CXI driver against
/// `vni` — the path an MPI job inside the pods would take. Use
/// [`Cluster::fabric_and_nodes`] for the split borrow.
///
/// [`Cluster::pod_handle`]: slingshot_k8s::Cluster::pod_handle
/// [`Cluster::fabric_and_nodes`]: slingshot_k8s::Cluster::fabric_and_nodes
pub fn job_communicator<'a>(
    nodes: &'a mut [Node],
    fabric: &'a mut Fabric,
    handles: &[PodHandle],
    vni: Vni,
    tc: TrafficClass,
    start: SimTime,
) -> Result<(Communicator, CommDevices<'a>), OfiError> {
    let mut hosts: Vec<&Host> = Vec::with_capacity(nodes.len());
    let mut devices: Vec<&mut CxiDevice> = Vec::with_capacity(nodes.len());
    for node in nodes.iter_mut() {
        let slingshot_k8s::NodeInner { host, device, .. } = &mut node.inner;
        hosts.push(&*host);
        devices.push(device);
    }
    let sites: Vec<RankSite<'_>> = handles
        .iter()
        .map(|h| RankSite { host: hosts[h.node_idx], pid: h.pid, node: h.node_idx })
        .collect();
    let mut devs = CommDevices { devs: devices, fabric };
    let comm = Communicator::open(&sites, &mut devs, vni, tc, start)?;
    Ok((comm, devs))
}

/// The canonical `osu_allreduce` benchmark workload, shared by the
/// Criterion `micro` target and `bench-run` so both harnesses time the
/// same thing: [`Self::RANKS`] ranks round-robined across a 2-group
/// dragonfly (every ring hop crosses the group trunk), one
/// [`Self::SIZE`]-byte ring allreduce per step.
pub struct OsuAllreduceWorkload {
    rig_devices: Vec<CxiDevice>,
    fabric: Fabric,
    comm: Communicator,
}

impl OsuAllreduceWorkload {
    /// Ranks in the communicator (one per node).
    pub const RANKS: usize = 8;

    /// Allreduce payload per step (bytes).
    pub const SIZE: u64 = 1 << 16;

    /// Build the rig and open the communicator once; steps reuse it.
    pub fn new() -> Self {
        let spec = TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 8 };
        let mut rig = CollectiveRig::new(Self::RANKS, spec, 42);
        let comm = {
            let (comm, _devs) = rig.open(TrafficClass::Dedicated, SimTime::ZERO);
            comm
        };
        OsuAllreduceWorkload { rig_devices: rig.devices, fabric: rig.fabric, comm }
    }

    /// One full ring allreduce (14 rounds of 8 chunk messages, every
    /// hop crossing the group trunk). Returns the slowest rank's
    /// completion instant.
    pub fn step(&mut self) -> SimTime {
        let mut devs = CommDevices {
            devs: self.rig_devices.iter_mut().collect(),
            fabric: &mut self.fabric,
        };
        self.comm.allreduce(&mut devs, Self::SIZE);
        self.comm.max_clock()
    }

    /// Messages the fabric dropped across all steps so far (must stay
    /// zero on the uncontended benchmark rig).
    pub fn lost(&self) -> u64 {
        self.comm.lost()
    }
}

impl Default for OsuAllreduceWorkload {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_des::SimDur;
    use shs_fabric::NicAddr;
    use shs_mpi::{osu_allreduce_once, osu_allreduce_sweep, osu_alltoall_once, osu_bcast_once, OsuParams};
    use shs_k8s::kinds;
    use slingshot_k8s::{osu_image, Cluster, ClusterConfig, VniCrdSpec};

    fn two_group() -> TopologySpec {
        TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 8 }
    }

    #[test]
    fn collective_sweeps_run_on_the_standalone_rig() {
        let mut rig = CollectiveRig::new(8, two_group(), 7);
        let (mut comm, mut devs) = rig.open(TrafficClass::Dedicated, SimTime::ZERO);
        let params = OsuParams { sizes: vec![64, 4096, 1 << 18], iterations: 5, warmup: 1, window: 1 };
        let points = osu_allreduce_sweep(&mut comm, &mut devs, &params);
        assert_eq!(points.len(), 3);
        assert!(points.windows(2).all(|w| w[1].value > w[0].value), "latency grows with size: {points:?}");
        let bcast = osu_bcast_once(&mut comm, &mut devs, 4096, 5, 1);
        let a2a = osu_alltoall_once(&mut comm, &mut devs, 4096, 5, 1);
        assert!(bcast > 0.0 && a2a > bcast, "alltoall moves more bytes than bcast");
        assert_eq!(comm.lost(), 0);
        comm.close(&mut devs);
    }

    #[test]
    fn workload_steps_are_deterministic_and_lossless() {
        let run = || {
            let mut w = OsuAllreduceWorkload::new();
            let mut last = SimTime::ZERO;
            for _ in 0..5 {
                last = w.step();
            }
            assert_eq!(w.lost(), 0);
            last
        };
        assert_eq!(run(), run());
    }

    /// The acceptance path: an 8-rank job admitted through the full
    /// cluster (scheduler → kubelet → CNI chain → VNI Service), then an
    /// allreduce opened over its pods — authenticated per rank against
    /// the job's dedicated VNI — routed across the 2-group dragonfly
    /// with per-tenant VNI traffic accounting.
    #[test]
    fn eight_rank_cluster_allreduce_crosses_groups_with_vni_accounting() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 8,
            topology: Some(two_group()),
            ..Default::default()
        });
        cluster.submit_job(SimTime::ZERO, "hpc", "cg", &[("vni", "true")], 8, &osu_image(), None);
        let admitted = cluster.run_until(
            SimTime::ZERO,
            SimTime::from_nanos(10_000_000_000),
            SimDur::from_millis(20),
        );
        let handles: Vec<_> = (0..8)
            .map(|r| cluster.pod_handle("hpc", &format!("cg-{r}")).expect("rank running"))
            .collect();
        let crd = cluster.api.get(kinds::VNI, "hpc", "vni-cg").expect("VNI CRD");
        let spec: VniCrdSpec = serde_json::from_value(crd.spec.clone()).expect("spec");
        let vni = Vni(spec.vni);
        let (fabric, nodes) = cluster.fabric_and_nodes();
        let (mut comm, mut devs) = job_communicator(
            nodes, fabric, &handles, vni, TrafficClass::Dedicated, admitted,
        )
        .expect("pod processes authenticate against their own VNI");
        let lat = osu_allreduce_once(&mut comm, &mut devs, 1 << 16, 5, 1);
        assert!(lat > 0.0);
        assert_eq!(comm.lost(), 0);
        comm.close(&mut devs);
        // Per-tenant accounting on the job's VNI: the ring alternated
        // groups (round-robin placement), so every delivered message
        // crossed the trunk — 2 switch hops each.
        let t = cluster.fabric.traffic(vni);
        assert!(t.messages > 0);
        assert_eq!(t.switch_hops, 2 * t.messages, "every hop crossed the group link");
        // An intra-group pair is strictly faster than the cross-group
        // ring for the same payload (the placement signal).
        assert!(
            cluster.fabric.unloaded_route_ns(NicAddr(1), NicAddr(3), 1 << 13).unwrap()
                < cluster.fabric.unloaded_route_ns(NicAddr(1), NicAddr(2), 1 << 13).unwrap(),
            "same-group route must undercut the cross-group route"
        );
    }

    #[test]
    fn pods_that_fail_auth_cannot_open_a_communicator() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            topology: Some(two_group()),
            ..Default::default()
        });
        cluster.submit_job(SimTime::ZERO, "t", "j", &[("vni", "true")], 4, &osu_image(), None);
        cluster.run_until(
            SimTime::ZERO,
            SimTime::from_nanos(10_000_000_000),
            SimDur::from_millis(20),
        );
        let handles: Vec<_> = (0..4)
            .map(|r| cluster.pod_handle("t", &format!("j-{r}")).expect("rank running"))
            .collect();
        let (fabric, nodes) = cluster.fabric_and_nodes();
        // A foreign VNI no service carries: the driver refuses rank 0
        // and no endpoint survives on any node.
        let err = job_communicator(
            nodes, fabric, &handles, Vni(4000), TrafficClass::Dedicated, SimTime::ZERO,
        );
        assert!(err.is_err(), "foreign VNI must fail the member check");
    }
}
