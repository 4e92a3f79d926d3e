//! A standalone N-rank world for benchmarks and tests: one single-rank
//! node per NIC, round-robin across the switches of a dragonfly, every
//! NIC granted the global VNI — the bare-metal counterpart of a
//! cluster-scheduled job.
//!
//! One definition serves the `shs-mpi` unit tests, the collective
//! oracle property tests, the Figs. 5-8 host baseline and the
//! `shs-harness` benchmark workloads, so every harness brings up the
//! same stack.

use shs_cassini::{CassiniNic, CassiniParams};
use shs_cxi::{CxiDevice, CxiDriver, CxiServiceDesc};
use shs_des::{DetRng, SimTime};
use shs_fabric::{CostModel, Fabric, NicAddr, RoutingPolicy, SwitchId, TopologySpec, TrafficClass, Vni};
use shs_ofi::OfiError;
use shs_oslinux::{Gid, Host, Pid, Uid};

use crate::comm::{CommDevices, Communicator, RankSite};

/// The standalone rig. Fields are public so tests can tweak the world
/// (extra processes, private-VNI services) before opening.
pub struct CollectiveRig {
    /// Per-node kernels.
    pub hosts: Vec<Host>,
    /// Per-node benchmark processes.
    pub pids: Vec<Pid>,
    /// Per-node CXI devices.
    pub devices: Vec<CxiDevice>,
    /// The fabric joining them.
    pub fabric: Fabric,
}

impl CollectiveRig {
    /// Build an `n`-rank rig over `spec` (NIC *i* on switch *i* mod
    /// switches), seeding all NIC jitter from `seed`. Every node runs
    /// the extended CXI driver with a default (global-VNI) service.
    pub fn new(n: usize, spec: TopologySpec, seed: u64) -> Self {
        let rng = DetRng::new(seed);
        Self::with_nic_rngs(spec, (0..n).map(|i| rng.derive(&format!("nic/{i}"))))
    }

    /// [`Self::new`] with one rank per caller-named NIC jitter stream
    /// (the Figs. 5-8 host baseline keeps the streams it was captured
    /// with).
    pub fn with_nic_rngs(spec: TopologySpec, nic_rngs: impl IntoIterator<Item = DetRng>) -> Self {
        let mut fabric = Fabric::with_topology(CostModel::default(), spec, RoutingPolicy::Minimal);
        let switches = spec.total_switches();
        let (mut hosts, mut pids, mut devices) = (Vec::new(), Vec::new(), Vec::new());
        for (i, rng) in nic_rngs.into_iter().enumerate() {
            let mut host = Host::new(format!("n{i}"));
            let nic = NicAddr(i as u32 + 1);
            let mut dev = CxiDevice::new(
                CxiDriver::extended(),
                CassiniNic::new(nic, CassiniParams::default(), rng),
            );
            fabric.attach_to(nic, SwitchId(i % switches));
            fabric.grant_vni(nic, Vni::GLOBAL).expect("just attached");
            let root = host.credentials(Pid(1)).expect("init");
            dev.alloc_svc(&root, CxiServiceDesc::default_service()).expect("default service");
            pids.push(host.spawn_detached("rank", Uid(1000), Gid(1000)));
            hosts.push(host);
            devices.push(dev);
        }
        CollectiveRig { hosts, pids, devices, fabric }
    }

    /// Single-switch convenience: `n` ranks on one switch with two
    /// spare edge ports.
    pub fn single_switch(n: usize, seed: u64) -> Self {
        CollectiveRig::new(n, TopologySpec::single_switch(n + 2), seed)
    }

    /// Open a communicator over every rank of the rig (global VNI).
    /// Panics if the default service refuses a rank (a rig bug).
    pub fn open(&mut self, tc: TrafficClass, start: SimTime) -> (Communicator, CommDevices<'_>) {
        self.open_on(Vni::GLOBAL, tc, start).expect("default service admits every rank")
    }

    /// Open a communicator over every rank of the rig on `vni` — which
    /// some service on every node must carry, or the open is refused
    /// (and rolled back).
    pub fn open_on(
        &mut self,
        vni: Vni,
        tc: TrafficClass,
        start: SimTime,
    ) -> Result<(Communicator, CommDevices<'_>), OfiError> {
        let CollectiveRig { hosts, pids, devices, fabric } = self;
        let mut devs = CommDevices { devs: devices.iter_mut().collect(), fabric };
        let sites: Vec<RankSite<'_>> = hosts
            .iter()
            .zip(pids.iter())
            .enumerate()
            .map(|(i, (host, &pid))| RankSite { host, pid, node: i })
            .collect();
        let comm = Communicator::open(&sites, &mut devs, vni, tc, start)?;
        Ok((comm, devs))
    }
}
