//! # shs-fabric — the simulated Slingshot fabric
//!
//! Models the parts of the Slingshot network that the paper's security
//! and performance arguments rest on (§II-B/§II-C):
//!
//! * a dragonfly [`topology::Topology`] of Rosetta-like switches —
//!   groups of locally all-to-all switches joined by global links, with
//!   a deterministic minimal/Valiant routing table computed at build
//!   time;
//! * **per-port VNI enforcement tables** on the edge switches — a
//!   packet is only routed when both the sender and the receiver port
//!   have been granted its VNI ([`switch::Switch`]);
//! * 200 Gb/s links with a cut-through timing model calibrated to
//!   Slingshot magnitudes ([`packet::CostModel`], [`fabric::Fabric`]),
//!   plus per-traffic-class weighted scheduling and finite queues on
//!   inter-switch links;
//! * four traffic classes with deficit-weighted egress arbitration
//!   ([`switch::WrrArbiter`]) for the co-scheduling use case of §I.
//!
//! The crate is sans-IO: all functions take `now` and return outcomes or
//! arrival instants; the composition layer schedules the actual events.
//! See `FABRIC.md` at the repository root for the topology model, the
//! routing scheme, and the packet path end to end.
//!
//! There is one packet path (`trunknet.rs`: trunk state, liveness, route
//! selection, the hop walk). [`fabric::Fabric`] is that path owning
//! every dragonfly group; for cluster-scale sweeps (1000+ nodes) the
//! [`shardsim`] module runs one instance per group under
//! `shs_des::ShardedSim`, one shard after another on the calling thread.

pub mod fabric;
pub mod faults;
pub mod packet;
mod ring;
pub mod shardsim;
pub mod switch;
pub mod topology;
mod trunknet;
pub mod types;

pub use fabric::{Fabric, FabricAuditEvent, FabricError, TransferOutcome, VniTraffic};
pub use faults::{fallback_route, repair_route, FaultKind, LivenessMask, MAX_REPAIR_PATH};
pub use packet::{segment, CostModel, Packet};
pub use ring::{ring_allreduce_schedule, ring_step_into};
pub use switch::{DropReason, Switch, SwitchConfig, SwitchCounters, Verdict, WrrArbiter};
pub use shardsim::{
    run_sweep, sweep_messages, trunk_lookahead, GroupCounters, GroupNet, SweepConfig, SweepFault,
    SweepMsg, SweepStats,
};
pub use topology::{GroupView, RoutingPolicy, Topology, TopologySpec};
pub use trunknet::TrunkClassCounters;
pub use types::{NicAddr, PortId, SwitchId, TrafficClass, Vni};
