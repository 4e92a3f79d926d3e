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
//!   message is only routed when both the sender and the receiver port
//!   have been granted its VNI ([`switch::Switch`]);
//! * 200 Gb/s links with a cut-through timing model calibrated to
//!   Slingshot magnitudes ([`packet::CostModel`], [`fabric::Fabric`]);
//! * four traffic classes sharing every inter-switch link by weight,
//!   with finite per-class queues, for the co-scheduling use case of
//!   §I.
//!
//! The crate is sans-IO: all functions take `now` and return outcomes or
//! arrival instants; the composition layer schedules the actual events.
//! See `FABRIC.md` at the repository root for the topology model, the
//! routing scheme, and the packet path end to end.
//!
//! There is one packet path (`trunknet.rs`: trunk state, liveness, route
//! selection, the hop walk), and one instance of it owns every trunk of
//! an engine. A walk stops at each group boundary: [`fabric::Fabric`]
//! continues it in the same call, and the cluster-scale sweeps of
//! [`shardsim`] (1000+ nodes, one `shs_des::Sim`) continue it at the
//! head's arrival instant.

pub(crate) mod fabric;
pub(crate) mod faults;
pub(crate) mod packet;
mod ring;
pub mod shardsim;
pub(crate) mod switch;
pub(crate) mod topology;
mod trunknet;
pub(crate) mod types;

pub use fabric::{
    Attachment, Fabric, FabricAuditEvent, FabricError, TransferOutcome, VniTraffic,
};
pub use faults::{fallback_route, FaultKind, LivenessMask, MAX_REPAIR_PATH};
pub use packet::CostModel;
pub use ring::{ring_allreduce_schedule, ring_step_into};
pub use switch::{DropReason, Switch, SwitchCounters};
pub use shardsim::{
    run_sweep, sweep_messages, GroupCounters, SweepConfig, SweepFault, SweepMsg, SweepStats,
};
pub use topology::{RoutingPolicy, Topology, TopologySpec};
pub use trunknet::TrunkClassCounters;
pub use types::{NicAddr, PortId, SwitchId, TrafficClass, Vni};
