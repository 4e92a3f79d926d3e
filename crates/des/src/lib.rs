//! # shs-des — deterministic discrete-event simulation kernel
//!
//! Foundation of the Slingshot-K8s reproduction: a virtual nanosecond
//! clock, an event queue with deterministic tie-breaks whose event type
//! each world chooses — an enum of plain-data [`Event`]s, or the default
//! boxed closure [`EventFn`] — seeded RNG streams ([`DetRng`]) and the
//! statistics toolkit used by the evaluation harness.
//!
//! Everything above this crate (fabric, NIC, driver, Kubernetes control
//! plane) is written sans-IO: components are pure state machines and only
//! the composition layers (`shs_fabric::shardsim`, `slingshot-k8s`'s
//! scenario engine) turn their effects into scheduled events here, each
//! as its own event enum.
//!
//! ```
//! use shs_des::{Sim, SimDur, SimTime};
//!
//! let mut sim = Sim::new(0u32);
//! sim.at(SimTime::from_nanos(100), |s| {
//!     s.world += 1;
//!     s.after(SimDur::from_micros(1), |s| s.world += 10);
//! });
//! sim.run();
//! assert_eq!(sim.world, 11);
//! assert_eq!(sim.now().as_nanos(), 1_100);
//! ```

//!
//! For cluster-scale models the same [`Sim`] also runs as one shard of
//! a **sharded decomposition**: a [`ShardSim`] is a `Sim` whose world
//! carries an id, a lookahead and an outbox, and the conservative-window
//! coordinator [`ShardedSim`] steps one shard per switch group on the
//! calling thread — see the `sharded` module docs for the
//! synchronisation algebra and what it proves.

pub(crate) mod rng;
pub(crate) mod shard;
pub(crate) mod sharded;
pub(crate) mod sim;
pub mod stats;
pub(crate) mod time;

pub use rng::DetRng;
pub use shard::{Shard, ShardId, ShardSim};
pub use sharded::ShardedSim;
pub use sim::{Event, EventFn, Sim};
pub use time::{SimDur, SimTime};
