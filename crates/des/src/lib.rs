//! # shs-des — deterministic discrete-event simulation kernel
//!
//! Foundation of the Slingshot-K8s reproduction: a virtual nanosecond
//! clock, an event queue of boxed closures with deterministic tie-breaks,
//! seeded RNG streams ([`DetRng`]) and the statistics toolkit used by the
//! evaluation harness.
//!
//! Everything above this crate (fabric, NIC, driver, Kubernetes control
//! plane) is written sans-IO: components are pure state machines and only
//! the composition layer (`slingshot-k8s`) turns their effects into
//! scheduled events here.
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
//! calling thread — see the [`parallel`] module docs for the
//! synchronisation algebra and what it proves.

pub mod parallel;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod time;

pub use parallel::ShardedSim;
pub use rng::DetRng;
pub use shard::{Shard, ShardId, ShardSim};
pub use sim::{EventFn, Sim};
pub use time::{SimDur, SimTime};
