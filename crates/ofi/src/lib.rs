//! # shs-ofi — libfabric-like network abstraction (CXI provider)
//!
//! "libfabric ... is the de-facto interface for Slingshot" (§III-A). This
//! crate models the slice of libfabric the paper's stack exercises:
//! endpoint creation through the authenticated CXI path (the one place
//! the paper's netns patch matters), tagged send/receive with
//! ignore-mask matching, and completion queues with virtual-time
//! visibility. Every message is two-sided: the paper's data-path
//! figures (5-8) are OSU tagged sends, so there is no one-sided RMA.
//!
//! Data-path operations use explicit time cursors instead of the event
//! queue (LogP-style), which keeps full OSU parameter sweeps cheap while
//! preserving NIC and link queueing behaviour.

pub(crate) mod ep;

pub use ep::{open_many, CompKind, Completion, OfiEp, OfiError, OfiParams, PeerAddr, WireMessage};
