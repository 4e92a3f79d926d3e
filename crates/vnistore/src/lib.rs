//! # shs-vnistore — embedded ACID store (the paper's SQLite substitute)
//!
//! The VNI Database of §III-C2 "stores all allocated VNIs and their
//! associated users" plus an audit log, and relies on SQLite's ACID
//! transactions to make multi-step operations (check-then-allocate)
//! atomic under the multi-threaded VNI Controller. SQLite itself is out
//! of scope for this reproduction's dependency budget, so this crate
//! provides the same guarantees from scratch:
//!
//! * named tables of byte keys/values ([`Store`]) — ordered **map**
//!   tables for rows that change, append-only **log** tables for
//!   history that only grows (the audit log),
//! * single-writer **serializable transactions** ([`Txn`]), staged
//!   directly in the log's wire format so that a commit applies exactly
//!   the bytes it logged,
//! * durability via a CRC-framed **write-ahead log** ([`wal`]) on a
//!   simulated device with explicit fsync/crash semantics ([`SimDisk`]),
//! * snapshot checkpoints and **crash recovery** that borrows every
//!   payload from the device image, replays from the last snapshot, and
//!   cuts a torn tail off the device.
//!
//! The crash-consistency property (no committed VNI allocation is ever
//! lost, no partial transaction is ever visible) is property-tested in
//! `tests/acid.rs`.

pub mod codec;
pub mod disk;
pub mod store;
pub mod wal;

pub use disk::SimDisk;
pub use store::{Store, StoreConfig, StoreStats, Txn};
