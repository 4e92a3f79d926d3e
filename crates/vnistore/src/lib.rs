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
//! * durability on a simulated two-file device with explicit
//!   fsync/crash semantics ([`SimDisk`]): log-table rows go once to an
//!   append-only **log segment**, and a CRC-framed **write-ahead log**
//!   ([`wal`]) of map-table operations marks, in every frame, the
//!   segment prefix it covers and that prefix's CRC,
//! * snapshot checkpoints of the map tables and the mark only, and
//!   **crash recovery** that borrows every payload from the device
//!   image, accepts a frame only while the segment holds its marked rows
//!   intact, replays from the last snapshot, and cuts both files back to
//!   what it accepted.
//!
//! The crash-consistency property (no committed VNI allocation is ever
//! lost, no partial transaction is ever visible) is property-tested in
//! `tests/acid.rs`.

pub mod codec;
pub(crate) mod disk;
pub(crate) mod store;
pub mod wal;

pub use disk::SimDisk;
pub use store::{Store, StoreConfig, StoreStats, Txn};
