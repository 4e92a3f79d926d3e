//! # shs-cassini — the Cassini (CXI) NIC model
//!
//! Models the Slingshot NIC the paper targets (§II-B): a kernel-bypass
//! RDMA device exposing endpoints bound to a (VNI, traffic class) pair,
//! with a service table programmed by the CXI driver (`shs-cxi`). After
//! endpoint creation, sends touch no kernel or control-plane code — only
//! this crate and `shs-fabric` — which is the structural reason the
//! paper's communication-overhead figures (5-8) come out flat.
//!
//! Timing constants ([`CassiniParams`]) are calibrated to 200 Gb/s
//! Slingshot magnitudes: the paper's Figs. 5 and 7.

pub(crate) mod nic;
pub(crate) mod params;

pub use nic::{
    CassiniNic, Endpoint, EpIdx, NicCounters, NicError, RxMessage, SendOutcome, SendTiming,
    ServiceEntry, SvcId, SvcLimits,
};
pub use params::CassiniParams;
