//! # shs-cni — the Container Network Interface framework
//!
//! CNI spec types (JSON network configuration lists, ADD/DEL/CHECK,
//! structured results, numbered errors), the plugin trait a chain
//! executes, and a reference `bridge` plugin that stands in for the
//! primary overlay plugin (Flannel/Cilium) the paper's CXI plugin chains
//! after (§III-B).
//!
//! The CXI CNI plugin itself — the paper's contribution — and the chain
//! runner with libcni semantics (result threading on ADD, reverse
//! best-effort DEL, rollback on partial failure) live in the
//! `slingshot-k8s` core crate; this crate is deliberately generic.

pub mod bridge;
pub mod chain;
pub mod spec;

pub use bridge::{BridgePlugin, HasHost};
pub use chain::CniPlugin;
pub use spec::{
    CniArgs, CniCommand, CniError, CniResult, Interface, IpConfig, NetworkConfList,
    PluginConf, PodRef, SUPPORTED_VERSIONS,
};
