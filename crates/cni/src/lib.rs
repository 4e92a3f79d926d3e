//! # shs-cni — the Container Network Interface framework
//!
//! CNI spec types (ADD/DEL/CHECK, invocation arguments, structured
//! results, numbered errors) and a reference `bridge` plugin that stands
//! in for the primary overlay plugin (Flannel/Cilium) the paper's CXI
//! plugin chains after (§III-B).
//!
//! The CXI CNI plugin itself — the paper's contribution — the one plugin
//! interface (`NodeCniPlugin`) and the chain runner with libcni
//! semantics (result threading on ADD, reverse best-effort DEL, rollback
//! on partial failure) live in the `slingshot-k8s` core crate.

pub mod bridge;
pub(crate) mod spec;

pub use bridge::BridgePlugin;
pub use spec::{CniArgs, CniCommand, CniError, CniResult, Interface, IpConfig, PodRef};
