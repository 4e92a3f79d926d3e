//! # shs-containers — container runtime substrate
//!
//! CRI-shaped container runtime: pod sandboxes anchored on a pause
//! process with a fresh network namespace (and optional user namespace),
//! container lifecycle with image pulls from a local-harbor-style
//! registry, and the timing parameters that shape pod start latency.
//!
//! The CNI chain runs *between* sandbox creation and container start —
//! driven by the kubelet in `shs-k8s`, where the paper's CXI plugin
//! hooks in (§III-B).

pub(crate) mod images;
pub(crate) mod runtime;

pub use images::{Image, ImageStore, ImageStoreParams};
pub use runtime::{
    Container, ContainerRuntime, RuntimeError, RuntimeParams, Sandbox, UserNsMode,
};
