//! # shs-cxi — the CXI driver and userspace library model
//!
//! The layer the paper patches (§III-A): CXI services with member-based
//! authentication at RDMA-endpoint creation. Three designs are modelled
//! side by side, exactly as the paper discusses them:
//!
//! 1. **Stock driver** ([`CxiDriver::stock`]): legacy in-namespace UID/GID
//!    checks — spoofable by container root inside a user namespace.
//! 2. **Userns-aware driver**: host-resolved UID/GID — not spoofable, but
//!    unable to distinguish Kubernetes containers (one host user).
//! 3. **Extended driver** ([`CxiDriver::extended`]): adds the **netns
//!    member type**, authenticating by the kernel-assigned network
//!    namespace inode read via procfs. This is the paper's contribution.

pub(crate) mod driver;
pub(crate) mod libcxi;
pub(crate) mod svc;

pub use driver::{CxiDriver, CxiDriverParams, CxiError};
pub use libcxi::CxiDevice;
pub use svc::{AuthMode, CxiService, CxiServiceDesc, SvcMember};
