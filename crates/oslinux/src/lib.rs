//! # shs-oslinux — simulated Linux substrate
//!
//! Minimal-but-faithful model of the kernel facilities the Slingshot
//! access model interacts with: processes and their credentials, user
//! namespaces with UID/GID maps (including the container-root
//! `setuid`-spoofing behaviour that motivates the paper), and network
//! namespaces with kernel-assigned, unforgeable inode identities that the
//! extended CXI driver authenticates against (§III-A of the paper).
//!
//! One [`Host`] instance models one node's kernel; a cluster is a
//! collection of hosts wired to the fabric by `slingshot-k8s`.

mod hash;
pub(crate) mod host;
pub(crate) mod ids;
pub(crate) mod ns;

pub use hash::IdHasher;
pub use host::{Creds, Host, OsError, Process};
pub use ids::{Gid, NetNsId, Pid, Uid, UserNsId};
pub use ns::{IdMapEntry, NetNamespace, UserNamespace};
