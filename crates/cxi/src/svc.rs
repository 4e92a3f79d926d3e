//! CXI service descriptions and member types.
//!
//! A CXI service (SVC) grants a set of *members* access to a set of VNIs
//! and can bound their resource usage (§II-C). The stock driver knows
//! UID and GID members; this reproduction adds the paper's **network
//! namespace member type** (§III-A) and, for the "globally accessible
//! VNI" baseline of §IV-A, an unrestricted member matching the driver's
//! default service behaviour.

use shs_cassini::SvcLimits;
use shs_fabric::Vni;
use shs_oslinux::{Gid, NetNsId, Uid};

/// Who may use a CXI service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SvcMember {
    /// Authenticate by user id (stock driver).
    Uid(Uid),
    /// Authenticate by group id (stock driver).
    Gid(Gid),
    /// Authenticate by network-namespace inode — the paper's extension.
    /// Kernel-assigned and unmodifiable from inside a container, unlike
    /// UID/GID under user namespaces.
    NetNs(NetNsId),
    /// Unrestricted (the driver's default service semantics; used by the
    /// single-tenant baseline).
    AllUsers,
}

impl SvcMember {
    /// Whether this member kind requires the netns driver extension.
    pub(crate) fn needs_netns_extension(&self) -> bool {
        matches!(self, SvcMember::NetNs(_))
    }
}

/// How the driver reads the credentials of a calling process.
///
/// The paper walks through exactly these three designs in §III: the stock
/// driver ([`AuthMode::Legacy`]) is spoofable inside user namespaces; a
/// userns-aware driver ([`AuthMode::UserNsAware`]) fixes spoofing but
/// cannot tell Kubernetes containers apart (they all run as one host
/// user); the netns member type works in both worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuthMode {
    /// Compare against namespace-local UID/GID (stock driver).
    Legacy,
    /// Compare against host-resolved UID/GID.
    #[default]
    UserNsAware,
}

/// Request to create a CXI service.
#[derive(Debug, Clone)]
pub struct CxiServiceDesc {
    /// Authorized members (any match admits the caller).
    pub members: Vec<SvcMember>,
    /// VNIs the service may use.
    pub vnis: Vec<Vni>,
    /// Resource limits to program into the NIC.
    pub limits: SvcLimits,
    /// Free-form label for diagnostics (e.g. the owning container id).
    pub label: String,
}

impl CxiServiceDesc {
    /// The default, unrestricted service over the global VNI — what a
    /// single-tenant HPC deployment (and the paper's `vni:false` baseline)
    /// effectively runs with.
    pub fn default_service() -> Self {
        CxiServiceDesc {
            members: vec![SvcMember::AllUsers],
            vnis: vec![Vni::GLOBAL],
            limits: SvcLimits::default(),
            label: "default".to_string(),
        }
    }
}

/// A registered CXI service (driver bookkeeping).
#[derive(Debug, Clone)]
pub struct CxiService {
    /// Driver-assigned id (also programmed into the NIC).
    pub id: shs_cassini::SvcId,
    /// Authorized members.
    pub members: Vec<SvcMember>,
    /// VNIs the service may use.
    pub vnis: Vec<Vni>,
    /// Resource limits.
    pub limits: SvcLimits,
    /// Administrative state.
    pub enabled: bool,
    /// Diagnostic label.
    pub label: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_service_is_global_and_unrestricted() {
        let d = CxiServiceDesc::default_service();
        assert_eq!(d.vnis, vec![Vni::GLOBAL]);
        assert_eq!(d.members, vec![SvcMember::AllUsers]);
    }

    #[test]
    fn netns_member_flags_extension_requirement() {
        assert!(SvcMember::NetNs(NetNsId(1)).needs_netns_extension());
        assert!(!SvcMember::Uid(Uid(0)).needs_netns_extension());
        assert!(!SvcMember::Gid(Gid(0)).needs_netns_extension());
        assert!(!SvcMember::AllUsers.needs_netns_extension());
    }
}
