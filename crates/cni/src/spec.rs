//! Container Network Interface (CNI) specification types.
//!
//! Follows the CNI spec the paper's plugin implements against
//! (reference \[6\] in the paper): the ADD/DEL/CHECK verbs, invocation
//! arguments, structured results, and numbered error codes. The chain
//! itself is built in Rust (`slingshot_k8s::NodeChain`), so no network
//! configuration list is parsed.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use shs_oslinux::NetNsId;

/// CNI operations ("commands").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CniCommand {
    /// Add the container to the network(s).
    Add,
    /// Remove the container from the network(s).
    Del,
    /// Verify the container's networking is as expected.
    Check,
}

/// Pod identity passed by Kubernetes runtimes via CNI args
/// (`K8S_POD_NAMESPACE` etc.). The paper's plugin uses this to query the
/// management plane for annotations (§III-B).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodRef {
    /// Kubernetes namespace.
    pub namespace: String,
    /// Pod name.
    pub name: String,
    /// Pod UID.
    pub uid: String,
}

/// Invocation arguments (the CNI "runtime parameters").
#[derive(Debug, Clone, PartialEq)]
pub struct CniArgs {
    /// Container id (sandbox id).
    pub container_id: String,
    /// The container's network namespace (inode; a path in real CNI).
    pub netns: NetNsId,
    /// Interface name to configure inside the container.
    pub ifname: String,
    /// Pod identity, when invoked by a Kubernetes runtime.
    pub pod: Option<PodRef>,
}

/// A configured interface in a result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interface {
    /// Interface name.
    pub name: String,
    /// Network namespace it lives in (`""` = host).
    pub sandbox: String,
}

/// An assigned IP in a result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpConfig {
    /// CIDR address, e.g. `10.42.0.5/24`.
    pub address: String,
    /// Index into the result's interface list.
    pub interface: usize,
}

/// A structured CNI result, passed down the chain as `prevResult`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CniResult {
    /// Interfaces created/configured so far.
    pub interfaces: Vec<Interface>,
    /// IPs assigned so far.
    pub ips: Vec<IpConfig>,
    /// Plugin-specific extension data (the CXI plugin records the CXI
    /// service id and VNI here for diagnostics).
    #[serde(default)]
    pub extensions: BTreeMap<String, serde_json::Value>,
}

/// CNI error with spec-defined numeric codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CniError {
    /// Spec error code (1-99 reserved by the spec, 100+ plugin-specific).
    pub code: u32,
    /// Human-readable message.
    pub msg: String,
}

impl CniError {
    /// Code 4: invalid network config.
    pub fn invalid_config(msg: impl Into<String>) -> Self {
        CniError { code: 4, msg: msg.into() }
    }
    /// Code 7: invalid environment (e.g. netns gone).
    pub fn invalid_environment(msg: impl Into<String>) -> Self {
        CniError { code: 7, msg: msg.into() }
    }
    /// Code 11: try again later.
    pub fn try_again(msg: impl Into<String>) -> Self {
        CniError { code: 11, msg: msg.into() }
    }
    /// Plugin-specific error (code ≥ 100).
    pub fn plugin(code: u32, msg: impl Into<String>) -> Self {
        debug_assert!(code >= 100);
        CniError { code, msg: msg.into() }
    }
}

impl core::fmt::Display for CniError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "CNI error {}: {}", self.code, self.msg)
    }
}

impl std::error::Error for CniError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_roundtrips_through_json() {
        let mut r = CniResult::default();
        r.interfaces.push(Interface { name: "eth0".into(), sandbox: "netns-5".into() });
        r.ips.push(IpConfig { address: "10.42.0.7/24".into(), interface: 0 });
        r.extensions.insert("cxi/vni".into(), serde_json::json!(1024));
        let json = serde_json::to_string(&r).unwrap();
        let back: CniResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn error_codes_follow_spec_ranges() {
        assert_eq!(CniError::invalid_config("x").code, 4);
        assert_eq!(CniError::invalid_environment("x").code, 7);
        assert_eq!(CniError::try_again("x").code, 11);
        assert!(CniError::plugin(100, "x").code >= 100);
    }
}
