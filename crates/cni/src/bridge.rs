//! Reference `bridge` plugin: the primary overlay-network plugin the CXI
//! plugin chains after (standing in for Flannel/Cilium, §III-B). Creates
//! a veth pair (host side on the bridge, container side in the pod's
//! netns) and assigns an address from a host-local /24. Its verbs act
//! on the node's kernel; the node-side chain runner
//! (`slingshot_k8s::NodeChain`) invokes them.

use std::collections::{BTreeMap, BTreeSet};

use shs_des::SimDur;
use shs_oslinux::Host;

use crate::spec::{CniArgs, CniCommand, CniError, CniResult, Interface, IpConfig};

/// The bridge plugin with a host-local IPAM pool.
#[derive(Debug)]
pub struct BridgePlugin {
    /// Bridge device name on the host.
    pub bridge: String,
    /// /24 prefix, e.g. "10.42.0".
    subnet_prefix: String,
    /// container-id -> allocated host ip suffix.
    allocated: BTreeMap<String, u8>,
    /// Suffixes currently handed out.
    in_use: BTreeSet<u8>,
    /// Where the next-fit search resumes.
    next_suffix: u8,
}

/// Host suffixes of the /24 pool: `.2` ..= `.254` (`.1` is the bridge).
const FIRST_SUFFIX: u8 = 2;
const LAST_SUFFIX: u8 = 254;

/// Addresses in the pool — the most pods one node's bridge can network
/// at once, and therefore the `maxPods` a node may advertise.
pub const POOL_SIZE: u32 = (LAST_SUFFIX - FIRST_SUFFIX) as u32 + 1;

impl BridgePlugin {
    /// New plugin bridging onto `bridge` with addresses from
    /// `{subnet_prefix}.2` upward.
    pub fn new(bridge: impl Into<String>, subnet_prefix: impl Into<String>) -> Self {
        BridgePlugin {
            bridge: bridge.into(),
            subnet_prefix: subnet_prefix.into(),
            allocated: BTreeMap::new(),
            in_use: BTreeSet::new(),
            next_suffix: FIRST_SUFFIX,
        }
    }

    /// Currently allocated addresses (diagnostics).
    pub fn allocated(&self) -> usize {
        self.allocated.len()
    }

    /// ADD: join the container to the bridge network. `prev` is the
    /// accumulated result of earlier plugins in the chain.
    pub fn add(
        &mut self,
        host: &mut Host,
        args: &CniArgs,
        mut prev: CniResult,
    ) -> Result<CniResult, CniError> {
        let host_ns = host.host_netns();
        // The container netns must exist.
        if host.net_namespace(args.netns).is_none() {
            return Err(CniError::invalid_environment(format!(
                "netns {} does not exist",
                args.netns.raw()
            )));
        }
        if self.allocated.contains_key(&args.container_id) {
            return Err(CniError::invalid_config(format!(
                "container {} already added",
                args.container_id
            )));
        }
        if self.in_use.len() == POOL_SIZE as usize {
            return Err(CniError::plugin(110, "IPAM pool exhausted"));
        }
        // Next-fit with wrap-around, like host-local IPAM: resume after
        // the last address handed out and skip the ones still held, so
        // released addresses come back only after the pool has cycled.
        let after = |s: u8| if s == LAST_SUFFIX { FIRST_SUFFIX } else { s + 1 };
        let mut suffix = self.next_suffix;
        while self.in_use.contains(&suffix) {
            suffix = after(suffix);
        }
        self.next_suffix = after(suffix);
        self.in_use.insert(suffix);
        self.allocated.insert(args.container_id.clone(), suffix);

        // veth pair: host side + container side.
        let veth_host = format!("veth{}", &args.container_id);
        host.net_namespace_mut(host_ns)
            .expect("host netns exists")
            .attach_interface(&veth_host);
        host.net_namespace_mut(args.netns)
            .expect("checked above")
            .attach_interface(&args.ifname);

        let if_index = prev.interfaces.len();
        prev.interfaces.push(Interface {
            name: args.ifname.clone(),
            sandbox: format!("netns:{}", args.netns.raw()),
        });
        prev.ips.push(IpConfig {
            address: format!("{}.{}/24", self.subnet_prefix, suffix),
            interface: if_index,
        });
        Ok(prev)
    }

    /// DEL: remove the container from the bridge network. Idempotent —
    /// DEL may be called repeatedly or without a prior ADD.
    pub fn del(&mut self, host: &mut Host, args: &CniArgs) -> Result<(), CniError> {
        let host_ns = host.host_netns();
        let veth_host = format!("veth{}", &args.container_id);
        if let Some(ns) = host.net_namespace_mut(host_ns) {
            ns.detach_interface(&veth_host);
        }
        if let Some(ns) = host.net_namespace_mut(args.netns) {
            ns.detach_interface(&args.ifname);
        }
        // Idempotent: releasing an unknown container is fine.
        if let Some(suffix) = self.allocated.remove(&args.container_id) {
            self.in_use.remove(&suffix);
        }
        Ok(())
    }

    /// CHECK: the container was added and its interface is in its netns.
    pub fn check(&self, host: &Host, args: &CniArgs) -> Result<(), CniError> {
        if !self.allocated.contains_key(&args.container_id) {
            return Err(CniError::invalid_environment("container not added"));
        }
        let ok = host
            .net_namespace(args.netns)
            .is_some_and(|ns| ns.has_interface(&args.ifname));
        if ok {
            Ok(())
        } else {
            Err(CniError::invalid_environment("interface missing in netns"))
        }
    }

    /// Wall-clock cost of one invocation (process exec + work). Surfaces
    /// in pod-start latency and thus in the Figs. 9-12 admission numbers.
    pub fn cost(&self, cmd: CniCommand) -> SimDur {
        match cmd {
            // veth + IPAM work dominates ADD.
            CniCommand::Add => SimDur::from_millis(25),
            CniCommand::Del => SimDur::from_millis(12),
            CniCommand::Check => SimDur::from_millis(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_oslinux::{Gid, Uid};

    fn setup() -> (Host, CniArgs) {
        let mut host = Host::new("n0");
        let pid = host.spawn_detached("pause", Uid(0), Gid(0));
        let netns = host.unshare_net_ns(pid).unwrap();
        let args = CniArgs {
            container_id: "abc123".into(),
            netns,
            ifname: "eth0".into(),
            pod: None,
        };
        (host, args)
    }

    #[test]
    fn add_creates_veth_and_assigns_ip() {
        let (mut host, args) = setup();
        let mut plugin = BridgePlugin::new("cni0", "10.42.0");
        let result = plugin.add(&mut host, &args, CniResult::default()).unwrap();
        assert_eq!(result.interfaces.len(), 1);
        assert_eq!(result.ips[0].address, "10.42.0.2/24");
        let ns = host.net_namespace(args.netns).unwrap();
        assert!(ns.has_interface("eth0"));
        let host_ns = host.net_namespace(host.host_netns()).unwrap();
        assert!(host_ns.has_interface("vethabc123"));
    }

    #[test]
    fn sequential_adds_get_distinct_ips() {
        let (mut host, args1) = setup();
        let pid2 = host.spawn_detached("pause2", Uid(0), Gid(0));
        let ns2 = host.unshare_net_ns(pid2).unwrap();
        let args2 = CniArgs { container_id: "def".into(), netns: ns2, ..args1.clone() };
        let mut plugin = BridgePlugin::new("cni0", "10.42.0");
        let r1 = plugin.add(&mut host, &args1, CniResult::default()).unwrap();
        let r2 = plugin.add(&mut host, &args2, CniResult::default()).unwrap();
        assert_ne!(r1.ips[0].address, r2.ips[0].address);
        assert_eq!(plugin.allocated(), 2);
    }

    #[test]
    fn duplicate_add_rejected() {
        let (mut host, args) = setup();
        let mut plugin = BridgePlugin::new("cni0", "10.42.0");
        plugin.add(&mut host, &args, CniResult::default()).unwrap();
        let err = plugin.add(&mut host, &args, CniResult::default()).unwrap_err();
        assert_eq!(err.code, 4);
    }

    #[test]
    fn add_to_missing_netns_fails() {
        let (mut host, mut args) = setup();
        args.netns = shs_oslinux::NetNsId(999_999);
        let mut plugin = BridgePlugin::new("cni0", "10.42.0");
        let err = plugin.add(&mut host, &args, CniResult::default()).unwrap_err();
        assert_eq!(err.code, 7);
    }

    #[test]
    fn del_is_idempotent_and_cleans_up() {
        let (mut host, args) = setup();
        let mut plugin = BridgePlugin::new("cni0", "10.42.0");
        plugin.add(&mut host, &args, CniResult::default()).unwrap();
        plugin.del(&mut host, &args).unwrap();
        plugin.del(&mut host, &args).unwrap();
        assert_eq!(plugin.allocated(), 0);
        let ns = host.net_namespace(args.netns).unwrap();
        assert!(!ns.has_interface("eth0"));
    }

    #[test]
    fn ipam_recycles_released_addresses_and_never_double_allocates() {
        let (mut host, base) = setup();
        let mut plugin = BridgePlugin::new("cni0", "10.42.0");
        let args = |i: usize| CniArgs { container_id: format!("c{i}"), ..base.clone() };
        // A window of 8 live containers sliding over 1 000 add/del cycles:
        // far more than the 253 addresses a monotone allocator owns.
        let mut held: BTreeMap<String, String> = BTreeMap::new();
        for i in 0..1_000 {
            let r = plugin.add(&mut host, &args(i), CniResult::default()).expect("pool never exhausts");
            let ip = r.ips[0].address.clone();
            assert!(!held.values().any(|h| h == &ip), "{ip} handed out while still allocated");
            if i < 253 {
                assert_eq!(ip, format!("10.42.0.{}/24", i + 2), "first pass is sequential");
            }
            held.insert(args(i).container_id, ip);
            if i >= 7 {
                plugin.del(&mut host, &args(i - 7)).unwrap();
                held.remove(&args(i - 7).container_id);
            }
        }
        assert_eq!(plugin.allocated(), 7);
        // A genuinely full pool still reports exhaustion.
        let mut full = BridgePlugin::new("cni0", "10.42.1");
        for i in 0..253 {
            full.add(&mut host, &args(i), CniResult::default()).unwrap();
        }
        assert_eq!(full.add(&mut host, &args(999), CniResult::default()).unwrap_err().code, 110);
        full.del(&mut host, &args(100)).unwrap();
        let r = full.add(&mut host, &args(999), CniResult::default()).unwrap();
        assert_eq!(r.ips[0].address, "10.42.1.102/24", "the one free address");
    }

    #[test]
    fn check_reflects_state() {
        let (mut host, args) = setup();
        let mut plugin = BridgePlugin::new("cni0", "10.42.0");
        assert!(plugin.check(&host, &args).is_err());
        plugin.add(&mut host, &args, CniResult::default()).unwrap();
        plugin.check(&host, &args).unwrap();
        plugin.del(&mut host, &args).unwrap();
        assert!(plugin.check(&host, &args).is_err());
    }

    #[test]
    fn works_inside_a_chain() {
        let (mut host, args) = setup();
        // What a chain runner relies on: ADD extends the result an
        // earlier plugin handed over, and each verb has its cost.
        let mut plugin = BridgePlugin::new("cni0", "10.42.0");
        let mut prev = CniResult::default();
        prev.interfaces.push(Interface { name: "lo".into(), sandbox: String::new() });
        let result = plugin.add(&mut host, &args, prev).unwrap();
        assert_eq!(result.interfaces[0].name, "lo", "the earlier plugin's interface stays first");
        assert_eq!(result.ips[0].interface, 1, "the address names the bridge's interface");
        assert_eq!(plugin.cost(CniCommand::Add), SimDur::from_millis(25));
        assert_eq!(plugin.cost(CniCommand::Del), SimDur::from_millis(12));
        plugin.del(&mut host, &args).unwrap();
    }
}
