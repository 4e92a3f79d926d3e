//! The node-side CNI plugin chain — the one chain runner in the tree.
//!
//! Mirrors libcni's conflist semantics: on ADD, plugins run in order and
//! each receives the previous plugin's result (`prevResult`), and a
//! failure rolls the already-added prefix back with DEL; on DEL, plugins
//! run in *reverse* order and every plugin is attempted even if an
//! earlier one fails (best-effort teardown). The paper's CXI plugin
//! ([`crate::cxi_cni`]) relies on this chaining to compose with
//! Flannel/Cilium-style primary plugins (§III-B); every pod the kubelet
//! starts goes through a [`NodeChain`].

use shs_cni::{CniArgs, CniCommand, CniError, CniPlugin, CniResult, HasHost};
use shs_cxi::CxiDevice;
use shs_des::SimDur;
use shs_fabric::{Fabric, NicAddr};
use shs_k8s::ApiServer;
use shs_oslinux::{Creds, Host};

/// The per-invocation node context the CNI chain operates on.
pub struct NodeCniCtx<'a> {
    /// The node kernel.
    pub host: &'a mut Host,
    /// The node's CXI device (driver + NIC).
    pub device: &'a mut CxiDevice,
    /// The fabric (switch-port VNI realization).
    pub fabric: &'a mut Fabric,
    /// Read-only view of the management plane.
    pub api: &'a ApiServer,
    /// The node's NIC address.
    pub nic: NicAddr,
    /// Credentials the plugin runs with (CNI plugins execute privileged).
    pub root: Creds,
}

impl HasHost for NodeCniCtx<'_> {
    fn host_mut(&mut self) -> &mut Host {
        self.host
    }
}

/// Object-safe plugin interface specialised to [`NodeCniCtx`] (the
/// generic `shs_cni::CniPlugin<C>` cannot be boxed over a borrowed
/// context type; this trait quantifies the lifetime per call). Unlike
/// the generic trait, verbs return the *actual* cost of the invocation:
/// a no-op CXI ADD (pod without the `vni` annotation) is much cheaper
/// than one that fetches the VNI CRD and programs a service — the cost
/// asymmetry behind the paper's vni:true admission overhead.
pub trait NodeCniPlugin {
    /// Plugin type name.
    fn kind(&self) -> &str;
    /// ADD verb; returns (result, cost) or (error, cost-paid).
    fn add(
        &mut self,
        ctx: &mut NodeCniCtx<'_>,
        args: &CniArgs,
        prev: CniResult,
    ) -> Result<(CniResult, SimDur), (CniError, SimDur)>;
    /// DEL verb (idempotent); returns the cost paid.
    fn del(&mut self, ctx: &mut NodeCniCtx<'_>, args: &CniArgs) -> (Result<(), CniError>, SimDur);
}

/// Every generic CNI plugin usable with [`NodeCniCtx`] is a node plugin
/// (covers the reference bridge plugin), with its static cost model.
impl<P> NodeCniPlugin for P
where
    P: for<'a> CniPlugin<NodeCniCtx<'a>>,
{
    fn kind(&self) -> &str {
        CniPlugin::kind(self)
    }
    fn add(
        &mut self,
        ctx: &mut NodeCniCtx<'_>,
        args: &CniArgs,
        prev: CniResult,
    ) -> Result<(CniResult, SimDur), (CniError, SimDur)> {
        let cost = CniPlugin::cost(self, CniCommand::Add);
        CniPlugin::add(self, ctx, args, prev).map(|r| (r, cost)).map_err(|e| (e, cost))
    }
    fn del(&mut self, ctx: &mut NodeCniCtx<'_>, args: &CniArgs) -> (Result<(), CniError>, SimDur) {
        (CniPlugin::del(self, ctx, args), CniPlugin::cost(self, CniCommand::Del))
    }
}

/// The node's configured plugin chain (conflist order), with libcni
/// semantics: ADD threads `prevResult` and rolls back on failure, DEL
/// runs in reverse and is best-effort.
#[derive(Default)]
pub struct NodeChain {
    plugins: Vec<Box<dyn NodeCniPlugin>>,
}

impl NodeChain {
    /// Empty chain.
    pub fn new() -> Self {
        NodeChain::default()
    }

    /// Append a plugin.
    pub fn push(&mut self, p: Box<dyn NodeCniPlugin>) -> &mut Self {
        self.plugins.push(p);
        self
    }

    /// Plugin kinds in order.
    pub fn kinds(&self) -> Vec<&str> {
        self.plugins.iter().map(|p| p.kind()).collect()
    }

    /// Chained ADD.
    pub fn add(
        &mut self,
        ctx: &mut NodeCniCtx<'_>,
        args: &CniArgs,
    ) -> Result<(CniResult, SimDur), (CniError, SimDur)> {
        let mut result = CniResult::default();
        let mut cost = SimDur::ZERO;
        for i in 0..self.plugins.len() {
            match self.plugins[i].add(ctx, args, result.clone()) {
                Ok((r, c)) => {
                    result = r;
                    cost += c;
                }
                Err((e, c)) => {
                    cost += c;
                    for j in (0..=i).rev() {
                        let (_, c) = self.plugins[j].del(ctx, args);
                        cost += c;
                    }
                    return Err((e, cost));
                }
            }
        }
        Ok((result, cost))
    }

    /// Chained DEL (reverse order, all plugins attempted).
    pub fn del(&mut self, ctx: &mut NodeCniCtx<'_>, args: &CniArgs) -> SimDur {
        let mut cost = SimDur::ZERO;
        for p in self.plugins.iter_mut().rev() {
            let (_, c) = p.del(ctx, args);
            cost += c;
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use shs_cassini::{CassiniNic, CassiniParams};
    use shs_cni::Interface;
    use shs_cxi::CxiDriver;
    use shs_des::DetRng;
    use shs_oslinux::{NetNsId, Pid};

    type Log = Rc<RefCell<Vec<String>>>;

    /// A generic plugin (any context) that records its invocations in a
    /// shared log, so it reaches the chain through the blanket
    /// [`NodeCniPlugin`] impl with the default 15 ms cost model.
    struct Recorder {
        name: &'static str,
        fail_add: bool,
        fail_del: bool,
        log: Log,
    }

    impl<C> CniPlugin<C> for Recorder {
        fn kind(&self) -> &str {
            self.name
        }
        fn add(
            &mut self,
            _c: &mut C,
            _a: &CniArgs,
            mut prev: CniResult,
        ) -> Result<CniResult, CniError> {
            self.log.borrow_mut().push(format!("{}:add", self.name));
            if self.fail_add {
                return Err(CniError::plugin(100, "boom"));
            }
            prev.interfaces.push(Interface { name: self.name.into(), sandbox: String::new() });
            Ok(prev)
        }
        fn del(&mut self, _c: &mut C, _a: &CniArgs) -> Result<(), CniError> {
            self.log.borrow_mut().push(format!("{}:del", self.name));
            if self.fail_del {
                return Err(CniError::plugin(101, "del failed"));
            }
            Ok(())
        }
    }

    /// Run `f` over a two-plugin chain (`bridge` then `second`) on a
    /// bare node context; returns what `f` returned and the shared log.
    fn with_chain<R>(
        second: (&'static str, bool, bool),
        f: impl FnOnce(&mut NodeChain, &mut NodeCniCtx<'_>, &CniArgs) -> R,
    ) -> (R, Vec<String>) {
        let log = Log::default();
        let mut chain = NodeChain::new();
        for (name, fail_add, fail_del) in [("bridge", false, false), second] {
            chain.push(Box::new(Recorder { name, fail_add, fail_del, log: log.clone() }));
        }
        let mut host = Host::new("n0");
        let nic = NicAddr(1);
        let mut fabric = Fabric::new(4);
        let mut device = CxiDevice::new(
            CxiDriver::extended(),
            CassiniNic::new(nic, CassiniParams::default(), DetRng::new(3)),
        );
        let root = host.credentials(Pid(1)).expect("init");
        let api = ApiServer::default();
        let mut ctx = NodeCniCtx {
            host: &mut host,
            device: &mut device,
            fabric: &mut fabric,
            api: &api,
            nic,
            root,
        };
        let args = CniArgs {
            container_id: "ctr-1".into(),
            netns: NetNsId(42),
            ifname: "eth0".into(),
            pod: None,
        };
        let out = f(&mut chain, &mut ctx, &args);
        let log = log.borrow().clone();
        (out, log)
    }

    const STEP: SimDur = SimDur::from_millis(15);

    #[test]
    fn add_runs_in_order_and_threads_result() {
        let (out, log) = with_chain(("cxi", false, false), |chain, ctx, args| chain.add(ctx, args));
        let (result, cost) = out.unwrap();
        assert_eq!(log, vec!["bridge:add", "cxi:add"]);
        let names: Vec<&str> = result.interfaces.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["bridge", "cxi"], "prevResult accumulates");
        assert_eq!(cost, STEP + STEP);
    }

    #[test]
    fn del_runs_in_reverse_order() {
        let (cost, log) =
            with_chain(("cxi", false, false), |chain, ctx, args| chain.del(ctx, args));
        assert_eq!(log, vec!["cxi:del", "bridge:del"]);
        assert_eq!(cost, STEP + STEP);
    }

    #[test]
    fn failed_add_rolls_back_prefix() {
        let (out, log) = with_chain(("cxi", true, false), |chain, ctx, args| chain.add(ctx, args));
        let (err, cost) = out.unwrap_err();
        assert_eq!(err.code, 100);
        // bridge added, cxi failed, both rolled back in reverse order.
        assert_eq!(log, vec!["bridge:add", "cxi:add", "cxi:del", "bridge:del"]);
        assert_eq!(cost, STEP + STEP + STEP + STEP, "the rollback DELs are paid for too");
    }

    #[test]
    fn del_attempts_all_plugins_despite_errors() {
        let (cost, log) =
            with_chain(("faildel", false, true), |chain, ctx, args| chain.del(ctx, args));
        assert_eq!(log, vec!["faildel:del", "bridge:del"], "bridge still ran");
        assert_eq!(cost, STEP + STEP);
    }

    #[test]
    fn kinds_lists_chain_order() {
        let (kinds, _) = with_chain(("cxi", false, false), |chain, _, _| {
            chain.kinds().into_iter().map(String::from).collect::<Vec<_>>()
        });
        assert_eq!(kinds, vec!["bridge", "cxi"]);
    }
}
