//! The plugin interface a CNI chain executes.
//!
//! libcni's conflist semantics — on ADD, plugins run in order and each
//! receives the previous plugin's result (`prevResult`); on DEL, plugins
//! run in *reverse* order and every plugin is attempted even if an
//! earlier one fails — are implemented once, by the node-side runner
//! every pod goes through (`slingshot_k8s::NodeChain`). This module
//! defines what that runner drives: the generic [`CniPlugin`] trait the
//! paper's CXI plugin and Flannel/Cilium-style primary plugins both
//! present (§III-B).

use shs_des::SimDur;

use crate::spec::{CniArgs, CniCommand, CniError, CniResult};

/// A CNI plugin over a node context `C` (the context carries whatever
/// node state the plugin manipulates: the host kernel, the CXI device,
/// the management-plane client, ...).
pub trait CniPlugin<C> {
    /// The plugin's `type` string.
    fn kind(&self) -> &str;

    /// ADD: join the container to this plugin's network. `prev` is the
    /// accumulated result of earlier plugins in the chain.
    fn add(
        &mut self,
        ctx: &mut C,
        args: &CniArgs,
        prev: CniResult,
    ) -> Result<CniResult, CniError>;

    /// DEL: remove the container from this plugin's network. Must be
    /// idempotent — DEL may be called repeatedly or without a prior ADD.
    fn del(&mut self, ctx: &mut C, args: &CniArgs) -> Result<(), CniError>;

    /// CHECK: verify expected state. Default: OK.
    fn check(&mut self, ctx: &mut C, args: &CniArgs) -> Result<(), CniError> {
        let _ = (ctx, args);
        Ok(())
    }

    /// Wall-clock cost of one invocation (process exec + work). Surfaces
    /// in pod-start latency and thus in the Figs. 9-12 admission numbers.
    fn cost(&self, cmd: CniCommand) -> SimDur {
        let _ = cmd;
        SimDur::from_millis(15)
    }
}
