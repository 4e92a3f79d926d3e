//! The container runtime: sandboxes (pause process + fresh network
//! namespace, optionally a user namespace) and container lifecycle.
//!
//! CNI invocation is *not* performed here — the kubelet drives the CNI
//! chain between sandbox creation and container start, exactly as in the
//! CRI flow the paper's plugin hooks into (§III-B).

use std::collections::BTreeMap;

use shs_des::SimDur;
use shs_oslinux::{Gid, Host, IdMapEntry, NetNsId, OsError, Pid, Uid};

use crate::images::{Image, ImageStore};

/// Runtime timing parameters (pod-start pipeline costs; these dominate
/// the admission delays of Figs. 9-12 alongside the control plane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeParams {
    /// Sandbox (pause container + namespaces) creation.
    pub sandbox_create: SimDur,
    /// Container creation (rootfs snapshot, spec generation).
    pub container_create: SimDur,
    /// Container process start (shim, exec).
    pub container_start: SimDur,
    /// Sandbox teardown.
    pub sandbox_teardown: SimDur,
}

impl Default for RuntimeParams {
    fn default() -> Self {
        RuntimeParams {
            sandbox_create: SimDur::from_millis(220),
            container_create: SimDur::from_millis(90),
            container_start: SimDur::from_millis(120),
            sandbox_teardown: SimDur::from_millis(110),
        }
    }
}

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The pod (`<namespace>_<pod>`) already has a sandbox.
    SandboxExists(String),
    /// No sandbox for the (namespace, pod) named.
    NoSuchSandbox,
    /// Image reference unknown to the registry.
    UnknownImage(String),
    /// Kernel-level failure.
    Os(OsError),
}

impl From<OsError> for RuntimeError {
    fn from(e: OsError) -> Self {
        RuntimeError::Os(e)
    }
}

impl core::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RuntimeError::SandboxExists(id) => write!(f, "sandbox {id} already exists"),
            RuntimeError::NoSuchSandbox => f.write_str("no such sandbox"),
            RuntimeError::UnknownImage(r) => write!(f, "unknown image {r}"),
            RuntimeError::Os(e) => write!(f, "os: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// User-namespace request for a sandbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserNsMode {
    /// Share the host user namespace (Kubernetes default: all containers
    /// run as one host user — the identity problem of §III).
    Host,
    /// New user namespace with a 64 Ki id map starting at the given host
    /// id ("rootless" pods).
    Mapped {
        /// First host uid/gid of the 64 Ki window.
        base: u32,
    },
}

/// A container inside a sandbox.
#[derive(Debug, Clone)]
pub struct Container {
    /// Container name.
    pub name: String,
    /// Image reference.
    pub image: String,
    /// Main process.
    pub pid: Pid,
    /// How long the workload runs before exiting on its own (`None` =
    /// runs until killed).
    pub run_duration: Option<SimDur>,
}

/// A pod sandbox, named by its pod's (namespace, name).
#[derive(Debug)]
pub struct Sandbox {
    /// The pause process anchoring the namespaces.
    pub pause_pid: Pid,
    /// The sandbox's network namespace — the identity the paper's
    /// extended driver authenticates (§III-A).
    pub netns: NetNsId,
    /// Containers running inside.
    pub containers: Vec<Container>,
}

/// The runtime.
#[derive(Debug)]
pub struct ContainerRuntime {
    params: RuntimeParams,
    /// The node-local image store.
    pub images: ImageStore,
    /// namespace → pod → sandbox: a borrowed `(namespace, pod)` finds
    /// its sandbox without building an id.
    sandboxes: BTreeMap<String, BTreeMap<String, Sandbox>>,
}

impl Default for ContainerRuntime {
    fn default() -> Self {
        ContainerRuntime::new(RuntimeParams::default(), ImageStore::default())
    }
}

impl ContainerRuntime {
    /// Runtime with explicit parameters and image store.
    pub fn new(params: RuntimeParams, images: ImageStore) -> Self {
        ContainerRuntime { params, images, sandboxes: BTreeMap::new() }
    }

    /// Timing parameters.
    pub fn params(&self) -> &RuntimeParams {
        &self.params
    }

    /// Create the sandbox of pod `namespace/pod`: spawn the pause
    /// process, give it a fresh network namespace (and optionally a user
    /// namespace). Returns the sandbox's netns and the setup cost.
    pub fn create_sandbox(
        &mut self,
        host: &mut Host,
        namespace: &str,
        pod: &str,
        userns: UserNsMode,
    ) -> Result<(NetNsId, SimDur), RuntimeError> {
        if self.sandbox(namespace, pod).is_some() {
            return Err(RuntimeError::SandboxExists(format!("{namespace}_{pod}")));
        }
        let pause = format!("pause-{namespace}_{pod}");
        let pause_pid = host.spawn_detached(&pause, Uid::ROOT, Gid::ROOT);
        if let UserNsMode::Mapped { base } = userns {
            let map = vec![IdMapEntry { inside_start: 0, outside_start: base, count: 65_536 }];
            host.unshare_user_ns(pause_pid, map.clone(), map, Uid::ROOT, Gid::ROOT)?;
        }
        let netns = host.unshare_net_ns(pause_pid)?;
        self.sandboxes
            .entry(namespace.to_owned())
            .or_default()
            .insert(pod.to_owned(), Sandbox { pause_pid, netns, containers: Vec::new() });
        Ok((netns, self.params.sandbox_create))
    }

    /// The sandbox of pod `namespace/pod`, if it has one.
    pub fn sandbox(&self, namespace: &str, pod: &str) -> Option<&Sandbox> {
        self.sandboxes.get(namespace)?.get(pod)
    }

    /// Number of live sandboxes.
    pub fn sandbox_count(&self) -> usize {
        self.sandboxes.values().map(BTreeMap::len).sum()
    }

    /// Start a container in the sandbox of pod `namespace/pod`: ensure
    /// the image, fork from the pause process (inheriting all
    /// namespaces), run the workload. Returns the main pid and the total
    /// setup cost (pull + create + start).
    pub fn start_container(
        &mut self,
        host: &mut Host,
        namespace: &str,
        pod: &str,
        name: &str,
        image: &Image,
        run_duration: Option<SimDur>,
    ) -> Result<(Pid, SimDur), RuntimeError> {
        if self.sandbox(namespace, pod).is_none() {
            return Err(RuntimeError::NoSuchSandbox);
        }
        let pull = self
            .images
            .ensure(&image.reference)
            .ok_or_else(|| RuntimeError::UnknownImage(image.reference.clone()))?;
        let sandbox = self.sandboxes.get_mut(namespace).and_then(|pods| pods.get_mut(pod));
        let sandbox = sandbox.expect("checked above");
        let pid = host.fork(sandbox.pause_pid, name)?;
        sandbox.containers.push(Container {
            name: name.to_string(),
            image: image.reference.clone(),
            pid,
            run_duration,
        });
        let cost = pull + self.params.container_create + self.params.container_start;
        Ok((pid, cost))
    }

    /// Tear down the sandbox of pod `namespace/pod`: kill all container
    /// processes and the pause process, delete the network namespace.
    /// Returns the teardown cost.
    pub fn remove_sandbox(
        &mut self,
        host: &mut Host,
        namespace: &str,
        pod: &str,
    ) -> Result<SimDur, RuntimeError> {
        let pods = self.sandboxes.get_mut(namespace).ok_or(RuntimeError::NoSuchSandbox)?;
        let sandbox = pods.remove(pod).ok_or(RuntimeError::NoSuchSandbox)?;
        if pods.is_empty() {
            self.sandboxes.remove(namespace);
        }
        for c in &sandbox.containers {
            let _ = host.exit(c.pid); // may have exited already
        }
        host.exit(sandbox.pause_pid)?;
        host.delete_net_ns(sandbox.netns)?;
        Ok(self.params.sandbox_teardown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime_with_alpine() -> ContainerRuntime {
        let mut rt = ContainerRuntime::default();
        rt.images.publish(Image::alpine());
        rt
    }

    #[test]
    fn sandbox_gets_fresh_netns() {
        let mut host = Host::new("n0");
        let mut rt = runtime_with_alpine();
        let (ns1, cost) = rt.create_sandbox(&mut host, "t", "sb1", UserNsMode::Host).unwrap();
        let (ns2, _) = rt.create_sandbox(&mut host, "t", "sb2", UserNsMode::Host).unwrap();
        assert_ne!(ns1, ns2);
        assert_ne!(ns1, host.host_netns());
        assert!(cost > SimDur::ZERO);
        assert_eq!(rt.sandbox_count(), 2);
    }

    #[test]
    fn duplicate_sandbox_rejected() {
        let mut host = Host::new("n0");
        let mut rt = runtime_with_alpine();
        rt.create_sandbox(&mut host, "t", "sb1", UserNsMode::Host).unwrap();
        assert_eq!(
            rt.create_sandbox(&mut host, "t", "sb1", UserNsMode::Host).unwrap_err(),
            RuntimeError::SandboxExists("t_sb1".into())
        );
    }

    #[test]
    fn mapped_userns_sandboxes_have_sandboxed_identity() {
        let mut host = Host::new("n0");
        let mut rt = runtime_with_alpine();
        rt.create_sandbox(&mut host, "t", "sb1", UserNsMode::Mapped { base: 100_000 }).unwrap();
        let sb = rt.sandbox("t", "sb1").unwrap();
        // Pause process is root inside, mapped outside.
        assert_eq!(host.process(sb.pause_pid).unwrap().uid, Uid::ROOT);
        assert_eq!(host.host_uid(sb.pause_pid).unwrap(), Uid(100_000));
    }

    #[test]
    fn containers_inherit_sandbox_namespaces() {
        let mut host = Host::new("n0");
        let mut rt = runtime_with_alpine();
        rt.create_sandbox(&mut host, "t", "sb1", UserNsMode::Host).unwrap();
        let (pid, cost) = rt
            .start_container(&mut host, "t", "sb1", "main", &Image::alpine(), None)
            .unwrap();
        let sb_ns = rt.sandbox("t", "sb1").unwrap().netns;
        assert_eq!(host.proc_netns_inode(pid).unwrap(), sb_ns);
        assert!(cost >= SimDur::from_millis(200), "pull + create + start");
    }

    #[test]
    fn second_container_start_is_faster_warm_cache() {
        let mut host = Host::new("n0");
        let mut rt = runtime_with_alpine();
        rt.create_sandbox(&mut host, "t", "sb1", UserNsMode::Host).unwrap();
        rt.create_sandbox(&mut host, "t", "sb2", UserNsMode::Host).unwrap();
        let (_, c1) = rt
            .start_container(&mut host, "t", "sb1", "a", &Image::alpine(), None)
            .unwrap();
        let (_, c2) = rt
            .start_container(&mut host, "t", "sb2", "b", &Image::alpine(), None)
            .unwrap();
        assert!(c2 < c1, "warm cache should be cheaper: {c2} vs {c1}");
    }

    #[test]
    fn unknown_image_fails_start() {
        let mut host = Host::new("n0");
        let mut rt = ContainerRuntime::default();
        rt.create_sandbox(&mut host, "t", "sb1", UserNsMode::Host).unwrap();
        let img = Image { reference: "ghost:latest".into(), size_bytes: 1 };
        assert_eq!(
            rt.start_container(&mut host, "t", "sb1", "a", &img, None).unwrap_err(),
            RuntimeError::UnknownImage("ghost:latest".into())
        );
    }

    #[test]
    fn remove_sandbox_kills_processes_and_netns() {
        let mut host = Host::new("n0");
        let mut rt = runtime_with_alpine();
        let (netns, _) = rt.create_sandbox(&mut host, "t", "sb1", UserNsMode::Host).unwrap();
        let (pid, _) = rt
            .start_container(&mut host, "t", "sb1", "a", &Image::alpine(), None)
            .unwrap();
        rt.remove_sandbox(&mut host, "t", "sb1").unwrap();
        assert!(host.process(pid).is_err());
        assert!(host.net_namespace(netns).is_none());
        assert_eq!(rt.sandbox_count(), 0);
        assert!(matches!(
            rt.remove_sandbox(&mut host, "t", "sb1").unwrap_err(),
            RuntimeError::NoSuchSandbox
        ));
    }

    #[test]
    fn sandboxes_are_named_by_namespace_and_pod() {
        let mut host = Host::new("n0");
        let mut rt = runtime_with_alpine();
        // One pod name in two namespaces, and a namespace that is a
        // prefix of another.
        let (a, _) = rt.create_sandbox(&mut host, "t", "p", UserNsMode::Host).unwrap();
        let (b, _) = rt.create_sandbox(&mut host, "t2", "p", UserNsMode::Host).unwrap();
        assert_eq!(rt.sandbox("t", "p").map(|s| s.netns), Some(a));
        assert_eq!(rt.sandbox("t2", "p").map(|s| s.netns), Some(b));
        assert!(rt.sandbox("t", "p2").is_none() && rt.sandbox("u", "p").is_none());
        assert_eq!(
            rt.start_container(&mut host, "u", "p", "a", &Image::alpine(), None).unwrap_err(),
            RuntimeError::NoSuchSandbox
        );
        // Emptying a namespace and refilling it.
        rt.remove_sandbox(&mut host, "t", "p").unwrap();
        assert!(rt.sandbox("t", "p").is_none());
        assert_eq!(rt.sandbox_count(), 1);
        let (c, _) = rt.create_sandbox(&mut host, "t", "p", UserNsMode::Host).unwrap();
        assert_ne!(c, a);
        assert_eq!(rt.sandbox("t", "p").map(|s| s.netns), Some(c));
        assert_eq!(rt.sandbox_count(), 2);
    }
}
