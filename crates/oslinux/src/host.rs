//! A simulated host kernel: process table, namespace registries, and the
//! syscall-like surface the container runtime and CXI driver consume.

use crate::hash::IdMap;
use crate::ids::{Gid, NetNsId, Pid, Uid, UserNsId, NS_INODE_BASE};
use crate::ns::{IdMapEntry, NetNamespace, UserNamespace};

/// Subset of errno values the simulated syscalls can fail with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// No such process.
    Srch,
    /// Operation not permitted.
    Perm,
    /// Invalid argument.
    Inval,
    /// Object already exists.
    Exist,
}

impl core::fmt::Display for OsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            OsError::Srch => "ESRCH: no such process",
            OsError::Perm => "EPERM: operation not permitted",
            OsError::Inval => "EINVAL: invalid argument",
            OsError::Exist => "EEXIST: already exists",
        };
        f.write_str(s)
    }
}

impl std::error::Error for OsError {}

/// A simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Human-readable command name (diagnostics only).
    pub comm: String,
    /// Namespace-local uid (what a non-userns-aware kernel component sees).
    pub uid: Uid,
    /// Namespace-local gid.
    pub gid: Gid,
    /// User namespace this process lives in.
    pub userns: UserNsId,
    /// Network namespace this process lives in.
    pub netns: NetNsId,
    /// Whether the process holds CAP_SETUID/CAP_SETGID *in its own user
    /// namespace*. Container "root" (inside-uid 0) holds it — the lever the
    /// paper's spoofing scenario pulls.
    pub cap_setid: bool,
}

/// Credentials as observed by a kernel component on behalf of a calling
/// process — the exact inputs to the CXI service member check (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Creds {
    /// The calling process.
    pub pid: Pid,
    /// Namespace-local uid (legacy driver reads this: spoofable in userns).
    pub uid: Uid,
    /// Namespace-local gid.
    pub gid: Gid,
    /// Uid resolved through the user-namespace chain to the host; the
    /// overflow uid if unmapped. (A userns-aware driver reads this.)
    pub host_uid: Uid,
    /// Gid resolved to the host.
    pub host_gid: Gid,
    /// Network-namespace inode, via procfs. Kernel-controlled, unforgeable.
    pub netns: NetNsId,
    /// User namespace of the process.
    pub userns: UserNsId,
}

/// One simulated host (node kernel).
#[derive(Debug)]
pub struct Host {
    /// Host name (diagnostics, fabric addressing).
    pub hostname: String,
    /// Live processes only: an exited pid leaves the table. Each of the
    /// three tables hashes its kernel-assigned key with one multiply
    /// ([`IdHasher`](crate::IdHasher)), so a credential lookup
    /// costs no SipHash round.
    processes: IdMap<Pid, Process>,
    user_namespaces: IdMap<UserNsId, UserNamespace>,
    /// Network namespaces, each counting the live processes inside, so
    /// deleting one checks a count instead of scanning the processes.
    net_namespaces: IdMap<NetNsId, NetNamespace>,
    next_pid: u32,
    next_ns_inode: u64,
    init_userns: UserNsId,
    host_netns: NetNsId,
}

impl Host {
    /// Boot a host: initial user namespace, host network namespace, and
    /// `init` (pid 1, root). Namespace inode numbers are offset by a
    /// hostname-derived stride so that inodes from different hosts never
    /// alias (each real kernel has its own inode space; giving the
    /// simulated ones disjoint ranges surfaces any cross-node confusion
    /// as a hard failure instead of a silent collision).
    pub fn new(hostname: impl Into<String>) -> Self {
        let hostname = hostname.into();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in hostname.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let base = NS_INODE_BASE + (h % 1_000_000) * 100_000;
        let init_userns = UserNsId(base);
        let host_netns = NetNsId(base + 1);
        let mut user_namespaces = IdMap::default();
        user_namespaces.insert(init_userns, UserNamespace::initial(init_userns));
        let mut net_namespaces = IdMap::default();
        net_namespaces.insert(host_netns, NetNamespace::new(host_netns, true));
        let mut host = Host {
            hostname,
            processes: IdMap::default(),
            user_namespaces,
            net_namespaces,
            next_pid: 1,
            next_ns_inode: base + 2,
            init_userns,
            host_netns,
        };
        host.spawn_detached("init", Uid::ROOT, Gid::ROOT);
        host
    }

    /// The host network namespace id.
    pub fn host_netns(&self) -> NetNsId {
        self.host_netns
    }

    /// Spawn a process directly in the initial namespaces (host daemon,
    /// benchmark on bare metal, ...).
    pub fn spawn_detached(&mut self, comm: &str, uid: Uid, gid: Gid) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.occupy(self.host_netns, 1);
        self.processes.insert(
            pid,
            Process {
                pid,
                comm: comm.to_string(),
                uid,
                gid,
                userns: self.init_userns,
                netns: self.host_netns,
                cap_setid: uid == Uid::ROOT,
            },
        );
        pid
    }

    /// Fork: child inherits credentials and namespaces of the parent.
    pub fn fork(&mut self, parent: Pid, comm: &str) -> Result<Pid, OsError> {
        let p = self.process(parent)?.clone();
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.occupy(p.netns, 1);
        self.processes.insert(pid, Process { pid, comm: comm.to_string(), ..p });
        Ok(pid)
    }

    /// Terminate a process: its pid leaves the process table.
    pub fn exit(&mut self, pid: Pid) -> Result<(), OsError> {
        let p = self.processes.remove(&pid).ok_or(OsError::Srch)?;
        self.occupy(p.netns, -1);
        Ok(())
    }

    /// Count a process into (`+1`) or out of (`-1`) a network
    /// namespace. Every process's namespace exists: one is deleted only
    /// once its count is zero.
    fn occupy(&mut self, netns: NetNsId, delta: isize) {
        let ns = self.net_namespaces.get_mut(&netns).expect("a process's netns exists");
        ns.occupants =
            ns.occupants.checked_add_signed(delta).expect("occupancy stays non-negative");
    }

    /// Look up a live process.
    pub fn process(&self, pid: Pid) -> Result<&Process, OsError> {
        self.processes.get(&pid).ok_or(OsError::Srch)
    }

    fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, OsError> {
        self.processes.get_mut(&pid).ok_or(OsError::Srch)
    }

    /// `unshare(CLONE_NEWUSER)` + map writes: move `pid` into a fresh user
    /// namespace with the given maps; the process becomes `inside_uid`
    /// (typically 0 — container root) and gains CAP_SETID inside.
    pub fn unshare_user_ns(
        &mut self,
        pid: Pid,
        uid_map: Vec<IdMapEntry>,
        gid_map: Vec<IdMapEntry>,
        inside_uid: Uid,
        inside_gid: Gid,
    ) -> Result<UserNsId, OsError> {
        if uid_map.is_empty() || gid_map.is_empty() {
            return Err(OsError::Inval);
        }
        let parent_ns = self.process(pid)?.userns;
        let id = UserNsId(self.next_ns_inode);
        self.next_ns_inode += 1;
        self.user_namespaces.insert(
            id,
            UserNamespace { id, parent: Some(parent_ns), uid_map, gid_map },
        );
        let p = self.process_mut(pid)?;
        p.userns = id;
        p.uid = inside_uid;
        p.gid = inside_gid;
        p.cap_setid = inside_uid == Uid::ROOT;
        Ok(id)
    }

    /// `unshare(CLONE_NEWNET)`: move `pid` into a fresh network namespace.
    pub fn unshare_net_ns(&mut self, pid: Pid) -> Result<NetNsId, OsError> {
        let old = self.process(pid)?.netns;
        let id = NetNsId(self.next_ns_inode);
        self.next_ns_inode += 1;
        self.net_namespaces.insert(id, NetNamespace::new(id, false));
        self.occupy(old, -1);
        self.occupy(id, 1);
        self.process_mut(pid)?.netns = id;
        Ok(id)
    }

    /// `setuid`: allowed with CAP_SETUID in the caller's user namespace,
    /// and only to uids that are mapped there (Linux semantics). Note that
    /// inside a wide-mapped container namespace this lets "container root"
    /// assume *any* victim uid — the hole described in §III.
    pub fn setuid(&mut self, pid: Pid, uid: Uid) -> Result<(), OsError> {
        let (userns, cap) = {
            let p = self.process(pid)?;
            (p.userns, p.cap_setid)
        };
        if !cap {
            return Err(OsError::Perm);
        }
        let ns = self.user_namespaces.get(&userns).ok_or(OsError::Inval)?;
        if ns.uid_to_parent(uid).is_none() {
            return Err(OsError::Inval);
        }
        self.process_mut(pid)?.uid = uid;
        Ok(())
    }

    /// Resolve a process's uid through the user-namespace chain to the
    /// initial namespace; overflow uid if unmapped at any level.
    pub fn host_uid(&self, pid: Pid) -> Result<Uid, OsError> {
        let p = self.process(pid)?;
        Ok(self.resolve_uid(p.userns, p.uid))
    }

    /// Resolve a process's gid to the initial namespace.
    pub fn host_gid(&self, pid: Pid) -> Result<Gid, OsError> {
        let p = self.process(pid)?;
        Ok(self.resolve_gid(p.userns, p.gid))
    }

    fn resolve_uid(&self, mut ns_id: UserNsId, mut uid: Uid) -> Uid {
        loop {
            let Some(ns) = self.user_namespaces.get(&ns_id) else {
                return Uid::OVERFLOW;
            };
            match ns.parent {
                None => return uid,
                Some(parent) => match ns.uid_to_parent(uid) {
                    Some(up) => {
                        uid = up;
                        ns_id = parent;
                    }
                    None => return Uid::OVERFLOW,
                },
            }
        }
    }

    fn resolve_gid(&self, mut ns_id: UserNsId, mut gid: Gid) -> Gid {
        loop {
            let Some(ns) = self.user_namespaces.get(&ns_id) else {
                return Gid::OVERFLOW;
            };
            match ns.parent {
                None => return gid,
                Some(parent) => match ns.gid_to_parent(gid) {
                    Some(up) => {
                        gid = up;
                        ns_id = parent;
                    }
                    None => return Gid::OVERFLOW,
                },
            }
        }
    }

    /// What `/proc/<pid>/ns/net` reports: the kernel-held netns inode.
    /// This is the authentication input of the paper's extended driver.
    pub fn proc_netns_inode(&self, pid: Pid) -> Result<NetNsId, OsError> {
        Ok(self.process(pid)?.netns)
    }

    /// Full credential snapshot for a calling process.
    pub fn credentials(&self, pid: Pid) -> Result<Creds, OsError> {
        let p = self.process(pid)?;
        Ok(Creds {
            pid,
            uid: p.uid,
            gid: p.gid,
            host_uid: self.resolve_uid(p.userns, p.uid),
            host_gid: self.resolve_gid(p.userns, p.gid),
            netns: p.netns,
            userns: p.userns,
        })
    }

    /// Access a network namespace.
    pub fn net_namespace(&self, id: NetNsId) -> Option<&NetNamespace> {
        self.net_namespaces.get(&id)
    }

    /// Mutable access to a network namespace.
    pub fn net_namespace_mut(&mut self, id: NetNsId) -> Option<&mut NetNamespace> {
        self.net_namespaces.get_mut(&id)
    }

    /// Delete a network namespace once its last user is gone. Refuses to
    /// delete the host namespace or one still occupied by live processes
    /// (its occupancy count, not a scan of the process table).
    pub fn delete_net_ns(&mut self, id: NetNsId) -> Result<(), OsError> {
        if id == self.host_netns {
            return Err(OsError::Perm);
        }
        match self.net_namespaces.get(&id) {
            None => Err(OsError::Inval),
            Some(ns) if ns.occupants > 0 => Err(OsError::Perm),
            Some(_) => {
                self.net_namespaces.remove(&id);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide_map() -> Vec<IdMapEntry> {
        vec![IdMapEntry { inside_start: 0, outside_start: 100_000, count: 65_536 }]
    }

    #[test]
    fn boot_creates_init() {
        let h = Host::new("n0");
        assert_eq!(h.processes.len(), 1);
        let init = h.process(Pid(1)).unwrap();
        assert_eq!(init.uid, Uid::ROOT);
        assert_eq!(init.netns, h.host_netns());
    }

    #[test]
    fn fork_inherits_namespaces() {
        let mut h = Host::new("n0");
        let parent = h.spawn_detached("daemon", Uid(1000), Gid(1000));
        let child = h.fork(parent, "worker").unwrap();
        let (p, c) = (h.process(parent).unwrap().clone(), h.process(child).unwrap().clone());
        assert_eq!(c.uid, p.uid);
        assert_eq!(c.netns, p.netns);
        assert_eq!(c.userns, p.userns);
        assert_ne!(c.pid, p.pid);
    }

    #[test]
    fn exit_makes_process_unlookupable() {
        let mut h = Host::new("n0");
        let pid = h.spawn_detached("x", Uid(1), Gid(1));
        h.exit(pid).unwrap();
        assert_eq!(h.process(pid).unwrap_err(), OsError::Srch);
        assert_eq!(h.exit(pid).unwrap_err(), OsError::Srch);
    }

    #[test]
    fn unshare_netns_assigns_fresh_unforgeable_inode() {
        let mut h = Host::new("n0");
        let a = h.spawn_detached("a", Uid(1000), Gid(1000));
        let b = h.spawn_detached("b", Uid(1000), Gid(1000));
        let ns_a = h.unshare_net_ns(a).unwrap();
        let ns_b = h.unshare_net_ns(b).unwrap();
        assert_ne!(ns_a, ns_b);
        assert_ne!(ns_a, h.host_netns());
        assert_eq!(h.proc_netns_inode(a).unwrap(), ns_a);
        assert_eq!(h.proc_netns_inode(b).unwrap(), ns_b);
    }

    #[test]
    fn userns_gives_container_root_setid_inside() {
        let mut h = Host::new("n0");
        let p = h.spawn_detached("ctr", Uid(1000), Gid(1000));
        h.unshare_user_ns(p, wide_map(), wide_map(), Uid::ROOT, Gid::ROOT).unwrap();
        let proc_ = h.process(p).unwrap();
        assert_eq!(proc_.uid, Uid::ROOT);
        assert!(proc_.cap_setid);
        // Host-resolved identity is the mapped, unprivileged uid.
        assert_eq!(h.host_uid(p).unwrap(), Uid(100_000));
    }

    #[test]
    fn uid_spoofing_inside_userns_changes_local_but_not_host_uid() {
        // The paper's §III attack: container root assumes a victim uid.
        let mut h = Host::new("n0");
        let victim_uid = Uid(4242);
        let p = h.spawn_detached("mallory", Uid(1001), Gid(1001));
        h.unshare_user_ns(p, wide_map(), wide_map(), Uid::ROOT, Gid::ROOT).unwrap();
        h.setuid(p, victim_uid).unwrap();
        let creds = h.credentials(p).unwrap();
        assert_eq!(creds.uid, victim_uid, "legacy view is spoofed");
        assert_eq!(creds.host_uid, Uid(104_242), "host view is still sandboxed");
    }

    #[test]
    fn setuid_requires_capability_and_mapping() {
        let mut h = Host::new("n0");
        let p = h.spawn_detached("user", Uid(1000), Gid(1000));
        assert_eq!(h.setuid(p, Uid(0)).unwrap_err(), OsError::Perm);
        h.unshare_user_ns(p, wide_map(), wide_map(), Uid::ROOT, Gid::ROOT).unwrap();
        // 70_000 is outside the 65_536-wide map.
        assert_eq!(h.setuid(p, Uid(70_000)).unwrap_err(), OsError::Inval);
    }

    #[test]
    fn unmapped_uid_resolves_to_overflow() {
        let mut h = Host::new("n0");
        let p = h.spawn_detached("ctr", Uid(1000), Gid(1000));
        h.unshare_user_ns(
            p,
            vec![IdMapEntry { inside_start: 0, outside_start: 100_000, count: 1 }],
            vec![IdMapEntry { inside_start: 0, outside_start: 100_000, count: 1 }],
            Uid::ROOT,
            Gid::ROOT,
        )
        .unwrap();
        // uid 0 maps; anything else overflows when resolved.
        assert_eq!(h.host_uid(p).unwrap(), Uid(100_000));
        // A fork keeps the mapped gid 0.
        let q = h.fork(p, "child").unwrap();
        assert_eq!(h.host_gid(q).unwrap(), Gid(100_000));
    }

    #[test]
    fn nested_userns_resolves_through_chain() {
        let mut h = Host::new("n0");
        let p = h.spawn_detached("outer", Uid(1000), Gid(1000));
        h.unshare_user_ns(p, wide_map(), wide_map(), Uid::ROOT, Gid::ROOT).unwrap();
        // Nested namespace: inside 0 -> outer 5000 -> host 105000.
        h.unshare_user_ns(
            p,
            vec![IdMapEntry { inside_start: 0, outside_start: 5000, count: 10 }],
            vec![IdMapEntry { inside_start: 0, outside_start: 5000, count: 10 }],
            Uid::ROOT,
            Gid::ROOT,
        )
        .unwrap();
        assert_eq!(h.host_uid(p).unwrap(), Uid(105_000));
    }

    #[test]
    fn netns_deletion_rules() {
        let mut h = Host::new("n0");
        let p = h.spawn_detached("ctr", Uid(1000), Gid(1000));
        let ns = h.unshare_net_ns(p).unwrap();
        assert_eq!(h.delete_net_ns(ns).unwrap_err(), OsError::Perm, "occupied");
        assert_eq!(h.delete_net_ns(h.host_netns()).unwrap_err(), OsError::Perm);
        h.exit(p).unwrap();
        h.delete_net_ns(ns).unwrap();
        assert_eq!(h.delete_net_ns(ns).unwrap_err(), OsError::Inval, "gone");
    }

    #[test]
    fn exiting_an_exited_pid_is_srch() {
        let mut h = Host::new("n0");
        let pid = h.spawn_detached("x", Uid(1), Gid(1));
        h.exit(pid).unwrap();
        assert_eq!(h.exit(pid).unwrap_err(), OsError::Srch);
        assert_eq!(h.exit(Pid(999)).unwrap_err(), OsError::Srch, "never spawned");
    }

    #[test]
    fn netns_with_a_live_member_refuses_deletion() {
        let mut h = Host::new("n0");
        let pause = h.spawn_detached("pause", Uid(0), Gid(0));
        let ns = h.unshare_net_ns(pause).unwrap();
        let app = h.fork(pause, "app").unwrap();
        h.exit(pause).unwrap();
        assert_eq!(h.delete_net_ns(ns).unwrap_err(), OsError::Perm, "app still inside");
        h.exit(app).unwrap();
        h.delete_net_ns(ns).unwrap();
    }

    #[test]
    fn a_process_moving_out_frees_its_old_netns() {
        let mut h = Host::new("n0");
        let p = h.spawn_detached("ctr", Uid(1000), Gid(1000));
        let first = h.unshare_net_ns(p).unwrap();
        assert_eq!(h.delete_net_ns(first).unwrap_err(), OsError::Perm, "occupied");
        let second = h.unshare_net_ns(p).unwrap();
        h.delete_net_ns(first).unwrap();
        assert_eq!(h.delete_net_ns(second).unwrap_err(), OsError::Perm, "p moved in");
        assert_eq!(h.delete_net_ns(NetNsId(1)).unwrap_err(), OsError::Inval, "never made");
    }

    #[test]
    fn sandbox_cycles_leave_only_live_processes_in_the_table() {
        let mut h = Host::new("n0");
        let daemon = h.spawn_detached("kubelet", Uid::ROOT, Gid::ROOT);
        for _ in 0..50 {
            let pause = h.spawn_detached("pause", Uid(0), Gid(0));
            let ns = h.unshare_net_ns(pause).unwrap();
            let app = h.fork(pause, "app").unwrap();
            h.exit(app).unwrap();
            h.exit(pause).unwrap();
            h.delete_net_ns(ns).unwrap();
        }
        assert_eq!(h.processes.len(), 2, "init and the daemon: no exited pid lingers");
        assert!(h.process(daemon).is_ok());
    }

    #[test]
    fn credentials_snapshot_is_consistent() {
        let mut h = Host::new("n0");
        let p = h.spawn_detached("app", Uid(77), Gid(88));
        let ns = h.unshare_net_ns(p).unwrap();
        let c = h.credentials(p).unwrap();
        assert_eq!(c.uid, Uid(77));
        assert_eq!(c.gid, Gid(88));
        assert_eq!(c.host_uid, Uid(77), "initial ns is identity");
        assert_eq!(c.netns, ns);
    }
}
