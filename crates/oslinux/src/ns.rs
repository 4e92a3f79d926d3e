//! User and network namespaces.
//!
//! User namespaces carry UID/GID maps translating namespace-local ids to
//! ids in the parent namespace (ultimately the host). Network namespaces
//! are opaque isolation domains identified by a kernel-assigned inode.

use crate::hash::NameSet;
use crate::ids::{Gid, NetNsId, Uid, UserNsId};

/// One `uid_map`/`gid_map` line: `inside_start outside_start count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdMapEntry {
    /// First id inside the namespace.
    pub inside_start: u32,
    /// Corresponding first id in the parent namespace.
    pub outside_start: u32,
    /// Number of contiguous ids mapped.
    pub count: u32,
}

impl IdMapEntry {
    /// The identity mapping over the full id space (the initial namespace).
    pub(crate) const IDENTITY: IdMapEntry =
        IdMapEntry { inside_start: 0, outside_start: 0, count: u32::MAX };

    /// Map an inside id to the parent namespace, if covered.
    #[inline]
    pub(crate) fn map_up(&self, inside: u32) -> Option<u32> {
        let off = inside.wrapping_sub(self.inside_start);
        (inside >= self.inside_start && off < self.count)
            .then(|| self.outside_start.wrapping_add(off))
    }
}

/// Translate through a map table (first matching entry wins, as in Linux).
pub(crate) fn map_up(table: &[IdMapEntry], inside: u32) -> Option<u32> {
    table.iter().find_map(|e| e.map_up(inside))
}

/// A user namespace.
#[derive(Debug, Clone)]
pub struct UserNamespace {
    /// Kernel-assigned inode id.
    pub id: UserNsId,
    /// Parent namespace (`None` only for the initial namespace).
    pub parent: Option<UserNsId>,
    /// UID translation table towards the parent.
    pub uid_map: Vec<IdMapEntry>,
    /// GID translation table towards the parent.
    pub gid_map: Vec<IdMapEntry>,
}

impl UserNamespace {
    /// The initial (host) user namespace with identity maps.
    pub fn initial(id: UserNsId) -> Self {
        UserNamespace {
            id,
            parent: None,
            uid_map: vec![IdMapEntry::IDENTITY],
            gid_map: vec![IdMapEntry::IDENTITY],
        }
    }

    /// Translate a namespace-local uid one level up.
    pub(crate) fn uid_to_parent(&self, uid: Uid) -> Option<Uid> {
        map_up(&self.uid_map, uid.raw()).map(Uid)
    }

    /// Translate a namespace-local gid one level up.
    pub(crate) fn gid_to_parent(&self, gid: Gid) -> Option<Gid> {
        map_up(&self.gid_map, gid.raw()).map(Gid)
    }
}

/// A network namespace. Deliberately tiny: for the Slingshot access model
/// the only load-bearing attribute is its unforgeable inode identity; the
/// veth/bridge plumbing lives in `shs-cni`.
#[derive(Debug, Clone)]
pub struct NetNamespace {
    /// Kernel-assigned inode id (what `/proc/<pid>/ns/net` reports).
    pub id: NetNsId,
    /// Whether this is the host (initial) network namespace.
    pub is_host: bool,
    /// Names of network interfaces attached to this namespace, hashed:
    /// the host namespace holds one veth per pod on the node, and a
    /// bridge ADD or DEL finds its name without comparing the others.
    interfaces: NameSet,
    /// Live processes inside, kept by [`crate::Host`] as processes
    /// spawn, fork, move and exit.
    pub(crate) occupants: usize,
}

impl NetNamespace {
    /// A fresh namespace holding only the loopback interface and no
    /// process.
    pub(crate) fn new(id: NetNsId, is_host: bool) -> Self {
        let mut ns = NetNamespace { id, is_host, interfaces: NameSet::default(), occupants: 0 };
        ns.attach_interface("lo");
        ns
    }

    /// Attach an interface name (no-op if already present).
    pub fn attach_interface(&mut self, name: &str) {
        if !self.interfaces.contains(name) {
            self.interfaces.insert(name.to_string());
        }
    }

    /// Detach an interface name; returns whether it was present.
    pub fn detach_interface(&mut self, name: &str) -> bool {
        self.interfaces.remove(name)
    }

    /// Whether an interface of this name is attached.
    pub fn has_interface(&self, name: &str) -> bool {
        self.interfaces.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_entry_maps_everything() {
        let e = IdMapEntry::IDENTITY;
        assert_eq!(e.map_up(0), Some(0));
        assert_eq!(e.map_up(123_456), Some(123_456));
    }

    #[test]
    fn range_entry_maps_only_its_window() {
        // Typical rootless-container map: inside 0..65536 -> host 100000..
        let e = IdMapEntry { inside_start: 0, outside_start: 100_000, count: 65_536 };
        assert_eq!(e.map_up(0), Some(100_000));
        assert_eq!(e.map_up(1000), Some(101_000));
        assert_eq!(e.map_up(65_535), Some(165_535));
        assert_eq!(e.map_up(65_536), None);
    }

    #[test]
    fn first_matching_entry_wins() {
        let table = vec![
            IdMapEntry { inside_start: 0, outside_start: 1000, count: 1 },
            IdMapEntry { inside_start: 0, outside_start: 2000, count: 10 },
        ];
        assert_eq!(map_up(&table, 0), Some(1000));
        assert_eq!(map_up(&table, 5), Some(2005));
        assert_eq!(map_up(&table, 10), None);
    }

    #[test]
    fn userns_translation() {
        let mut ns = UserNamespace::initial(UserNsId(1));
        ns.uid_map = vec![IdMapEntry { inside_start: 0, outside_start: 100_000, count: 10 }];
        ns.gid_map = vec![IdMapEntry { inside_start: 0, outside_start: 200_000, count: 10 }];
        assert_eq!(ns.uid_to_parent(Uid(0)), Some(Uid(100_000)));
        assert_eq!(ns.gid_to_parent(Gid(3)), Some(Gid(200_003)));
        assert_eq!(ns.uid_to_parent(Uid(99)), None);
    }

    #[test]
    fn netns_interface_management() {
        let mut ns = NetNamespace::new(NetNsId(9), false);
        assert!(ns.has_interface("lo"));
        ns.attach_interface("eth0");
        ns.attach_interface("eth0");
        assert!(ns.has_interface("eth0"));
        assert!(ns.detach_interface("eth0"));
        assert!(!ns.detach_interface("eth0"), "one attach of a name, however often");
        assert!(!ns.has_interface("eth0"));
        assert!(ns.has_interface("lo"));
    }
}
