//! Newtype identifiers for the simulated kernel objects.

use core::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty)) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw numeric value.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// A user id. Whether it is namespace-local or host-global depends on
    /// context; see [`crate::host::Host::credentials`].
    Uid(u32)
);
id_type!(
    /// A group id (same namespace caveats as [`Uid`]).
    Gid(u32)
);
id_type!(
    /// A process id, unique per simulated host.
    Pid(u32)
);
id_type!(
    /// A network-namespace identifier. Like the real kernel, this is the
    /// inode number of the namespace file in `/proc/<pid>/ns/net`; it is
    /// assigned by the (simulated) kernel and cannot be chosen or altered
    /// by user code — the property the paper's netns authentication relies
    /// on (§III-A).
    NetNsId(u64)
);
id_type!(
    /// A user-namespace identifier (inode number, like [`NetNsId`]).
    UserNsId(u64)
);

impl Uid {
    /// The superuser.
    pub const ROOT: Uid = Uid(0);
    /// The kernel's overflow uid for unmapped identities ("nobody").
    pub(crate) const OVERFLOW: Uid = Uid(65_534);
}

impl Gid {
    /// The superuser group.
    pub const ROOT: Gid = Gid(0);
    /// Overflow gid for unmapped identities.
    pub(crate) const OVERFLOW: Gid = Gid(65_534);
}

/// First inode number handed out for namespaces. Mirrors the magic base
/// used by Linux (`PROC_DYNAMIC_FIRST`-adjacent values around 4026531840)
/// so traces look familiar.
pub(crate) const NS_INODE_BASE: u64 = 4_026_531_840;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip() {
        assert_eq!(Uid(42).raw(), 42);
        assert_eq!(NetNsId(7).raw(), 7);
    }

    #[test]
    fn display_is_labelled() {
        assert_eq!(Uid(1000).to_string(), "Uid(1000)");
        assert_eq!(Pid(1).to_string(), "Pid(1)");
    }

    #[test]
    fn well_known_ids() {
        assert_eq!(Uid::ROOT.raw(), 0);
        assert_eq!(Uid::OVERFLOW.raw(), 65_534);
        assert_eq!(Gid::OVERFLOW.raw(), 65_534);
    }
}
