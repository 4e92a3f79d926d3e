//! Core fabric vocabulary: VNIs, NIC addresses, ports, traffic classes.

use core::fmt;

/// A Slingshot Virtual Network Identifier.
///
/// VNIs provide layer-2 isolation domains (paper §II-C): the Rosetta
/// switch only routes a packet if *both* the sender and the receiver port
/// have been granted the packet's VNI. Represented as `u16`, matching the
/// Cassini header field width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vni(pub u16);

impl Vni {
    /// The "default"/global VNI used by single-tenant HPC deployments and
    /// by the paper's `vni:false` baseline runs, which "utilize a globally
    /// accessible VNI" (§IV-A).
    pub const GLOBAL: Vni = Vni(1);

    /// Raw value.
    #[inline]
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for Vni {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VNI#{}", self.0)
    }
}

/// Fabric address of a NIC (analogous to a Slingshot NID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NicAddr(pub u32);

impl fmt::Display for NicAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nid{:05}", self.0)
    }
}

/// A switch port index (local to one switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// A switch index in a [`crate::topology::Topology`], flat over all
/// groups: switch `s` of group `g` has id `g * switches_per_group + s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub usize);

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// Slingshot traffic classes (§I use-case 1 mentions co-scheduling
/// latency-critical work with checkpointing on different classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[derive(Default)]
pub enum TrafficClass {
    /// Lowest-latency class for tightly coupled workloads.
    LowLatency,
    /// Dedicated bandwidth class.
    #[default]
    Dedicated,
    /// Bulk data movement (checkpoints, stage-in/out).
    BulkData,
    /// Scavenger class.
    BestEffort,
}

impl TrafficClass {
    /// All classes, in arbitration-priority order (highest first).
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::LowLatency,
        TrafficClass::Dedicated,
        TrafficClass::BulkData,
        TrafficClass::BestEffort,
    ];

    /// Weighted-round-robin arbitration weight at switch egress (a power
    /// of two).
    pub fn weight(self) -> u32 {
        match self {
            TrafficClass::LowLatency => 8,
            TrafficClass::Dedicated => 4,
            TrafficClass::BulkData => 2,
            TrafficClass::BestEffort => 1,
        }
    }

    /// Stable index for table lookups.
    pub fn index(self) -> usize {
        match self {
            TrafficClass::LowLatency => 0,
            TrafficClass::Dedicated => 1,
            TrafficClass::BulkData => 2,
            TrafficClass::BestEffort => 3,
        }
    }
}


impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::LowLatency => "low-latency",
            TrafficClass::Dedicated => "dedicated",
            TrafficClass::BulkData => "bulk-data",
            TrafficClass::BestEffort => "best-effort",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vni_global_is_one() {
        assert_eq!(Vni::GLOBAL.raw(), 1);
    }

    #[test]
    fn tc_order_matches_priority() {
        let ws: Vec<u32> = TrafficClass::ALL.iter().map(|t| t.weight()).collect();
        let mut sorted = ws.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(ws, sorted, "ALL must be highest-priority first");
    }

    #[test]
    fn tc_weights_are_powers_of_two() {
        // The trunk's weighted share divides by a weight with a shift.
        assert!(TrafficClass::ALL.iter().all(|t| t.weight().is_power_of_two()));
    }

    #[test]
    fn tc_indices_are_dense() {
        let mut idx: Vec<usize> = TrafficClass::ALL.iter().map(|t| t.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Vni(7).to_string(), "VNI#7");
        assert_eq!(NicAddr(3).to_string(), "nid00003");
        assert_eq!(TrafficClass::BulkData.to_string(), "bulk-data");
    }
}
