//! The fabric packet and message cost model.

use crate::types::{NicAddr, TrafficClass, Vni};

/// Link/fabric cost-model constants, calibrated to Slingshot 200 Gbps
/// magnitudes (see DESIGN.md §1 and EXPERIMENTS.md for calibration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Link bandwidth in bytes per nanosecond (25 B/ns == 200 Gb/s).
    pub bw_bytes_per_ns: f64,
    /// Maximum payload per packet, bytes (Cassini-like 2 KiB MTU).
    pub mtu: u32,
    /// Per-packet header+CRC overhead on the wire, bytes.
    pub header_bytes: u32,
    /// Switch hop latency (cut-through), nanoseconds.
    pub hop_latency_ns: u64,
    /// Per-link propagation delay, nanoseconds.
    pub propagation_ns: u64,
    /// Maximum queueing delay a message may accrue at one inter-switch
    /// (trunk) link before the switch's congestion management drops it
    /// (per-class queues are finite on real Rosetta hardware; edge links
    /// model the NIC's unbounded retry instead). Nanoseconds.
    pub trunk_queue_ns: u64,
    /// ECN marking threshold: a message accepted onto a trunk after
    /// queueing longer than this is marked, and the mark is fed back to
    /// the sending NIC for pacing. The default equals `trunk_queue_ns`,
    /// so no mark can ever fire (anything queued past the bound is
    /// dropped instead) and legacy runs are bit-identical; congestion
    /// scenarios lower it to get early backpressure. Nanoseconds.
    pub ecn_threshold_ns: u64,
    /// UGAL bias in favour of the minimal route, in queue-cost units
    /// (ns × hops): under [`crate::RoutingPolicy::Adaptive`] a packet
    /// detours only when `q_min·h_min > q_val·h_val + bias`. 0 is the
    /// classic unbiased UGAL decision.
    pub adaptive_bias_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            bw_bytes_per_ns: 25.0,
            mtu: 2048,
            header_bytes: 64,
            hop_latency_ns: 350,
            propagation_ns: 20,
            trunk_queue_ns: 100_000,
            ecn_threshold_ns: 100_000,
            adaptive_bias_ns: 0,
        }
    }
}

impl CostModel {
    /// Number of packets a message of `len` payload bytes segments into.
    /// Zero-byte messages still cost one (header-only) packet.
    ///
    /// ```
    /// let m = shs_fabric::CostModel::default(); // 2 KiB MTU
    /// assert_eq!(m.packets_for(0), 1);
    /// assert_eq!(m.packets_for(2048), 1);
    /// assert_eq!(m.packets_for(2049), 2);
    /// ```
    pub fn packets_for(&self, len: u64) -> u64 {
        if len == 0 {
            1
        } else {
            len.div_ceil(self.mtu as u64)
        }
    }

    /// Total wire bytes for a message of `len` payload bytes: the
    /// payload plus one header per packet.
    ///
    /// ```
    /// let m = shs_fabric::CostModel::default(); // 64 B header
    /// assert_eq!(m.wire_bytes(2048), 2048 + 64);
    /// assert_eq!(m.wire_bytes(4096), 4096 + 2 * 64);
    /// ```
    pub fn wire_bytes(&self, len: u64) -> u64 {
        len + self.packets_for(len) * self.header_bytes as u64
    }

    /// Serialization time of `bytes` on the link, in nanoseconds.
    pub(crate) fn serialize_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.bw_bytes_per_ns).ceil() as u64
    }

}

/// One fabric packet, as emitted by a Cassini NIC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source NIC fabric address.
    pub src: NicAddr,
    /// Destination NIC fabric address.
    pub dst: NicAddr,
    /// Virtual network the packet claims membership of. Enforced at the
    /// switch per §II-C.
    pub vni: Vni,
    /// Traffic class for egress arbitration.
    pub tc: TrafficClass,
    /// Payload bytes carried (≤ MTU).
    pub payload_len: u32,
    /// Message this packet belongs to (reassembly key).
    pub msg_id: u64,
    /// Packet index within the message.
    pub seq: u32,
    /// Set on the final packet of a message.
    pub last_of_msg: bool,
}

impl Packet {
    /// Wire size of the packet (payload + header).
    pub fn wire_bytes(&self, model: &CostModel) -> u64 {
        self.payload_len as u64 + model.header_bytes as u64
    }
}

/// Segment a message into packets under the cost model.
pub fn segment(
    model: &CostModel,
    src: NicAddr,
    dst: NicAddr,
    vni: Vni,
    tc: TrafficClass,
    msg_id: u64,
    len: u64,
) -> Vec<Packet> {
    let n = model.packets_for(len);
    let mut out = Vec::with_capacity(n as usize);
    let mut remaining = len;
    for seq in 0..n {
        let take = remaining.min(model.mtu as u64) as u32;
        remaining -= take as u64;
        out.push(Packet {
            src,
            dst,
            vni,
            tc,
            payload_len: take,
            msg_id,
            seq: seq as u32,
            last_of_msg: seq + 1 == n,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn bandwidth_constant_is_200gbps() {
        // 25 bytes/ns == 200 Gb/s.
        assert!((m().bw_bytes_per_ns * 8.0 - 200.0).abs() < 1e-9);
    }

    #[test]
    fn packet_counts() {
        let m = m();
        assert_eq!(m.packets_for(0), 1);
        assert_eq!(m.packets_for(1), 1);
        assert_eq!(m.packets_for(2048), 1);
        assert_eq!(m.packets_for(2049), 2);
        assert_eq!(m.packets_for(1 << 20), 512);
    }

    #[test]
    fn wire_bytes_include_headers() {
        let m = m();
        assert_eq!(m.wire_bytes(1), 1 + 64);
        assert_eq!(m.wire_bytes(2048), 2048 + 64);
        assert_eq!(m.wire_bytes(4096), 4096 + 2 * 64);
    }

    #[test]
    fn serialization_time_scales() {
        let m = m();
        assert_eq!(m.serialize_ns(25), 1);
        assert_eq!(m.serialize_ns(2500), 100);
    }

    #[test]
    fn segmentation_roundtrips_payload() {
        let m = m();
        for len in [0u64, 1, 100, 2048, 2049, 10_000, 1 << 20] {
            let pkts = segment(&m, NicAddr(0), NicAddr(1), Vni(5), TrafficClass::Dedicated, 9, len);
            assert_eq!(pkts.len() as u64, m.packets_for(len));
            assert_eq!(pkts.iter().map(|p| p.payload_len as u64).sum::<u64>(), len);
            assert!(pkts.last().unwrap().last_of_msg);
            assert!(pkts.iter().rev().skip(1).all(|p| !p.last_of_msg));
            assert!(pkts.iter().all(|p| p.payload_len <= m.mtu));
            assert!(pkts.iter().enumerate().all(|(i, p)| p.seq as usize == i));
        }
    }
}
