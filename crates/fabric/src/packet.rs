//! The fabric's message cost model.

/// Link/fabric cost-model constants, calibrated to Slingshot 200 Gbps
/// magnitudes (FABRIC.md, "The packet path", shows where each is
/// charged).
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

    /// Serialization time of `bytes` on the link, in nanoseconds: the
    /// quotient rounded up. The rounding is spelled out because `f64::ceil`
    /// is a libm call on the baseline x86-64 target; a truncating cast
    /// plus one where it dropped a fraction is the same value for every
    /// input, `NaN` (0) and overflow (`u64::MAX`) included.
    pub(crate) fn serialize_ns(&self, bytes: u64) -> u64 {
        let exact = bytes as f64 / self.bw_bytes_per_ns;
        let whole = exact as u64;
        whole.saturating_add(u64::from((whole as f64) < exact))
    }

    /// What a message of `len` payload bytes costs on every link it
    /// crosses.
    pub(crate) fn msg_cost(&self, len: u64) -> MsgCost {
        MsgCost {
            len,
            pkts: self.packets_for(len),
            ser_ns: self.serialize_ns(self.wire_bytes(len)),
        }
    }
}

/// The per-length cost of a message under one [`CostModel`]: a pure
/// function of `len`, so an engine may keep the last one and reuse it
/// for the next message of the same length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MsgCost {
    /// Payload bytes.
    pub(crate) len: u64,
    /// Packets the message segments into.
    pub(crate) pkts: u64,
    /// Serialization time of its wire bytes, in nanoseconds.
    pub(crate) ser_ns: u64,
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
    fn serialization_rounds_up_like_ceil() {
        let ceil = |m: &CostModel, bytes: u64| (bytes as f64 / m.bw_bytes_per_ns).ceil() as u64;
        let models = [
            m(),
            CostModel { bw_bytes_per_ns: 12.5, ..m() },
            CostModel { bw_bytes_per_ns: 0.3, ..m() },
            CostModel { bw_bytes_per_ns: 1e-30, ..m() },
            CostModel { bw_bytes_per_ns: 0.0, ..m() },
            CostModel { bw_bytes_per_ns: -2.0, ..m() },
            CostModel { bw_bytes_per_ns: f64::NAN, ..m() },
        ];
        let mut bytes: Vec<u64> = (0..5_000).collect();
        bytes.extend((0..64).map(|s| 1u64 << s));
        bytes.extend((0..64).map(|s| (1u64 << s) - 1));
        bytes.extend([u64::MAX, u64::MAX - 1, (1 << 53) + 1, 3 * (1 << 52) + 7]);
        for model in &models {
            for &b in &bytes {
                let bw = model.bw_bytes_per_ns;
                assert_eq!(model.serialize_ns(b), ceil(model, b), "{b} B at {bw} B/ns");
            }
        }
    }

    #[test]
    fn msg_cost_matches_its_parts() {
        let m = m();
        for len in [0, 1, 2048, 2049, 16 * 1024, 1 << 20] {
            let c = m.msg_cost(len);
            assert_eq!(c.len, len);
            assert_eq!(c.pkts, m.packets_for(len));
            assert_eq!(c.ser_ns, m.serialize_ns(m.wire_bytes(len)));
        }
    }
}
