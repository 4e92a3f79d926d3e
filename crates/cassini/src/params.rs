//! Cassini NIC cost-model parameters.
//!
//! Calibrated so that the full stack (libfabric-like layer + MPI-lite on
//! top) reproduces the magnitudes of the paper's Figs. 5 and 7: ~2 µs
//! small-message one-way latency and ~24 GB/s peak `osu_bw` throughput on
//! a 200 Gb/s link. `repro fig5` and `repro fig7` print the measured
//! values beside the paper's.

/// Timing constants for the NIC data path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CassiniParams {
    /// Doorbell write + command fetch, per message (ns).
    pub doorbell_ns: u64,
    /// TX engine occupancy per message, excluding wire serialization (ns).
    /// This is the small-message rate limiter.
    pub tx_msg_ns: u64,
    /// RX processing per message: packet reassembly + event write (ns).
    pub rx_msg_ns: u64,
    /// Multiplicative log-normal sigma applied per message (models
    /// intra-run noise; the paper's shaded run-to-run jitter bands come
    /// from the per-run factor below combined with this).
    pub per_msg_sigma: f64,
    /// Multiplicative log-normal sigma for the per-NIC, per-run factor.
    pub per_run_sigma: f64,
    /// Sender pacing per ECN mark (ns): each congestion mark the fabric
    /// fed back since the NIC's previous send delays the next TX issue
    /// by this much. With the cost model's default ECN threshold no
    /// mark ever fires, so legacy runs pay zero pacing.
    pub ecn_pace_ns: u64,
}

impl Default for CassiniParams {
    fn default() -> Self {
        CassiniParams {
            doorbell_ns: 100,
            tx_msg_ns: 480,
            rx_msg_ns: 450,
            per_msg_sigma: 0.002,
            per_run_sigma: 0.003,
            ecn_pace_ns: 500,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_bound_small_message_rate() {
        let p = CassiniParams::default();
        // Per-message cost caps message rate at ~3.3 M msg/s: that is the
        // 1-byte end of the Fig. 5 curve (single-digit MB/s).
        let rate = 1e9 / p.tx_msg_ns as f64;
        assert!(rate > 2e6 && rate < 5e6, "msg rate {rate}");
    }

    #[test]
    fn jitter_sigmas_are_sub_percent() {
        let p = CassiniParams::default();
        assert!(p.per_msg_sigma < 0.01);
        assert!(p.per_run_sigma < 0.01);
    }
}
