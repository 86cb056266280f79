//! Clock and line-rate throughput model (paper §V.C).
//!
//! The paper's headline numbers derive from one formula: a design clocked at
//! `f` MHz that needs `c` cycles per packet classifies `f/c` million
//! packets/s; at the 40-byte minimum packet size that is `f/c × 320` Mbit/s.
//! MBT mode is fully pipelined (initiation interval 1 ⇒ `c = 1`), giving
//! 133.51 M lookups/s ≈ 42.7 Gbps; BST mode needs ~16 memory accesses per
//! packet ⇒ 2.67 Gbps (Table VII).

/// Maximum frequency reported for the Stratix V prototype (Table V), MHz.
pub const STRATIX_V_FMAX_MHZ: f64 = 133.51;

/// Minimum packet size assumed by the paper's throughput numbers, bytes.
pub const MIN_PACKET_BYTES: u32 = 40;

/// A synchronous clock domain.
///
/// ```
/// use spc_hwsim::{ClockDomain, STRATIX_V_FMAX_MHZ, MIN_PACKET_BYTES};
/// let clk = ClockDomain::new(STRATIX_V_FMAX_MHZ);
/// // Pipelined MBT: 1 cycle/packet at 40 B -> the paper's 42.73 Gbps.
/// let gbps = clk.throughput_gbps(1.0, MIN_PACKET_BYTES);
/// assert!((gbps - 42.72).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    freq_mhz: f64,
}

impl ClockDomain {
    /// Creates a clock domain at the given frequency (MHz).
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz` is not strictly positive and finite.
    pub fn new(freq_mhz: f64) -> Self {
        assert!(
            freq_mhz.is_finite() && freq_mhz > 0.0,
            "clock frequency must be positive, got {freq_mhz}"
        );
        ClockDomain { freq_mhz }
    }

    /// The Stratix V prototype clock (133.51 MHz).
    pub fn stratix_v() -> Self {
        ClockDomain::new(STRATIX_V_FMAX_MHZ)
    }

    /// Frequency in MHz.
    pub fn freq_mhz(self) -> f64 {
        self.freq_mhz
    }

    /// Packet lookups per second given `cycles_per_packet` (the initiation
    /// interval for pipelined engines, the full latency otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_packet <= 0`.
    pub fn lookups_per_sec(self, cycles_per_packet: f64) -> f64 {
        assert!(
            cycles_per_packet > 0.0,
            "cycles per packet must be positive"
        );
        self.freq_mhz * 1e6 / cycles_per_packet
    }

    /// Line-rate throughput in Gbps for back-to-back packets of the given
    /// size.
    pub fn throughput_gbps(self, cycles_per_packet: f64, packet_bytes: u32) -> f64 {
        self.lookups_per_sec(cycles_per_packet) * f64::from(packet_bytes) * 8.0 / 1e9
    }
}

impl Default for ClockDomain {
    fn default() -> Self {
        ClockDomain::stratix_v()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mbt_throughput() {
        let clk = ClockDomain::stratix_v();
        let gbps = clk.throughput_gbps(1.0, MIN_PACKET_BYTES);
        // Paper Table VII: 42.73 Gbps.
        assert!((gbps - 42.73).abs() < 0.02, "got {gbps}");
    }

    #[test]
    fn paper_bst_throughput() {
        let clk = ClockDomain::stratix_v();
        let gbps = clk.throughput_gbps(16.0, MIN_PACKET_BYTES);
        // Paper Table VII: 2.67 Gbps.
        assert!((gbps - 2.67).abs() < 0.01, "got {gbps}");
    }

    #[test]
    fn conclusion_100g_claim() {
        // Paper conclusion: 133 M lookups/s at 100-byte packets > 100 Gbps.
        let clk = ClockDomain::stratix_v();
        assert!(clk.throughput_gbps(1.0, 100) > 100.0);
        assert!((clk.lookups_per_sec(1.0) / 1e6 - 133.51).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_freq() {
        let _ = ClockDomain::new(0.0);
    }

    #[test]
    #[should_panic(expected = "cycles per packet")]
    fn rejects_zero_cycles() {
        let _ = ClockDomain::stratix_v().lookups_per_sec(0.0);
    }
}
