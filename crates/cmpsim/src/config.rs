//! Machine configuration (paper Table I).
//!
//! The baseline SESC configuration the paper simulates is a 4-wide
//! out-of-order core with 16 KB / 64 KB private L1 instruction/data caches, a
//! 4 MB shared 16-way L2 and MESI coherence. The timing simulator only needs
//! the parameters that affect phase-level timing: effective issue width
//! (operations per cycle at IPC 1 equivalent), cache sizes and latencies,
//! memory latency, NoC hop latency and the clock frequency used to convert
//! cycles into seconds for the profiles.

use serde::{Deserialize, Serialize};

/// Phase-level machine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Peak operations per cycle of a 1-BCE baseline core. Table I's 4-wide
    /// fetch/issue/commit front end sustains roughly one arithmetic operation
    /// per cycle on the clustering kernels, so the default is 1.0.
    pub ops_per_cycle: f64,
    /// Private L1 data cache capacity in bytes (Table I: 64 KB).
    pub l1_bytes: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: f64,
    /// Shared L2 capacity in bytes (Table I: 4 MB).
    pub l2_bytes: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: f64,
    /// Main-memory latency in cycles.
    pub mem_latency: f64,
    /// Extra latency charged to an access that hits data last written by a
    /// different core (MESI ownership transfer).
    pub coherence_latency: f64,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Per-hop latency of the on-chip network, in cycles.
    pub noc_hop_latency: f64,
    /// Bytes per reduction element moved over the NoC (one f64 accumulator).
    pub element_bytes: usize,
    /// Clock frequency in Hz, used to express simulated times in seconds.
    pub frequency_hz: f64,
}

impl MachineConfig {
    /// The paper's Table I baseline configuration.
    pub fn table1_baseline() -> Self {
        MachineConfig {
            ops_per_cycle: 1.0,
            l1_bytes: 64 * 1024,
            l1_latency: 2.0,
            l2_bytes: 4 * 1024 * 1024,
            l2_latency: 12.0,
            mem_latency: 200.0,
            coherence_latency: 40.0,
            line_bytes: 64,
            noc_hop_latency: 3.0,
            element_bytes: 8,
            frequency_hz: 2.0e9,
        }
    }

    /// Convert a cycle count into seconds at this configuration's clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / self.frequency_hz
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::table1_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_are_sane() {
        let c = MachineConfig::table1_baseline();
        assert_eq!(c.l1_bytes, 65536);
        assert_eq!(c.l2_bytes, 4 * 1024 * 1024);
        assert!(c.l1_latency < c.l2_latency);
        assert!(c.l2_latency < c.mem_latency);
        assert!(c.ops_per_cycle > 0.0);
    }

    #[test]
    fn cycle_conversion_uses_frequency() {
        let c = MachineConfig::table1_baseline();
        assert!((c.cycles_to_seconds(2.0e9) - 1.0).abs() < 1e-12);
        assert_eq!(c.cycles_to_seconds(0.0), 0.0);
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(MachineConfig::default(), MachineConfig::table1_baseline());
    }

    #[test]
    fn serializes_roundtrip() {
        let c = MachineConfig::table1_baseline();
        let json = serde_json::to_string(&c).unwrap();
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
