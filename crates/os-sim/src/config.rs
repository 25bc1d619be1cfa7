//! Node configuration.

use energy_meter::ICountConfig;
use hw_model::{NoiseModel, Voltage};
use quanto_core::{AccountingMode, CostModel, NodeId, OverflowPolicy, RamLogger};

/// How the CPU moves packet data to and from the radio chip over the SPI bus
/// (the Figure 16 case study).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpiMode {
    /// One interrupt per two bytes transferred (the TinyOS default).
    Interrupt,
    /// A DMA channel moves the whole buffer with a single completion
    /// interrupt.
    Dma,
}

/// Low-power-listening configuration for the radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LplConfig {
    /// How often the receiver wakes up to sample the channel (500 ms in the
    /// paper's experiment).
    pub check_interval_ms: u64,
    /// How long a single clear-channel sample keeps the radio on.
    pub sample_window_ms: u64,
    /// How long the radio stays on after detecting energy, waiting for a
    /// packet, before giving up (the ~100 ms the paper observes).
    pub listen_timeout_ms: u64,
}

impl Default for LplConfig {
    fn default() -> Self {
        LplConfig {
            check_interval_ms: 500,
            sample_window_ms: 5,
            listen_timeout_ms: 100,
        }
    }
}

/// Configuration of one simulated node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node's network identifier (also the origin of its activities).
    pub node_id: NodeId,
    /// CPU clock frequency in Hz (1 MHz on the paper's platform).
    pub clock_hz: u64,
    /// Supply voltage.
    pub supply: Voltage,
    /// Deviation of the true hardware from the Table 1 nominals.
    pub noise: NoiseModel,
    /// iCount meter configuration.
    pub icount: ICountConfig,
    /// 802.15.4 channel the radio uses (11–26).
    pub radio_channel: u8,
    /// SPI transfer mode between CPU and radio.
    pub spi_mode: SpiMode,
    /// Low-power listening; `None` keeps the radio always on when enabled.
    pub lpl: Option<LplConfig>,
    /// Whether the periodic (16 Hz) DCO-calibration timer interrupt runs —
    /// the surprising always-on interrupt of Figure 15.
    pub dco_calibration: bool,
    /// Quanto RAM log capacity, in entries: the paper's 800-entry buffer
    /// ([`RamLogger::DEFAULT_CAPACITY`]) by default.  Under the default
    /// [`OverflowPolicy::Flush`] a full buffer drains to the attached sink
    /// or the host-side log, and nothing the simulated node does depends
    /// on when it drains, so the capacity bounds node memory without
    /// changing any log entry, stream digest or analysis result.
    pub log_capacity: usize,
    /// Quanto log overflow policy.
    pub overflow_policy: OverflowPolicy,
    /// Quanto accounting mode.
    pub accounting: AccountingMode,
    /// Quanto per-sample cost model.
    pub cost_model: CostModel,
    /// Whether Quanto instrumentation is enabled at all (disable for the
    /// overhead ablation).
    pub quanto_enabled: bool,
    /// Default CPU cost of an interrupt handler, in cycles.
    pub handler_cycles: u32,
    /// Default CPU cost of a task, in cycles.
    pub task_cycles: u32,
    /// Cycles to transfer one 2-byte chunk over SPI in interrupt mode
    /// (including the interrupt overhead).
    pub spi_chunk_cycles: u32,
    /// Cycles per byte for a DMA transfer (no per-byte interrupts).
    pub spi_dma_cycles_per_byte: u32,
    /// Radio bit rate in kbps (250 for 802.15.4).
    pub radio_kbps: u32,
    /// Minimum and maximum CSMA backoff, in microseconds.
    pub backoff_us: (u64, u64),
    /// RNG seed for this node (backoff jitter, etc.).
    pub seed: u64,
}

impl NodeConfig {
    /// A paper-faithful default configuration for a given node id.
    pub fn new(node_id: NodeId) -> Self {
        NodeConfig {
            node_id,
            clock_hz: 1_000_000,
            supply: Voltage::from_volts(3.0),
            noise: NoiseModel::IDEAL,
            icount: ICountConfig::hydrowatch(),
            radio_channel: 26,
            spi_mode: SpiMode::Interrupt,
            lpl: None,
            dco_calibration: true,
            log_capacity: RamLogger::DEFAULT_CAPACITY,
            overflow_policy: OverflowPolicy::Flush,
            accounting: AccountingMode::Log,
            cost_model: CostModel::paper(),
            quanto_enabled: true,
            handler_cycles: 60,
            task_cycles: 120,
            spi_chunk_cycles: 150,
            spi_dma_cycles_per_byte: 12,
            radio_kbps: 250,
            backoff_us: (320, 2_240),
            seed: node_id.as_u64() + 1,
        }
    }

    /// Microseconds per CPU cycle (fractional clock rates round up to 1 µs
    /// per cycle granularity when converted).
    pub fn cycles_to_micros(&self, cycles: u64) -> u64 {
        (cycles * 1_000_000).div_ceil(self.clock_hz)
    }

    /// Time to transmit `bytes` bytes over the air, in microseconds.
    pub fn airtime_us(&self, bytes: usize) -> u64 {
        (bytes as u64 * 8 * 1_000).div_ceil(self.radio_kbps as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_platform() {
        let c = NodeConfig::new(NodeId(1));
        assert_eq!(c.clock_hz, 1_000_000);
        assert_eq!(c.supply.as_volts(), 3.0);
        assert_eq!(c.cost_model.cycles_per_sample(), 102);
        assert!(c.dco_calibration);
        assert_eq!(c.spi_mode, SpiMode::Interrupt);
        assert!(c.lpl.is_none());
        assert_eq!(c.log_capacity, 800);
    }

    #[test]
    fn cycle_and_airtime_conversions() {
        let c = NodeConfig::new(NodeId(1));
        assert_eq!(c.cycles_to_micros(102), 102);
        // 40 bytes at 250 kbps = 1280 us.
        assert_eq!(c.airtime_us(40), 1_280);
        let fast = NodeConfig {
            clock_hz: 8_000_000,
            ..c
        };
        assert_eq!(fast.cycles_to_micros(102), 13);
    }

    #[test]
    fn lpl_default_matches_experiment() {
        let lpl = LplConfig::default();
        assert_eq!(lpl.check_interval_ms, 500);
        assert!(lpl.listen_timeout_ms >= 50);
    }
}
