//! Off-chip DRAM channel model.
//!
//! Stands in for the Structural Simulation Toolkit the paper attaches to
//! STONNE: an HBM 2.0 channel with 100 ns access time and 256 GB/s of
//! bandwidth (Table 5). At the accelerator's 800 MHz clock that is 80 cycles
//! of latency and 320 bytes per cycle of bandwidth.

use flexagon_sim::{cycles_for, Cycle};
use serde::{Deserialize, Serialize};

/// DRAM channel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Access latency in accelerator cycles (100 ns at 800 MHz = 80).
    pub latency_cycles: Cycle,
    /// Sustained bandwidth in bytes per accelerator cycle
    /// (256 GB/s at 800 MHz = 320 B/cycle).
    pub bytes_per_cycle: u64,
    /// Maximum in-flight requests; latency of a batch of independent
    /// accesses is amortized over this many overlapping requests.
    pub max_outstanding: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            latency_cycles: 80,
            bytes_per_cycle: 320,
            max_outstanding: 16,
        }
    }
}

/// The off-chip channel: counts traffic and accumulates bandwidth occupancy.
///
/// The engine interleaves compute and memory accounting: structures issue
/// [`Dram::read`] / [`Dram::write`] traffic as the functional simulation
/// touches data, and at each accounting step the engine calls
/// [`Dram::take_busy_cycles`] to fold the channel's occupancy into the
/// step's bottleneck calculation.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    read_bytes: u64,
    write_bytes: u64,
    read_requests: u64,
    write_requests: u64,
    pending_bytes: u64,
    pending_requests: u64,
}

impl Dram {
    /// Creates a channel with the given configuration.
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            cfg,
            read_bytes: 0,
            write_bytes: 0,
            read_requests: 0,
            write_requests: 0,
            pending_bytes: 0,
            pending_requests: 0,
        }
    }

    /// Creates a channel with the paper's Table 5 parameters.
    pub fn with_defaults() -> Self {
        Self::new(DramConfig::default())
    }

    /// The channel configuration.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Issues a read of `bytes` bytes.
    pub fn read(&mut self, bytes: u64) {
        self.read_many(1, bytes);
    }

    /// Issues `requests` reads of `bytes` bytes each, exactly as that many
    /// [`Dram::read`] calls would.
    pub fn read_many(&mut self, requests: u64, bytes: u64) {
        self.read_bytes += requests * bytes;
        self.read_requests += requests;
        self.pending_bytes += requests * bytes;
        self.pending_requests += requests;
    }

    /// Issues a write of `bytes` bytes.
    pub fn write(&mut self, bytes: u64) {
        self.write_bytes += bytes;
        self.write_requests += 1;
        self.pending_bytes += bytes;
        self.pending_requests += 1;
    }

    /// Drains the accumulated channel occupancy since the last call.
    ///
    /// Returns the cycles the channel was busy: bandwidth occupancy of the
    /// pending bytes plus access latency amortized over up to
    /// `max_outstanding` overlapping requests. The engine takes the max of
    /// this against the concurrent compute cost (memory either hides behind
    /// compute or becomes the bottleneck).
    pub fn take_busy_cycles(&mut self) -> Cycle {
        if self.pending_requests == 0 {
            return 0;
        }
        let bandwidth = cycles_for(self.pending_bytes, self.cfg.bytes_per_cycle);
        let latency_batches = self.pending_requests.div_ceil(self.cfg.max_outstanding);
        let latency = self.cfg.latency_cycles * latency_batches.min(self.pending_requests);
        self.pending_bytes = 0;
        self.pending_requests = 0;
        bandwidth + latency
    }

    /// Total bytes read so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Total bytes written so far.
    pub fn written_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Total off-chip traffic (reads + writes) in bytes — Fig. 16's metric.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Number of read requests issued.
    pub fn read_requests(&self) -> u64 {
        self.read_requests
    }

    /// Number of write requests issued.
    pub fn write_requests(&self) -> u64 {
        self.write_requests
    }
}

impl Default for Dram {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table5() {
        let cfg = DramConfig::default();
        assert_eq!(cfg.latency_cycles, 80);
        assert_eq!(cfg.bytes_per_cycle, 320);
    }

    #[test]
    fn traffic_accumulates() {
        let mut d = Dram::with_defaults();
        d.read(100);
        d.read(28);
        d.write(64);
        assert_eq!(d.read_bytes(), 128);
        assert_eq!(d.written_bytes(), 64);
        assert_eq!(d.total_bytes(), 192);
        assert_eq!(d.read_requests(), 2);
        assert_eq!(d.write_requests(), 1);
    }

    #[test]
    fn busy_cycles_drain_and_reset() {
        let mut d = Dram::new(DramConfig {
            latency_cycles: 10,
            bytes_per_cycle: 32,
            max_outstanding: 4,
        });
        d.read(64); // 2 cycles bandwidth
        let busy = d.take_busy_cycles();
        assert_eq!(busy, 2 + 10);
        assert_eq!(d.take_busy_cycles(), 0, "drain resets pending state");
        assert_eq!(d.read_bytes(), 64, "totals survive draining");
    }

    #[test]
    fn latency_amortized_over_outstanding_requests() {
        let mut d = Dram::new(DramConfig {
            latency_cycles: 10,
            bytes_per_cycle: 1000,
            max_outstanding: 8,
        });
        for _ in 0..16 {
            d.read(10);
        }
        // 16 requests / 8 outstanding = 2 latency batches.
        assert_eq!(d.take_busy_cycles(), cycles_for(160, 1000) + 20);
    }

    #[test]
    fn single_request_pays_full_latency() {
        let mut d = Dram::new(DramConfig {
            latency_cycles: 80,
            bytes_per_cycle: 320,
            max_outstanding: 16,
        });
        d.read(128);
        assert_eq!(d.take_busy_cycles(), 1 + 80);
    }

    #[test]
    fn idle_channel_is_free() {
        let mut d = Dram::with_defaults();
        assert_eq!(d.take_busy_cycles(), 0);
    }
}
