//! DRAM timing model: one channel, N banks, per-bank open-row tracking.

use sst_isa::SnapError;

use crate::{Cycle, DramConfig};

/// Per-access DRAM timing outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramOutcome {
    /// Cycle the data returns to the requester.
    pub ready_at: Cycle,
    /// Whether the access hit the bank's open row.
    pub row_hit: bool,
}

/// One bank: when it is free again, and the row it holds open.
#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    free_at: Cycle,
    open_row: Option<u64>,
}

sst_isa::snap_record!(Bank { free_at, open_row });

/// The DRAM device + channel model.
///
/// Each access serializes on the shared channel, then on its bank. Banks
/// keep one open row; accesses to the same row pay
/// [`DramConfig::row_hit_cycles`], others pay
/// [`DramConfig::row_miss_cycles`].
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    channel_free_at: Cycle,
    banks: Vec<Bank>,
    /// Total demand accesses served.
    pub accesses: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Writebacks absorbed (occupy the channel but return no data).
    pub writebacks: u64,
}

impl Dram {
    /// Creates an idle DRAM model.
    pub fn new(cfg: DramConfig) -> Dram {
        Dram {
            channel_free_at: 0,
            banks: vec![Bank::default(); cfg.banks],
            cfg,
            accesses: 0,
            row_hits: 0,
            writebacks: 0,
        }
    }

    /// Timing parameters in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn bank_of(&self, addr: u64) -> usize {
        // Interleave banks on row granularity so sequential rows hit
        // different banks.
        ((addr / self.cfg.row_bytes) as usize) % self.cfg.banks
    }

    fn row_of(&self, addr: u64) -> u64 {
        addr / self.cfg.row_bytes / self.cfg.banks as u64
    }

    /// Issues a demand read arriving at the controller at `now`.
    pub fn read(&mut self, now: Cycle, addr: u64) -> DramOutcome {
        self.accesses += 1;
        let bank = self.bank_of(addr);
        let row = self.row_of(addr);

        let start = now.max(self.channel_free_at).max(self.banks[bank].free_at);
        let row_hit = self.banks[bank].open_row == Some(row);
        if row_hit {
            self.row_hits += 1;
        }
        let access = self.cfg.base_cycles
            + if row_hit {
                self.cfg.row_hit_cycles
            } else {
                self.cfg.row_miss_cycles
            };
        let ready_at = start + access;

        self.channel_free_at = start + self.cfg.burst_cycles;
        self.banks[bank] = Bank {
            free_at: start + self.cfg.bank_busy_cycles,
            open_row: Some(row),
        };

        DramOutcome { ready_at, row_hit }
    }

    /// Absorbs a writeback at `now`; occupies channel and bank but the
    /// requester does not wait for it.
    pub fn writeback(&mut self, now: Cycle, addr: u64) {
        self.writebacks += 1;
        let bank = self.bank_of(addr);
        let start = now.max(self.channel_free_at).max(self.banks[bank].free_at);
        self.channel_free_at = start + self.cfg.burst_cycles;
        self.banks[bank] = Bank {
            free_at: start + self.cfg.bank_busy_cycles,
            open_row: Some(self.row_of(addr)),
        };
    }

    /// The snapshot's banks are the configured ones.
    fn restored(&mut self) -> Result<(), SnapError> {
        SnapError::check_size("DRAM bank count", self.banks.len(), self.cfg.banks)
    }

    /// Fraction of demand accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }
}

sst_isa::snap_record!(state Dram "DRAM" {
    channel_free_at,
    accesses,
    row_hits,
    writebacks,
    banks,
} then Dram::restored);

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig {
            base_cycles: 100,
            row_hit_cycles: 10,
            row_miss_cycles: 50,
            banks: 4,
            row_bytes: 1024,
            bank_busy_cycles: 30,
            burst_cycles: 4,
        }
    }

    #[test]
    fn first_access_misses_row() {
        let mut d = Dram::new(cfg());
        let o = d.read(0, 0);
        assert!(!o.row_hit);
        assert_eq!(o.ready_at, 150);
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut d = Dram::new(cfg());
        let a = d.read(0, 0);
        // Bank busy until 30; issue late enough to see only the row effect.
        let b = d.read(40, 512);
        assert!(b.row_hit);
        assert_eq!(b.ready_at, 40 + 110);
        assert!(a.ready_at > 0);
        assert_eq!(d.row_hit_rate(), 0.5);
    }

    #[test]
    fn bank_conflict_serializes() {
        let mut d = Dram::new(cfg());
        let rows_per_cycle = 1024 * 4; // same bank every banks*row_bytes
        let a = d.read(0, 0);
        let b = d.read(0, rows_per_cycle); // same bank 0, different row
        assert!(!b.row_hit);
        // Second starts when bank frees at 30.
        assert_eq!(b.ready_at, 30 + 150);
        assert!(b.ready_at > a.ready_at);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = Dram::new(cfg());
        let a = d.read(0, 0);
        let b = d.read(0, 1024); // next row -> different bank
                                 // Only channel burst (4) separates them.
        assert_eq!(a.ready_at, 150);
        assert_eq!(b.ready_at, 4 + 150);
    }

    #[test]
    fn writeback_occupies_but_does_not_block_result() {
        let mut d = Dram::new(cfg());
        d.writeback(0, 0);
        assert_eq!(d.writebacks, 1);
        let a = d.read(0, 1024); // different bank, only channel conflict
        assert_eq!(a.ready_at, 4 + 150);
    }
}
