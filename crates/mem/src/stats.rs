//! Memory-hierarchy statistics.

/// Hit/miss counters for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Dirty evictions written back to the next level.
    pub writebacks: u64,
}

sst_isa::snap_record!(CacheStats {
    accesses,
    hits,
    writebacks
});

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; zero when idle.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// Misses per thousand of `insts` retired instructions (MPKI).
    pub fn mpki(&self, insts: u64) -> f64 {
        if insts == 0 {
            0.0
        } else {
            self.misses() as f64 * 1000.0 / insts as f64
        }
    }
}

/// Aggregate statistics for a [`crate::MemSystem`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Per-core L1I stats.
    pub l1i: Vec<CacheStats>,
    /// Per-core L1D stats.
    pub l1d: Vec<CacheStats>,
    /// Shared L2 stats.
    pub l2: CacheStats,
    /// Demand DRAM reads.
    pub dram_reads: u64,
    /// DRAM row-buffer hits among demand reads.
    pub dram_row_hits: u64,
    /// DRAM writebacks.
    pub dram_writebacks: u64,
    /// Misses merged into in-flight MSHRs (all levels).
    pub mshr_merges: u64,
    /// Misses delayed by a full MSHR file (all levels).
    pub mshr_full_delays: u64,
    /// Prefetches issued into the hierarchy.
    pub prefetches: u64,
    /// Prefetched lines that were later demanded while still cached.
    pub useful_prefetches: u64,
}

sst_isa::snap_record!(MemStats {
    l1i,
    l1d,
    l2,
    dram_reads,
    dram_row_hits,
    dram_writebacks,
    mshr_merges,
    mshr_full_delays,
    prefetches,
    useful_prefetches,
});

impl MemStats {
    /// Creates per-core vectors for `cores` cores.
    pub fn new(cores: usize) -> MemStats {
        MemStats {
            l1i: vec![CacheStats::default(); cores],
            l1d: vec![CacheStats::default(); cores],
            ..MemStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CacheStats {
            accesses: 100,
            hits: 90,
            writebacks: 0,
        };
        assert_eq!(s.misses(), 10);
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
        assert!((s.mpki(1000) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn idle_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.mpki(0), 0.0);
    }
}
