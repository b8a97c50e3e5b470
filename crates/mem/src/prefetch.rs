//! PC-indexed stride prefetcher.

use sst_isa::SnapError;

use crate::StrideConfig;

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    valid: bool,
    pc_tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

sst_isa::snap_record!(Entry { valid, pc_tag, last_addr, stride, confidence });

/// A classic PC-indexed stride detector.
///
/// Trained on every L1D demand access; once a PC repeats the same stride
/// [`StrideConfig::confidence`] times, [`StridePrefetcher::train`] returns
/// up to [`StrideConfig::degree`] prefetch addresses ahead of the stream.
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    cfg: StrideConfig,
    table: Vec<Entry>,
    /// Prefetch addresses produced.
    pub issued: u64,
}

impl StridePrefetcher {
    /// Creates an empty prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the entry count is not a power of two.
    pub fn new(cfg: StrideConfig) -> StridePrefetcher {
        assert!(cfg.entries.is_power_of_two(), "table size must be 2^n");
        StridePrefetcher {
            table: vec![Entry::default(); cfg.entries],
            cfg,
            issued: 0,
        }
    }

    /// Observes a demand access by `pc` to `addr`; returns prefetch
    /// candidate addresses (possibly empty).
    pub fn train(&mut self, pc: u64, addr: u64) -> Vec<u64> {
        let idx = ((pc >> 2) as usize) & (self.cfg.entries - 1);
        let tag = pc >> 2 >> self.cfg.entries.trailing_zeros();
        let e = &mut self.table[idx];

        if !e.valid || e.pc_tag != tag {
            *e = Entry {
                valid: true,
                pc_tag: tag,
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
            return Vec::new();
        }

        let stride = addr.wrapping_sub(e.last_addr) as i64;
        if stride == e.stride && stride != 0 {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;

        if e.confidence >= self.cfg.confidence {
            let stride = e.stride;
            let out: Vec<u64> = (1..=self.cfg.degree)
                .map(|i| addr.wrapping_add_signed(stride * i as i64))
                .collect();
            self.issued += out.len() as u64;
            out
        } else {
            Vec::new()
        }
    }

    /// The snapshot's stride table has the configured size.
    fn restored(&mut self) -> Result<(), SnapError> {
        SnapError::check_size("stride-table size", self.table.len(), self.cfg.entries)
    }
}

sst_isa::snap_record!(
    state StridePrefetcher "STRD" { issued, table } then StridePrefetcher::restored
);

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StridePrefetcher {
        StridePrefetcher::new(StrideConfig {
            entries: 16,
            confidence: 2,
            degree: 2,
        })
    }

    #[test]
    fn constant_stride_detected() {
        let mut p = pf();
        assert!(p.train(0x100, 0).is_empty()); // allocate
        assert!(p.train(0x100, 64).is_empty()); // stride=64, conf 0
        assert!(p.train(0x100, 128).is_empty()); // conf 1
        let out = p.train(0x100, 192); // conf 2 -> fire
        assert_eq!(out, vec![256, 320]);
        assert_eq!(p.issued, 2);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = pf();
        p.train(0x100, 0);
        p.train(0x100, 64);
        p.train(0x100, 128);
        assert!(p.train(0x100, 1000).is_empty(), "stride break");
        assert!(p.train(0x100, 1064).is_empty());
        assert!(p.train(0x100, 1128).is_empty());
        assert!(!p.train(0x100, 1192).is_empty(), "retrained");
    }

    #[test]
    fn zero_stride_never_fires() {
        let mut p = pf();
        for _ in 0..10 {
            assert!(p.train(0x100, 64).is_empty());
        }
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = pf();
        p.train(0x100, 1000);
        p.train(0x100, 936);
        p.train(0x100, 872);
        let out = p.train(0x100, 808);
        assert_eq!(out, vec![744, 680]);
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut p = pf();
        p.train(0x100, 0);
        p.train(0x104, 777); // different entry; must not disturb 0x100
        p.train(0x100, 64);
        p.train(0x100, 128);
        assert!(!p.train(0x100, 192).is_empty());
    }
}
