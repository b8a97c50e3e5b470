//! Branch target buffer.

use sst_isa::SnapError;

/// A direct-mapped branch target buffer.
///
/// Maps a branch PC to its most recent target; used for indirect jumps
/// (`jalr`) and to supply targets in the same cycle as the direction
/// prediction.
#[derive(Clone, Debug)]
pub struct Btb {
    entries: Vec<Option<(u64, u64)>>, // (tag, target)
    mask: u64,
}

impl Btb {
    /// Creates a BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Btb {
        assert!(entries.is_power_of_two(), "BTB size must be 2^n");
        Btb {
            entries: vec![None; entries],
            mask: entries as u64 - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    #[inline]
    fn tag(&self, pc: u64) -> u64 {
        pc >> 2 >> self.entries.len().trailing_zeros()
    }

    /// Looks up the predicted target for the branch at `pc`.
    #[inline]
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        let i = self.index(pc);
        match self.entries[i] {
            Some((tag, target)) if tag == self.tag(pc) => Some(target),
            _ => None,
        }
    }

    /// Records the resolved target for the branch at `pc`.
    #[inline]
    pub fn update(&mut self, pc: u64, target: u64) {
        let i = self.index(pc);
        self.entries[i] = Some((self.tag(pc), target));
    }

    /// The snapshot's slots fill the configured table exactly.
    fn restored(&mut self) -> Result<(), SnapError> {
        SnapError::check_size(
            "BTB entry count",
            self.entries.len(),
            self.mask as usize + 1,
        )
    }
}

sst_isa::snap_record!(state Btb { entries } then Btb::restored);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_after_update() {
        let mut b = Btb::new(16);
        assert_eq!(b.lookup(0x100), None);
        b.update(0x100, 0x2000);
        assert_eq!(b.lookup(0x100), Some(0x2000));
    }

    #[test]
    fn tag_mismatch_misses() {
        let mut b = Btb::new(16);
        b.update(0x100, 0x2000);
        // Same index (16 entries * 4B = aliasing stride 64 words), other tag.
        let alias = 0x100 + 16 * 4;
        assert_eq!(b.lookup(alias), None);
        b.update(alias, 0x3000);
        assert_eq!(b.lookup(alias), Some(0x3000));
        assert_eq!(b.lookup(0x100), None, "aliased entry was displaced");
    }

    #[test]
    fn retarget_overwrites() {
        let mut b = Btb::new(16);
        b.update(0x100, 0x2000);
        b.update(0x100, 0x4000);
        assert_eq!(b.lookup(0x100), Some(0x4000));
    }

    #[test]
    #[should_panic]
    fn non_pow2_rejected() {
        let _ = Btb::new(12);
    }
}
