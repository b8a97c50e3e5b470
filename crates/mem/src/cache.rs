//! Set-associative tag array with true-LRU replacement.
//!
//! The array tracks presence, dirtiness, and recency only; data always
//! lives in the backing [`sst_isa::SparseMem`].

use sst_isa::SnapError;

use crate::CacheConfig;

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// LRU stamp; larger = more recently used.
    stamp: u64,
}

sst_isa::snap_record!(Way {
    valid,
    dirty,
    tag,
    stamp
});

/// Result of a fill that displaced a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// Block-aligned address of the displaced line.
    pub addr: u64,
    /// `true` if the displaced line was dirty (needs a writeback).
    pub dirty: bool,
}

/// A set-associative, write-back, write-allocate tag array.
#[derive(Clone, Debug)]
pub struct TagArray {
    ways: Vec<Way>, // sets * assoc, row-major by set
    assoc: usize,
    sets: usize,
    line_shift: u32,
    next_stamp: u64,
}

impl TagArray {
    /// Builds an empty array for the given geometry.
    pub fn new(config: &CacheConfig) -> TagArray {
        let sets = config.sets();
        TagArray {
            ways: vec![Way::default(); sets * config.ways],
            assoc: config.ways,
            sets,
            line_shift: config.line_bytes.trailing_zeros(),
            next_stamp: 1,
        }
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// The block-aligned address containing `addr`.
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift >> self.sets.trailing_zeros()
    }

    #[inline]
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Looks up `addr`; on hit, refreshes recency and (for writes) sets the
    /// dirty bit. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let stamp = self.next_stamp;
        let range = self.set_range(set);
        for way in &mut self.ways[range] {
            if way.valid && way.tag == tag {
                way.stamp = stamp;
                way.dirty |= write;
                self.next_stamp += 1;
                return true;
            }
        }
        false
    }

    /// Checks for presence without perturbing recency or dirty state.
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        self.ways[self.set_range(set)]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Inserts the line containing `addr`, evicting the LRU way if the set
    /// is full. The new line's dirty bit is `write`. Returns the eviction,
    /// if a valid line was displaced.
    ///
    /// Inserting a line that is already present just refreshes it.
    #[inline]
    pub fn fill(&mut self, addr: u64, write: bool) -> Option<Eviction> {
        if self.access(addr, write) {
            return None;
        }
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let stamp = self.next_stamp;
        self.next_stamp += 1;

        let range = self.set_range(set);
        // Choose an invalid way, else the smallest stamp (LRU).
        let mut victim = range.start;
        let mut best = u64::MAX;
        for i in range {
            let w = &self.ways[i];
            if !w.valid {
                victim = i;
                break;
            }
            if w.stamp < best {
                best = w.stamp;
                victim = i;
            }
        }

        let w = &mut self.ways[victim];
        let evicted = if w.valid {
            let set_bits = self.sets.trailing_zeros();
            let addr = ((w.tag << set_bits) | set as u64) << self.line_shift;
            Some(Eviction {
                addr,
                dirty: w.dirty,
            })
        } else {
            None
        };
        *w = Way {
            valid: true,
            dirty: write,
            tag,
            stamp,
        };
        evicted
    }

    /// Invalidates the line containing `addr` if present; returns whether it
    /// was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let range = self.set_range(set);
        for way in &mut self.ways[range] {
            if way.valid && way.tag == tag {
                way.valid = false;
                return Some(way.dirty);
            }
        }
        None
    }

    /// Number of currently valid lines (for occupancy diagnostics).
    pub fn valid_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// The snapshot's ways fill the configured geometry exactly (geometry
    /// is not written: it derives from the config the array was built with).
    fn restored(&mut self) -> Result<(), SnapError> {
        SnapError::check_size(
            "tag-array way count",
            self.ways.len(),
            self.sets * self.assoc,
        )
    }
}

sst_isa::snap_record!(state TagArray "TAGA" { next_stamp, ways } then TagArray::restored);

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TagArray {
        // 4 sets x 2 ways x 64B = 512B
        TagArray::new(&CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false));
        assert_eq!(c.fill(0x1000, false), None);
        assert!(c.access(0x1000, false));
        assert!(c.access(0x103f, false), "same line hits");
        assert!(!c.access(0x1040, false), "next line misses");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three conflicting lines in a 2-way set: strides of sets*line = 256.
        c.fill(0x0000, false);
        c.fill(0x0100, false);
        c.access(0x0000, false); // make 0x0100 the LRU
        let ev = c.fill(0x0200, false).expect("set overflow evicts");
        assert_eq!(ev.addr, 0x0100);
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0100));
        assert!(c.probe(0x0200));
    }

    #[test]
    fn dirty_bit_tracks_writes() {
        let mut c = tiny();
        c.fill(0x0000, false);
        c.access(0x0000, true); // dirty it
        c.fill(0x0100, false);
        let ev = c.fill(0x0200, false).expect("evicts");
        assert_eq!(ev.addr, 0x0000, "0x0000 became LRU after later fills");
        assert!(ev.dirty);
    }

    #[test]
    fn fill_with_write_marks_dirty() {
        let mut c = tiny();
        c.fill(0x0000, true);
        c.fill(0x0100, false);
        c.access(0x0100, false);
        let ev = c.fill(0x0200, false).unwrap();
        assert_eq!(ev.addr, 0x0000);
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x0000, true);
        assert_eq!(c.invalidate(0x0000), Some(true));
        assert_eq!(c.invalidate(0x0000), None);
        assert!(!c.probe(0x0000));
    }

    #[test]
    fn eviction_address_reconstruction() {
        let mut c = tiny();
        let addr = 0xdead_bec0u64; // arbitrary, line-aligned bits preserved
        c.fill(addr, false);
        // Conflict it out with two same-set lines.
        let stride = 256; // sets * line
        c.fill(addr + stride, false);
        let ev = c.fill(addr + 2 * stride, false).unwrap();
        assert_eq!(ev.addr, c.block_of(addr));
    }

    #[test]
    fn refill_existing_line_refreshes_without_evicting() {
        let mut c = tiny();
        c.fill(0x0000, false);
        c.fill(0x0100, false);
        assert_eq!(c.fill(0x0000, false), None); // refresh, no eviction
        let ev = c.fill(0x0200, false).unwrap();
        assert_eq!(ev.addr, 0x0100, "refreshed 0x0000 survives");
    }

    #[test]
    fn valid_lines_counts() {
        let mut c = tiny();
        assert_eq!(c.valid_lines(), 0);
        c.fill(0, false);
        c.fill(64, false);
        assert_eq!(c.valid_lines(), 2);
    }
}
