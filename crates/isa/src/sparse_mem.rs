use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{SnapError, SnapReader, SnapWriter};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Page-number hasher: a single Fibonacci multiply. Page numbers are
/// small dense integers and every simulated load, store, and fetch
/// funnels through the page map, so the default SipHash showed up as a
/// top entry in the simulation profile.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>;

/// A sparse, byte-addressable 64-bit memory image.
///
/// Pages are allocated lazily on first write; reads of untouched memory
/// return zero. This is the backing store behind every cache hierarchy in
/// the workspace and the memory of the functional interpreter — both views
/// share a single `SparseMem`, so the timing and functional models observe
/// identical memory contents.
///
/// Accesses may straddle page boundaries and have no alignment requirement;
/// multi-byte values are little-endian.
#[derive(Clone, Default)]
pub struct SparseMem {
    pages: PageMap,
}

impl SparseMem {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> SparseMem {
        SparseMem::default()
    }

    /// Number of 4 KiB pages currently materialized.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, materializing the page if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads `n <= 8` bytes little-endian into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    pub fn read_le(&self, addr: u64, n: u64) -> u64 {
        assert!(n <= 8, "at most 8 bytes per access");
        let off = (addr & PAGE_MASK) as usize;
        if off + n as usize <= PAGE_SIZE {
            // Within one page: a single map lookup for the whole access
            // (the overwhelmingly common case).
            let Some(p) = self.pages.get(&(addr >> PAGE_SHIFT)) else {
                return 0;
            };
            let mut v = 0u64;
            for (i, &b) in p[off..off + n as usize].iter().enumerate() {
                v |= (b as u64) << (8 * i);
            }
            return v;
        }
        let mut v = 0u64;
        for i in 0..n {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `n <= 8` bytes of `val` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    pub fn write_le(&mut self, addr: u64, n: u64, val: u64) {
        assert!(n <= 8, "at most 8 bytes per access");
        let off = (addr & PAGE_MASK) as usize;
        if off + n as usize <= PAGE_SIZE {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            for (i, b) in page[off..off + n as usize].iter_mut().enumerate() {
                *b = (val >> (8 * i)) as u8;
            }
            return;
        }
        for i in 0..n {
            self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }

    /// Reads a little-endian `u32` (used for instruction fetch).
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_le(addr, 4) as u32
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_le(addr, 4, val as u64);
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_le(addr, 8, val);
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u64);
            rest = &rest[n..];
        }
    }

    /// Serializes the materialized pages in ascending page-number order
    /// (sorted so two equal memories always serialize byte-identically,
    /// regardless of map iteration order).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.tag("SMEM");
        let mut nums: Vec<u64> = self.pages.keys().copied().collect();
        nums.sort_unstable();
        w.put_usize(nums.len());
        for pn in nums {
            w.put_u64(pn);
            w.put_raw(&self.pages[&pn][..]);
        }
    }

    /// Replaces the contents with pages written by
    /// [`SparseMem::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on truncated input or duplicate pages;
    /// the memory is unchanged on error.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag("SMEM")?;
        let n = r.take_usize()?;
        let mut pages = PageMap::default();
        for _ in 0..n {
            let pn = r.take_u64()?;
            let raw = r.take_raw(PAGE_SIZE)?;
            let mut page = Box::new([0u8; PAGE_SIZE]);
            page[..].copy_from_slice(raw);
            if pages.insert(pn, page).is_some() {
                return Err(SnapError::Corrupt(format!("duplicate memory page {pn:#x}")));
            }
        }
        self.pages = pages;
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut rest = &mut buf[..];
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => rest[..n].copy_from_slice(&p[off..off + n]),
                None => rest[..n].fill(0),
            }
            addr = addr.wrapping_add(n as u64);
            rest = &mut rest[n..];
        }
    }
}

impl std::fmt::Debug for SparseMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMem")
            .field("pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = SparseMem::new();
        assert_eq!(m.read_u64(0xdead_beef_0000), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn rw_roundtrip_all_widths() {
        let mut m = SparseMem::new();
        m.write_u8(10, 0xab);
        assert_eq!(m.read_u8(10), 0xab);
        m.write_le(100, 2, 0xbeef);
        assert_eq!(m.read_le(100, 2), 0xbeef);
        m.write_u32(200, 0xdead_beef);
        assert_eq!(m.read_u32(200), 0xdead_beef);
        m.write_u64(300, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(300), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMem::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(1), 2);
        assert_eq!(m.read_u8(2), 3);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMem::new();
        let addr = PAGE_SIZE as u64 - 4; // straddles the first page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn partial_write_preserves_neighbors() {
        let mut m = SparseMem::new();
        m.write_u64(0, u64::MAX);
        m.write_le(2, 2, 0);
        assert_eq!(m.read_u64(0), 0xffff_ffff_0000_ffff);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = SparseMem::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(5000, &data);
        let mut out = vec![0u8; 256];
        m.read_bytes(5000, &mut out);
        assert_eq!(data, out);
    }
}
