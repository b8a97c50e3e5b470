use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::{Snap, SnapError, SnapReader, SnapWriter};

const PAGE_SHIFT: u32 = 12;
pub(crate) const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Page-number hasher for the pages outside the window: a single
/// Fibonacci multiply (when every access went through the map, the
/// default SipHash was a top entry in the simulation profile).
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

/// One 4 KiB page.
type Page = [u8; PAGE_SIZE];
type PageMap = HashMap<u64, Option<Frame>, BuildHasherDefault<PageHasher>>;

/// Most pages the dense window spans: 256 MiB of address space. A whole
/// program image — text at 64 KiB, data from 16 MiB, the largest
/// full-scale table 32 MiB — fits.
const WINDOW_PAGES: u64 = 1 << 16;

/// A materialized page: owned, or shared read-only with the program image
/// it was loaded from. The first write to a shared frame makes it owned;
/// reads, and writes to owned frames, touch no reference count.
#[derive(Clone)]
enum Frame {
    Owned(Box<Page>),
    // `Arc<Box<_>>`, not `Arc<Page>`: an unshared frame unwraps to its
    // `Box` with no 4 KiB copy when it becomes owned.
    #[allow(clippy::redundant_allocation)]
    Shared(Arc<Box<Page>>),
}

impl Frame {
    #[inline]
    fn bytes(&self) -> &Page {
        match self {
            Frame::Owned(p) => p,
            Frame::Shared(p) => p,
        }
    }
}

/// Makes `slot` an owned frame: a zero page if it was empty, the page
/// itself if this memory held its only reference, else a copy.
#[cold]
fn own(slot: &mut Option<Frame>) {
    let page = match slot.take() {
        Some(Frame::Shared(p)) => Arc::try_unwrap(p).unwrap_or_else(|p| Box::new(**p)),
        Some(Frame::Owned(p)) => p,
        None => Box::new([0; PAGE_SIZE]),
    };
    *slot = Some(Frame::Owned(page));
}

/// A sparse, byte-addressable 64-bit memory image.
///
/// Pages are allocated lazily on first write; reads of untouched memory
/// return zero. This is the backing store behind every cache hierarchy in
/// the workspace and the memory of the functional interpreter — both views
/// share a single `SparseMem`, so the timing and functional models observe
/// identical memory contents.
///
/// A page is a *frame* this memory owns or shares with the program image
/// it was loaded from ([`crate::Program::load_into`] copies no bytes); the
/// first write to a shared frame copies that one page, or takes it over
/// if no other memory holds it. A clone costs its owned pages, and every
/// memory running a program shares its unwritten image.
///
/// Every simulated load, store and fetch looks a page up, so the common
/// lookup is a subtract, a compare and an index: a dense *window* of frame
/// slots starts at the first page ever materialized (a program image's
/// lowest page) and grows to take any page less than 256 MiB above it.
/// Pages below the window's base or beyond that cap (a second CMP slot's
/// region, 64 GiB up) live in a hash map.
///
/// Accesses may straddle page boundaries and have no alignment requirement;
/// multi-byte values are little-endian.
#[derive(Clone, Default)]
pub struct SparseMem {
    /// Page number of `window[0]`.
    base: u64,
    /// Pages `base..base + window.len()`; `None` for one not materialized.
    window: Vec<Option<Frame>>,
    /// Materialized pages out of the window's reach.
    far: PageMap,
}

impl SparseMem {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> SparseMem {
        SparseMem::default()
    }

    /// Number of 4 KiB pages currently materialized.
    pub fn page_count(&self) -> usize {
        self.frames().count()
    }

    /// Number of materialized pages this memory owns (not shared).
    pub fn owned_pages(&self) -> usize {
        self.frames()
            .filter(|(_, f)| matches!(f, Frame::Owned(_)))
            .count()
    }

    /// Every materialized frame with its page number, window first.
    fn frames(&self) -> impl Iterator<Item = (u64, &Frame)> {
        (self.base..)
            .zip(&self.window)
            .chain(self.far.iter().map(|(&pn, f)| (pn, f)))
            .filter_map(|(pn, f)| Some((pn, f.as_ref()?)))
    }

    /// Page `pn`, if materialized. The one lookup: a page in the window's
    /// reach that is not in the window is in neither place.
    #[inline]
    fn page(&self, pn: u64) -> Option<&Page> {
        match self.window.get(pn.wrapping_sub(self.base) as usize) {
            Some(slot) => slot.as_ref().map(Frame::bytes),
            None => self.far_page(pn),
        }
    }

    /// Page `pn` from the map; out of line, since inlined it made every
    /// read 2x slower (random reads over the oltp image, window hits too).
    #[cold]
    #[inline(never)]
    fn far_page(&self, pn: u64) -> Option<&Page> {
        self.far.get(&pn)?.as_ref().map(Frame::bytes)
    }

    /// Page `pn`, owned (see [`own`]).
    #[inline]
    fn page_mut(&mut self, pn: u64) -> &mut Page {
        let slot = self.slot(pn);
        if !matches!(slot, Some(Frame::Owned(_))) {
            own(slot);
        }
        match slot {
            Some(Frame::Owned(p)) => p,
            _ => unreachable!("owned above"),
        }
    }

    /// The slot of page `pn`: in the window if it is in reach, else in
    /// the map.
    #[inline]
    fn slot(&mut self, pn: u64) -> &mut Option<Frame> {
        match self.reach(pn) {
            Some(i) => &mut self.window[i],
            None => self.far.entry(pn).or_default(),
        }
    }

    /// The window slot of page `pn`, growing the window to it if it is in
    /// reach (the first page materialized sets the base); `None` if not.
    #[inline]
    fn reach(&mut self, pn: u64) -> Option<usize> {
        if self.window.is_empty() {
            self.base = pn;
        }
        let i = pn.wrapping_sub(self.base);
        if i >= WINDOW_PAGES {
            return None;
        }
        let i = i as usize;
        if i >= self.window.len() {
            self.window.resize_with(i + 1, || None);
        }
        Some(i)
    }

    /// An empty image whose window starts at `addr`'s page: a builder's
    /// lowest address, so that every page it writes lands in the window.
    pub(crate) fn based_at(addr: u64) -> SparseMem {
        let mut m = SparseMem::new();
        m.reach(addr >> PAGE_SHIFT);
        m
    }

    /// Turns every owned frame into a shared one, copying no bytes: the
    /// image a built program holds.
    pub(crate) fn share(&mut self) {
        for slot in self.window.iter_mut().chain(self.far.values_mut()) {
            if let Some(Frame::Owned(p)) = slot.take() {
                *slot = Some(Frame::Shared(Arc::new(p)));
            }
        }
    }

    /// The pages `addr..addr + len` spans, in address order, each made
    /// owned (see [`own`]): a builder filling a region it has just
    /// appended, in whatever order it draws the bytes.
    pub(crate) fn pages_mut(&mut self, addr: u64, len: u64) -> Vec<&mut [u8]> {
        let span = match len {
            0 => 0..0,
            _ => addr >> PAGE_SHIFT..((addr + len - 1) >> PAGE_SHIFT) + 1,
        };
        for pn in span.clone() {
            self.page_mut(pn);
        }
        let mut pages: Vec<(u64, &mut [u8])> = (self.base..)
            .zip(&mut self.window)
            .chain(self.far.iter_mut().map(|(&pn, f)| (pn, f)))
            .filter(|(pn, _)| span.contains(pn))
            .map(|(pn, f)| match f {
                Some(Frame::Owned(p)) => (pn, &mut p[..]),
                _ => unreachable!("owned above"),
            })
            .collect();
        pages.sort_unstable_by_key(|&(pn, _)| pn);
        pages.into_iter().map(|(_, p)| p).collect()
    }

    /// Maps every page of `image` into this memory: a page not yet
    /// materialized here shares the image's frame, one already here gets
    /// the image page's bytes copied over it. Into an empty memory this
    /// is a clone of `image`, its window allocated once.
    pub(crate) fn map(&mut self, image: &SparseMem) {
        if self.window.is_empty() && self.far.is_empty() {
            self.clone_from(image);
            return;
        }
        for (pn, f) in image.frames() {
            match self.slot(pn) {
                slot @ None => *slot = Some(f.clone()),
                Some(_) => self.page_mut(pn).copy_from_slice(f.bytes()),
            }
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr >> PAGE_SHIFT)
            .map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    /// Writes one byte, materializing the page if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr >> PAGE_SHIFT)[(addr & PAGE_MASK) as usize] = val;
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
            // Within one page: a single lookup for the whole access (the
            // overwhelmingly common case).
            let Some(p) = self.page(addr >> PAGE_SHIFT) else {
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
            let page = self.page_mut(addr >> PAGE_SHIFT);
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
            self.page_mut(addr >> PAGE_SHIFT)[off..off + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u64);
            rest = &rest[n..];
        }
    }

    /// Serializes the materialized pages (see the [`Snap`] impl).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.put(w);
    }

    /// Replaces the contents with pages written by
    /// [`SparseMem::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on truncated input or duplicate pages;
    /// the memory is unchanged on error.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = SparseMem::take(r)?;
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut rest = &mut buf[..];
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            match self.page(addr >> PAGE_SHIFT) {
                Some(p) => rest[..n].copy_from_slice(&p[off..off + n]),
                None => rest[..n].fill(0),
            }
            addr = addr.wrapping_add(n as u64);
            rest = &mut rest[n..];
        }
    }
}

/// The materialized pages in ascending page-number order, each its number
/// and its bytes (sorted so two equal memories always serialize
/// byte-identically, however their pages are split between window and map,
/// owned or shared).
impl Snap for SparseMem {
    fn put(&self, w: &mut SnapWriter) {
        w.tag("SMEM");
        let mut pages: Vec<(u64, &Page)> = self.frames().map(|(pn, f)| (pn, f.bytes())).collect();
        pages.sort_unstable_by_key(|&(pn, _)| pn);
        w.put_usize(pages.len());
        for (pn, page) in pages {
            w.put_u64(pn);
            w.put_raw(page);
        }
    }

    fn take(r: &mut SnapReader<'_>) -> Result<SparseMem, SnapError> {
        r.tag("SMEM")?;
        let n = r.take_usize()?;
        let mut mem = SparseMem::new();
        for _ in 0..n {
            let pn = r.take_u64()?;
            let raw = r.take_raw(PAGE_SIZE)?;
            if mem.page(pn).is_some() {
                return Err(SnapError::Corrupt(format!("duplicate memory page {pn:#x}")));
            }
            mem.page_mut(pn).copy_from_slice(raw);
        }
        Ok(mem)
    }
}

impl std::fmt::Debug for SparseMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMem")
            .field("pages", &self.page_count())
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

    const PAGE: u64 = PAGE_SIZE as u64;

    /// A memory whose window starts at page 16 and ends at page 20, with
    /// a page below the base and one beyond the cap; every page's first
    /// byte is its page number.
    fn edged() -> SparseMem {
        let mut m = SparseMem::new();
        for pn in [16, 20, 15, 16 + WINDOW_PAGES] {
            m.write_u8(pn * PAGE, pn as u8);
        }
        m
    }

    #[test]
    fn pages_land_in_the_window_or_beside_it() {
        let mut m = edged();
        assert_eq!((m.base, m.window.len(), m.far.len()), (16, 5, 2));
        assert_eq!(m.page_count(), 4);
        // The last page in reach grows the window to the cap; one more
        // page does not.
        m.write_u8((16 + WINDOW_PAGES - 1) * PAGE, 7);
        m.write_u8((16 + WINDOW_PAGES + 1) * PAGE, 9);
        assert_eq!(m.window.len() as u64, WINDOW_PAGES);
        assert_eq!((m.far.len(), m.page_count()), (3, 6));
        for pn in [15, 16, 20, 16 + WINDOW_PAGES] {
            assert_eq!(m.read_u8(pn * PAGE), pn as u8, "page {pn}");
        }
        assert_eq!(m.read_u8((16 + WINDOW_PAGES - 1) * PAGE), 7);
        assert_eq!(m.read_u8((16 + WINDOW_PAGES + 1) * PAGE), 9);
        // Unmaterialized pages inside, below and beyond the window read 0.
        for pn in [
            0,
            14,
            17,
            19,
            21,
            16 + WINDOW_PAGES + 2,
            u64::MAX >> PAGE_SHIFT,
        ] {
            assert_eq!(m.read_u64(pn * PAGE + 8), 0, "page {pn}");
        }
        assert_eq!(m.page_count(), 6);
    }

    #[test]
    fn eight_byte_accesses_straddle_the_window_edges() {
        let mut m = edged();
        // Out of the last window page into an unmaterialized one.
        let end = 21 * PAGE - 3;
        m.write_u8(end, 0xaa);
        assert_eq!(m.read_u64(end), 0xaa);
        m.write_u64(end, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(end), 0x1122_3344_5566_7788);
        assert_eq!((m.window.len(), m.page_count()), (6, 5));
        // From below the base into the first window page.
        m.write_u64(16 * PAGE - 4, u64::MAX);
        assert_eq!(m.read_u64(16 * PAGE - 4), u64::MAX);
        assert_eq!(m.read_u8(16 * PAGE), 0xff);
        // From the last page in reach into the first beyond the cap.
        let cap = (16 + WINDOW_PAGES) * PAGE;
        m.write_u64(cap - 5, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(cap - 5), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(cap), 0x03);
        let mut bytes = [0; 16];
        m.read_bytes(cap - 8, &mut bytes);
        assert_eq!(bytes[3..11], 0x0102_0304_0506_0708u64.to_le_bytes());
    }

    #[test]
    fn slot_zero_and_slot_fifteen_share_one_image() {
        let program = |slot: u64| {
            let off = slot << 36;
            let mut a = crate::Asm::with_bases(
                crate::DEFAULT_TEXT_BASE + off,
                crate::DEFAULT_DATA_BASE + off,
            );
            a.data_u64(&(0..1000).map(|i| i * 3 + slot).collect::<Vec<u64>>());
            a.li(crate::Reg::x(1), slot as i64);
            a.halt();
            a.finish().unwrap()
        };
        let (p0, p15) = (program(0), program(15));
        let mut m = SparseMem::new();
        p0.load_into(&mut m);
        p15.load_into(&mut m);
        assert!(!m.far.is_empty(), "slot 15 lies beyond the window");
        for p in [&p0, &p15] {
            for (pn, f) in p.image().frames() {
                assert_eq!(m.page(pn), Some(f.bytes()), "page {pn:#x}");
                assert!(same_frame(&m, p.image(), pn), "page {pn:#x}");
            }
        }
        assert_eq!(m.owned_pages(), 0);
        let alone = |p: &crate::Program| {
            let mut m = SparseMem::new();
            p.load_into(&mut m);
            // Into an empty memory the image is a clone: the window is
            // allocated once, at the image's span.
            assert_eq!(m.window.capacity(), m.window.len());
            m.page_count()
        };
        assert_eq!(m.page_count(), alone(&p0) + alone(&p15));
    }

    /// [`edged`]'s pages and bytes, as shared frames of an image.
    fn shared_edged() -> SparseMem {
        let mut m = edged();
        m.share();
        m
    }

    fn frame(m: &SparseMem, pn: u64) -> &Frame {
        m.frames().find(|&(p, _)| p == pn).expect("materialized").1
    }

    /// Whether page `pn` of `a` and of `b` is one shared frame.
    fn same_frame(a: &SparseMem, b: &SparseMem, pn: u64) -> bool {
        matches!(
            (frame(a, pn), frame(b, pn)),
            (Frame::Shared(x), Frame::Shared(y)) if Arc::ptr_eq(x, y)
        )
    }

    const EDGED: [u64; 4] = [15, 16, 20, 16 + WINDOW_PAGES];

    #[test]
    fn a_clone_shares_every_frame() {
        let image = shared_edged();
        assert_eq!(saved(&image), saved(&edged()));
        let c = image.clone();
        for pn in EDGED {
            assert!(same_frame(&image, &c, pn), "page {pn}");
        }
        assert_eq!((image.owned_pages(), c.owned_pages()), (0, 0));
        // An owned page is copied, not shared.
        let owned = edged();
        assert_eq!((owned.owned_pages(), owned.clone().owned_pages()), (4, 4));
    }

    #[test]
    fn a_write_on_either_side_promotes_only_that_page() {
        // Window pages and far pages (below the base, beyond the cap)
        // alike.
        for (pn, other) in [(16, 20), (20, 16), (15, 16 + WINDOW_PAGES), (16 + WINDOW_PAGES, 15)] {
            let mut image = shared_edged();
            let mut c = image.clone();
            c.write_u8(pn * PAGE + 1, 0xee);
            assert_eq!((c.owned_pages(), image.owned_pages()), (1, 0));
            assert_eq!((c.read_u8(pn * PAGE), c.read_u8(pn * PAGE + 1)), (pn as u8, 0xee));
            assert_eq!(image.read_u8(pn * PAGE + 1), 0, "page {pn}");
            for q in EDGED.into_iter().filter(|&q| q != pn) {
                assert!(same_frame(&image, &c, q), "page {q} after writing {pn}");
            }
            // The other side writes another page: the clone does not see it.
            image.write_u8(other * PAGE + 2, 0x55);
            assert_eq!((c.owned_pages(), image.owned_pages()), (1, 1));
            assert_eq!(c.read_u8(other * PAGE + 2), 0);
            assert_eq!(image.read_u8(pn * PAGE + 1), 0);
            assert_eq!(c.page_count(), 4);
        }
    }

    #[test]
    fn a_page_no_other_memory_holds_is_taken_over_not_copied() {
        let mut m = shared_edged();
        let at = |m: &SparseMem, pn: u64| m.page(pn).unwrap() as *const Page;
        let before = at(&m, 20);
        let c = m.clone();
        m.write_u8(20 * PAGE + 1, 1);
        assert_ne!(at(&m, 20), before, "shared with the clone: copied");
        drop(c);
        let before = at(&m, 16);
        m.write_u8(16 * PAGE + 1, 1);
        assert_eq!(at(&m, 16), before, "held alone: the same page, now owned");
        assert_eq!(m.owned_pages(), 2);
    }

    #[test]
    fn mapping_over_a_held_page_copies_the_bytes() {
        let mut image = SparseMem::new();
        image.write_bytes(16 * PAGE, &[7; 8]);
        image.write_bytes(17 * PAGE, &[9; 8]);
        image.share();
        let mut m = SparseMem::new();
        m.write_u8(16 * PAGE + 100, 1);
        m.map(&image);
        assert_eq!(m.page(16), image.page(16), "the image's bytes, all of the page");
        assert!(same_frame(&m, &image, 17));
        assert_eq!((m.page_count(), m.owned_pages()), (2, 1));
        // A page held as another image's shared frame is copied too.
        let mut other = SparseMem::new();
        other.write_bytes(17 * PAGE + 8, &[3; 8]);
        other.share();
        let mut m = other.clone();
        m.map(&image);
        assert_eq!(m.page(17), image.page(17));
        assert_eq!(other.read_u8(17 * PAGE), 0);
        assert_eq!(m.owned_pages(), 1);
        assert!(same_frame(&m, &image, 16));
    }

    #[test]
    fn a_shared_image_saves_the_bytes_of_a_written_one() {
        let image = shared_edged();
        assert_eq!(saved(&image), saved(&edged()));
        // Promoted or not, a page saves its bytes.
        let mut c = image.clone();
        c.write_u8(20 * PAGE, 20);
        assert_eq!(c.owned_pages(), 1);
        assert_eq!(saved(&c), saved(&image));
        // A restored snapshot owns its pages.
        let mut back = SparseMem::new();
        back.restore_state(&mut SnapReader::new(&saved(&image))).unwrap();
        assert_eq!((back.owned_pages(), saved(&back)), (4, saved(&image)));
    }

    #[test]
    fn clones_are_independent() {
        let m = edged();
        let mut c = m.clone();
        for pn in [15, 16, 20, 16 + WINDOW_PAGES] {
            c.write_u8(pn * PAGE, 0xee);
            c.write_u8(pn * PAGE + 1, 0xee);
            assert_eq!(m.read_u8(pn * PAGE), pn as u8);
            assert_eq!(m.read_u8(pn * PAGE + 1), 0);
        }
        c.write_u8(18 * PAGE, 1);
        assert_eq!((m.page_count(), c.page_count()), (4, 5));
        let mut m = m;
        m.write_u8(16 * PAGE, 0x55);
        assert_eq!(c.read_u8(16 * PAGE), 0xee);
    }

    fn saved(m: &SparseMem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn snapshots_list_pages_in_ascending_order_and_restore_exactly() {
        let mut m = edged();
        m.write_u64(3 * PAGE + 8, 33);
        let bytes = saved(&m);
        let mut r = SnapReader::new(&bytes);
        r.tag("SMEM").unwrap();
        let n = r.take_usize().unwrap();
        let order: Vec<u64> = (0..n)
            .map(|_| {
                let pn = r.take_u64().unwrap();
                r.take_raw(PAGE_SIZE).unwrap();
                pn
            })
            .collect();
        assert_eq!(order, [3, 15, 16, 20, 16 + WINDOW_PAGES]);
        // A memory built in another order saves the same bytes.
        let mut other = SparseMem::new();
        for pn in [16 + WINDOW_PAGES, 20, 16, 15] {
            other.write_u8(pn * PAGE, pn as u8);
        }
        other.write_u64(3 * PAGE + 8, 33);
        assert_eq!(saved(&other), bytes);
        let mut back = SparseMem::new();
        back.restore_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(saved(&back), bytes);
        assert_eq!(back.read_u64(3 * PAGE + 8), 33);
    }

    #[test]
    fn restore_rejects_duplicate_pages_and_leaves_the_memory_alone() {
        for pn in [20, 16 + WINDOW_PAGES] {
            let mut w = SnapWriter::new();
            w.tag("SMEM");
            w.put_usize(3);
            for p in [16, pn, pn] {
                w.put_u64(p);
                w.put_raw(&[1; PAGE_SIZE]);
            }
            let bytes = w.into_bytes();
            let mut m = edged();
            let before = saved(&m);
            let err = m.restore_state(&mut SnapReader::new(&bytes)).unwrap_err();
            assert!(
                matches!(err, SnapError::Corrupt(ref e) if e.contains("duplicate")),
                "{err}"
            );
            assert_eq!(saved(&m), before);
        }
    }
}
