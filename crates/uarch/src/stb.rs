//! The speculative store buffer.
//!
//! Speculative stores are held here — never released to the cache — until
//! their epoch commits. Loads executing ahead search the buffer in program
//! order for forwarding, and the buffer's conservative answers implement
//! the paper's "no memory-disambiguation hardware" design point: a load
//! behind an unknown-address store simply defers.
//!
//! # Storage
//!
//! Entries sit in a seq-sorted `VecDeque` (commit drains pop the front in
//! O(1) per store), so [`StoreBuffer::resolve`] is a binary search rather
//! than a scan. A sorted side index of unresolved-address seqs makes
//! [`StoreBuffer::unknown_addr_before`] — probed for every speculative
//! load the ahead strand issues and every replayed load — a single
//! front-element compare.

use std::collections::VecDeque;

use sst_isa::SnapError;

use crate::Seq;

/// One buffered store.
#[derive(Clone, Copy, Debug)]
pub struct StoreEntry {
    /// Program-order sequence number.
    pub seq: Seq,
    /// Store address; `None` while the address computation is deferred.
    pub addr: Option<u64>,
    /// Access size in bytes.
    pub bytes: u64,
    /// Store data; `None` while the data is not-there.
    pub value: Option<u64>,
}

sst_isa::snap_record!(StoreEntry { seq, addr, bytes, value });

/// Result of a forwarding lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardResult {
    /// No older store overlaps: read memory.
    NoMatch,
    /// Fully covered by an older store with known data.
    Forward(u64),
    /// Fully covered by an older store whose data is not-there; the load
    /// must defer behind that store (its `seq` is given).
    NotThere {
        /// Sequence of the covering store.
        store_seq: Seq,
    },
    /// Ambiguous: an older store has an unknown address, or the overlap is
    /// partial. The load must defer and retry at replay.
    MustWait,
}

/// A committed store released by [`StoreBuffer::drain_through`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainedStore {
    /// Program-order sequence number.
    pub seq: Seq,
    /// Final address.
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u64,
    /// Final data.
    pub value: u64,
}

/// A bounded, program-ordered speculative store buffer.
#[derive(Clone, Debug)]
pub struct StoreBuffer {
    entries: VecDeque<StoreEntry>,
    /// Seqs of entries whose address is still unresolved, ascending (a
    /// subsequence of `entries`' seqs: pushes append, resolves and
    /// squashes delete in place).
    unresolved_addrs: VecDeque<Seq>,
    capacity: usize,
    /// Maximum occupancy observed.
    pub high_water: usize,
    /// Total stores buffered.
    pub total_stores: u64,
    /// Loads answered by forwarding.
    pub forwards: u64,
    /// Loads forced to wait (unknown address / partial overlap).
    pub must_waits: u64,
}

impl StoreBuffer {
    /// Creates a buffer of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> StoreBuffer {
        assert!(capacity > 0, "store buffer needs at least one entry");
        StoreBuffer {
            entries: VecDeque::with_capacity(capacity),
            unresolved_addrs: VecDeque::new(),
            capacity,
            high_water: 0,
            total_stores: 0,
            forwards: 0,
            must_waits: 0,
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when no more stores can be buffered.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends a store in program order.
    ///
    /// # Panics
    ///
    /// Panics on overflow (callers stall instead) or out-of-order push.
    #[inline]
    pub fn push(&mut self, entry: StoreEntry) {
        assert!(
            !self.is_full(),
            "store buffer overflow: caller must stall when full"
        );
        if let Some(last) = self.entries.back() {
            assert!(
                last.seq < entry.seq,
                "store buffer entries must be program-ordered"
            );
        }
        if entry.addr.is_none() {
            self.unresolved_addrs.push_back(entry.seq);
        }
        self.entries.push_back(entry);
        self.total_stores += 1;
        self.high_water = self.high_water.max(self.entries.len());
    }

    /// Fills in a deferred store's address and/or value at replay.
    ///
    /// # Panics
    ///
    /// Panics if no entry with `seq` exists.
    #[inline]
    pub fn resolve(&mut self, seq: Seq, addr: u64, value: u64) {
        let idx = self
            .entries
            .binary_search_by_key(&seq, |e| e.seq)
            .expect("resolving a store that is not buffered");
        let e = &mut self.entries[idx];
        if e.addr.is_none() {
            let u = self
                .unresolved_addrs
                .binary_search(&seq)
                .expect("unresolved-address index out of sync");
            self.unresolved_addrs.remove(u);
        }
        e.addr = Some(addr);
        e.value = Some(value);
    }

    /// Forwarding lookup for a load at `seq` reading `bytes` at `addr`.
    ///
    /// Searches older stores youngest-first; see [`ForwardResult`].
    #[inline]
    pub fn forward(&mut self, seq: Seq, addr: u64, bytes: u64) -> ForwardResult {
        for e in self.entries.iter().rev() {
            if e.seq >= seq {
                continue;
            }
            let Some(saddr) = e.addr else {
                self.must_waits += 1;
                return ForwardResult::MustWait;
            };
            let s_end = saddr + e.bytes;
            let l_end = addr + bytes;
            let overlap = addr < s_end && saddr < l_end;
            if !overlap {
                continue;
            }
            let covers = saddr <= addr && l_end <= s_end;
            if !covers {
                self.must_waits += 1;
                return ForwardResult::MustWait;
            }
            return match e.value {
                Some(v) => {
                    self.forwards += 1;
                    let shift = (addr - saddr) * 8;
                    let shifted = v >> shift;
                    let out = if bytes == 8 {
                        shifted
                    } else {
                        shifted & ((1u64 << (bytes * 8)) - 1)
                    };
                    ForwardResult::Forward(out)
                }
                None => ForwardResult::NotThere { store_seq: e.seq },
            };
        }
        ForwardResult::NoMatch
    }

    /// `true` if any store older than `seq` has an unresolved address.
    /// O(1): the oldest unresolved address is the front of the side index.
    #[inline]
    pub fn unknown_addr_before(&self, seq: Seq) -> bool {
        self.unresolved_addrs.front().is_some_and(|&s| s < seq)
    }

    /// Commits and removes every store with `seq <= through`, in program
    /// order, appending to `out` (callers reuse one buffer across
    /// commits).
    ///
    /// # Panics
    ///
    /// Panics if any drained store is still unresolved — commit of an epoch
    /// with unresolved stores is a core-model bug.
    pub fn drain_through_into(&mut self, through: Seq, out: &mut Vec<DrainedStore>) {
        while let Some(e) = self.entries.front() {
            if e.seq > through {
                break;
            }
            let e = self.entries.pop_front().expect("checked front");
            assert!(
                self.unresolved_addrs.front() != Some(&e.seq),
                "committing store with unknown address"
            );
            out.push(DrainedStore {
                seq: e.seq,
                addr: e.addr.expect("committing store with unknown address"),
                bytes: e.bytes,
                value: e.value.expect("committing store with unknown data"),
            });
        }
    }

    /// [`StoreBuffer::drain_through_into`] into a fresh vector (tests and
    /// one-shot callers).
    pub fn drain_through(&mut self, through: Seq) -> Vec<DrainedStore> {
        let mut out = Vec::new();
        self.drain_through_into(through, &mut out);
        out
    }

    /// Squashes every store with `seq >= from` (epoch rollback).
    pub fn squash_from(&mut self, from: Seq) {
        let keep = self.entries.partition_point(|e| e.seq < from);
        self.entries.truncate(keep);
        let keep_u = self.unresolved_addrs.partition_point(|&s| s < from);
        self.unresolved_addrs.truncate(keep_u);
    }

    /// Reads `bytes` at `addr` as seen by the load at `seq`: backing memory
    /// overlaid, in program order, with every older buffered store that
    /// overlaps. Returns `None` if any older overlapping (or
    /// unknown-address) store is unresolved — the load must keep waiting.
    ///
    /// This is the replay-path load semantics; the ahead path uses the
    /// cheaper [`StoreBuffer::forward`].
    pub fn read_overlay(
        &self,
        seq: Seq,
        addr: u64,
        bytes: u64,
        mem: &sst_isa::SparseMem,
    ) -> Option<u64> {
        // Any older store with an unknown address is a potential alias.
        if self.unknown_addr_before(seq) {
            return None;
        }
        let mut buf = mem.read_le(addr, bytes).to_le_bytes();
        for e in self.entries.iter() {
            if e.seq >= seq {
                break;
            }
            let saddr = e.addr.expect("unknown addrs were screened above");
            let s_end = saddr + e.bytes;
            let l_end = addr + bytes;
            if addr >= s_end || saddr >= l_end {
                continue;
            }
            let value = e.value?; // overlapping but data not-there: wait
            for i in 0..e.bytes {
                let byte_addr = saddr + i;
                if byte_addr >= addr && byte_addr < l_end {
                    buf[(byte_addr - addr) as usize] = (value >> (8 * i)) as u8;
                }
            }
        }
        Some(u64::from_le_bytes(buf) & if bytes == 8 { u64::MAX } else { (1 << (bytes * 8)) - 1 })
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &StoreEntry> {
        self.entries.iter()
    }

    /// The snapshot's entries fit the buffer in program order; rebuilds the
    /// unresolved-address index (derivable from the entries, so not
    /// written).
    fn restored(&mut self) -> Result<(), SnapError> {
        SnapError::check_bound("STB occupancy", self.entries.len(), self.capacity)?;
        SnapError::check_bound("STB high-water mark", self.high_water, self.capacity)?;
        let mut pairs = self.entries.iter().zip(self.entries.iter().skip(1));
        if let Some((_, e)) = pairs.find(|(older, e)| older.seq >= e.seq) {
            return Err(SnapError::Corrupt(format!(
                "STB entries out of program order at seq {}",
                e.seq
            )));
        }
        let unresolved = self.entries.iter().filter(|e| e.addr.is_none());
        self.unresolved_addrs = unresolved.map(|e| e.seq).collect();
        Ok(())
    }
}

sst_isa::snap_record!(state StoreBuffer "STBF" {
    total_stores,
    forwards,
    must_waits,
    high_water,
    entries,
} then StoreBuffer::restored);

#[cfg(test)]
mod tests {
    use super::*;

    fn store(seq: Seq, addr: u64, bytes: u64, value: u64) -> StoreEntry {
        StoreEntry {
            seq,
            addr: Some(addr),
            bytes,
            value: Some(value),
        }
    }

    #[test]
    fn forward_exact_match() {
        let mut sb = StoreBuffer::new(8);
        sb.push(store(1, 0x100, 8, 0xdead_beef));
        assert_eq!(sb.forward(5, 0x100, 8), ForwardResult::Forward(0xdead_beef));
        assert_eq!(sb.forwards, 1);
    }

    #[test]
    fn forward_subrange_extracts_bytes() {
        let mut sb = StoreBuffer::new(8);
        sb.push(store(1, 0x100, 8, 0x8877_6655_4433_2211));
        assert_eq!(sb.forward(5, 0x102, 2), ForwardResult::Forward(0x4433));
        assert_eq!(sb.forward(5, 0x100, 1), ForwardResult::Forward(0x11));
        assert_eq!(sb.forward(5, 0x107, 1), ForwardResult::Forward(0x88));
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut sb = StoreBuffer::new(8);
        sb.push(store(1, 0x100, 8, 111));
        sb.push(store(2, 0x100, 8, 222));
        assert_eq!(sb.forward(5, 0x100, 8), ForwardResult::Forward(222));
        // A load *between* them sees the first only.
        assert_eq!(sb.forward(2, 0x100, 8), ForwardResult::Forward(111));
    }

    #[test]
    fn younger_stores_invisible() {
        let mut sb = StoreBuffer::new(8);
        sb.push(store(10, 0x100, 8, 999));
        assert_eq!(sb.forward(5, 0x100, 8), ForwardResult::NoMatch);
    }

    #[test]
    fn partial_overlap_waits() {
        let mut sb = StoreBuffer::new(8);
        sb.push(store(1, 0x100, 4, 0xaabbccdd));
        assert_eq!(sb.forward(5, 0x102, 4), ForwardResult::MustWait);
        assert_eq!(sb.must_waits, 1);
    }

    #[test]
    fn unknown_address_blocks() {
        let mut sb = StoreBuffer::new(8);
        sb.push(StoreEntry {
            seq: 1,
            addr: None,
            bytes: 8,
            value: None,
        });
        assert_eq!(sb.forward(5, 0x500, 8), ForwardResult::MustWait);
        assert!(sb.unknown_addr_before(5));
        assert!(!sb.unknown_addr_before(1));
        sb.resolve(1, 0x500, 42);
        assert_eq!(sb.forward(5, 0x500, 8), ForwardResult::Forward(42));
        assert!(!sb.unknown_addr_before(5));
    }

    #[test]
    fn not_there_data_names_the_store() {
        let mut sb = StoreBuffer::new(8);
        sb.push(StoreEntry {
            seq: 3,
            addr: Some(0x100),
            bytes: 8,
            value: None,
        });
        assert_eq!(
            sb.forward(7, 0x100, 8),
            ForwardResult::NotThere { store_seq: 3 }
        );
    }

    #[test]
    fn drain_commits_in_order_and_removes() {
        let mut sb = StoreBuffer::new(8);
        sb.push(store(1, 0x100, 8, 1));
        sb.push(store(2, 0x200, 8, 2));
        sb.push(store(9, 0x300, 8, 3));
        let drained = sb.drain_through(5);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].seq, 1);
        assert_eq!(drained[1].seq, 2);
        assert_eq!(sb.len(), 1);
    }

    #[test]
    #[should_panic]
    fn drain_unresolved_asserts() {
        let mut sb = StoreBuffer::new(8);
        sb.push(StoreEntry {
            seq: 1,
            addr: None,
            bytes: 8,
            value: None,
        });
        let _ = sb.drain_through(5);
    }

    #[test]
    fn squash_drops_young() {
        let mut sb = StoreBuffer::new(8);
        sb.push(store(1, 0x100, 8, 1));
        sb.push(store(5, 0x200, 8, 2));
        sb.squash_from(5);
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.iter().next().unwrap().seq, 1);
    }

    #[test]
    fn unresolved_index_tracks_squash_and_resolve() {
        let mut sb = StoreBuffer::new(8);
        sb.push(StoreEntry {
            seq: 2,
            addr: None,
            bytes: 8,
            value: None,
        });
        sb.push(store(3, 0x100, 8, 7));
        sb.push(StoreEntry {
            seq: 5,
            addr: None,
            bytes: 8,
            value: None,
        });
        assert!(sb.unknown_addr_before(10));
        sb.squash_from(4);
        assert!(sb.unknown_addr_before(10), "seq 2 still unresolved");
        assert!(!sb.unknown_addr_before(2));
        sb.resolve(2, 0x200, 1);
        assert!(!sb.unknown_addr_before(10), "index emptied by resolve");
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn drain_into_reuses_buffer() {
        let mut sb = StoreBuffer::new(8);
        sb.push(store(1, 0x100, 8, 1));
        sb.push(store(4, 0x200, 8, 2));
        let mut buf = Vec::new();
        sb.drain_through_into(2, &mut buf);
        assert_eq!(buf.len(), 1);
        sb.drain_through_into(9, &mut buf);
        assert_eq!(buf.len(), 2, "appends, does not clear");
        assert_eq!(buf[1].seq, 4);
        assert!(sb.is_empty());
    }

    #[test]
    #[should_panic]
    fn overflow_asserts() {
        let mut sb = StoreBuffer::new(1);
        sb.push(store(1, 0, 8, 0));
        sb.push(store(2, 8, 8, 0));
    }
}
