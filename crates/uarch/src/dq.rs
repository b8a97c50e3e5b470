//! The deferred queue (DQ).
//!
//! When an SST core encounters an instruction whose source is "not there"
//! (NT), it parks the instruction here together with the source operands
//! that *were* available — eliminating WAR hazards without register
//! renaming, which is the paper's key structural saving. Replay walks the
//! queue in program order, possibly over multiple passes (entries whose
//! inputs are still missing are retained for the next pass).
//!
//! # Storage
//!
//! Entries live in a slab (`slots` + free list) and program order is a
//! separate vector of slot ids kept sorted by sequence number. Because
//! sequence numbers are strictly increasing, every by-seq lookup
//! ([`DeferredQueue::position`], [`DeferredQueue::remove_seq`],
//! [`DeferredQueue::set_data_ready`]) is a binary search over that small
//! id vector, and removal shifts 4-byte ids instead of whole entries. A
//! lazily-validated min-heap caches [`DeferredQueue::next_data_ready`], so
//! the per-pass wake computation stops being an O(n) scan per call. This
//! replaced linear scans that dominated replay-heavy runs (`ea`/`sst` on
//! the commercial workloads).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sst_isa::{decode, encode, Inst, SnapError, SnapReader, SnapWriter};
use sst_mem::Cycle;

use crate::Seq;

/// One deferred instruction.
#[derive(Clone, Copy, Debug)]
pub struct DqEntry {
    /// Program-order sequence number.
    pub seq: Seq,
    /// PC of the instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// Operand values captured at defer time; `None` for sources that were
    /// NT (they will come from replay-produced values).
    pub captured: [Option<u64>; 2],
    /// For each non-captured source: the sequence number of the deferred
    /// instruction that will produce it. Replay looks the value up in its
    /// produced-value table once that producer has replayed.
    pub producers: [Option<Seq>; 2],
    /// For deferred conditional branches: the direction that fetch
    /// speculated. Replay compares the real outcome against this.
    pub predicted_taken: Option<bool>,
    /// For deferred control transfers: the next PC fetch continued at.
    /// Replay compares the resolved target against this.
    pub pred_next_pc: Option<u64>,
    /// For deferred loads: cycle their miss data arrives (known at defer
    /// time in this simulator's resolve-at-issue timing model). Replay
    /// before this cycle is pointless.
    pub data_ready_at: Option<Cycle>,
}

/// One slab slot: the entry plus replay-side bookkeeping that is not part
/// of the architectural defer record.
#[derive(Clone, Debug)]
struct Slot {
    entry: DqEntry,
    /// Input-ready but stuck behind an older unresolved store
    /// (`read_overlay` said wait). Only a store resolution can unstick it,
    /// so the pass-done wake computation skips blocked entries — they have
    /// no knowable wake time of their own. Cleared whenever a store
    /// resolves ([`DeferredQueue::clear_blocked`]).
    blocked: bool,
}

/// A bounded, program-ordered queue of deferred instructions.
///
/// The queue preserves program order. [`DeferredQueue::retain_ordered`]
/// supports multi-pass replay: completed entries are removed, stuck ones
/// stay in place.
#[derive(Clone, Debug)]
pub struct DeferredQueue {
    slots: Vec<Slot>,
    /// Free slot indices.
    free: Vec<u32>,
    /// Live slot indices in program order (ascending seq).
    order: Vec<u32>,
    /// Cached `(data_ready_at, seq)` pairs, lazily validated: stale pairs
    /// (removed/squashed entries, superseded ready times) are discarded
    /// when they surface at the top.
    ready_heap: BinaryHeap<Reverse<(Cycle, Seq)>>,
    /// Bumped on every squash/clear. Replay cursors snapshot it so a
    /// cursor that survived a mid-pass squash is detected as stale instead
    /// of silently resuming against reshuffled contents.
    generation: u64,
    /// Live entries currently marked blocked (kept exact so
    /// [`DeferredQueue::any_blocked`] is O(1)).
    blocked_count: usize,
    capacity: usize,
    /// Maximum occupancy ever observed (reports).
    pub high_water: usize,
    /// Total entries ever enqueued.
    pub total_deferred: u64,
}

impl DeferredQueue {
    /// Creates an empty queue holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> DeferredQueue {
        assert!(capacity > 0, "DQ needs at least one entry");
        DeferredQueue {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            order: Vec::with_capacity(capacity),
            ready_heap: BinaryHeap::new(),
            generation: 0,
            blocked_count: 0,
            capacity,
            high_water: 0,
            total_deferred: 0,
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// `true` when no more instructions can be deferred.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.order.len() >= self.capacity
    }

    /// The squash/clear epoch counter (see [`DeferredQueue::position`]
    /// callers: a replay cursor taken under one generation must not be
    /// resumed under another).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends an entry in program order.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers stall the ahead thread instead
    /// of overflowing) or if `entry.seq` breaks program order.
    #[inline]
    pub fn push(&mut self, entry: DqEntry) {
        assert!(!self.is_full(), "DQ overflow: caller must stall when full");
        if let Some(last) = self.order.last() {
            assert!(
                self.slots[*last as usize].entry.seq < entry.seq,
                "DQ entries must be program-ordered"
            );
        }
        if let Some(ready) = entry.data_ready_at {
            self.ready_heap.push(Reverse((ready, entry.seq)));
        }
        let slot = Slot {
            entry,
            blocked: false,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.order.push(idx);
        self.total_deferred += 1;
        self.high_water = self.high_water.max(self.order.len());
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &DqEntry> {
        self.order.iter().map(|&i| &self.slots[i as usize].entry)
    }

    /// Iterates `(entry, blocked)` pairs oldest-first (the pass-done wake
    /// scan skips blocked entries).
    pub fn iter_blocked(&self) -> impl Iterator<Item = (&DqEntry, bool)> {
        self.order.iter().map(|&i| {
            let s = &self.slots[i as usize];
            (&s.entry, s.blocked)
        })
    }

    /// Number of live entries older than `seq` — equivalently, the
    /// position a cursor at `seq` starts from. O(log n).
    #[inline]
    pub fn position(&self, seq: Seq) -> usize {
        self.order
            .partition_point(|&i| self.slots[i as usize].entry.seq < seq)
    }

    /// The entry at program-order position `pos` (0 = oldest).
    #[inline]
    pub fn get(&self, pos: usize) -> Option<&DqEntry> {
        self.order
            .get(pos)
            .map(|&i| &self.slots[i as usize].entry)
    }

    /// Sequence number of the oldest entry.
    #[inline]
    pub fn first_seq(&self) -> Option<Seq> {
        self.get(0).map(|e| e.seq)
    }

    /// One replay pass: calls `f` on each entry oldest-first; entries for
    /// which `f` returns `true` are removed (completed), the rest stay in
    /// order. Returns the number removed.
    pub fn retain_ordered(&mut self, mut f: impl FnMut(&DqEntry) -> bool) -> usize {
        let order = std::mem::take(&mut self.order);
        let before = order.len();
        for &i in &order {
            if f(&self.slots[i as usize].entry) {
                self.unblock_slot(i);
                self.free.push(i);
            } else {
                self.order.push(i);
            }
        }
        before - self.order.len()
    }

    /// Drops every entry with `seq >= from` (epoch squash) and bumps the
    /// generation.
    pub fn squash_from(&mut self, from: Seq) {
        let keep = self.position(from);
        for i in self.order.split_off(keep) {
            self.unblock_slot(i);
            self.free.push(i);
        }
        self.generation += 1;
    }

    /// Clears the queue and bumps the generation.
    pub fn clear(&mut self) {
        for i in std::mem::take(&mut self.order) {
            self.slots[i as usize].blocked = false;
            self.free.push(i);
        }
        self.blocked_count = 0;
        self.ready_heap.clear();
        self.generation += 1;
    }

    /// Drops a slot's blocked mark (entry leaving the queue), keeping the
    /// blocked count exact.
    #[inline]
    fn unblock_slot(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        if slot.blocked {
            slot.blocked = false;
            self.blocked_count -= 1;
        }
    }

    /// Marks entry `seq` as blocked behind an older unresolved store.
    ///
    /// # Panics
    ///
    /// Panics if no such entry exists.
    #[inline]
    pub fn mark_blocked(&mut self, seq: Seq) {
        let pos = self.position(seq);
        let idx = self.order[pos] as usize;
        assert_eq!(self.slots[idx].entry.seq, seq, "blocking a missing entry");
        if !self.slots[idx].blocked {
            self.slots[idx].blocked = true;
            self.blocked_count += 1;
        }
    }

    /// Clears every blocked mark (a store resolved; any blocked entry may
    /// now be able to proceed).
    pub fn clear_blocked(&mut self) {
        if self.blocked_count == 0 {
            return;
        }
        for &i in &self.order {
            self.slots[i as usize].blocked = false;
        }
        self.blocked_count = 0;
    }

    /// `true` while any live entry is marked blocked (input-ready but
    /// stuck behind an unresolved store). O(1).
    #[inline]
    pub fn any_blocked(&self) -> bool {
        self.blocked_count > 0
    }

    /// Earliest `data_ready_at` among entries still waiting on data, if
    /// any. Served from the cached heap; stale top entries are discarded
    /// on the way.
    pub fn next_data_ready(&mut self) -> Option<Cycle> {
        while let Some(&Reverse((ready, seq))) = self.ready_heap.peek() {
            let pos = self.position(seq);
            let live = self
                .order
                .get(pos)
                .map(|&i| &self.slots[i as usize].entry)
                .is_some_and(|e| e.seq == seq && e.data_ready_at == Some(ready));
            if live {
                return Some(ready);
            }
            self.ready_heap.pop();
        }
        None
    }

    /// Removes the entry with sequence `seq` (after successful replay).
    ///
    /// # Panics
    ///
    /// Panics if no such entry exists.
    #[inline]
    pub fn remove_seq(&mut self, seq: Seq) -> DqEntry {
        let pos = self.position(seq);
        let idx = self
            .order
            .get(pos)
            .copied()
            .filter(|&i| self.slots[i as usize].entry.seq == seq)
            .expect("removing a DQ entry that is not present");
        self.order.remove(pos);
        self.unblock_slot(idx);
        self.free.push(idx);
        self.slots[idx as usize].entry
    }

    /// Serializes live entries (program order, with blocked marks), the
    /// generation counter, and the occupancy statistics.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.tag("DQUE");
        w.put_u64(self.generation);
        w.put_u64(self.total_deferred);
        w.put_usize(self.high_water);
        w.put_usize(self.order.len());
        for &i in &self.order {
            let s = &self.slots[i as usize];
            let e = &s.entry;
            w.put_u64(e.seq);
            w.put_u64(e.pc);
            w.put_u32(encode(e.inst).expect("deferred instruction re-encodes"));
            for c in e.captured {
                w.put_opt_u64(c);
            }
            for p in e.producers {
                w.put_opt_u64(p);
            }
            w.put_u8(match e.predicted_taken {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
            w.put_opt_u64(e.pred_next_pc);
            w.put_opt_u64(e.data_ready_at);
            w.put_bool(s.blocked);
        }
    }

    /// Restores state written by [`DeferredQueue::save_state`] on a queue
    /// of the same capacity. The slab is repacked canonically (slot ids
    /// 0..n in program order), which is invisible to every caller: slot
    /// ids never escape this module.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated, corrupt, or capacity-mismatched input.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag("DQUE")?;
        let generation = r.take_u64()?;
        let total_deferred = r.take_u64()?;
        let high_water = r.take_usize()?;
        let n = r.take_usize()?;
        if n > self.capacity || high_water > self.capacity {
            return Err(SnapError::Corrupt(format!(
                "DQ occupancy {n} / high-water {high_water} exceeds capacity {}",
                self.capacity
            )));
        }
        self.clear();
        self.slots.clear();
        self.free.clear();
        self.ready_heap.clear();
        let mut last_seq: Option<Seq> = None;
        for _ in 0..n {
            let seq = r.take_u64()?;
            if last_seq.is_some_and(|l| l >= seq) {
                return Err(SnapError::Corrupt(format!(
                    "DQ entries out of program order at seq {seq}"
                )));
            }
            last_seq = Some(seq);
            let pc = r.take_u64()?;
            let word = r.take_u32()?;
            let inst = decode(word).map_err(|_| {
                SnapError::Corrupt(format!("undecodable deferred instruction {word:#010x}"))
            })?;
            let captured = [r.take_opt_u64()?, r.take_opt_u64()?];
            let producers = [r.take_opt_u64()?, r.take_opt_u64()?];
            let predicted_taken = match r.take_u8()? {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                b => {
                    return Err(SnapError::Corrupt(format!(
                        "bad predicted-taken byte {b}"
                    )))
                }
            };
            let pred_next_pc = r.take_opt_u64()?;
            let data_ready_at = r.take_opt_u64()?;
            let blocked = r.take_bool()?;
            self.push(DqEntry {
                seq,
                pc,
                inst,
                captured,
                producers,
                predicted_taken,
                pred_next_pc,
                data_ready_at,
            });
            if blocked {
                self.mark_blocked(seq);
            }
        }
        self.generation = generation;
        self.total_deferred = total_deferred;
        self.high_water = high_water;
        Ok(())
    }

    /// Updates the data-ready cycle of entry `seq` (re-deferral of a
    /// replayed load that missed again).
    ///
    /// # Panics
    ///
    /// Panics if no such entry exists.
    #[inline]
    pub fn set_data_ready(&mut self, seq: Seq, ready: Cycle) {
        let pos = self.position(seq);
        let idx = self
            .order
            .get(pos)
            .copied()
            .filter(|&i| self.slots[i as usize].entry.seq == seq)
            .expect("updating a DQ entry that is not present");
        self.slots[idx as usize].entry.data_ready_at = Some(ready);
        self.ready_heap.push(Reverse((ready, seq)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::Inst;

    fn entry(seq: Seq) -> DqEntry {
        DqEntry {
            seq,
            pc: 0x1000 + seq * 4,
            inst: Inst::NOP,
            captured: [None, None],
            producers: [None, None],
            predicted_taken: None,
            pred_next_pc: None,
            data_ready_at: None,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = DeferredQueue::new(8);
        q.push(entry(1));
        q.push(entry(2));
        q.push(entry(5));
        let seqs: Vec<Seq> = q.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 5]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.total_deferred, 3);
    }

    #[test]
    #[should_panic]
    fn out_of_order_push_asserts() {
        let mut q = DeferredQueue::new(8);
        q.push(entry(5));
        q.push(entry(3));
    }

    #[test]
    #[should_panic]
    fn overflow_asserts() {
        let mut q = DeferredQueue::new(1);
        q.push(entry(1));
        q.push(entry(2));
    }

    #[test]
    fn retain_ordered_removes_completed() {
        let mut q = DeferredQueue::new(8);
        for s in 1..=5 {
            q.push(entry(s));
        }
        // Complete the even seqs.
        let removed = q.retain_ordered(|e| e.seq % 2 == 0);
        assert_eq!(removed, 2);
        let seqs: Vec<Seq> = q.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 3, 5], "survivors stay ordered");
    }

    #[test]
    fn squash_from_drops_young_suffix() {
        let mut q = DeferredQueue::new(8);
        for s in 1..=5 {
            q.push(entry(s));
        }
        q.squash_from(3);
        let seqs: Vec<Seq> = q.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut q = DeferredQueue::new(8);
        for s in 1..=4 {
            q.push(entry(s));
        }
        q.retain_ordered(|_| true);
        assert!(q.is_empty());
        assert_eq!(q.high_water, 4);
    }

    #[test]
    fn next_data_ready_minimum() {
        let mut q = DeferredQueue::new(8);
        let mut e1 = entry(1);
        e1.data_ready_at = Some(500);
        let mut e2 = entry(2);
        e2.data_ready_at = Some(300);
        q.push(e1);
        q.push(e2);
        q.push(entry(3)); // no data dependence
        assert_eq!(q.next_data_ready(), Some(300));
    }

    #[test]
    fn next_data_ready_survives_removal_and_update() {
        let mut q = DeferredQueue::new(8);
        let mut e1 = entry(1);
        e1.data_ready_at = Some(500);
        let mut e2 = entry(2);
        e2.data_ready_at = Some(300);
        q.push(e1);
        q.push(e2);
        // Removing the minimum exposes the next one (stale heap top is
        // discarded, not returned).
        q.remove_seq(2);
        assert_eq!(q.next_data_ready(), Some(500));
        // A re-deferral supersedes the old time.
        q.set_data_ready(1, 900);
        assert_eq!(q.next_data_ready(), Some(900));
        q.remove_seq(1);
        assert_eq!(q.next_data_ready(), None);
    }

    #[test]
    fn slab_reuses_slots() {
        let mut q = DeferredQueue::new(4);
        for s in 1..=4 {
            q.push(entry(s));
        }
        for s in 1..=4 {
            q.remove_seq(s);
        }
        for s in 10..=13 {
            q.push(entry(s));
        }
        assert_eq!(q.len(), 4);
        let seqs: Vec<Seq> = q.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![10, 11, 12, 13]);
        assert!(q.is_full());
    }

    #[test]
    fn position_and_get_walk_program_order() {
        let mut q = DeferredQueue::new(8);
        for s in [2, 4, 9] {
            q.push(entry(s));
        }
        assert_eq!(q.position(0), 0);
        assert_eq!(q.position(4), 1);
        assert_eq!(q.position(5), 2);
        assert_eq!(q.position(100), 3);
        assert_eq!(q.get(1).unwrap().seq, 4);
        assert!(q.get(3).is_none());
        assert_eq!(q.first_seq(), Some(2));
    }

    #[test]
    fn squash_bumps_generation_mid_pass() {
        // A replay pass holds `(cursor, generation)`; squashing during the
        // pass must invalidate the cursor even when the position numbers
        // still look plausible afterwards.
        let mut q = DeferredQueue::new(8);
        for s in 1..=6 {
            q.push(entry(s));
        }
        let gen = q.generation();
        let cursor = 4; // mid-pass: entries 1..=3 examined
        q.squash_from(3); // rollback while the pass is parked
        assert_ne!(q.generation(), gen, "squash must bump the generation");
        // Stale-cursor resume would skip the surviving entries entirely:
        assert_eq!(q.position(cursor), q.len());
        // a generation-checked resume restarts from 0 instead.
        q.push(entry(10));
        assert_ne!(q.generation(), gen);
        assert_eq!(q.position(0), 0);
    }

    #[test]
    fn blocked_marks_set_and_clear() {
        let mut q = DeferredQueue::new(8);
        for s in 1..=3 {
            q.push(entry(s));
        }
        q.mark_blocked(2);
        let flags: Vec<bool> = q.iter_blocked().map(|(_, b)| b).collect();
        assert_eq!(flags, vec![false, true, false]);
        q.clear_blocked();
        assert!(q.iter_blocked().all(|(_, b)| !b));
        // Slot reuse must not leak a stale blocked mark.
        q.mark_blocked(3);
        q.remove_seq(3);
        q.push(entry(9));
        assert!(
            q.iter_blocked().all(|(_, b)| !b),
            "fresh entry in a reused slot starts unblocked"
        );
    }

    /// Every path that drops entries must keep the blocked count exact —
    /// a leaked count wedges `any_blocked()` high, which permanently
    /// suspends an EA core's ahead strand.
    #[test]
    fn blocked_count_survives_every_removal_path() {
        let mut q = DeferredQueue::new(8);
        for s in 1..=4 {
            q.push(entry(s));
        }
        q.mark_blocked(2);
        q.mark_blocked(4);
        assert!(q.any_blocked());

        q.remove_seq(2);
        assert!(q.any_blocked(), "seq 4 still blocked");
        q.squash_from(4);
        assert!(!q.any_blocked(), "squash dropped the last blocked entry");

        q.push(entry(10));
        q.mark_blocked(10);
        q.retain_ordered(|e| e.seq == 10);
        assert!(!q.any_blocked(), "retain dropped the blocked entry");

        q.push(entry(11));
        q.mark_blocked(11);
        q.clear();
        assert!(!q.any_blocked(), "clear resets the count");
        q.push(entry(12));
        assert!(
            q.iter_blocked().all(|(_, b)| !b),
            "reused slot after clear starts unblocked"
        );
    }
}
