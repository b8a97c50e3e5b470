//! The deferred queue (DQ).
//!
//! When an SST core encounters an instruction whose source is "not there"
//! (NT), it parks the instruction here together with the source operands
//! that *were* available — eliminating WAR hazards without register
//! renaming, which is the paper's key structural saving. Replay is in
//! program order, possibly over several passes, and data-driven: an entry
//! is looked at again only once the values it waits for exist.
//!
//! # Storage
//!
//! Entries live in a slab (`slots` + free list) threaded into a doubly
//! linked list in program order, so the oldest entry, the removal of a
//! known slot and a suffix squash need no search. Three pieces of derived
//! state sit on top; none is serialized except the pass cursor, and
//! `restore_state` rebuilds them by pushing the saved entries again.
//!
//! * **Wake lists.** A source that belongs to a deferred instruction which
//!   has not replayed yet is registered with that producer at `push`: one
//!   bit per waiting slot in the producer's row of a `capacity × capacity`
//!   bit matrix (2 KiB at the default 128 entries, 32 KiB at E6's 512) —
//!   fixed storage, nothing allocated per defer. Nobody looks at the entry
//!   again until the producer replays and [`DeferredQueue::deliver`] writes
//!   the value into the waiting entry's `captured` operand and folds its
//!   ready cycle into the slot. Bits are never cleared one at a time: a
//!   squash or a removal leaves them behind, and delivery judges each bit by
//!   the entry that occupies the slot *now* (live, still waiting on a source
//!   that names this producer's sequence number). A stale bit therefore
//!   names nobody, and a refetched instruction that reuses slot and number
//!   only sets a bit that is already set.
//! * **Timed list.** The entries whose sources are all known, oldest first,
//!   each with `when`, the earliest cycle it can execute. `push` appends,
//!   `deliver` inserts, removal and squash delete. A replay pass walks this
//!   list and nothing else ([`DeferredQueue::when_at`]: one word per listed
//!   entry), and the wake after a pass
//!   ([`DeferredQueue::pass_end_wake`]) is read off it.
//! * **Pass cursor.** The position in the timed list at which a pass that
//!   ran out of issue slots resumes. A position stays valid because nothing
//!   is inserted before it during a pass — a woken entry is younger than its
//!   producer, a new entry is the youngest of all — and a squash ends the
//!   pass.
//!
//! # Held slots
//!
//! A deferral nobody will replay — scout keeps no results, its episodes all
//! end in a rollback — takes a slot without an entry
//! ([`DeferredQueue::hold`]): a count that capacity, high-water mark and
//! deferral total include as they would an entry, that no list shows, and
//! that the next squash zeroes. A full queue stalls as before; the record
//! nobody reads is not built.

use sst_isa::{Inst, Snap, SnapError, SnapReader, SnapState, SnapWriter};
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
    /// Operand values: captured at defer time, or delivered since by the
    /// replay of the producer; `None` for a source whose producer has not
    /// replayed yet.
    pub captured: [Option<u64>; 2],
    /// For each source that was NT at defer time: the sequence number of
    /// the deferred instruction that produces it.
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

sst_isa::snap_record!(DqEntry {
    seq,
    pc,
    inst,
    captured,
    producers,
    predicted_taken as Direction,
    pred_next_pc,
    data_ready_at,
});

/// A speculated branch direction as a snapshot holds it: one byte, 0 for
/// none, 1 for not taken, 2 for taken.
struct Direction(Option<bool>);

impl From<Option<bool>> for Direction {
    fn from(d: Option<bool>) -> Direction {
        Direction(d)
    }
}

impl From<Direction> for Option<bool> {
    fn from(d: Direction) -> Option<bool> {
        d.0
    }
}

impl Snap for Direction {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u8(self.0.map_or(0, |taken| 1 + taken as u8));
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Direction, SnapError> {
        match r.take_u8()? {
            0 => Ok(Direction(None)),
            b @ (1 | 2) => Ok(Direction(Some(b == 2))),
            b => Err(SnapError::Corrupt(format!("bad predicted-taken byte {b}"))),
        }
    }
}

impl DqEntry {
    /// `true` while source `i` (0 or 1) waits for its producer to replay.
    #[inline]
    pub fn waits_on(&self, i: usize) -> bool {
        self.captured[i].is_none() && self.producers[i].is_some()
    }
}

/// "No slot": list ends, and the neighbours of a free slot.
const NIL: u32 = u32::MAX;

/// One slab slot: the entry plus replay-side bookkeeping that is not part
/// of the architectural defer record.
#[derive(Clone, Debug)]
struct Slot {
    entry: DqEntry,
    /// Program-order neighbours (`NIL` at the ends).
    prev: u32,
    next: u32,
    /// `false` once the entry has left the queue (wake-list bits may still
    /// name the slot).
    live: bool,
    /// Sources still waiting for their producer; 0 = on the timed list.
    pending: u8,
    /// Latest ready cycle among the operands delivered so far.
    src_ready: Cycle,
}

/// One timed-list element: an entry whose sources are all known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Timed {
    seq: Seq,
    /// Earliest cycle the entry can execute: its fill's arrival or its
    /// last operand's ready cycle, whichever is later.
    when: Cycle,
    /// The entry's `data_ready_at` (`Cycle::MAX` without a fill in flight).
    data: Cycle,
    slot: u32,
    /// Executed but stuck behind an older unresolved store
    /// (`read_overlay` said wait). Only a store resolution can unstick it,
    /// so it has no wake time of its own ([`DeferredQueue::pass_end_wake`]
    /// leaves it out). Cleared whenever a store resolves
    /// ([`DeferredQueue::clear_blocked`]).
    blocked: bool,
}

/// A bounded, program-ordered queue of deferred instructions.
#[derive(Clone, Debug)]
pub struct DeferredQueue {
    slots: Vec<Slot>,
    /// Free slot indices.
    free: Vec<u32>,
    /// Oldest and youngest live slot.
    head: u32,
    tail: u32,
    /// Listed entries (the held slots are not among them).
    len: usize,
    /// Slots taken by [`DeferredQueue::hold`] since the last squash.
    held: usize,
    /// Wake lists: row `p` (`words` words) has bit `w` set when slot `w`
    /// registered a source with the entry in slot `p`.
    waiters: Vec<u64>,
    words: usize,
    /// The timed list, ascending `seq`.
    timed: Vec<Timed>,
    /// Timed-list position an unfinished replay pass resumes at.
    cursor: Option<usize>,
    /// Timed entries currently marked blocked (kept exact so
    /// [`DeferredQueue::any_blocked`] is O(1)).
    blocked_count: usize,
    capacity: usize,
    /// Maximum occupancy ever observed (reports).
    pub high_water: usize,
    /// Total entries ever enqueued.
    pub total_deferred: u64,
}

impl DeferredQueue {
    /// Creates an empty queue holding at most `capacity` entries. A
    /// zero-entry queue is always full (a core without checkpoints never
    /// defers).
    pub fn new(capacity: usize) -> DeferredQueue {
        let words = capacity.div_ceil(64);
        DeferredQueue {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            held: 0,
            waiters: vec![0; capacity * words],
            words,
            timed: Vec::with_capacity(capacity),
            cursor: None,
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

    /// Current occupancy: entries plus held slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len + self.held
    }

    /// `true` when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when no more instructions can be deferred.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Takes a slot for a deferral that will never replay (module docs):
    /// counted like a [`DeferredQueue::push`], given back by the next
    /// [`DeferredQueue::squash_from`].
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    #[inline]
    pub fn hold(&mut self) {
        assert!(!self.is_full(), "DQ overflow: caller must stall when full");
        self.held += 1;
        self.total_deferred += 1;
        self.high_water = self.high_water.max(self.len());
    }

    /// Appends an entry in program order. A source without a value whose
    /// producer is queued goes on that producer's wake list; an entry with
    /// no such source joins the timed list. (A producer that is not queued
    /// will never deliver: the core never names one, `restore_state`
    /// refuses one.)
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers stall the ahead thread instead
    /// of overflowing) or if `entry.seq` breaks program order.
    #[inline]
    pub fn push(&mut self, entry: DqEntry) {
        assert!(!self.is_full(), "DQ overflow: caller must stall when full");
        assert!(
            self.seq_of(self.tail) < Some(entry.seq),
            "DQ entries must be program-ordered"
        );
        let waits = [0, 1].map(|i| entry.waits_on(i));
        let producers = [0, 1].map(|i| match entry.producers[i] {
            Some(p) if waits[i] => self.find_young(p),
            _ => NIL,
        });
        let pending = waits.iter().filter(|&&w| w).count() as u8;
        let slot = Slot {
            entry,
            prev: self.tail,
            next: NIL,
            live: true,
            pending,
            src_ready: 0,
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
        match self.slots.get_mut(self.tail as usize) {
            Some(last) => last.next = idx,
            None => self.head = idx,
        }
        self.tail = idx;
        self.len += 1;
        let row = idx as usize * self.words;
        self.waiters[row..row + self.words].fill(0);
        for p in producers {
            if p != NIL {
                self.waiters[p as usize * self.words + idx as usize / 64] |= 1 << (idx % 64);
            }
        }
        if pending == 0 {
            self.timed.push(Timed::of(&self.slots[idx as usize], idx));
        }
        self.total_deferred += 1;
        self.high_water = self.high_water.max(self.len());
    }

    /// The slot holding sequence number `seq`, searched from the youngest
    /// entry: a consumer's producer is a recent deferral.
    fn find_young(&self, seq: Seq) -> u32 {
        let mut at = self.tail;
        while let Some(s) = self.slots.get(at as usize) {
            if s.entry.seq <= seq {
                return if s.entry.seq == seq { at } else { NIL };
            }
            at = s.prev;
        }
        NIL
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &DqEntry> {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let s = self.slots.get(at as usize)?;
            at = s.next;
            Some(&s.entry)
        })
    }

    /// Sequence number of the oldest entry.
    #[inline]
    pub fn first_seq(&self) -> Option<Seq> {
        self.seq_of(self.head)
    }

    /// Sequence number of the entry in slot `idx`; `None` for `NIL`.
    #[inline]
    fn seq_of(&self, idx: u32) -> Option<Seq> {
        self.slots.get(idx as usize).map(|s| s.entry.seq)
    }

    /// Unlinks slot `idx` from program order and frees it.
    fn release(&mut self, idx: u32) {
        let Slot { prev, next, .. } = self.slots[idx as usize];
        match self.slots.get_mut(prev as usize) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.slots.get_mut(next as usize) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
        self.slots[idx as usize].live = false;
        self.free.push(idx);
        self.len -= 1;
    }

    /// Takes element `at` off the timed list, keeping the blocked count
    /// exact.
    fn untime(&mut self, at: usize) -> Timed {
        let t = self.timed.remove(at);
        self.blocked_count -= t.blocked as usize;
        t
    }

    /// Removes the entry with sequence `seq`, searched from the oldest
    /// entry (entries complete roughly in program order). Nothing is
    /// delivered: entries waiting on it keep waiting.
    ///
    /// # Panics
    ///
    /// Panics if no such entry exists.
    #[inline]
    pub fn remove_seq(&mut self, seq: Seq) -> DqEntry {
        let mut idx = self.head;
        while self.seq_of(idx).is_some_and(|s| s < seq) {
            idx = self.slots[idx as usize].next;
        }
        assert_eq!(
            self.seq_of(idx),
            Some(seq),
            "removing a DQ entry that is not present"
        );
        if let Some(at) = self.timed.iter().position(|t| t.slot == idx) {
            self.untime(at);
        }
        self.release(idx);
        self.slots[idx as usize].entry
    }

    /// Drops every entry with `seq >= from` (epoch squash) and every held
    /// slot, and ends the replay pass.
    pub fn squash_from(&mut self, from: Seq) {
        self.held = 0;
        while self.seq_of(self.tail).is_some_and(|s| s >= from) {
            self.release(self.tail);
        }
        while self.timed.last().is_some_and(|t| t.seq >= from) {
            self.untime(self.timed.len() - 1);
        }
        self.cursor = None;
    }

    /// Clears the queue.
    pub fn clear(&mut self) {
        self.squash_from(0);
    }

    // ------------------------------------------------------- the replay pass

    /// Timed-list position an unfinished replay pass resumes at; `None`
    /// when no pass is in progress.
    #[inline]
    pub fn cursor(&self) -> Option<usize> {
        self.cursor
    }

    /// Parks (`Some`) or ends (`None`) the replay pass.
    #[inline]
    pub fn set_cursor(&mut self, at: Option<usize>) {
        self.cursor = at;
    }

    /// Earliest cycle the entry at timed-list position `at` can execute;
    /// `None` past the end of the list (the pass is complete).
    #[inline]
    pub fn when_at(&self, at: usize) -> Option<Cycle> {
        self.timed.get(at).map(|t| t.when)
    }

    /// The entry at timed-list position `at`.
    #[inline]
    pub fn entry_at(&self, at: usize) -> &DqEntry {
        &self.slots[self.timed[at].slot as usize].entry
    }

    /// The entry at timed-list position `at` has replayed and produced
    /// `value`, readable at cycle `ready`: hands both to every entry on its
    /// wake list. One whose last source this was joins the timed list — at
    /// its program-order place, found from the young end, which is behind
    /// `at` because a consumer is younger than its producer.
    pub fn deliver(&mut self, at: usize, value: u64, ready: Cycle) {
        let producer = self.timed[at];
        let row = producer.slot as usize * self.words;
        for k in 0..self.words {
            for b in set_bits(std::mem::take(&mut self.waiters[row + k])) {
                let idx = (k * 64) as u32 + b;
                let s = &mut self.slots[idx as usize];
                let before = s.pending;
                for i in 0..2 {
                    if s.live && s.entry.waits_on(i) && s.entry.producers[i] == Some(producer.seq) {
                        s.entry.captured[i] = Some(value);
                        s.src_ready = s.src_ready.max(ready);
                        s.pending -= 1;
                    }
                }
                if s.pending == 0 && before > 0 {
                    let t = Timed::of(s, idx);
                    let mut place = self.timed.len();
                    while place > 0 && self.timed[place - 1].seq > t.seq {
                        place -= 1;
                    }
                    self.timed.insert(place, t);
                }
            }
        }
    }

    /// Removes the entry at timed-list position `at` (after successful
    /// replay); the position then names the next listed entry.
    #[inline]
    pub fn remove_at(&mut self, at: usize) {
        let t = self.untime(at);
        self.release(t.slot);
    }

    /// Records the fill cycle of the load at timed-list position `at`
    /// (a replayed load that missed again stays deferred until then).
    #[inline]
    pub fn set_data_ready(&mut self, at: usize, ready: Cycle) {
        let t = &mut self.timed[at];
        let slot = &mut self.slots[t.slot as usize];
        slot.entry.data_ready_at = Some(ready);
        t.data = ready;
        t.when = ready.max(slot.src_ready);
    }

    /// Marks the entry at timed-list position `at` blocked behind an older
    /// unresolved store.
    #[inline]
    pub fn mark_blocked(&mut self, at: usize) {
        self.blocked_count += !self.timed[at].blocked as usize;
        self.timed[at].blocked = true;
    }

    /// Clears every blocked mark (a store resolved; any blocked entry may
    /// now be able to proceed).
    pub fn clear_blocked(&mut self) {
        if self.blocked_count > 0 {
            self.timed.iter_mut().for_each(|t| t.blocked = false);
            self.blocked_count = 0;
        }
    }

    /// `true` while any entry is marked blocked (input-ready but stuck
    /// behind an unresolved store). O(1).
    #[inline]
    pub fn any_blocked(&self) -> bool {
        self.blocked_count > 0
    }

    /// The cycle a finished pass sleeps until: the earliest knowable
    /// enabling event of any remaining entry, read off the timed list (an
    /// entry still waiting for a producer has none of its own — its
    /// producer's is on the list). A fill in flight counts with its arrival
    /// cycle as is; any other listed entry with `max(when, now + 1)`, since
    /// one passed over early in a long pass may have become executable
    /// meanwhile. Blocked entries are left out: they are input-ready with
    /// no wake time of their own, and the only event that can unstick
    /// them — the store resolving — happens inside a pass this wake already
    /// schedules. Counting them would pin the wake to `now + 1` and force
    /// an empty pass every cycle for the whole miss latency.
    pub fn pass_end_wake(&self, now: Cycle) -> Cycle {
        let fills = self.timed.iter().map(|t| t.data);
        let unblocked = self.timed.iter().filter(|t| !t.blocked);
        let wake = fills.chain(unblocked.map(|t| t.when.max(now + 1))).min();
        wake.unwrap_or(Cycle::MAX)
    }

    /// The derived state against the entries it is derived from: program
    /// order is strictly ascending; every source still waiting names an
    /// older, queued producer and sits on its wake list; the timed list is
    /// exactly the entries with no such source, in program order, each
    /// `when` the later of its fill and its delivered operands' ready
    /// cycles; an entry waiting for a producer has no fill in flight (so
    /// [`DeferredQueue::pass_end_wake`] misses no arrival); the cursor is on
    /// the list; entries and held slots together fit the capacity. The core
    /// asserts this every tick in debug builds, and
    /// `restore_state` refuses a snapshot that fails it.
    pub fn consistent(&self) -> bool {
        let waits_for = |s: &Slot, p: Option<Seq>| {
            (0..2)
                .filter(|&i| s.entry.waits_on(i) && (p.is_none() || s.entry.producers[i] == p))
                .count()
        };
        let mut listed = self.timed.iter();
        let (mut n, mut waiting, mut registered, mut last) = (0, 0, 0, None);
        let mut at = self.head;
        while let Some(s) = self.slots.get(at as usize) {
            let seq = s.entry.seq;
            let mine = waits_for(s, None);
            let placed = if mine > 0 {
                s.entry.data_ready_at.is_none()
            } else {
                listed.next().is_some_and(|t| {
                    Timed {
                        blocked: false,
                        ..*t
                    } == Timed::of(s, at)
                })
            };
            if !(s.live && last < Some(seq) && s.pending as usize == mine && placed) {
                return false;
            }
            // Sources found from this entry's row; each waiting source is
            // found from exactly one row, its producer's.
            let row = &self.waiters[at as usize * self.words..][..self.words];
            for (k, &word) in row.iter().enumerate() {
                for b in set_bits(word) {
                    let w = &self.slots[k * 64 + b as usize];
                    if w.live && w.entry.seq > seq {
                        registered += waits_for(w, Some(seq));
                    }
                }
            }
            (n, waiting, last, at) = (n + 1, waiting + mine, Some(seq), s.next);
        }
        n == self.len
            && self.len() <= self.capacity
            && registered == waiting
            && listed.next().is_none()
            && self.blocked_count == self.timed.iter().filter(|t| t.blocked).count()
            && self.cursor.map_or(true, |at| at <= self.timed.len())
    }

    /// Serializes the deferral total, the high-water mark, the held-slot
    /// count, the pass cursor, and the live entries in program order, each
    /// with its delivered operands' ready cycle and blocked mark.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.tag("DQUE");
        let mut listed = self.timed.iter().peekable();
        let mut entries = Vec::with_capacity(self.len);
        let mut at = self.head;
        while let Some(s) = self.slots.get(at as usize) {
            let blocked = listed
                .next_if(|t| t.seq == s.entry.seq)
                .is_some_and(|t| t.blocked);
            entries.push((s.entry, s.src_ready, blocked));
            at = s.next;
        }
        (
            self.total_deferred,
            self.high_water,
            self.held,
            self.cursor,
            entries,
        )
            .put(w);
    }

    /// Restores state written by [`DeferredQueue::save_state`] on a queue
    /// of the same capacity. The slab is repacked canonically (slot ids
    /// 0..n in program order), which is invisible to every caller: slot
    /// ids never escape this module.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated, corrupt, or capacity-mismatched input,
    /// and on entries the derived state cannot be rebuilt from (see
    /// [`DeferredQueue::consistent`]).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag("DQUE")?;
        let (total_deferred, high_water, held, cursor, entries): Saved = Snap::take(r)?;
        let n = entries.len();
        if n.saturating_add(held) > self.capacity || high_water > self.capacity {
            return Err(SnapError::Corrupt(format!(
                "DQ occupancy {n} + {held} held / high-water {high_water} exceeds capacity {}",
                self.capacity
            )));
        }
        self.clear();
        self.slots.clear();
        self.free.clear();
        for (entry, src_ready, blocked) in entries {
            let seq = entry.seq;
            if self.seq_of(self.tail) >= Some(seq) {
                return Err(SnapError::Corrupt(format!(
                    "DQ entries out of program order at seq {seq}"
                )));
            }
            self.push(entry);
            let slot = &mut self.slots[self.tail as usize];
            slot.src_ready = src_ready;
            match self.timed.last_mut().filter(|t| t.seq == seq) {
                Some(t) => {
                    *t = Timed {
                        blocked,
                        ..Timed::of(slot, t.slot)
                    };
                    self.blocked_count += blocked as usize;
                }
                None if blocked => {
                    return Err(SnapError::Corrupt(format!(
                        "DQ entry {seq} is blocked but still waits for a producer"
                    )))
                }
                None => {}
            }
        }
        self.cursor = cursor;
        self.held = held;
        self.total_deferred = total_deferred;
        self.high_water = high_water;
        if !self.consistent() {
            return Err(SnapError::Corrupt(
                "DQ wake lists and timed list cannot be rebuilt from the entries".into(),
            ));
        }
        Ok(())
    }
}

/// The queue as a snapshot holds it: deferral total, high-water mark,
/// held slots, pass cursor, and each live entry with its delivered
/// operands' ready cycle and blocked mark.
type Saved = (
    u64,
    usize,
    usize,
    Option<usize>,
    Vec<(DqEntry, Cycle, bool)>,
);

impl SnapState for DeferredQueue {
    fn put_state(&self, w: &mut SnapWriter) {
        self.save_state(w);
    }

    fn take_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.restore_state(r)
    }
}

impl Timed {
    /// The timed-list element of `s`, an unblocked entry in slot `slot`.
    #[inline]
    fn of(s: &Slot, slot: u32) -> Timed {
        let data = s.entry.data_ready_at;
        Timed {
            seq: s.entry.seq,
            when: data.unwrap_or(0).max(s.src_ready),
            data: data.unwrap_or(Cycle::MAX),
            slot,
            blocked: false,
        }
    }
}

/// The positions of the set bits of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros();
            word &= word - 1;
            b
        })
    })
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

    /// An entry whose first source is produced by `producer`.
    fn consumer(seq: Seq, producer: Seq) -> DqEntry {
        DqEntry {
            captured: [None, Some(0)],
            producers: [Some(producer), None],
            ..entry(seq)
        }
    }

    fn loading(seq: Seq, ready: Cycle) -> DqEntry {
        DqEntry {
            data_ready_at: Some(ready),
            ..entry(seq)
        }
    }

    fn seqs(q: &DeferredQueue) -> Vec<Seq> {
        q.iter().map(|e| e.seq).collect()
    }

    /// `(seq, when)` down the timed list.
    fn timed(q: &DeferredQueue) -> Vec<(Seq, Cycle)> {
        (0..)
            .map_while(|at| q.when_at(at).map(|when| (q.entry_at(at).seq, when)))
            .collect()
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = DeferredQueue::new(8);
        q.push(entry(1));
        q.push(entry(2));
        q.push(entry(5));
        assert_eq!(seqs(&q), vec![1, 2, 5]);
        assert_eq!(q.first_seq(), Some(1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.total_deferred, 3);
        assert!(q.consistent());
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
    fn squash_from_drops_young_suffix() {
        let mut q = DeferredQueue::new(8);
        for s in 1..=5 {
            q.push(entry(s));
        }
        q.squash_from(3);
        assert_eq!(seqs(&q), vec![1, 2]);
        assert_eq!(timed(&q), vec![(1, 0), (2, 0)]);
        assert!(q.consistent());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut q = DeferredQueue::new(8);
        for s in 1..=4 {
            q.push(entry(s));
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.high_water, 4);
    }

    #[test]
    fn next_data_ready_minimum() {
        let mut q = DeferredQueue::new(8);
        q.push(loading(1, 500));
        q.push(loading(2, 300));
        q.push(consumer(3, 2)); // no wake time of its own
        assert_eq!(q.pass_end_wake(10), 300);
        // An arrival in the past counts as is; an entry without a fill
        // counts from the next cycle.
        assert_eq!(q.pass_end_wake(400), 300);
        q.push(entry(4));
        assert_eq!(q.pass_end_wake(10), 11);
    }

    #[test]
    fn next_data_ready_survives_removal_and_update() {
        let mut q = DeferredQueue::new(8);
        q.push(loading(1, 500));
        q.push(loading(2, 300));
        q.remove_at(1);
        assert_eq!(q.pass_end_wake(0), 500);
        // A re-deferral supersedes the old time.
        q.set_data_ready(0, 900);
        assert_eq!(timed(&q), vec![(1, 900)]);
        assert_eq!(q.pass_end_wake(0), 900);
        q.remove_seq(1);
        assert_eq!(q.pass_end_wake(0), Cycle::MAX);
    }

    #[test]
    fn slab_reuses_slots() {
        let mut q = DeferredQueue::new(4);
        for s in 1..=4 {
            q.push(entry(s));
        }
        for s in [2, 1, 4, 3] {
            assert_eq!(q.remove_seq(s).seq, s);
            assert!(q.consistent());
        }
        for s in 10..=13 {
            q.push(entry(s));
        }
        assert_eq!(q.len(), 4);
        assert_eq!(seqs(&q), vec![10, 11, 12, 13]);
        assert!(q.is_full());
    }

    #[test]
    fn a_waiting_entry_joins_the_timed_list_when_its_last_operand_is_delivered() {
        let mut q = DeferredQueue::new(8);
        q.push(loading(1, 40));
        q.push(loading(2, 60));
        q.push(DqEntry {
            captured: [None, None],
            producers: [Some(1), Some(2)],
            ..entry(3)
        });
        q.push(consumer(4, 1));
        q.push(entry(5));
        assert_eq!(timed(&q), vec![(1, 40), (2, 60), (5, 0)]);

        q.deliver(0, 7, 42);
        assert_eq!(
            q.entry_at(2).captured,
            [Some(7), Some(0)],
            "seq 4, between 2 and 5"
        );
        assert_eq!(timed(&q), vec![(1, 40), (2, 60), (4, 42), (5, 0)]);
        q.remove_at(0);
        assert!(q.consistent());

        q.deliver(0, 9, 61);
        assert_eq!(timed(&q), vec![(2, 60), (3, 61), (4, 42), (5, 0)]);
        assert_eq!(q.entry_at(1).captured, [Some(7), Some(9)]);
        q.remove_at(0);
        assert!(q.consistent());
    }

    /// The bits a squash leaves on a surviving producer's wake list name
    /// slots, and the refetched instructions get the same slots and the
    /// same numbers back — or other ones.
    #[test]
    fn stale_wake_bits_are_judged_by_the_slot_s_occupant() {
        let mut q = DeferredQueue::new(4);
        q.push(loading(1, 40));
        q.push(consumer(2, 1));
        q.push(consumer(3, 1));
        q.squash_from(2);
        assert!(q.consistent());
        // Slot of old 3 now holds 2 (free list is a stack), which waits on
        // nothing; slot of old 2 holds a 3 that waits again.
        q.push(entry(2));
        q.push(consumer(3, 1));
        q.push(consumer(4, 3));
        assert!(q.consistent());
        q.deliver(0, 5, 41);
        assert_eq!(timed(&q), vec![(1, 40), (2, 0), (3, 41)]);
        assert_eq!(
            q.entry_at(1).captured,
            [None, None],
            "not a consumer any more"
        );
        assert_eq!(q.entry_at(2).captured, [Some(5), Some(0)]);
        assert!(q.consistent());
    }

    /// What the benchmark rung does: producers that were never queued, and
    /// producers removed before their consumers without delivering.
    #[test]
    fn unknown_and_departed_producers_do_not_panic() {
        let mut q = DeferredQueue::new(4);
        q.push(consumer(1, 0));
        q.push(consumer(2, 1));
        q.push(consumer(3, 2));
        assert_eq!(timed(&q), vec![]);
        q.remove_seq(1);
        q.remove_seq(2);
        q.push(consumer(4, 3));
        q.squash_from(4);
        q.squash_from(0);
        assert!(q.is_empty());
    }

    /// Held slots are occupancy and nothing else: they fill the queue and
    /// move the high-water mark and the total together with real entries,
    /// are on no list, outlive everything that happens to real entries, and
    /// every one of them goes at the next squash — wherever it cuts.
    #[test]
    fn held_slots_count_with_entries_and_go_at_the_next_squash() {
        let mut q = DeferredQueue::new(4);
        q.push(loading(1, 40));
        q.hold();
        q.push(consumer(3, 1));
        q.hold();
        assert_eq!((q.len(), q.high_water, q.total_deferred), (4, 4, 4));
        assert!(q.is_full() && !q.is_empty());
        assert_eq!(seqs(&q), vec![1, 3], "a held slot is never listed");
        assert_eq!(timed(&q), vec![(1, 40)]);
        assert!(q.consistent());

        q.deliver(0, 7, 42);
        assert_eq!(timed(&q), vec![(1, 40), (3, 42)]);
        q.remove_at(0);
        assert_eq!(q.remove_seq(3).captured, [Some(7), Some(0)]);
        assert_eq!((q.len(), q.iter().count()), (2, 0));
        assert!(!q.is_empty() && q.consistent());

        q.push(entry(5));
        q.squash_from(6); // younger than every entry: only the held slots go
        assert_eq!((q.len(), seqs(&q)), (1, vec![5]));
        q.hold();
        q.clear();
        assert!(q.is_empty() && q.consistent());
        assert_eq!((q.high_water, q.total_deferred), (4, 6));
    }

    #[test]
    #[should_panic(expected = "DQ overflow")]
    fn holding_a_slot_of_a_full_queue_asserts() {
        let mut q = DeferredQueue::new(2);
        q.push(entry(1));
        q.hold();
        q.hold();
    }

    #[test]
    fn held_slots_round_trip_and_a_count_past_the_capacity_is_refused() {
        let mut q = DeferredQueue::new(8);
        q.push(entry(1));
        for _ in 0..5 {
            q.hold();
        }
        let mut w = SnapWriter::new();
        q.save_state(&mut w);
        let mut back = DeferredQueue::new(8);
        back.restore_state(&mut SnapReader::new(w.as_bytes()))
            .unwrap();
        assert_eq!((back.len(), back.high_water, seqs(&back)), (6, 6, vec![1]));
        let mut again = SnapWriter::new();
        back.save_state(&mut again);
        assert_eq!(w.as_bytes(), again.as_bytes());
        // One entry and five held slots do not fit a queue of five.
        let r = DeferredQueue::new(5).restore_state(&mut SnapReader::new(w.as_bytes()));
        assert!(matches!(r, Err(SnapError::Corrupt(_))), "{r:?}");
    }

    #[test]
    fn a_squash_ends_the_pass() {
        let mut q = DeferredQueue::new(8);
        for s in 1..=6 {
            q.push(entry(s));
        }
        q.set_cursor(Some(4)); // mid-pass: entries 1..=4 examined
        q.squash_from(3); // rollback while the pass is parked
        assert_eq!(q.cursor(), None, "position 4 is past the end now");
        assert!(q.consistent());
        q.set_cursor(Some(1));
        q.clear();
        assert_eq!(q.cursor(), None);
    }

    #[test]
    fn blocked_marks_set_and_clear() {
        let mut q = DeferredQueue::new(8);
        for s in 1..=3 {
            q.push(entry(s));
        }
        q.mark_blocked(1);
        q.mark_blocked(1);
        assert!(q.any_blocked());
        assert_eq!(q.pass_end_wake(7), 8, "the others still count");
        q.clear_blocked();
        assert!(!q.any_blocked());
        // Slot reuse must not leak a stale blocked mark.
        q.mark_blocked(2);
        q.remove_seq(3);
        q.push(entry(9));
        assert!(
            !q.any_blocked(),
            "fresh entry in a reused slot starts unblocked"
        );
        assert!(q.consistent());
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
        q.mark_blocked(1);
        q.mark_blocked(3);
        assert!(q.any_blocked());
        assert_eq!(q.pass_end_wake(0), 1);

        q.remove_seq(2);
        assert!(q.any_blocked(), "seq 4 still blocked");
        q.squash_from(4);
        assert!(!q.any_blocked(), "squash dropped the last blocked entry");

        q.push(entry(10));
        q.mark_blocked(2);
        q.remove_at(2);
        assert!(!q.any_blocked(), "replay dropped the blocked entry");

        q.push(entry(11));
        q.mark_blocked(2);
        assert_eq!(q.pass_end_wake(0), 1, "1 and 3 are not blocked");
        q.clear();
        assert!(!q.any_blocked(), "clear resets the count");
        q.push(entry(12));
        q.mark_blocked(0);
        assert_eq!(
            q.pass_end_wake(0),
            Cycle::MAX,
            "a blocked entry has no wake of its own"
        );
        assert!(q.consistent());
    }

    #[test]
    fn snapshot_round_trips_delivered_operands_blocked_marks_and_the_cursor() {
        let mut q = DeferredQueue::new(8);
        q.push(loading(1, 40));
        q.push(loading(2, 60));
        q.push(DqEntry {
            captured: [None, None],
            producers: [Some(1), Some(2)],
            ..entry(3)
        });
        q.push(consumer(4, 1));
        q.deliver(0, 7, 42);
        q.remove_at(0);
        q.mark_blocked(1);
        q.set_cursor(Some(1));
        let mut w = SnapWriter::new();
        q.save_state(&mut w);

        let mut back = DeferredQueue::new(8);
        back.restore_state(&mut SnapReader::new(w.as_bytes()))
            .unwrap();
        assert_eq!(timed(&back), vec![(2, 60), (4, 42)]);
        assert!(back.any_blocked());
        assert_eq!(back.cursor(), Some(1));
        let mut again = SnapWriter::new();
        back.save_state(&mut again);
        assert_eq!(w.as_bytes(), again.as_bytes());
        // The rebuilt wake list still delivers.
        back.deliver(0, 9, 61);
        assert_eq!(timed(&back), vec![(2, 60), (3, 61), (4, 42)]);
    }

    #[test]
    fn a_snapshot_whose_derived_state_cannot_be_rebuilt_is_refused() {
        let refused = |q: &DeferredQueue| {
            let mut w = SnapWriter::new();
            q.save_state(&mut w);
            let r = DeferredQueue::new(8).restore_state(&mut SnapReader::new(w.as_bytes()));
            matches!(r, Err(SnapError::Corrupt(_)))
        };
        let mut q = DeferredQueue::new(8);
        q.push(entry(1));
        assert!(!refused(&q));
        q.set_cursor(Some(2));
        assert!(refused(&q), "cursor past the timed list");
        q.set_cursor(None);
        q.push(consumer(3, 2));
        assert!(refused(&q), "nothing will ever wake seq 3");
    }
}
