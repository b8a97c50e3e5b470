//! Miss-status holding registers.
//!
//! An [`MshrFile`] bounds how many distinct line misses a cache can have in
//! flight. In this hierarchy's resolve-at-issue timing model each entry
//! records the block address and the cycle its fill completes; an entry is
//! implicitly freed once simulation time passes that cycle.
//!
//! Two behaviours matter for the SST study:
//!
//! * **Merging** — a second miss to a block already in flight does not
//!   consume a new entry and completes when the first fill returns.
//! * **Capacity back-pressure** — when every register is busy, a new miss
//!   must wait until the earliest in-flight fill frees its register; the
//!   returned start time reflects that serialization. This is what caps a
//!   core's achievable memory-level parallelism.

use sst_isa::SnapError;

use crate::Cycle;

#[derive(Clone, Copy, Debug)]
struct Entry {
    block: u64,
    ready_at: Cycle,
    deep: bool,
}

sst_isa::snap_record!(Entry { block, ready_at, deep });

/// A fixed-capacity file of in-flight line misses.
#[derive(Clone, Debug)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    /// Earliest `ready_at` among live entries (`Cycle::MAX` when empty);
    /// lets the per-access reap degenerate to one compare until a fill
    /// actually completes.
    earliest_ready: Cycle,
    /// Total misses that found a matching in-flight entry.
    pub merged: u64,
    /// Total misses delayed because all registers were busy.
    pub full_stalls: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "an MSHR file needs at least one register");
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            earliest_ready: Cycle::MAX,
            merged: 0,
            full_stalls: 0,
        }
    }

    /// Number of registers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn reap(&mut self, now: Cycle) {
        if now < self.earliest_ready {
            return; // nothing has completed yet
        }
        self.entries.retain(|e| e.ready_at > now);
        self.earliest_ready = self
            .entries
            .iter()
            .map(|e| e.ready_at)
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// Number of registers in flight at `now`.
    pub fn in_flight(&mut self, now: Cycle) -> usize {
        self.reap(now);
        self.entries.len()
    }

    /// If `block` is already being fetched at `now`, returns the cycle that
    /// fill completes and whether the fill goes all the way to memory
    /// (`deep`, as recorded at [`MshrFile::insert`]).
    pub fn lookup(&mut self, now: Cycle, block: u64) -> Option<(Cycle, bool)> {
        if self.entries.is_empty() {
            return None; // common case on every demand access
        }
        self.reap(now);
        self.entries
            .iter()
            .find(|e| e.block == block)
            .map(|e| (e.ready_at, e.deep))
    }

    /// Earliest cycle at which a register will be free, given `now`.
    ///
    /// Returns `now` when a register is already free.
    pub fn earliest_slot(&mut self, now: Cycle) -> Cycle {
        self.reap(now);
        if self.entries.len() < self.capacity {
            now
        } else {
            self.full_stalls += 1;
            self.entries
                .iter()
                .map(|e| e.ready_at)
                .min()
                .expect("full file is non-empty")
        }
    }

    /// Records a new in-flight miss completing at `ready_at`. `deep` marks
    /// fills that go all the way to memory (vs. the next cache level) and is
    /// handed back to merged lookups.
    ///
    /// Callers must have consulted [`MshrFile::earliest_slot`] so that a
    /// register is free at the miss's start time; this is asserted.
    pub fn insert(&mut self, now: Cycle, block: u64, ready_at: Cycle, deep: bool) {
        self.reap(now);
        assert!(
            self.entries.len() < self.capacity,
            "MSHR overflow: caller must serialize on earliest_slot()"
        );
        self.entries.push(Entry {
            block,
            ready_at,
            deep,
        });
        self.earliest_ready = self.earliest_ready.min(ready_at);
    }

    /// Notes a merged (secondary) miss, for statistics.
    pub fn note_merge(&mut self) {
        self.merged += 1;
    }

    /// Non-mutating in-flight check: `true` when a fill of `block` is
    /// still outstanding at `now`. Unlike [`MshrFile::lookup`] this never
    /// reaps completed entries, so a probe leaves the file bit-identical —
    /// the speculation-taint sweep relies on that to stay invisible.
    pub fn probe(&self, now: Cycle, block: u64) -> bool {
        self.entries.iter().any(|e| e.block == block && e.ready_at > now)
    }

    /// Drops every in-flight entry, keeping the merge/stall counters. The
    /// sampled-simulation driver calls this between measurement intervals:
    /// misses issued during a discarded interval must not linger into the
    /// next measured one.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.earliest_ready = Cycle::MAX;
    }

    /// The snapshot's in-flight entries fit the file.
    fn restored(&mut self) -> Result<(), SnapError> {
        SnapError::check_bound("MSHR occupancy", self.entries.len(), self.capacity)
    }
}

sst_isa::snap_record!(state MshrFile "MSHR" {
    earliest_ready,
    merged,
    full_stalls,
    entries,
} then MshrFile::restored);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_merges_in_flight_blocks() {
        let mut m = MshrFile::new(4);
        m.insert(0, 0x100, 300, true);
        assert_eq!(m.lookup(10, 0x100), Some((300, true)));
        assert_eq!(m.lookup(10, 0x200), None);
        // After completion the entry is gone.
        assert_eq!(m.lookup(301, 0x100), None);
    }

    #[test]
    fn capacity_backpressure() {
        let mut m = MshrFile::new(2);
        m.insert(0, 0x100, 300, true);
        m.insert(0, 0x200, 500, true);
        // Full: next slot frees when the earliest fill (300) completes.
        assert_eq!(m.earliest_slot(10), 300);
        assert_eq!(m.full_stalls, 1);
        // At 301 one register is free again.
        assert_eq!(m.earliest_slot(301), 301);
    }

    #[test]
    fn in_flight_reaps_completed() {
        let mut m = MshrFile::new(8);
        m.insert(0, 0x100, 100, false);
        m.insert(0, 0x200, 200, false);
        assert_eq!(m.in_flight(50), 2);
        assert_eq!(m.in_flight(150), 1);
        assert_eq!(m.in_flight(250), 0);
    }

    #[test]
    #[should_panic]
    fn overflow_asserts() {
        let mut m = MshrFile::new(1);
        m.insert(0, 0x100, 300, true);
        m.insert(0, 0x200, 300, true);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}
