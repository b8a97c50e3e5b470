//! Register images with NT bits — the SST checkpoint substrate.

use sst_isa::{Reg, NUM_REGS};
use sst_mem::Cycle;

use crate::Seq;

/// One architectural register as the SST hardware sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[derive(Default)]
pub struct RegSlot {
    /// Current (possibly speculative) value. Meaningless while `nt` is set.
    pub value: u64,
    /// "Not there": the value belongs to a deferred instruction that has
    /// not produced it yet.
    pub nt: bool,
    /// Sequence number of the last instruction that wrote (or deferred a
    /// write to) this register. Implements ROCK's merge rule: a replayed
    /// write lands only if its sequence still matches.
    pub writer: Seq,
    /// Cycle at which the value becomes readable (execution latency).
    pub ready_at: Cycle,
}

sst_isa::snap_record!(RegSlot { value, nt, writer, ready_at });


/// A full 64-register image with NT bits.
///
/// This is both the live speculative register file of a core and the
/// payload of a [`Checkpoint`]. `x0` reads as zero and ignores writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegImage {
    slots: [RegSlot; NUM_REGS],
}

impl RegImage {
    /// A zeroed image (all values 0, nothing NT, everything ready).
    pub fn new() -> RegImage {
        RegImage {
            slots: [RegSlot::default(); NUM_REGS],
        }
    }

    /// Reads the slot for `r`.
    #[inline]
    pub fn slot(&self, r: Reg) -> &RegSlot {
        &self.slots[r.index()]
    }

    /// Reads `r`'s value (only meaningful when not NT).
    #[inline]
    pub fn value(&self, r: Reg) -> u64 {
        self.slots[r.index()].value
    }

    /// `true` if `r` is marked not-there.
    #[inline]
    pub fn is_nt(&self, r: Reg) -> bool {
        self.slots[r.index()].nt
    }

    /// Cycle at which `r` becomes readable.
    #[inline]
    pub fn ready_at(&self, r: Reg) -> Cycle {
        self.slots[r.index()].ready_at
    }

    /// Writes a produced value: clears NT, tags the writer, sets readiness.
    #[inline]
    pub fn write(&mut self, r: Reg, value: u64, writer: Seq, ready_at: Cycle) {
        if r.is_zero() {
            return;
        }
        self.slots[r.index()] = RegSlot {
            value,
            nt: false,
            writer,
            ready_at,
        };
    }

    /// Marks `r` not-there, owned by deferred instruction `writer`.
    #[inline]
    pub fn mark_nt(&mut self, r: Reg, writer: Seq) {
        if r.is_zero() {
            return;
        }
        let s = &mut self.slots[r.index()];
        s.nt = true;
        s.writer = writer;
    }

    /// ROCK's merge rule: deliver a deferred result produced by `writer`.
    /// The value lands only if the register is still NT **and** still owned
    /// by that writer (no younger instruction overwrote it). Returns whether
    /// the merge landed.
    #[inline]
    pub fn merge(&mut self, r: Reg, value: u64, writer: Seq, ready_at: Cycle) -> bool {
        if r.is_zero() {
            return false;
        }
        let s = &mut self.slots[r.index()];
        if s.nt && s.writer == writer {
            *s = RegSlot {
                value,
                nt: false,
                writer,
                ready_at,
            };
            true
        } else {
            false
        }
    }

    /// Number of registers currently marked NT.
    pub fn nt_count(&self) -> usize {
        self.slots.iter().filter(|s| s.nt).count()
    }

    /// Number of NT registers owned by producers at or past `from` — the
    /// slots a rollback restoring to `from` is about to discard (the
    /// taint sweep counts them before the image is replaced).
    pub fn nt_owned_since(&self, from: Seq) -> usize {
        self.slots.iter().filter(|s| s.nt && s.writer >= from).count()
    }

    /// Latest `ready_at` among the given source registers (`x0` is always
    /// ready).
    #[inline]
    pub fn ready_after(&self, sources: [Option<Reg>; 2]) -> Cycle {
        sources
            .iter()
            .flatten()
            .map(|r| self.ready_at(*r))
            .max()
            .unwrap_or(0)
    }

    /// `true` if any of the given sources is NT.
    #[inline]
    pub fn any_nt(&self, sources: [Option<Reg>; 2]) -> bool {
        sources.iter().flatten().any(|r| self.is_nt(*r))
    }

    /// Copies only the architectural values into a plain array (for
    /// co-simulation comparison and debugging).
    pub fn values(&self) -> [u64; NUM_REGS] {
        let mut out = [0u64; NUM_REGS];
        for (i, s) in self.slots.iter().enumerate() {
            out[i] = s.value;
        }
        out
    }
}

sst_isa::snap_record!(RegImage "RIMG" { slots });

impl Default for RegImage {
    fn default() -> RegImage {
        RegImage::new()
    }
}

/// A hardware checkpoint: the register image and fetch point to restore on
/// speculation failure, plus the sequence number where the checkpointed
/// epoch begins.
///
/// This structure is the paper's pivotal cost claim: an SST core needs a
/// handful of these (ROCK: enough for two speculative epochs) *instead of*
/// rename tables, a reorder buffer, and a large issue window.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Register image at checkpoint creation.
    pub image: RegImage,
    /// PC to refetch from after a rollback.
    pub pc: u64,
    /// First sequence number belonging to the checkpointed epoch.
    pub start_seq: Seq,
    /// Cycle the checkpoint was taken (diagnostics).
    pub taken_at: Cycle,
}

impl Checkpoint {
    /// Snapshots `image` at `pc`.
    pub fn take(image: &RegImage, pc: u64, start_seq: Seq, taken_at: Cycle) -> Checkpoint {
        Checkpoint {
            image: image.clone(),
            pc,
            start_seq,
            taken_at,
        }
    }
}

sst_isa::snap_record!(Checkpoint "CKPT" { image, pc, start_seq, taken_at });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_immutable() {
        let mut im = RegImage::new();
        im.write(Reg::ZERO, 99, 1, 5);
        im.mark_nt(Reg::ZERO, 2);
        assert_eq!(im.value(Reg::ZERO), 0);
        assert!(!im.is_nt(Reg::ZERO));
        assert!(!im.merge(Reg::ZERO, 1, 2, 0));
    }

    #[test]
    fn write_clears_nt() {
        let mut im = RegImage::new();
        im.mark_nt(Reg::x(5), 10);
        assert!(im.is_nt(Reg::x(5)));
        im.write(Reg::x(5), 42, 11, 7);
        assert!(!im.is_nt(Reg::x(5)));
        assert_eq!(im.value(Reg::x(5)), 42);
        assert_eq!(im.ready_at(Reg::x(5)), 7);
    }

    #[test]
    fn merge_lands_only_for_matching_writer() {
        let mut im = RegImage::new();
        im.mark_nt(Reg::x(3), 10);
        // Wrong writer: no effect.
        assert!(!im.merge(Reg::x(3), 1, 9, 0));
        assert!(im.is_nt(Reg::x(3)));
        // Matching writer: lands.
        assert!(im.merge(Reg::x(3), 77, 10, 100));
        assert!(!im.is_nt(Reg::x(3)));
        assert_eq!(im.value(Reg::x(3)), 77);
    }

    #[test]
    fn merge_respects_younger_overwrite() {
        let mut im = RegImage::new();
        im.mark_nt(Reg::x(3), 10);
        im.write(Reg::x(3), 5, 20, 0); // younger instruction overwrites
        assert!(!im.merge(Reg::x(3), 77, 10, 0), "stale deferred write");
        assert_eq!(im.value(Reg::x(3)), 5);
    }

    #[test]
    fn merge_respects_younger_nt_overwrite() {
        let mut im = RegImage::new();
        im.mark_nt(Reg::x(3), 10);
        im.mark_nt(Reg::x(3), 20); // a younger deferred write now owns it
        assert!(!im.merge(Reg::x(3), 77, 10, 0));
        assert!(im.is_nt(Reg::x(3)), "still waiting on seq 20");
        assert!(im.merge(Reg::x(3), 88, 20, 0));
        assert_eq!(im.value(Reg::x(3)), 88);
    }

    #[test]
    fn source_queries() {
        let mut im = RegImage::new();
        im.write(Reg::x(1), 1, 1, 50);
        im.mark_nt(Reg::x(2), 2);
        assert!(im.any_nt([Some(Reg::x(1)), Some(Reg::x(2))]));
        assert!(!im.any_nt([Some(Reg::x(1)), None]));
        assert_eq!(im.ready_after([Some(Reg::x(1)), None]), 50);
        assert_eq!(im.ready_after([None, None]), 0);
        assert_eq!(im.nt_count(), 1);
    }

    #[test]
    fn checkpoint_restores_prior_state() {
        let mut im = RegImage::new();
        im.write(Reg::x(1), 111, 1, 0);
        let ck = Checkpoint::take(&im, 0x4000, 2, 10);
        im.write(Reg::x(1), 222, 3, 0);
        im.mark_nt(Reg::x(2), 4);
        // Restore.
        let restored = ck.image.clone();
        assert_eq!(restored.value(Reg::x(1)), 111);
        assert!(!restored.is_nt(Reg::x(2)));
        assert_eq!(ck.pc, 0x4000);
        assert_eq!(ck.start_seq, 2);
    }
}
