//! Speculation-taint tracking: what does failed speculation leave behind?
//!
//! Everything a core writes between checkpoint creation and rollback is
//! *tainted*: NT register slots, DQ operand captures, speculative store
//! buffer entries — and, the interesting part, memory-side residue the
//! rollback cannot undo: cache lines filled on behalf of squashed
//! instructions, branch-predictor state they trained, stride-prefetcher
//! state their accesses fed, and fills still in flight in the MSHRs.
//!
//! A [`TaintState`] records the speculative writes as they happen (keyed
//! by sequence number, so a partial rollback sweeps only its own epoch's
//! taint) and, on each rollback, sweeps the squashed range into a
//! [`LeakageRecord`]: how much state was discarded architecturally, and
//! how much microarchitectural residue *survives* the rollback. The
//! running [`LeakageSummary`] also maintains the **leaked footprint**:
//! the set of distinct cache lines left resident (or in flight) by
//! squashed speculation that architectural execution never demanded —
//! the classic transient-execution side channel surface (Colvin &
//! Winter's "speculative state that persists past abortion").
//!
//! The layer is strictly observational. Recording never touches timing
//! state, and the rollback sweep probes residency through the
//! non-mutating probe API ([`sst_mem::MemBus::probe_residency`]), so a
//! run with taint tracking enabled is byte-identical — cycles, commits,
//! counters, memory statistics — to one without it. The equivalence test
//! in `sst-sim` pins this.

use std::collections::{HashMap, HashSet};

use sst_mem::{Cycle, MemBus};

use crate::Seq;

/// What one rollback swept, and what survived it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeakageRecord {
    /// Cycle of the rollback.
    pub at: Cycle,
    /// `true` for a scout (miss-return) rollback, `false` for a
    /// mispredicted deferred branch.
    pub scout: bool,
    /// Distinct cache lines touched by the squashed instructions.
    pub lines_swept: u64,
    /// Of those, lines still resident in the L1D or the shared L2 after
    /// the rollback — state the rollback cannot undo.
    pub lines_resident: u64,
    /// Of those, lines whose fill is still outstanding in an L1D or L2
    /// MSHR (the prefetches/fills "still in flight").
    pub lines_in_flight: u64,
    /// Branch-predictor updates performed by squashed instructions.
    pub predictor_updates: u64,
    /// Stride-prefetcher trainings performed by squashed demand accesses.
    pub prefetch_trainings: u64,
    /// NT register slots still owned by squashed producers at rollback.
    pub nt_squashed: u64,
    /// Deferred-queue entries squashed.
    pub dq_squashed: u64,
    /// Speculative store-buffer entries squashed.
    pub stb_squashed: u64,
}

/// Running totals over every rollback of a run, plus the distinct-line
/// leaked footprint. Exposed through [`crate::Core::leakage`] — *not*
/// through [`crate::Core::counters`], so enabling the taint layer can
/// never perturb a `RunResult`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LeakageSummary {
    /// Rollbacks swept (scout restarts + deferred-branch failures).
    pub rollbacks: u64,
    /// Total distinct-per-rollback lines swept.
    pub lines_swept: u64,
    /// Total lines found resident after their rollback.
    pub lines_resident: u64,
    /// Total lines with fills still in flight at their rollback.
    pub lines_in_flight: u64,
    /// Total squashed branch-predictor updates.
    pub predictor_updates: u64,
    /// Total squashed stride-prefetcher trainings.
    pub prefetch_trainings: u64,
    /// Total squashed NT register slots.
    pub nt_squashed: u64,
    /// Total squashed DQ entries.
    pub dq_squashed: u64,
    /// Total squashed store-buffer entries.
    pub stb_squashed: u64,
    /// Distinct lines left behind by squashed speculation and never
    /// (since) demanded architecturally: the surviving leak surface.
    pub leaked_footprint: u64,
    /// Largest `lines_resident` of any single rollback.
    pub max_resident: u64,
}

impl LeakageSummary {
    /// The summary as `(name, value)` pairs for reports and CSV tables.
    /// Names carry a `leak_` prefix so they cannot collide with model
    /// counters when a harness appends them to a result row.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("leak_rollbacks", self.rollbacks),
            ("leak_lines_swept", self.lines_swept),
            ("leak_lines_resident", self.lines_resident),
            ("leak_lines_in_flight", self.lines_in_flight),
            ("leak_predictor_updates", self.predictor_updates),
            ("leak_prefetch_trainings", self.prefetch_trainings),
            ("leak_nt_squashed", self.nt_squashed),
            ("leak_dq_squashed", self.dq_squashed),
            ("leak_stb_squashed", self.stb_squashed),
            ("leak_footprint", self.leaked_footprint),
            ("leak_max_resident", self.max_resident),
        ]
    }

    /// `true` when no speculative residue of any kind was recorded — the
    /// expected answer from an in-order core.
    pub fn is_zero(&self) -> bool {
        *self == LeakageSummary::default()
    }
}

/// Structure-squash counts the core computes at rollback time (it owns
/// the DQ, STB, and register image; the taint state does not).
#[derive(Clone, Copy, Debug, Default)]
pub struct SquashCounts {
    /// NT register slots owned by squashed producers.
    pub nt: u64,
    /// DQ entries about to be squashed.
    pub dq: u64,
    /// Store-buffer entries about to be squashed.
    pub stb: u64,
}

/// Cap on retained per-rollback records (summaries keep accumulating
/// past it; the cap only bounds memory on pathological runs).
const MAX_RECORDS: usize = 4096;

/// The recording side of the taint layer. A core owns one (boxed,
/// behind an `Option` gated by its config flag) and calls the `note_*`
/// hooks as it executes speculatively, [`TaintState::commit_through`]
/// when an epoch commits, and [`TaintState::sweep`] when it rolls back.
#[derive(Debug, Default)]
pub struct TaintState {
    /// Speculatively-touched lines: block -> seq of the oldest toucher.
    /// The oldest seq decides whether a partial rollback sweeps the
    /// block or an older surviving epoch still owns it legitimately.
    lines: HashMap<u64, Seq>,
    /// Seqs of speculative branch-predictor updates.
    predictor: Vec<Seq>,
    /// Seqs of speculative demand accesses that trained the prefetcher.
    trainings: Vec<Seq>,
    /// Lines left behind by squashed speculation, minus every line
    /// architectural execution has since demanded itself.
    footprint: HashSet<u64>,
    /// Per-rollback records (capped at [`MAX_RECORDS`]).
    pub records: Vec<LeakageRecord>,
    /// Running totals.
    pub summary: LeakageSummary,
}

impl TaintState {
    /// A fresh, empty taint state.
    pub fn new() -> TaintState {
        TaintState::default()
    }

    /// Notes a speculative touch of `block` by instruction `seq`.
    pub fn note_line(&mut self, seq: Seq, block: u64) {
        let e = self.lines.entry(block).or_insert(seq);
        *e = (*e).min(seq);
    }

    /// Notes a speculative branch-predictor update by `seq`.
    pub fn note_predictor(&mut self, seq: Seq) {
        self.predictor.push(seq);
    }

    /// Notes a speculative demand access by `seq` that fed the stride
    /// prefetcher's training path.
    pub fn note_training(&mut self, seq: Seq) {
        self.trainings.push(seq);
    }

    /// Notes an architectural (non-speculative, or committed) demand of
    /// `block`: if squashed speculation had leaked the line, the demand
    /// legitimizes it — architectural execution wanted it anyway, so it
    /// is no longer a side-channel observation.
    pub fn note_architectural(&mut self, block: u64) {
        if !self.footprint.is_empty() && self.footprint.remove(&block) {
            self.summary.leaked_footprint = self.footprint.len() as u64;
        }
    }

    /// An epoch committed through sequence `bound`: its writes are
    /// architectural now. Their lines also legitimize any earlier leak
    /// of the same block.
    pub fn commit_through(&mut self, bound: Seq) {
        if !self.lines.is_empty() {
            let footprint = &mut self.footprint;
            self.lines.retain(|block, &mut seq| {
                if seq <= bound {
                    footprint.remove(block);
                    false
                } else {
                    true
                }
            });
            self.summary.leaked_footprint = self.footprint.len() as u64;
        }
        self.predictor.retain(|&s| s > bound);
        self.trainings.retain(|&s| s > bound);
    }

    /// Sweeps all taint at or past `from` (the restored checkpoint's
    /// `start_seq`) into a [`LeakageRecord`], probing the memory system
    /// non-destructively for what survives. Call at rollback, after the
    /// core's own structures are restored; `counts` carries the
    /// structure-squash counts only the core can compute.
    pub fn sweep(
        &mut self,
        from: Seq,
        now: Cycle,
        scout: bool,
        mem: &mut MemBus,
        counts: SquashCounts,
    ) -> LeakageRecord {
        let mut rec = LeakageRecord {
            at: now,
            scout,
            nt_squashed: counts.nt,
            dq_squashed: counts.dq,
            stb_squashed: counts.stb,
            ..LeakageRecord::default()
        };

        let swept: Vec<u64> = self
            .lines
            .iter()
            .filter(|&(_, &seq)| seq >= from)
            .map(|(&block, _)| block)
            .collect();
        for block in swept {
            self.lines.remove(&block);
            rec.lines_swept += 1;
            let probe = mem.probe_residency(now, block);
            if probe.l1d || probe.l2 {
                rec.lines_resident += 1;
            }
            if probe.in_flight {
                rec.lines_in_flight += 1;
            }
            if probe.l1d || probe.l2 || probe.in_flight {
                self.footprint.insert(block);
            }
        }

        let before = self.predictor.len();
        self.predictor.retain(|&s| s < from);
        rec.predictor_updates = (before - self.predictor.len()) as u64;
        let before = self.trainings.len();
        self.trainings.retain(|&s| s < from);
        rec.prefetch_trainings = (before - self.trainings.len()) as u64;

        let s = &mut self.summary;
        s.rollbacks += 1;
        s.lines_swept += rec.lines_swept;
        s.lines_resident += rec.lines_resident;
        s.lines_in_flight += rec.lines_in_flight;
        s.predictor_updates += rec.predictor_updates;
        s.prefetch_trainings += rec.prefetch_trainings;
        s.nt_squashed += rec.nt_squashed;
        s.dq_squashed += rec.dq_squashed;
        s.stb_squashed += rec.stb_squashed;
        s.leaked_footprint = self.footprint.len() as u64;
        s.max_resident = s.max_resident.max(rec.lines_resident);
        if self.records.len() < MAX_RECORDS {
            self.records.push(rec);
        }
        rec
    }

    /// Number of lines currently tracked as speculative (tests).
    pub fn pending_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_mem::{AccessKind, MemConfig, MemSystem};

    #[test]
    fn sweep_reports_resident_and_in_flight_lines() {
        let mut ms = MemSystem::new(&MemConfig::default(), 1);
        let mut t = TaintState::new();
        // Two speculative fills: one long complete, one still in flight.
        let a = ms.access(0, 0, AccessKind::Load, 0x4000);
        let block_a = 0x4000u64;
        t.note_line(10, block_a);
        let probe_at = a.ready_at + 10;
        let b = ms.access(probe_at, 0, AccessKind::Load, 0x9000);
        assert!(b.ready_at > probe_at);
        t.note_line(11, 0x9000);
        t.note_predictor(12);
        t.note_training(10);

        let rec = t.sweep(
            10,
            probe_at + 1,
            false,
            &mut ms.bus(0),
            SquashCounts { nt: 3, dq: 2, stb: 1 },
        );
        assert_eq!(rec.lines_swept, 2);
        assert_eq!(rec.lines_resident, 2, "both fills installed tags");
        assert_eq!(rec.lines_in_flight, 1, "second fill still outstanding");
        assert_eq!(rec.predictor_updates, 1);
        assert_eq!(rec.prefetch_trainings, 1);
        assert_eq!(rec.nt_squashed, 3);
        assert_eq!(t.summary.leaked_footprint, 2);
        assert_eq!(t.pending_lines(), 0);
    }

    #[test]
    fn partial_sweep_spares_older_epochs() {
        let mut ms = MemSystem::new(&MemConfig::default(), 1);
        let mut t = TaintState::new();
        t.note_line(5, 1);
        t.note_line(20, 2);
        t.note_predictor(5);
        t.note_predictor(20);
        let rec = t.sweep(10, 100, false, &mut ms.bus(0), SquashCounts::default());
        assert_eq!(rec.lines_swept, 1, "only seq>=10 swept");
        assert_eq!(rec.predictor_updates, 1);
        assert_eq!(t.pending_lines(), 1, "older epoch's line still tracked");
    }

    #[test]
    fn architectural_demand_cleans_the_footprint() {
        let mut ms = MemSystem::new(&MemConfig::default(), 1);
        let mut t = TaintState::new();
        ms.access(0, 0, AccessKind::Load, 0x4000);
        t.note_line(10, 0x4000);
        t.sweep(1, 2000, true, &mut ms.bus(0), SquashCounts::default());
        assert_eq!(t.summary.leaked_footprint, 1);
        // Architectural execution demands the line itself: not a leak.
        t.note_architectural(0x4000);
        assert_eq!(t.summary.leaked_footprint, 0);
    }

    #[test]
    fn commit_clears_taint_and_legitimizes_lines() {
        let mut ms = MemSystem::new(&MemConfig::default(), 1);
        let mut t = TaintState::new();
        ms.access(0, 0, AccessKind::Load, 0x4000);
        let block = 0x4000;
        t.note_line(4, block);
        t.sweep(1, 2000, true, &mut ms.bus(0), SquashCounts::default());
        assert_eq!(t.summary.leaked_footprint, 1);
        // Post-rollback, a new epoch touches the block again and commits.
        t.note_line(6, block);
        t.note_predictor(6);
        t.note_training(7);
        t.commit_through(8);
        assert_eq!(t.pending_lines(), 0);
        assert_eq!(t.summary.leaked_footprint, 0, "committed demand cleans it");
        // Summary totals are monotone — commit never rewrites history.
        assert_eq!(t.summary.rollbacks, 1);
        assert_eq!(t.summary.lines_swept, 1);
    }

    #[test]
    fn zero_summary_reads_as_zero() {
        assert!(LeakageSummary::default().is_zero());
        let s = LeakageSummary {
            rollbacks: 1,
            ..LeakageSummary::default()
        };
        assert!(!s.is_zero());
        assert_eq!(s.counters()[0], ("leak_rollbacks", 1));
    }
}
