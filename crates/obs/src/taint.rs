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
//! taint) and, on each rollback, sweeps the squashed range into its
//! running [`LeakageSummary`]: how much state was discarded
//! architecturally, and how much microarchitectural residue *survives*
//! the rollback. The summary also maintains the **leaked footprint**: the
//! set of distinct cache lines left resident (or in flight) by squashed
//! speculation that architectural execution never demanded — the classic
//! transient-execution side channel surface (Colvin & Winter's
//! "speculative state that persists past abortion").
//!
//! Taint is a record-only probe like the others ([`crate::Probes`]):
//! recording never touches timing state, and the rollback sweep asks
//! about residency through a caller-supplied closure that must not
//! perturb anything (`sst_mem::MemBus::probe_residency`), so a run with
//! taint enabled is byte-identical — cycles, commits, counters, memory
//! statistics — to one without it. `crates/sim/tests/probes_equiv.rs`
//! pins this.

use std::collections::{HashMap, HashSet};

/// Where a swept line still lives, as the rollback sweep's residency
/// probe reports it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Residue {
    /// Present in the probing core's L1D tags or the shared L2 tags.
    pub resident: bool,
    /// A fill is still outstanding in the core's L1D MSHRs or the shared
    /// L2 MSHRs.
    pub in_flight: bool,
}

/// Running totals over every rollback of a run, plus the distinct-line
/// leaked footprint. Read through [`crate::Probes::leakage`] — never
/// through a core's counters, so enabling taint can never perturb a
/// `RunResult`.
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
    /// Largest number of lines resident after any single rollback.
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

/// The recording side of the taint layer. A core's [`crate::Probes`]
/// holds one while taint is enabled; the core calls the `note_*` hooks as
/// it executes speculatively, [`TaintState::commit_through`] when an
/// epoch commits, and [`TaintState::sweep`] when it rolls back.
/// Sequence numbers are the core's program-order instruction numbers.
#[derive(Debug, Default)]
pub struct TaintState {
    /// Speculatively-touched lines: block -> seq of the oldest toucher.
    /// The oldest seq decides whether a partial rollback sweeps the
    /// block or an older surviving epoch still owns it legitimately.
    lines: HashMap<u64, u64>,
    /// Seqs of speculative branch-predictor updates.
    predictor: Vec<u64>,
    /// Seqs of speculative demand accesses that trained the prefetcher.
    trainings: Vec<u64>,
    /// Lines left behind by squashed speculation, minus every line
    /// architectural execution has since demanded itself.
    footprint: HashSet<u64>,
    /// Running totals.
    pub summary: LeakageSummary,
}

impl TaintState {
    /// Notes a speculative touch of `block` by instruction `seq`.
    pub fn note_line(&mut self, seq: u64, block: u64) {
        let e = self.lines.entry(block).or_insert(seq);
        *e = (*e).min(seq);
    }

    /// Notes a speculative branch-predictor update by `seq`.
    pub fn note_predictor(&mut self, seq: u64) {
        self.predictor.push(seq);
    }

    /// Notes a speculative demand access by `seq` that fed the stride
    /// prefetcher's training path.
    pub fn note_training(&mut self, seq: u64) {
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
    pub fn commit_through(&mut self, bound: u64) {
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
    /// first sequence number) into the summary, asking `probe` where each
    /// swept block still lives. Call at rollback, after the core's own
    /// structures are restored; `counts` carries the structure-squash
    /// counts only the core can compute. `probe` must not perturb the
    /// memory system.
    pub fn sweep(
        &mut self,
        from: u64,
        counts: SquashCounts,
        mut probe: impl FnMut(u64) -> Residue,
    ) {
        let (mut swept, mut resident, mut in_flight) = (0, 0, 0);
        let footprint = &mut self.footprint;
        self.lines.retain(|&block, &mut seq| {
            if seq < from {
                return true;
            }
            let r = probe(block);
            swept += 1;
            resident += u64::from(r.resident);
            in_flight += u64::from(r.in_flight);
            if r.resident || r.in_flight {
                footprint.insert(block);
            }
            false
        });

        let s = &mut self.summary;
        let before = self.predictor.len();
        self.predictor.retain(|&seq| seq < from);
        s.predictor_updates += (before - self.predictor.len()) as u64;
        let before = self.trainings.len();
        self.trainings.retain(|&seq| seq < from);
        s.prefetch_trainings += (before - self.trainings.len()) as u64;

        s.rollbacks += 1;
        s.lines_swept += swept;
        s.lines_resident += resident;
        s.lines_in_flight += in_flight;
        s.nt_squashed += counts.nt;
        s.dq_squashed += counts.dq;
        s.stb_squashed += counts.stb;
        s.leaked_footprint = self.footprint.len() as u64;
        s.max_resident = s.max_resident.max(resident);
    }

    /// Number of lines currently tracked as speculative.
    pub fn pending_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A residency probe over a fixed answer per block; every other block
    /// is cold.
    fn fake(lines: &[(u64, Residue)]) -> impl FnMut(u64) -> Residue + '_ {
        |block| {
            lines
                .iter()
                .find(|&&(b, _)| b == block)
                .map_or(Residue::default(), |&(_, r)| r)
        }
    }

    const FILLED: Residue = Residue {
        resident: true,
        in_flight: false,
    };
    const FILLING: Residue = Residue {
        resident: true,
        in_flight: true,
    };

    #[test]
    fn sweep_reports_resident_and_in_flight_lines() {
        let mut t = TaintState::default();
        // Two speculative fills: one long complete, one still in flight.
        t.note_line(10, 0x4000);
        t.note_line(11, 0x9000);
        t.note_predictor(12);
        t.note_training(10);

        let counts = SquashCounts {
            nt: 3,
            dq: 2,
            stb: 1,
        };
        t.sweep(10, counts, fake(&[(0x4000, FILLED), (0x9000, FILLING)]));
        let s = &t.summary;
        assert_eq!(s.lines_swept, 2);
        assert_eq!(s.lines_resident, 2, "both fills installed tags");
        assert_eq!(s.lines_in_flight, 1, "second fill still outstanding");
        assert_eq!(s.max_resident, 2);
        assert_eq!(s.predictor_updates, 1);
        assert_eq!(s.prefetch_trainings, 1);
        assert_eq!((s.nt_squashed, s.dq_squashed, s.stb_squashed), (3, 2, 1));
        assert_eq!(s.leaked_footprint, 2);
        assert_eq!(t.pending_lines(), 0);
    }

    #[test]
    fn partial_sweep_spares_older_epochs() {
        let mut t = TaintState::default();
        t.note_line(5, 1);
        t.note_line(20, 2);
        t.note_predictor(5);
        t.note_predictor(20);
        t.sweep(10, SquashCounts::default(), fake(&[]));
        assert_eq!(t.summary.lines_swept, 1, "only seq>=10 swept");
        assert_eq!(t.summary.predictor_updates, 1);
        assert_eq!(t.summary.leaked_footprint, 0, "a cold line is no leak");
        assert_eq!(t.pending_lines(), 1, "older epoch's line still tracked");
    }

    #[test]
    fn architectural_demand_cleans_the_footprint() {
        let mut t = TaintState::default();
        t.note_line(10, 0x4000);
        t.sweep(1, SquashCounts::default(), fake(&[(0x4000, FILLED)]));
        assert_eq!(t.summary.leaked_footprint, 1);
        // Architectural execution demands the line itself: not a leak.
        t.note_architectural(0x4000);
        assert_eq!(t.summary.leaked_footprint, 0);
    }

    #[test]
    fn commit_clears_taint_and_legitimizes_lines() {
        let mut t = TaintState::default();
        let block = 0x4000;
        t.note_line(4, block);
        t.sweep(1, SquashCounts::default(), fake(&[(block, FILLED)]));
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
        let zero = LeakageSummary::default().counters();
        assert_eq!(zero.len(), 11);
        assert!(zero.iter().all(|&(n, v)| n.starts_with("leak_") && v == 0));
        let s = LeakageSummary {
            rollbacks: 1,
            ..LeakageSummary::default()
        };
        assert_eq!(s.counters()[0], ("leak_rollbacks", 1));
    }
}
