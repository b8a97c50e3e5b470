//! # sst-obs
//!
//! The typed observability layer: pipeline events, per-phase cycle
//! accounting, a Chrome-trace/Perfetto exporter, and host-side
//! self-profiling. It sits at the very bottom of the workspace (no
//! dependencies, like `sst-prng`) so every model crate and the memory
//! system can emit into it.
//!
//! # The event-sink contract
//!
//! Observability is **zero-cost when off and invisible when on**:
//!
//! * Every core and memory port holds one [`Probes`]: an event ring
//!   ([`TraceBuf`]) and host stage timers ([`HostTimes`]), each a `None`
//!   until enabled, so every emission or timer site is a single
//!   discriminant test while off.
//! * When a probe is enabled, it *records* and is never *consulted*: no
//!   model ever branches on probe state, so enabling a probe never
//!   changes a `RunResult`. The same contract the taint layer
//!   established (`SstConfig::taint`) applies verbatim and is enforced
//!   by `crates/sim/tests/trace_equiv.rs`; `trace_pin.rs` holds what the
//!   rings record to a committed table.
//! * Per-phase cycle accounting ([`PhaseTable`]) is *always on* — one
//!   array add per tick — so the phase table in every `RunResult` sums
//!   exactly to the run's total cycles whether or not a trace was
//!   captured.
//!
//! Events are self-contained (spans carry both endpoints; instants
//! carry their cycle), so the buffer can be a bounded ring: when it
//! fills, the *oldest* events are dropped and the export stays
//! well-formed. This also makes the ring useful as a wedge-dump: the
//! tail always holds the most recent pipeline activity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

mod chrome;
mod probes;
mod prof;

pub use chrome::ChromeTrace;
pub use probes::Probes;
pub use prof::{HostTimes, Stage};

/// Absolute simulation cycle (mirrors `sst_mem::Cycle` without the
/// dependency).
pub type Cycle = u64;

/// The pipeline phase a core spends a cycle in.
///
/// The first four are the paper's phases: committed in-order progress
/// (`Normal`), speculating past a deferred miss with retirement held
/// back (`Ea`), draining the deferred queue (`Replay`), and pure
/// prefetching with results discarded (`Scout`). `Gated` covers cycles
/// a CMP driver advances a core through without giving it work
/// (`Core::gate_to`), so the table still sums to total cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Committed, non-speculative execution.
    Normal,
    /// Execute-ahead: a checkpoint is live and results are retained.
    Ea,
    /// Replay: draining the deferred queue under a live checkpoint.
    Replay,
    /// Scout: hardware prefetching past a miss, results discarded.
    Scout,
    /// Cycles consumed by lockstep gating, not by the pipeline.
    Gated,
}

impl Phase {
    /// Every phase, in table order.
    pub const ALL: [Phase; 5] = [Phase::Normal, Phase::Ea, Phase::Replay, Phase::Scout, Phase::Gated];

    /// Dense index for table storage.
    pub fn index(self) -> usize {
        match self {
            Phase::Normal => 0,
            Phase::Ea => 1,
            Phase::Replay => 2,
            Phase::Scout => 3,
            Phase::Gated => 4,
        }
    }

    /// Stable label used in tables, JSON, and trace tracks.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Normal => "normal",
            Phase::Ea => "ea",
            Phase::Replay => "replay",
            Phase::Scout => "scout",
            Phase::Gated => "gated",
        }
    }
}

/// Why an instruction was sent to the deferred queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeferCause {
    /// A source register carried an NT (not-there) bit.
    NtSource,
    /// A load could not prove ordering against an older unknown-address
    /// store.
    StoreOrder,
    /// A load matched an older store byte range it could not fully
    /// forward from.
    ForwardMiss,
    /// A long-latency cache miss past the defer threshold.
    CacheMiss,
}

impl DeferCause {
    /// Every cause, in taxonomy order.
    pub const ALL: [DeferCause; 4] = [
        DeferCause::NtSource,
        DeferCause::StoreOrder,
        DeferCause::ForwardMiss,
        DeferCause::CacheMiss,
    ];

    /// Dense index for counter storage.
    pub fn index(self) -> usize {
        match self {
            DeferCause::NtSource => 0,
            DeferCause::StoreOrder => 1,
            DeferCause::ForwardMiss => 2,
            DeferCause::CacheMiss => 3,
        }
    }

    /// Stable label used in counters and trace args.
    pub fn label(self) -> &'static str {
        match self {
            DeferCause::NtSource => "nt_source",
            DeferCause::StoreOrder => "store_order",
            DeferCause::ForwardMiss => "forward_miss",
            DeferCause::CacheMiss => "cache_miss",
        }
    }
}

/// Per-phase cycle accounting. Rows sum exactly to the cycles fed in,
/// which `crates/sim/tests/trace_equiv.rs` enforces against every
/// model's total cycle count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTable {
    cycles: [u64; Phase::ALL.len()],
}

impl PhaseTable {
    /// An empty table.
    pub fn new() -> PhaseTable {
        PhaseTable::default()
    }

    /// Credits `n` cycles to `phase`.
    pub fn add(&mut self, phase: Phase, n: u64) {
        self.cycles[phase.index()] += n;
    }

    /// Cycles credited to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.cycles[phase.index()]
    }

    /// Total cycles across all phases.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// All rows in stable order (zero rows included, so the schema is
    /// fixed across models).
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        Phase::ALL.iter().map(|p| (p.label(), self.get(*p))).collect()
    }
}

/// The rows in [`Phase::ALL`] order, as a snapshot holds them.
impl From<PhaseTable> for [u64; Phase::ALL.len()] {
    fn from(t: PhaseTable) -> Self {
        t.cycles
    }
}

impl From<[u64; Phase::ALL.len()]> for PhaseTable {
    fn from(cycles: [u64; Phase::ALL.len()]) -> PhaseTable {
        PhaseTable { cycles }
    }
}

/// One typed pipeline event. Every variant is self-contained — spans
/// carry both endpoints — so a bounded ring of events always exports to
/// a well-formed trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// The core spent `[start, end)` in `phase`.
    PhaseSpan {
        /// Phase occupied for the span.
        phase: Phase,
        /// First cycle of the span.
        start: Cycle,
        /// First cycle *after* the span.
        end: Cycle,
    },
    /// A checkpoint was taken; `live` epochs exist afterwards.
    CkptTake {
        /// Cycle the checkpoint was taken.
        at: Cycle,
        /// Live epoch count after the take.
        live: u32,
    },
    /// The oldest epoch committed (speculative work became architectural).
    CkptCommit {
        /// Cycle of the commit.
        at: Cycle,
        /// Deferred results merged by the commit.
        merged: u32,
    },
    /// Speculative state was discarded back to a checkpoint.
    CkptRollback {
        /// Cycle of the rollback.
        at: Cycle,
        /// `true` for a scout-mode rollback (results were never
        /// retained), `false` for an EA/SST failure rollback.
        scout: bool,
        /// Speculative instructions squashed.
        squashed: u32,
    },
    /// An instruction entered the deferred queue.
    Defer {
        /// Cycle of the deferral.
        at: Cycle,
        /// Why it could not execute in place.
        cause: DeferCause,
    },
    /// A replayed instruction's operands were still not there; it went
    /// back into the deferred queue.
    Redefer {
        /// Cycle of the re-deferral.
        at: Cycle,
    },
    /// One replay pass ended.
    ReplayPass {
        /// Cycle the pass ended.
        at: Cycle,
        /// Instructions executed by the pass.
        executed: u32,
        /// Instructions the pass re-deferred.
        redeferred: u32,
    },
    /// A deferred control transfer resolved against the ahead strand's
    /// guess — the speculation fails and rolls back (previously the
    /// `SST_TRACE_FAILS` eprintln).
    ReplayFail {
        /// Cycle of the detection.
        at: Cycle,
        /// Sequence number of the offending instruction.
        seq: u64,
    },
    /// A DQ/STB occupancy sample.
    Occupancy {
        /// Sample cycle.
        at: Cycle,
        /// Deferred-queue entries in use.
        dq: u32,
        /// Store-buffer entries in use.
        stb: u32,
    },
    /// One cache-miss lifetime in the memory system: from MSHR
    /// allocation to fill.
    MissSpan {
        /// Cycle the miss claimed an MSHR.
        start: Cycle,
        /// Cycle the fill arrives.
        end: Cycle,
        /// Block-aligned address.
        block: u64,
        /// `true` if the miss went all the way to DRAM.
        deep: bool,
    },
}

/// A bounded ring of typed events plus the currently-open phase span.
///
/// When the ring fills, the *oldest* events are dropped (counted in
/// [`TraceBuf::dropped`]): the export stays well-formed and the tail —
/// what a wedge dump wants — is always the most recent activity.
#[derive(Clone, Debug)]
pub struct TraceBuf {
    events: VecDeque<Event>,
    cap: usize,
    dropped: u64,
    open: Option<(Phase, Cycle)>,
    last_occ: Option<(u32, u32)>,
}

impl TraceBuf {
    /// Default event capacity (~10 MB of events per buffer).
    pub const DEFAULT_CAP: usize = 1 << 18;

    /// A buffer with the default capacity.
    pub fn new() -> TraceBuf {
        TraceBuf::with_capacity(TraceBuf::DEFAULT_CAP)
    }

    /// A buffer holding at most `cap` events.
    pub fn with_capacity(cap: usize) -> TraceBuf {
        assert!(cap > 0, "trace buffer needs room for at least one event");
        TraceBuf {
            events: VecDeque::new(),
            cap,
            dropped: 0,
            open: None,
            last_occ: None,
        }
    }

    /// Records one event, dropping the oldest if the ring is full.
    pub fn push(&mut self, e: Event) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }

    /// Notes that the core is in `phase` at cycle `now`. Consecutive
    /// cycles in the same phase extend the open span; a change closes
    /// it as a [`Event::PhaseSpan`] ending at `now`.
    pub fn set_phase(&mut self, phase: Phase, now: Cycle) {
        match self.open {
            Some((p, _)) if p == phase => {}
            Some((p, start)) => {
                self.push(Event::PhaseSpan { phase: p, start, end: now });
                self.open = Some((phase, now));
            }
            None => self.open = Some((phase, now)),
        }
    }

    /// Records a DQ/STB occupancy sample, but only when it differs from
    /// the previous one — per-tick callers get change-compressed counter
    /// tracks instead of one event per cycle.
    #[inline]
    pub fn sample_occupancy(&mut self, at: Cycle, dq: u32, stb: u32) {
        if self.last_occ == Some((dq, stb)) {
            return;
        }
        self.last_occ = Some((dq, stb));
        self.push(Event::Occupancy { at, dq, stb });
    }

    /// Closes the open phase span (if any) at cycle `now`. Call once
    /// when the run ends, before exporting.
    pub fn close(&mut self, now: Cycle) {
        if let Some((p, start)) = self.open.take() {
            if now > start {
                self.push(Event::PhaseSpan { phase: p, start, end: now });
            }
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events were dropped to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Default for TraceBuf {
    fn default() -> TraceBuf {
        TraceBuf::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_table_rows_sum_to_total() {
        let mut t = PhaseTable::new();
        t.add(Phase::Normal, 10);
        t.add(Phase::Ea, 5);
        t.add(Phase::Replay, 3);
        t.add(Phase::Scout, 0);
        t.add(Phase::Gated, 2);
        assert_eq!(t.total(), 20);
        assert_eq!(t.rows().iter().map(|(_, n)| n).sum::<u64>(), 20);
        assert_eq!(t.rows().len(), Phase::ALL.len(), "stable schema");
        assert_eq!(t.get(Phase::Ea), 5);
    }

    #[test]
    fn set_phase_coalesces_and_close_flushes() {
        let mut b = TraceBuf::new();
        b.set_phase(Phase::Normal, 0);
        b.set_phase(Phase::Normal, 1);
        b.set_phase(Phase::Normal, 2);
        assert_eq!(b.len(), 0, "same phase extends the open span");
        b.set_phase(Phase::Ea, 3);
        assert_eq!(b.len(), 1);
        b.close(10);
        assert_eq!(b.len(), 2);
        let evs: Vec<_> = b.events().copied().collect();
        assert_eq!(evs[0], Event::PhaseSpan { phase: Phase::Normal, start: 0, end: 3 });
        assert_eq!(evs[1], Event::PhaseSpan { phase: Phase::Ea, start: 3, end: 10 });
        // Spans tile the timeline: each starts where the last ended.
        assert_eq!(
            match evs[0] { Event::PhaseSpan { end, .. } => end, _ => unreachable!() },
            match evs[1] { Event::PhaseSpan { start, .. } => start, _ => unreachable!() },
        );
    }

    #[test]
    fn close_drops_empty_span() {
        let mut b = TraceBuf::new();
        b.set_phase(Phase::Scout, 7);
        b.close(7);
        assert!(b.is_empty(), "zero-length span is not recorded");
    }

    #[test]
    fn occupancy_samples_dedupe() {
        let mut b = TraceBuf::new();
        b.sample_occupancy(0, 0, 0);
        b.sample_occupancy(1, 0, 0);
        b.sample_occupancy(2, 0, 0);
        assert_eq!(b.len(), 1, "unchanged occupancy is not re-sampled");
        b.sample_occupancy(3, 4, 0);
        b.sample_occupancy(4, 4, 2);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn ring_drops_oldest() {
        let mut b = TraceBuf::with_capacity(4);
        for i in 0..10u64 {
            b.push(Event::Redefer { at: i });
        }
        assert_eq!(b.len(), 4);
        assert_eq!(b.dropped(), 6);
        let kept: Vec<_> = b.events().copied().collect();
        let want: Vec<_> = (6..10).map(|at| Event::Redefer { at }).collect();
        assert_eq!(kept, want, "oldest events dropped first");
    }
}
