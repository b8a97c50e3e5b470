//! The interface every core model implements, and the commit-event record
//! used for co-simulation against the functional golden model.

use sst_isa::{Inst, Reg, SnapError, SnapReader, SnapWriter, NUM_REGS};
use sst_mem::{Cycle, MemBus};

use crate::Seq;

/// One architecturally committed instruction, as reported by a core.
///
/// Cores emit these **in program order** (sequence numbers strictly
/// increase) and only for instructions that are architecturally final —
/// squashed speculation must never surface here. `sst-sim`'s
/// `RetireChecker` locksteps this stream against the reference interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commit {
    /// Program-order sequence number (starts at 1, no gaps).
    pub seq: Seq,
    /// PC of the instruction.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Architectural register write, if any (`x0` writes are reported as
    /// `None`).
    pub reg_write: Option<(Reg, u64)>,
    /// Store performed, if any: (address, bytes, value).
    pub store: Option<(u64, u64, u64)>,
    /// Cycle at which the instruction committed.
    pub at: Cycle,
}

sst_isa::snap_record!(Commit { seq, pc, inst, reg_write, store, at });

/// Every model's [`Core::drain_commits_into`]: nothing when nothing is
/// pending (the buffers keep their capacities); a swap of the two when `out`
/// is empty (a driver that looks after every tick hands in an empty one
/// each time, so no record is copied); an append otherwise.
#[inline]
pub fn drain_commits(pending: &mut Vec<Commit>, out: &mut Vec<Commit>) {
    if pending.is_empty() {
        return;
    }
    if out.is_empty() {
        std::mem::swap(pending, out);
    } else {
        out.append(pending);
    }
}

/// A cycle-level core model.
///
/// The simulation driver owns the memory system and advances each core
/// one cycle at a time, handing it a per-core [`MemBus`] (its private
/// port plus shared-residue access); cores keep their own cycle counters
/// (all cores in a system share the same clock; the driver ticks each on
/// the cycles it is due and skips it over the rest). Cores are `Send` so CMP drivers can tick them from worker
/// threads; the bus's gating keeps parallel results byte-identical to
/// serial ones.
///
/// A model implements the per-cycle methods. The two *provided* methods,
/// [`Core::run_until`] and [`Core::sleep_until`], hold the per-tick
/// sequence once for all models and no model overrides them: a provided
/// method is compiled per implementing type, so the calls inside it are
/// direct calls on the model, not trips through the vtable.
pub trait Core: Send {
    /// Advances the core by one clock cycle, issuing its memory traffic
    /// through `mem`.
    fn tick(&mut self, mem: &mut MemBus);

    /// Cycles elapsed so far.
    fn cycle(&self) -> Cycle;

    /// Instructions architecturally committed so far — on the in-order and
    /// out-of-order cores. `SstCore` reports its ahead strand's sequence
    /// number, speculative work included: inside an episode it runs ahead
    /// of what [`Core::drain_commits_into`] has handed over and falls back
    /// on a rollback. A driver that needs the architectural count counts
    /// drained commits (the service driver's request accounting reads this
    /// number as it is; tightening that would move E14).
    fn retired(&self) -> u64;

    /// `true` once the program's `halt` has committed.
    fn halted(&self) -> bool;

    /// Moves the commits recorded since the last drain into `out`
    /// (appending, in program order). The hot-loop drivers own one
    /// reusable buffer and call this every cycle, so implementations must
    /// not allocate when there is nothing to drain ([`drain_commits`] is
    /// the stock implementation).
    fn drain_commits_into(&mut self, out: &mut Vec<Commit>);

    /// The earliest future cycle at which ticking this core could do
    /// anything other than pure stall bookkeeping.
    ///
    /// Must be called only between ticks (after [`Core::tick`] and
    /// [`Core::drain_commits_into`]). A return value `t > self.cycle()`
    /// is a guarantee: for every cycle `c` in `[cycle(), t)`, `tick`
    /// would neither touch the memory system, nor fetch, issue, commit,
    /// replay, or roll back — it would only increment per-cycle stall
    /// counters. The driver may then call [`Core::skip_to`] with any
    /// target in `(cycle(), t]` and obtain a run that is cycle-for-cycle
    /// identical (committed instructions, cycles, and all counters) to
    /// the unskipped one.
    ///
    /// A model vouches through the same stall gates its `tick` acts on: a
    /// `&self` function per pipeline stage that returns what the stage
    /// does next or why it cannot, called by the stage to act and here,
    /// on the state the last tick left, to find the window. A second copy
    /// of the stall conditions kept beside `tick` would drift from it.
    ///
    /// Returning `self.cycle()` means "no skip is provably safe".
    fn next_event_cycle(&self) -> Cycle;

    /// Advances the clock to `target` without ticking, bulk-crediting
    /// exactly the stall counters the skipped ticks would have
    /// incremented. A model charges through the gate its `tick` uses: the
    /// stall reason the gate returns at `cycle()` holds across the whole
    /// vouched window, and the same reason-to-counter map that charges one
    /// cycle in `tick` charges the window's length here. Callers must only
    /// pass targets that [`Core::next_event_cycle`] vouched for.
    fn skip_to(&mut self, target: Cycle);

    /// Runs the core from [`Core::cycle`] towards `horizon` (ahead of it;
    /// the core has not halted): tick, drain the tick's commits into `out`
    /// (appending), and stop *right after the tick* that halts the core or
    /// brings `out` to `want` records — before any sleep, so the caller
    /// sees the core as a per-tick driver would after that tick. Otherwise
    /// [`Core::sleep_until`] `horizon` and go on; reaching it also stops.
    /// Returns the cycle of the last tick. `horizon = cycle() + 1` is one
    /// tick; `want = 0` stops after every tick. The caller then decides
    /// whether the core sleeps on, is gated, or is left alone; the run is
    /// cycle for cycle the one a per-tick loop over the same methods makes.
    fn run_until(
        &mut self,
        mem: &mut MemBus,
        horizon: Cycle,
        want: usize,
        fast_forward: bool,
        out: &mut Vec<Commit>,
    ) -> Cycle {
        loop {
            let at = self.cycle();
            self.tick(mem);
            self.drain_commits_into(out);
            if self.halted() || out.len() >= want || self.sleep_until(horizon, fast_forward) >= horizon {
                return at;
            }
        }
    }

    /// Between ticks: with `fast_forward`, [`Core::skip_to`]
    /// `min(next_event_cycle(), end)` if that lies ahead. Returns the cycle
    /// the core stands at, the next one it must be ticked on.
    fn sleep_until(&mut self, end: Cycle, fast_forward: bool) -> Cycle {
        if fast_forward && self.cycle() < end {
            let target = self.next_event_cycle().min(end);
            if target > self.cycle() {
                self.skip_to(target);
            }
        }
        self.cycle()
    }

    /// Clock-gates the core: advances its clock to `target` without
    /// fetching, issuing, committing, or touching the memory system — the
    /// WFI/power-gate analogue for service-style drivers whose cores have
    /// no work queued (see `sst-sim`'s `WorkSource` driver).
    ///
    /// Unlike [`Core::skip_to`], this is *not* transparent: the gated
    /// window is dead time by construction, not provably-inert stall
    /// cycles, so no stall counters are credited (the window goes to the
    /// `gated` row of [`Core::phases`]) and `target` needs no
    /// `next_event_cycle` vouching. In-flight absolute-cycle state (an
    /// outstanding I-miss, a timed register) keeps aging across the gate,
    /// exactly as on hardware whose caches keep running while the pipeline
    /// clock is held. Callers must only gate a core they then resume at
    /// `target` (all cores of a chip share one clock). A `target` at or
    /// before the current cycle is a no-op.
    fn gate_to(&mut self, target: Cycle);

    /// The core's index in the shared memory system.
    fn core_id(&self) -> usize;

    /// Model-specific counters as `(name, value)` pairs, in a stable
    /// display order. Names are shared across models where the concept is
    /// the same (`stall_frontend`, `mispredicts`, ...) so downstream
    /// tables can line models up side by side. The default is empty for
    /// cores that expose nothing beyond [`Core::retired`]/[`Core::cycle`].
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// The speculative-leakage summary collected by the model's taint
    /// layer, when one is enabled (see [`crate::TaintState`]). Reported
    /// out of band of [`Core::counters`] deliberately: enabling the
    /// taint layer must never perturb a run's `RunResult`, and the
    /// equivalence suite compares those byte-for-byte. The default
    /// (`None`) covers models with no speculation — an in-order core has
    /// nothing to leak — and models running with the layer disabled.
    fn leakage(&self) -> Option<&crate::LeakageSummary> {
        None
    }

    /// The per-phase cycle table: how many cycles the core has spent in
    /// each pipeline phase (see [`sst_obs::Phase`]). The invariant —
    /// enforced by the trace-equivalence suite — is that the rows sum
    /// exactly to [`Core::cycle`], however the clock advanced (ticks,
    /// [`Core::skip_to`], or [`Core::gate_to`]): a gated window goes to
    /// `gated`. No default, so that no model can misfile a cycle silently.
    fn phases(&self) -> sst_obs::PhaseTable;

    /// The core's record-only attachments: its event ring and host stage
    /// timers (see [`sst_obs::Probes`]), both off until a driver enables
    /// them. The contract is the taint layer's, verbatim: a probe records
    /// and is never consulted, so enabling one never changes a
    /// `RunResult` (`crates/sim/tests/trace_equiv.rs` enforces it, and
    /// `trace_pin.rs` pins what the rings hold). A core emits its
    /// checkpoint, deferral and replay events and its phase track into
    /// the ring, and times its stages into the timers; a core that emits
    /// nothing still returns its (empty) probes.
    fn probes(&mut self) -> &mut sst_obs::Probes;

    /// Serializes the core's complete mutable state — frontend, register
    /// images, checkpoints, queues, counters — so the run can later be
    /// [`Core::restore_state`]d into a freshly built core of the same
    /// model/configuration and continue byte-identically. The record-only
    /// attachments ([`Core::probes`], taint) are excluded: restored runs
    /// start with them off.
    fn save_state(&self, w: &mut SnapWriter);

    /// Restores state written by [`Core::save_state`] on a core built
    /// with the same configuration over the same program.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated, corrupt, or mismatched input; the
    /// core must not be ticked after a failed restore.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;

    /// Warm-boots the core at an architectural point: squashes *all*
    /// speculative state (epochs, deferred queues, store buffers, ROB),
    /// loads `regs` as the committed register file, and redirects fetch
    /// to `pc` penalty-free — while **keeping** learned microarchitectural
    /// warmth (branch-predictor tables; decoded text belongs to the
    /// program and is shared). The cycle counter keeps running
    /// monotonically; sampled simulation measures per-interval cycles as
    /// deltas around these teleports.
    fn warm_boot(&mut self, regs: &[u64; NUM_REGS], pc: u64);

    /// Trains the branch predictor with one architecturally executed
    /// control transfer during functional warming (no timing, no fetch).
    /// `taken` reflects the architectural outcome and `next_pc` its
    /// target. The default is a no-op for predictor-less models.
    fn warm_predictor(&mut self, pc: u64, inst: Inst, taken: bool, next_pc: u64) {
        let _ = (pc, inst, taken, next_pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_is_plain_data() {
        let c = Commit {
            seq: 1,
            pc: 0x1000,
            inst: Inst::Halt,
            reg_write: None,
            store: None,
            at: 5,
        };
        let d = c;
        assert_eq!(c, d);
    }
}
