//! The SST pipeline model: ahead strand, deferred strand, epochs.

use std::collections::VecDeque;

use sst_isa::{Inst, Program, Reg, SnapError, SnapReader, SnapState, SnapWriter, NUM_REGS};
use sst_mem::{AccessKind, Cycle, MemBus};
use sst_obs::{DeferCause, Event, Phase, PhaseTable, Probes, Stage};
use sst_uarch::{
    drain_commits, execute, extend_load, mem_addr, Checkpoint, Commit, Core, DeferredQueue, DqEntry,
    DrainedStore, FetchedInst, ForwardResult, Frontend, LeakageSummary, RegImage, Seq,
    SquashCounts, StoreBuffer, StoreEntry, TaintState,
};

use crate::{SstConfig, SstStats};

/// One speculative epoch: the instructions executed under one checkpoint.
struct Epoch {
    ckpt: Checkpoint,
    /// Last sequence number belonging to this epoch; `None` while the epoch
    /// is still open (the ahead strand is appending to it).
    end_seq: Option<Seq>,
    /// One commit record per instruction of this epoch, in program order:
    /// `log[i]` belongs to sequence number `ckpt.start_seq + i`. A deferred
    /// instruction holds its place with a record that says `at:
    /// Cycle::MAX` until its replay writes the real one; the epoch commits
    /// only after its last DQ entry has left, so none is ever committed.
    /// Empty in scout mode, whose epochs end in rollback.
    log: Vec<Commit>,
    /// For scout mode: the cycle the originating miss returns (rollback
    /// point).
    cause_ready: Cycle,
}

sst_isa::snap_record!(Epoch { ckpt, end_seq, cause_ready, log });

/// Why the ahead strand does not issue its head this cycle: the verdict of
/// [`SstCore::head_gate`] (or of EA's suspension), which `ahead` acts on
/// and [`Core::next_event_cycle`] / [`Core::skip_to`] vouch and charge by.
#[derive(Clone, Copy)]
enum AheadStall {
    /// Decode queue empty; refilled only by fetch.
    Frontend,
    /// `halt` at the head with speculation outstanding.
    HaltWait,
    /// Head's non-NT sources not timing-ready until the given cycle.
    Operand(Cycle),
    /// Confidence gate holding back a shaky deferred branch.
    LowConf,
    /// Deferred queue full; drained only by replay.
    DqFull,
    /// Store buffer full; drained only by replay/commit.
    StbFull,
    /// Execute-ahead suspended behind its deferred strand: a replay pass
    /// used the pipeline, or blocked work holds it
    /// ([`SstCore::ea_suspended`]).
    EaReplay,
}

impl AheadStall {
    /// Charges `n` stalled cycles to this stall's counter.
    #[inline]
    fn charge(self, s: &mut SstStats, n: u64) {
        let counter = match self {
            AheadStall::Frontend => &mut s.stall_frontend,
            AheadStall::HaltWait => &mut s.stall_halt_wait,
            AheadStall::Operand(_) => &mut s.stall_operand,
            AheadStall::LowConf => &mut s.stall_lowconf,
            AheadStall::DqFull => &mut s.stall_dq_full,
            AheadStall::StbFull => &mut s.stall_stb_full,
            AheadStall::EaReplay => &mut s.stall_ea_replay,
        };
        *counter += n;
    }
}

enum ReplayOutcome {
    /// Entry executed and removed.
    Done,
    /// Entry must stay deferred (data still outstanding / ordering).
    Stuck,
    /// Deferred control misprediction: the epoch failed.
    Fail,
    /// Memory port exhausted; stop replaying this cycle.
    PortFull,
}

/// The in-order / scout / execute-ahead / SST core.
///
/// See the [crate documentation](crate) for the model summary, and
/// [`SstConfig`] for the design points.
pub struct SstCore {
    cfg: SstConfig,
    id: usize,
    frontend: Frontend,
    /// Live speculative register state (the ahead strand's view).
    spec: RegImage,
    epochs: VecDeque<Epoch>,
    dq: DeferredQueue,
    stb: StoreBuffer,
    seq: Seq,
    cycle: Cycle,
    halted: bool,
    commits: Vec<Commit>,
    /// Next cycle at which a replay pass could find work.
    replay_check_at: Cycle,
    /// Something that can let the oldest epoch commit has happened since
    /// `try_commit` last ran: the DQ's oldest entry left, an epoch closed,
    /// a rollback. Raised and consumed within one tick.
    commit_due: bool,
    /// Reusable commit-drain buffer (avoids a Vec per committed epoch).
    drain_buf: Vec<DrainedStore>,
    /// Forward-progress guard: after a rollback, the next deferrable miss
    /// executes in-order (no new episode) so that at least one miss is
    /// architecturally consumed per rollback. Cleared at the next commit.
    no_defer: bool,
    /// Cycle of the last observable progress (watchdog).
    last_progress: Cycle,
    /// Per-phase cycle table (always on: one array add per tick). Rows
    /// sum exactly to `cycle`, however the clock advanced.
    phase_cycles: PhaseTable,
    /// Event ring and host stage timers (`Core::probes`), record-only.
    probes: Probes,
    /// Speculation-taint tracker ([`SstConfig::taint`]); `None` when the
    /// layer is disabled. Purely observational — see the config flag's
    /// byte-identity contract.
    taint: Option<Box<TaintState>>,
    /// Statistics.
    pub stats: SstStats,
    /// Host-side work of the deferred strand (unit tests only).
    #[cfg(test)]
    work: WorkCounters,
}

/// How much the deferred strand looked at to do what [`SstStats`] says it
/// did.
#[cfg(test)]
#[derive(Default)]
struct WorkCounters {
    /// Timed-list elements a replay pass compared against the clock.
    listed: u64,
    /// DQ entries a replay pass read.
    entries_read: u64,
    /// `try_commit` bodies run, and the events that asked for them.
    commit_runs: u64,
    commit_events: u64,
}

impl SstCore {
    /// Creates a core with index `id` starting at `program.entry`. The
    /// caller loads the program image into the core's memory port.
    ///
    /// # Panics
    ///
    /// Panics if a configuration without checkpoints could defer a miss
    /// (its `defer_threshold` is not `Cycle::MAX`).
    pub fn new(cfg: SstConfig, id: usize, program: &Program) -> SstCore {
        assert!(
            cfg.checkpoints > 0 || cfg.defer_threshold == Cycle::MAX,
            "a core without checkpoints must never defer"
        );
        SstCore {
            frontend: Frontend::new(cfg.frontend, program),
            dq: DeferredQueue::new(cfg.dq_entries),
            stb: StoreBuffer::new(cfg.stb_entries),
            taint: cfg.taint.then(|| Box::new(TaintState::new())),
            cfg,
            id,
            spec: RegImage::new(),
            epochs: VecDeque::new(),
            seq: 0,
            cycle: 0,
            halted: false,
            commits: Vec::new(),
            replay_check_at: Cycle::MAX,
            commit_due: false,
            drain_buf: Vec::new(),
            no_defer: false,
            last_progress: 0,
            phase_cycles: PhaseTable::new(),
            probes: Probes::default(),
            stats: SstStats::default(),
            #[cfg(test)]
            work: WorkCounters::default(),
        }
    }

    /// Read-only view of the speculative register image (tests).
    pub fn regs(&self) -> &RegImage {
        &self.spec
    }

    /// The frontend (prediction statistics).
    pub fn frontend(&mut self) -> &mut Frontend {
        &mut self.frontend
    }

    /// Read-only view of the deferred queue (tests).
    pub fn deferred_queue(&self) -> &DeferredQueue {
        &self.dq
    }

    /// Deferred-queue high-water mark.
    pub fn dq_high_water(&self) -> usize {
        self.dq.high_water
    }

    /// Store-buffer high-water mark.
    pub fn stb_high_water(&self) -> usize {
        self.stb.high_water
    }

    /// Store-buffer forwarding count.
    pub fn stb_forwards(&self) -> u64 {
        self.stb.forwards
    }

    /// The deferred strand's derived state against what it is derived
    /// from (`tick` asserts this every cycle in debug builds): the DQ's
    /// wake lists, timed list and cursor ([`DeferredQueue::consistent`]),
    /// each retained epoch's log reaching exactly to its youngest
    /// instruction (every push asserts its place, `restore_state` checks
    /// each record's), and no commit left pending between ticks.
    #[doc(hidden)]
    pub fn deferred_state_consistent(&self) -> bool {
        // Wrapping, so that a corrupt snapshot's numbers are refused, not
        // overflowed.
        let logged = |ep: &Epoch| {
            ep.ckpt.start_seq.wrapping_add(ep.log.len() as Seq)
                == ep.end_seq.unwrap_or(self.seq).wrapping_add(1)
        };
        self.dq.consistent()
            && !self.commit_due
            && (!self.cfg.retain_results || self.epochs.iter().all(logged))
    }

    // ---------------------------------------------------------------- helpers

    fn in_speculation(&self) -> bool {
        !self.epochs.is_empty()
    }

    /// The phase this core occupies at cycle `now`, classified purely
    /// from current state so that `tick` and `skip_to` agree: a vouched
    /// skip window is by definition state-preserving, so every cycle in
    /// it belongs to the phase observed at its start.
    fn phase_at(&self, now: Cycle) -> Phase {
        if self.epochs.is_empty() {
            Phase::Normal
        } else if !self.cfg.retain_results {
            Phase::Scout
        } else if self.dq.cursor().is_some()
            || now >= self.replay_check_at
            || self.ea_suspended()
        {
            Phase::Replay
        } else {
            Phase::Ea
        }
    }

    /// Credits `n` cycles starting at `now` to the current phase (and
    /// the trace's phase track, when tracing).
    fn account_phase(&mut self, now: Cycle, n: u64) {
        let ph = self.phase_at(now);
        self.phase_cycles.add(ph, n);
        self.probes.set_phase(ph, now);
    }

    // ------------------------------------------------------------ taint hooks
    //
    // All four hooks compile to a single `Option` discriminant test when
    // the layer is off, and none of them touches timing state when it is
    // on — the taint equivalence test holds runs byte-identical either
    // way.

    /// A speculative demand (load/store) access by `seq` touched `addr`'s
    /// line and fed the prefetcher's training path.
    fn taint_demand(&mut self, seq: Seq, addr: u64, mem: &MemBus) {
        if let Some(t) = self.taint.as_mut() {
            t.note_line(seq, mem.block_of(addr));
            t.note_training(seq);
        }
    }

    /// A speculative prefetch-kind access (store warm, prefetch inst) by
    /// `seq` touched `addr`'s line.
    fn taint_line(&mut self, seq: Seq, addr: u64, mem: &MemBus) {
        if let Some(t) = self.taint.as_mut() {
            t.note_line(seq, mem.block_of(addr));
        }
    }

    /// A speculative instruction `seq` updated the branch predictor.
    fn taint_predictor(&mut self, seq: Seq) {
        if let Some(t) = self.taint.as_mut() {
            t.note_predictor(seq);
        }
    }

    /// An architectural (non-speculative) access demanded `addr`'s line:
    /// if a squashed speculation had leaked it, the line is legitimate
    /// after all.
    fn taint_arch(&mut self, addr: u64, mem: &MemBus) {
        if let Some(t) = self.taint.as_mut() {
            t.note_architectural(mem.block_of(addr));
        }
    }

    /// The taint tracker, when enabled (tests and the leakage harness).
    pub fn taint_state(&self) -> Option<&TaintState> {
        self.taint.as_deref()
    }

    /// Records a finished instruction into the right commit stream.
    fn log_commit(&mut self, c: Commit) {
        match self.epochs.back_mut() {
            // A scout episode ends in rollback: nothing it logs is ever
            // read.
            Some(ep) if self.cfg.retain_results => {
                debug_assert_eq!(c.seq, ep.ckpt.start_seq + ep.log.len() as Seq);
                ep.log.push(c);
            }
            Some(_) => {}
            None => {
                // An architectural commit: the post-rollback progress
                // guard is satisfied.
                self.no_defer = false;
                self.commits.push(c);
            }
        }
        self.last_progress = self.cycle;
    }

    /// Index of the epoch owning sequence number `seq`.
    fn epoch_of(&self, seq: Seq) -> usize {
        self.epochs
            .iter()
            .position(|e| {
                seq >= e.ckpt.start_seq && e.end_seq.map_or(true, |end| seq <= end)
            })
            .expect("every speculative seq belongs to an epoch")
    }

    /// Like [`SstCore::log_commit`] but into the epoch owning `c.seq`
    /// (replayed instructions may belong to any live epoch), over the
    /// record that held the deferred instruction's place.
    fn log_commit_deferred(&mut self, c: Commit) {
        let idx = self.epoch_of(c.seq);
        let ep = &mut self.epochs[idx];
        ep.log[(c.seq - ep.ckpt.start_seq) as usize] = c;
        self.last_progress = self.cycle;
    }

    /// Delivers the result of the replayed entry at timed-list position
    /// `at`: to the entries waiting for it, the live speculative image, and
    /// every younger checkpoint image.
    fn merge_result(&mut self, at: usize, rd: Option<Reg>, value: u64, writer: Seq, ready: Cycle) {
        self.dq.deliver(at, value, ready);
        if let Some(rd) = rd {
            self.spec.merge(rd, value, writer, ready);
            // The writer-tag rule makes this precise: only images whose NT
            // owner matches `writer` (i.e. checkpoints younger than the
            // producing instruction) accept the merge.
            for ep in self.epochs.iter_mut() {
                ep.ckpt.image.merge(rd, value, writer, ready);
            }
        }
    }

    // ------------------------------------------------------------- commit

    /// Something that can let the oldest epoch commit has happened.
    #[inline]
    fn note_commit_event(&mut self) {
        self.commit_due = true;
        #[cfg(test)]
        {
            self.work.commit_events += 1;
        }
    }

    /// Commits every epoch, oldest first, that has no entry left in the DQ.
    /// `tick` calls this where `commit_due` says one may have become
    /// committable — not every cycle.
    fn try_commit(&mut self, now: Cycle, mem: &mut MemBus) {
        self.commit_due = false;
        if !self.cfg.retain_results {
            return; // scout epochs end in rollback, never commit
        }
        #[cfg(test)]
        {
            self.work.commit_runs += 1;
        }
        while let Some(oldest) = self.epochs.front() {
            let bound = oldest.end_seq.unwrap_or(self.seq);
            // Any DQ entry still owned by this epoch?
            if self.dq.first_seq().is_some_and(|s| s <= bound) {
                break;
            }
            let mut ep = self.epochs.pop_front().expect("checked front");
            debug_assert!(
                ep.log.iter().all(|c| c.at != Cycle::MAX),
                "every deferred instruction of a committing epoch has replayed"
            );
            let merged = ep.log.len() as u32;
            self.commits.append(&mut ep.log);
            self.probes.emit(Event::CkptCommit { at: now, merged });
            self.drain_buf.clear();
            self.stb.drain_through_into(bound, &mut self.drain_buf);
            for d in &self.drain_buf {
                mem.access(now, AccessKind::Store, d.addr);
                mem.write(d.addr, d.bytes, d.value);
            }
            self.stats.epochs_committed += 1;
            self.last_progress = now;
            self.replay_check_at = self.replay_check_at.min(now + 1);
            if let Some(t) = self.taint.as_mut() {
                // The epoch's writes are architectural now; its lines
                // also legitimize any earlier leak of the same blocks.
                t.commit_through(bound);
            }
            if self.epochs.is_empty() {
                debug_assert_eq!(self.spec.nt_count(), 0, "commit to normal leaves no NT");
                debug_assert!(
                    self.taint.as_ref().map_or(true, |t| t.pending_lines() == 0),
                    "commit to normal leaves no pending speculative taint"
                );
                self.replay_check_at = Cycle::MAX;
            }
        }
    }

    /// Opens an epoch at `pc` whose first instruction is sequence number
    /// `start`, under a fresh checkpoint of the speculative image, closing
    /// the open youngest epoch (if any) just before it. `cause_ready` is
    /// scout's rollback point.
    fn open_epoch(&mut self, pc: u64, start: Seq, now: Cycle, cause_ready: Cycle) {
        if let Some(open) = self.epochs.back_mut() {
            open.end_seq = Some(start - 1);
            self.note_commit_event();
        }
        self.epochs.push_back(Epoch {
            ckpt: Checkpoint::take(&self.spec, pc, start, now),
            end_seq: None,
            log: Vec::new(),
            cause_ready,
        });
        let live = self.epochs.len() as u32;
        self.probes.emit(Event::CkptTake { at: now, live });
    }

    // ------------------------------------------------------------ rollback

    /// Rolls back to the checkpoint of `epochs[idx]`, squashing that epoch
    /// and everything younger. `idx == 0` is a full rollback. `mem` is
    /// only read (non-mutating residency probes) and only when the taint
    /// layer is enabled.
    fn rollback_to(&mut self, idx: usize, now: Cycle, scout: bool, mem: &mut MemBus) {
        let ck = self.epochs[idx].ckpt.clone();
        self.probes.emit(Event::CkptRollback {
            at: now,
            scout,
            squashed: (self.seq + 1).saturating_sub(ck.start_seq) as u32,
        });
        // Structure-squash counts for the taint sweep, taken before the
        // squash destroys the evidence.
        let squash_counts = self.taint.is_some().then(|| SquashCounts {
            nt: self.spec.nt_owned_since(ck.start_seq) as u64,
            // What the squash below drops: the younger entries and every
            // held slot.
            dq: (self.dq.len() - self.dq.iter().take_while(|e| e.seq < ck.start_seq).count()) as u64,
            stb: self.stb.iter().filter(|e| e.seq >= ck.start_seq).count() as u64,
        });
        // Results of still-older epochs may not have merged into this
        // image yet (their entries are still deferred); those NT registers
        // remain correctly NT after the restore, still owned by live
        // older-epoch producers.
        debug_assert!(
            idx > 0 || ck.image.nt_count() == 0,
            "a full rollback restores a fully merged image"
        );
        self.spec = ck.image;
        self.seq = ck.start_seq - 1;
        self.dq.squash_from(ck.start_seq);
        self.stb.squash_from(ck.start_seq);
        self.epochs.truncate(idx);
        // The surviving youngest epoch is open again (its closing point
        // was the squashed checkpoint).
        if let Some(e) = self.epochs.back_mut() {
            e.end_seq = None;
        }
        self.replay_check_at = if self.dq.is_empty() {
            Cycle::MAX
        } else {
            now + 1
        };
        self.note_commit_event();
        self.frontend.redirect(now + 1, ck.pc);
        if let (Some(t), Some(counts)) = (self.taint.as_mut(), squash_counts) {
            t.sweep(ck.start_seq, now, scout, mem, counts);
        }
        if scout {
            self.stats.scout_rollbacks += 1;
        } else {
            self.stats.fail_branch += 1;
        }
        self.no_defer = true;
        self.last_progress = now;
    }

    // ------------------------------------------------------------- replay

    /// Runs the deferred strand for this cycle: an in-order pass over the
    /// DQ's timed list — the entries whose inputs are all known — matching
    /// ROCK's sequential replay. An entry still waiting for a producer is
    /// not on the list and costs nothing, like the ready-bit scan it
    /// stands for. An executed entry consumes an issue slot whether it
    /// completes or re-defers; one whose inputs land within a
    /// bypass-distance window stalls the strand in place (back-to-back
    /// dependent replay, as real pipelines bypass) and consumes one too;
    /// anything further off is passed over for free, as in ROCK, and the
    /// next pass meets it again. Returns the issue slots consumed.
    fn replay(
        &mut self,
        now: Cycle,
        mem: &mut MemBus,
        slots: usize,
        mem_ops: &mut usize,
    ) -> usize {
        let stall_window: Cycle = self.cfg.bypass_stall_window;
        // Resume the pass in progress, or start one at the oldest listed
        // entry. Entries of any live epoch may replay as soon as their
        // inputs arrive (commit order is still enforced per epoch by
        // try_commit).
        let mut at = self.dq.cursor().unwrap_or(0);
        let mut used = 0;
        // Trace-only tallies for the pass-completion marker.
        let mut pass_exec: u32 = 0;
        let mut pass_stuck: u32 = 0;
        while used < slots {
            let Some(when) = self.dq.when_at(at) else {
                // Pass complete: sleep until the earliest knowable
                // enabling event of any remaining entry.
                self.probes.emit(Event::ReplayPass {
                    at: now,
                    executed: pass_exec,
                    redeferred: pass_stuck,
                });
                self.dq.set_cursor(None);
                self.replay_check_at = self.dq.pass_end_wake(now);
                return used;
            };
            #[cfg(test)]
            {
                self.work.listed += 1;
            }
            if when > now + stall_window {
                at += 1;
                continue;
            }
            used += 1;
            if when > now {
                break; // inputs land imminently: stall here (bypass)
            }
            #[cfg(test)]
            {
                self.work.entries_read += 1;
            }
            let e = *self.dq.entry_at(at);
            self.stats.replay_issued += 1;
            match self.replay_one(&e, at, now, mem, mem_ops) {
                ReplayOutcome::Done => {
                    if self.dq.first_seq() == Some(e.seq) {
                        self.note_commit_event();
                    }
                    // `at` then names the entry after the removed one.
                    self.dq.remove_at(at);
                    self.stats.replayed += 1;
                    self.last_progress = now;
                    pass_exec += 1;
                }
                ReplayOutcome::Stuck => {
                    // Re-deferred (missed again) or ordering: move past it.
                    pass_stuck += 1;
                    at += 1;
                }
                ReplayOutcome::Fail => {
                    let ep_idx = self.epoch_of(e.seq);
                    self.rollback_to(ep_idx, now, false, mem);
                    return used;
                }
                ReplayOutcome::PortFull => break,
            }
        }

        self.dq.set_cursor(Some(at));
        self.replay_check_at = now + 1; // pass still in progress
        used
    }

    /// Executes `e`, the entry at timed-list position `at`, whose operands
    /// have all been captured or delivered.
    fn replay_one(
        &mut self,
        e: &DqEntry,
        at: usize,
        now: Cycle,
        mem: &mut MemBus,
        mem_ops: &mut usize,
    ) -> ReplayOutcome {
        let [s1, s2] = e.captured.map(|v| v.unwrap_or(0));
        match e.inst {
            Inst::Load {
                width, signed, rd, ..
            } => {
                let addr = mem_addr(e.inst, s1);
                let bytes = width.bytes();
                let Some(raw) = self.stb.read_overlay(e.seq, addr, bytes, mem.mem()) else {
                    // An older store is still unresolved. The load is
                    // input-ready but can make no progress until some
                    // store resolves, so mark it blocked: the pass-done
                    // wake skips it instead of re-polling every cycle.
                    self.dq.mark_blocked(at);
                    return ReplayOutcome::Stuck;
                };
                let ready = if e.data_ready_at.is_some() {
                    // A fill was already initiated for this load (at defer
                    // time, or at an earlier replay attempt) and has now
                    // returned: consume it via fill forwarding — no new
                    // cache access, so pathological conflict evictions
                    // cannot livelock the replay (the entry's `when` is gated
                    // on the arrival cycle).
                    now + 2
                } else {
                    // First access for this load (its address was unknown
                    // at defer time).
                    if *mem_ops >= self.cfg.dcache_ports {
                        return ReplayOutcome::PortFull;
                    }
                    *mem_ops += 1;
                    let out = mem.access_pc(now, AccessKind::Load, addr, e.pc);
                    self.taint_demand(e.seq, addr, mem);
                    if out.level == sst_mem::HitLevel::Mem
                        && out.latency(now) > self.cfg.defer_threshold
                    {
                        // Missed off-chip: stay deferred until this fill
                        // returns.
                        self.dq.set_data_ready(at, out.ready_at);
                        self.stats.redeferred += 1;
                        self.probes.emit(Event::Redefer { at: now });
                        return ReplayOutcome::Stuck;
                    }
                    out.ready_at.max(now + 1)
                };
                let value = extend_load(width, signed, raw);
                self.merge_result(
                    at,
                    if rd.is_zero() { None } else { Some(rd) },
                    value,
                    e.seq,
                    ready,
                );
                self.log_commit_deferred(Commit {
                    seq: e.seq,
                    pc: e.pc,
                    inst: e.inst,
                    reg_write: if rd.is_zero() { None } else { Some((rd, value)) },
                    store: None,
                    at: now,
                });
                ReplayOutcome::Done
            }
            Inst::Store { width, .. } => {
                let addr = mem_addr(e.inst, s1);
                let value = s2;
                self.stb.resolve(e.seq, addr, value);
                // A resolved store may unstick ordering-blocked loads
                // (they are all younger, so this pass re-examines them).
                self.dq.clear_blocked();
                // Warm the line for the eventual commit-time write.
                mem.access_pc(now, AccessKind::Prefetch, addr, e.pc);
                self.taint_line(e.seq, addr, mem);
                self.log_commit_deferred(Commit {
                    seq: e.seq,
                    pc: e.pc,
                    inst: e.inst,
                    reg_write: None,
                    store: Some((addr, width.bytes(), value)),
                    at: now,
                });
                ReplayOutcome::Done
            }
            Inst::Prefetch { .. } => {
                if *mem_ops >= self.cfg.dcache_ports {
                    return ReplayOutcome::PortFull;
                }
                *mem_ops += 1;
                let addr = mem_addr(e.inst, s1);
                mem.access_pc(now, AccessKind::Prefetch, addr, e.pc);
                self.taint_line(e.seq, addr, mem);
                self.log_commit_deferred(Commit {
                    seq: e.seq,
                    pc: e.pc,
                    inst: e.inst,
                    reg_write: None,
                    store: None,
                    at: now,
                });
                ReplayOutcome::Done
            }
            inst => {
                let out = execute(inst, s1, s2, e.pc);
                if inst.is_control() {
                    let predicted = e.pred_next_pc.expect("deferred control records its path");
                    self.frontend.resolve(e.pc, inst, out.taken, out.next_pc);
                    self.taint_predictor(e.seq);
                    if out.next_pc != predicted {
                        // An unpredicted indirect that blocked fetch is a
                        // late resolution, not a misprediction: nothing ran
                        // past it.
                        let blocked_fetch =
                            self.frontend.waiting_indirect() && self.seq == e.seq;
                        if !blocked_fetch {
                            // Typed successor of the old SST_TRACE_FAILS
                            // eprintln: the failing control transfer is an
                            // event, inspectable in the exported trace.
                            self.probes.emit(Event::ReplayFail { at: now, seq: e.seq });
                            return ReplayOutcome::Fail;
                        }
                        self.frontend.redirect(now + 1, out.next_pc);
                    }
                }
                let ready = now + self.cfg.latency.of(inst);
                let mut reg_write = None;
                // Without a destination (or with x0) nothing waits for it.
                if let (Some(v), Some(rd)) = (out.value, inst.dest()) {
                    self.merge_result(at, Some(rd), v, e.seq, ready);
                    reg_write = Some((rd, v));
                }
                self.log_commit_deferred(Commit {
                    seq: e.seq,
                    pc: e.pc,
                    inst,
                    reg_write,
                    store: None,
                    at: now,
                });
                ReplayOutcome::Done
            }
        }
    }

    // -------------------------------------------------------- speculation mgmt

    /// Scout's policy: the live episode rolls back when its originating
    /// miss returns. `None` outside a scout episode.
    #[inline]
    fn scout_rollback_at(&self) -> Option<Cycle> {
        match self.epochs.front() {
            Some(oldest) if !self.cfg.retain_results => Some(oldest.cause_ready),
            _ => None,
        }
    }

    /// The PC a new epoch starts at if the open oldest epoch can be closed
    /// into a free checkpoint now (SST); `None` if there is no open epoch,
    /// no free checkpoint (EA), or no known continuation.
    #[inline]
    fn closing_pc(&self) -> Option<u64> {
        let open = self.epochs.front().is_some_and(|e| e.end_seq.is_none());
        if open && self.epochs.len() < self.cfg.checkpoints {
            self.frontend.resume_pc()
        } else {
            None
        }
    }

    /// `true` when execute-ahead suspends its ahead strand on blocked
    /// deferred work: a replay pass stalled on an ordering-blocked load
    /// (input-ready, waiting on an unresolved older store) under an open
    /// oldest epoch that cannot be closed. With a single checkpoint the
    /// ahead strand shares the pipeline with the stalled deferred strand
    /// and suspends with it — exactly the execute-ahead weakness the
    /// second checkpoint (SST) removes.
    #[inline]
    fn ea_suspended(&self) -> bool {
        self.cfg.retain_results
            && self.dq.any_blocked()
            && self.epochs.front().is_some_and(|e| e.end_seq.is_none())
            && self.closing_pc().is_none()
    }

    /// Decides what the deferred strand does this cycle. Returns the issue
    /// slots left for the ahead strand.
    fn manage_speculation(&mut self, now: Cycle, mem: &mut MemBus, mem_ops: &mut usize) -> usize {
        let width = self.cfg.width;
        if self.epochs.is_empty() {
            return width;
        }
        if let Some(at) = self.scout_rollback_at() {
            // Scout: run until the originating miss returns, then restart.
            if now >= at {
                self.rollback_to(0, now, true, mem);
            }
            return width;
        }
        let work = now >= self.replay_check_at;

        // Ordering-blocked entries don't schedule replay passes (nothing
        // can progress until the blocking store resolves), but they are
        // pending deferred work all the same: SST closes the open epoch
        // promptly so the deferred strand can drain it concurrently with
        // the ahead strand instead of waiting for the next data return.
        if work || self.dq.any_blocked() {
            // The (single) open epoch has replayable work. With a free
            // checkpoint we close it and keep the ahead strand running
            // (SST); otherwise the ahead strand suspends (EA).
            if let Some(pc) = self.closing_pc() {
                self.open_epoch(pc, self.seq + 1, now, 0);
            }
        }

        if self.epochs.front().is_some_and(|e| e.end_seq.is_some()) {
            // SST: deferred strand replays the closed epoch; ahead keeps
            // whatever issue slots remain.
            if work {
                return width.saturating_sub(self.replay(now, mem, width, mem_ops));
            }
            return width;
        }

        // EA: replay the open epoch with the ahead strand suspended.
        if (work && self.replay(now, mem, width, mem_ops) > 0) || self.ea_suspended() {
            AheadStall::EaReplay.charge(&mut self.stats, 1);
            return 0;
        }
        width
    }

    // ------------------------------------------------------------- ahead strand

    /// Defers `inst`: marks its destination NT, pushes the store-buffer
    /// entry a deferred store needs for forwarding, and takes its DQ slot,
    /// attributing the deferral to `cause` in the taxonomy counters. With
    /// results retained the slot holds the record replay executes from.
    /// Scout's policy is "discard" — every episode ends in a rollback,
    /// nobody reads a record — so it only holds the slot: same occupancy,
    /// same `stall_dq_full` cycles. Caller has verified capacity.
    fn defer(&mut self, f: &FetchedInst, now: Cycle, data_ready_at: Option<Cycle>, cause: DeferCause) {
        let inst = f.inst;
        let seq = self.seq;
        let sources = inst.sources();
        let captured = sources.map(|s| match s {
            Some(r) if self.spec.is_nt(r) => None,
            Some(r) => Some(self.spec.value(r)),
            None => Some(0),
        });

        if let Inst::Store { width, .. } = inst {
            let addr = captured[0].map(|b| mem_addr(inst, b));
            self.stb.push(StoreEntry {
                seq,
                addr,
                bytes: width.bytes(),
                value: captured[1],
            });
        }

        if self.cfg.retain_results {
            let producers = sources.map(|s| {
                s.filter(|&r| self.spec.is_nt(r))
                    .map(|r| self.spec.slot(r).writer)
            });
            let (predicted_taken, pred_next_pc) = if inst.is_control() {
                (Some(f.pred_taken), Some(f.pred_next_pc))
            } else {
                (None, None)
            };
            self.dq.push(DqEntry {
                seq,
                pc: f.pc,
                inst,
                captured,
                producers,
                predicted_taken,
                pred_next_pc,
                data_ready_at,
            });
            // Holds the instruction's place in its epoch's log until replay.
            let ep = self.epochs.back_mut().expect("deferral implies an epoch");
            debug_assert_eq!(seq, ep.ckpt.start_seq + ep.log.len() as Seq);
            ep.log.push(Commit {
                seq,
                pc: f.pc,
                inst,
                reg_write: None,
                store: None,
                at: Cycle::MAX,
            });
        } else {
            self.dq.hold();
        }
        if let Some(d) = data_ready_at {
            self.replay_check_at = self.replay_check_at.min(d);
        }
        if let Some(rd) = inst.dest() {
            self.spec.mark_nt(rd, seq);
        }
        self.stats.deferred += 1;
        match cause {
            DeferCause::NtSource => self.stats.defer_nt_source += 1,
            DeferCause::StoreOrder => self.stats.defer_store_order += 1,
            DeferCause::ForwardMiss => self.stats.defer_forward_miss += 1,
            DeferCause::CacheMiss => self.stats.defer_cache_miss += 1,
        }
        self.probes.emit(Event::Defer { at: now, cause });
    }

    /// The ahead strand's stall decision for its head instruction at cycle
    /// `now`: the head and whether it defers on an NT source, or why it
    /// cannot issue. `ahead` calls it per slot to act;
    /// [`Core::next_event_cycle`] and [`Core::skip_to`] call it to vouch
    /// an idle window and to charge it. Checks deeper in `ahead` (the load
    /// path's DQ and port limits) are outside it: a head that reaches them
    /// counts as able to act. Always inlined: out of line, its result
    /// travels through memory on every issue slot of the hot loop.
    #[inline(always)]
    fn head_gate(&self, now: Cycle) -> Result<(FetchedInst, bool), AheadStall> {
        let Some(&f) = self.frontend.peek() else {
            return Err(AheadStall::Frontend);
        };
        let inst = f.inst;
        // A halt cannot commit while speculation is outstanding.
        if inst == Inst::Halt {
            return if self.in_speculation() {
                Err(AheadStall::HaltWait)
            } else {
                Ok((f, false))
            };
        }
        let sources = inst.sources();
        // Non-NT sources must be timing-ready (in-order issue).
        let ready_needed = sources
            .iter()
            .flatten()
            .filter(|r| !self.spec.is_nt(**r))
            .map(|r| self.spec.ready_at(*r))
            .max()
            .unwrap_or(0);
        if ready_needed > now {
            return Err(AheadStall::Operand(ready_needed));
        }
        if self.spec.any_nt(sources) {
            // NT source: defer (possible only inside speculation).
            debug_assert!(self.in_speculation(), "NT bits imply an active epoch");
            if self.cfg.confidence_gate
                && self.cfg.retain_results
                && inst.is_control()
                && !f.pred_confident
            {
                // Confidence gate: don't speculate past a shaky deferred
                // branch; wait for its inputs instead.
                return Err(AheadStall::LowConf);
            }
            if self.dq.is_full() {
                return Err(AheadStall::DqFull);
            }
            if inst.is_store() && self.stb.is_full() {
                return Err(AheadStall::StbFull);
            }
            return Ok((f, true));
        }
        if inst.is_store() && self.in_speculation() && self.stb.is_full() {
            return Err(AheadStall::StbFull);
        }
        Ok((f, false))
    }

    /// Why a tick at `now` would leave the ahead strand idle — EA's
    /// suspension, or its head's gate — or `None` if it could act.
    #[inline]
    fn ahead_stall(&self, now: Cycle) -> Option<AheadStall> {
        if self.ea_suspended() {
            Some(AheadStall::EaReplay)
        } else {
            self.head_gate(now).err()
        }
    }

    /// Consumes the head `head_gate` passed and gives it the next sequence
    /// number, which it returns.
    #[inline]
    fn issue_head(&mut self) -> Seq {
        self.frontend.pop();
        self.seq += 1;
        self.stats.ahead_issued += 1;
        self.seq
    }

    /// Logs the instruction `issue_head` just consumed as finished at
    /// `now`.
    #[inline]
    fn log_issued(
        &mut self,
        f: &FetchedInst,
        now: Cycle,
        reg_write: Option<(Reg, u64)>,
        store: Option<(u64, u64, u64)>,
    ) {
        self.log_commit(Commit {
            seq: self.seq,
            pc: f.pc,
            inst: f.inst,
            reg_write,
            store,
            at: now,
        });
    }

    /// Issues ahead-strand instructions. Returns after using `slots` slots
    /// or hitting a stall.
    fn ahead(&mut self, now: Cycle, mem: &mut MemBus, slots: usize, mem_ops: &mut usize) {
        for slot in 0..slots {
            let (f, defers) = match self.head_gate(now) {
                Ok(head) => head,
                Err(stall) => {
                    // An empty queue or an unready operand counts only a
                    // fully idle cycle; the others count on any slot.
                    let idle_only = matches!(stall, AheadStall::Frontend | AheadStall::Operand(_));
                    if slot == 0 || !idle_only {
                        stall.charge(&mut self.stats, 1);
                    }
                    break;
                }
            };
            let inst = f.inst;

            if inst == Inst::Halt {
                self.frontend.pop();
                self.seq += 1;
                self.commits.push(Commit {
                    seq: self.seq,
                    pc: f.pc,
                    inst,
                    reg_write: None,
                    store: None,
                    at: now,
                });
                self.halted = true;
                self.last_progress = now;
                break;
            }

            if defers {
                self.issue_head();
                self.defer(&f, now, None, DeferCause::NtSource);
                continue;
            }
            let sources = inst.sources();

            // All sources available: execute (or latency-defer a miss).
            match inst {
                Inst::Load {
                    width, signed, rd, ..
                } => {
                    let base = sources[0].map_or(0, |r| self.spec.value(r));
                    let addr = mem_addr(inst, base);
                    let bytes = width.bytes();
                    let my_seq = self.seq + 1;

                    if self.in_speculation() && self.stb.unknown_addr_before(my_seq) {
                        // Conservative ordering: an older store's address is
                        // unknown, so this load defers.
                        if self.dq.is_full() {
                            self.stats.stall_dq_full += 1;
                            break;
                        }
                        self.issue_head();
                        // defer() marks the destination NT.
                        self.defer(&f, now, None, DeferCause::StoreOrder);
                        continue;
                    }

                    match self.stb.forward(my_seq, addr, bytes) {
                        ForwardResult::Forward(raw) => {
                            let seq = self.issue_head();
                            let value = extend_load(width, signed, raw);
                            self.spec.write(rd, value, seq, now + 2);
                            let reg_write = (!rd.is_zero()).then_some((rd, value));
                            self.log_issued(&f, now, reg_write, None);
                        }
                        ForwardResult::NotThere { .. } | ForwardResult::MustWait => {
                            if self.dq.is_full() {
                                self.stats.stall_dq_full += 1;
                                break;
                            }
                            self.issue_head();
                            self.defer(&f, now, None, DeferCause::ForwardMiss);
                        }
                        ForwardResult::NoMatch => {
                            if *mem_ops >= self.cfg.dcache_ports {
                                self.stats.stall_port += 1;
                                break;
                            }
                            *mem_ops += 1;
                            let out = mem.access_pc(now, AccessKind::Load, addr, f.pc);
                            // ROCK's defer trigger is the L2-miss *event*:
                            // off-chip accesses defer, on-chip hits (even
                            // queued ones) are waited out. The latency
                            // guard skips deferral for merged misses whose
                            // data is about to arrive anyway.
                            let defer_miss = out.level == sst_mem::HitLevel::Mem
                                && out.latency(now) > self.cfg.defer_threshold
                                && (!self.no_defer || self.in_speculation());
                            // The access above already touched the line,
                            // whether or not the load issues this cycle:
                            // speculative if an epoch is (or is about to
                            // be) live, architectural otherwise.
                            if self.in_speculation() || defer_miss {
                                self.taint_demand(my_seq, addr, mem);
                            } else {
                                self.taint_arch(addr, mem);
                            }
                            if defer_miss {
                                // The paper's trigger: a long-latency miss.
                                if self.dq.is_full() {
                                    self.stats.stall_dq_full += 1;
                                    break;
                                }
                                if !self.in_speculation() {
                                    self.open_epoch(f.pc, my_seq, now, out.ready_at);
                                    self.stats.episodes += 1;
                                } else {
                                    self.stats.overlapped_misses += 1;
                                    // Eager checkpointing: anchor a new
                                    // epoch at each deferrable miss while a
                                    // checkpoint is free. This bounds the
                                    // scope of a deferred-branch rollback
                                    // to one miss region instead of the
                                    // whole speculation episode.
                                    if self.cfg.retain_results
                                        && self.epochs.len() < self.cfg.checkpoints
                                    {
                                        self.open_epoch(f.pc, my_seq, now, out.ready_at);
                                    }
                                }
                                self.issue_head();
                                self.defer(&f, now, Some(out.ready_at), DeferCause::CacheMiss);
                            } else {
                                let seq = self.issue_head();
                                let raw = mem.read(addr, bytes);
                                let value = extend_load(width, signed, raw);
                                self.spec.write(rd, value, seq, out.ready_at);
                                let reg_write = (!rd.is_zero()).then_some((rd, value));
                                self.log_issued(&f, now, reg_write, None);
                            }
                        }
                    }
                }
                Inst::Store { width, .. } => {
                    let base = sources[0].map_or(0, |r| self.spec.value(r));
                    let data = sources[1].map_or(0, |r| self.spec.value(r));
                    let addr = mem_addr(inst, base);
                    let bytes = width.bytes();
                    if self.in_speculation() {
                        let seq = self.issue_head();
                        self.stb.push(StoreEntry {
                            seq,
                            addr: Some(addr),
                            bytes,
                            value: Some(data),
                        });
                        // Warm the line ahead of the commit-time write.
                        mem.access_pc(now, AccessKind::Prefetch, addr, f.pc);
                        self.taint_line(seq, addr, mem);
                    } else {
                        if *mem_ops >= self.cfg.dcache_ports {
                            self.stats.stall_port += 1;
                            break;
                        }
                        *mem_ops += 1;
                        self.issue_head();
                        mem.access_pc(now, AccessKind::Store, addr, f.pc);
                        self.taint_arch(addr, mem);
                        mem.write(addr, bytes, data);
                    }
                    self.log_issued(&f, now, None, Some((addr, bytes, data)));
                }
                Inst::Prefetch { .. } => {
                    if *mem_ops >= self.cfg.dcache_ports {
                        self.stats.stall_port += 1;
                        break;
                    }
                    *mem_ops += 1;
                    let base = sources[0].map_or(0, |r| self.spec.value(r));
                    let addr = mem_addr(inst, base);
                    let seq = self.issue_head();
                    mem.access_pc(now, AccessKind::Prefetch, addr, f.pc);
                    if self.in_speculation() {
                        self.taint_line(seq, addr, mem);
                    } else {
                        self.taint_arch(addr, mem);
                    }
                    self.log_issued(&f, now, None, None);
                }
                _ => {
                    let s1 = sources[0].map_or(0, |r| self.spec.value(r));
                    let s2 = sources[1].map_or(0, |r| self.spec.value(r));
                    let seq = self.issue_head();
                    let out = execute(inst, s1, s2, f.pc);
                    let mut reg_write = None;
                    if let (Some(v), Some(rd)) = (out.value, inst.dest()) {
                        self.spec.write(rd, v, seq, now + self.cfg.latency.of(inst));
                        reg_write = Some((rd, v));
                    }
                    self.log_issued(&f, now, reg_write, None);
                    if inst.is_control() {
                        self.frontend.resolve(f.pc, inst, out.taken, out.next_pc);
                        if self.in_speculation() {
                            self.taint_predictor(seq);
                        }
                        if out.next_pc != f.pred_next_pc {
                            self.stats.mispredicts += 1;
                            self.frontend.redirect(now + 1, out.next_pc);
                            break;
                        }
                    }
                }
            }
            self.last_progress = now;
        }
    }
}

impl Core for SstCore {
    fn tick(&mut self, mem: &mut MemBus) {
        let now = self.cycle;
        self.cycle += 1;
        self.account_phase(now, 1);
        if self.halted {
            return;
        }
        assert!(
            now.saturating_sub(self.last_progress) < 2_000_000,
            "SST core wedged at cycle {now} (seq {}, dq {}, epochs {}, stb {})",
            self.seq,
            self.dq.len(),
            self.epochs.len(),
            self.stb.len()
        );

        let t0 = self.probes.start();
        self.frontend.tick(now, mem);
        self.probes.stop(Stage::Fetch, t0);

        let t0 = self.probes.start();
        let mut mem_ops = 0usize;
        let ahead_slots = self.manage_speculation(now, mem, &mut mem_ops);
        if self.commit_due {
            self.try_commit(now, mem);
        }
        self.probes.stop(Stage::Replay, t0);

        let t0 = self.probes.start();
        if ahead_slots > 0 && !self.halted {
            self.ahead(now, mem, ahead_slots, &mut mem_ops);
        }
        if self.commit_due {
            self.try_commit(now, mem);
        }
        self.probes.stop(Stage::Issue, t0);
        debug_assert!(self.deferred_state_consistent(), "cycle {now}");

        self.probes.sample_occupancy(now, self.dq.len() as u32, self.stb.len() as u32);
    }

    #[inline]
    fn cycle(&self) -> Cycle {
        self.cycle
    }

    fn retired(&self) -> u64 {
        self.seq
    }

    #[inline]
    fn halted(&self) -> bool {
        self.halted
    }

    #[inline]
    fn drain_commits_into(&mut self, out: &mut Vec<Commit>) {
        drain_commits(&mut self.commits, out);
    }

    fn next_event_cycle(&self) -> Cycle {
        let now = self.cycle;
        if self.halted {
            return Cycle::MAX;
        }
        let fetch = self.frontend.next_fetch_cycle(now);
        if fetch <= now {
            // Fetch can proceed this cycle, so no window can be vouched;
            // every other term is >= now, making the min `now`. Bailing
            // here keeps the (pricier) gate evaluation off the
            // per-tick path of active phases.
            return now;
        }
        // Speculation-policy wake: a scout episode rolls back when its
        // originating miss returns; SST/EA epochs do replay work (and
        // close/commit/rollback) at `replay_check_at` — the next DQ
        // data-ready arrival or entry-ready time. Blocked deferred work
        // under an open oldest epoch that can be closed into a free
        // checkpoint closes it on the very next tick — a state change no
        // window may jump. Without a free checkpoint EA suspends its ahead
        // strand, and the only per-cycle effect is the stall counter that
        // `skip_to` charges in bulk. With the oldest epoch closed, blocked
        // entries are inert until the next replay event.
        let spec = if let Some(at) = self.scout_rollback_at() {
            at
        } else if self.epochs.is_empty() {
            Cycle::MAX
        } else if self.dq.any_blocked() && self.closing_pc().is_some() {
            now
        } else {
            self.replay_check_at
        };
        if spec <= now {
            return now;
        }
        let ahead = match self.ahead_stall(now) {
            None => now,
            Some(AheadStall::Operand(ready)) => ready,
            // Released only by fetch, replay, commit or rollback: their
            // own terms.
            Some(_) => Cycle::MAX,
        };
        // The wedge watchdog must still fire at the exact cycle it would
        // in an unskipped run.
        let watchdog = self.last_progress + 2_000_000;
        fetch.min(spec).min(ahead).min(watchdog)
    }

    fn skip_to(&mut self, target: Cycle) {
        let from = self.cycle;
        debug_assert!(from < target && target <= self.next_event_cycle());
        let n = target - from;
        // The whole window was vouched state-preserving, so the phase at
        // its first cycle holds across it.
        self.account_phase(from, n);
        self.frontend.note_skipped(from, target);
        // Each skipped cycle would have left the ahead strand idle for the
        // same reason, and done nothing else.
        match self.ahead_stall(from) {
            Some(stall) => stall.charge(&mut self.stats, n),
            None => debug_assert!(false, "skip_to with an issueable head"),
        }
        self.cycle = target;
    }

    fn gate_to(&mut self, target: Cycle) {
        if target <= self.cycle {
            return;
        }
        let from = self.cycle;
        // Gated windows are dead time by construction, not pipeline
        // cycles: credit them to their own row so the table still sums
        // to the total cycle count.
        self.phase_cycles.add(Phase::Gated, target - from);
        self.probes.set_phase(Phase::Gated, from);
        self.cycle = target;
        // Gated time is intentional idleness, not a wedge: restart the
        // watchdog window at the resume cycle.
        self.last_progress = target;
    }

    fn core_id(&self) -> usize {
        self.id
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let s = &self.stats;
        let bu = self.frontend.branch_unit_ref();
        vec![
            ("episodes", s.episodes),
            ("epochs_committed", s.epochs_committed),
            ("deferred", s.deferred),
            ("defer_nt_source", s.defer_nt_source),
            ("defer_store_order", s.defer_store_order),
            ("defer_forward_miss", s.defer_forward_miss),
            ("defer_cache_miss", s.defer_cache_miss),
            ("replayed", s.replayed),
            ("redeferred", s.redeferred),
            ("fail_branch", s.fail_branch),
            ("scout_rollbacks", s.scout_rollbacks),
            ("overlapped_misses", s.overlapped_misses),
            ("stall_frontend", s.stall_frontend),
            ("stall_operand", s.stall_operand),
            ("stall_dq_full", s.stall_dq_full),
            ("stall_stb_full", s.stall_stb_full),
            ("stall_ea_replay", s.stall_ea_replay),
            ("stall_halt_wait", s.stall_halt_wait),
            ("stall_port", s.stall_port),
            ("stall_lowconf", s.stall_lowconf),
            ("ahead_issued", s.ahead_issued),
            ("replay_issued", s.replay_issued),
            ("mispredicts", s.mispredicts),
            ("stb_forwards", self.stb_forwards()),
            ("dq_high_water", self.dq_high_water() as u64),
            ("stb_high_water", self.stb_high_water() as u64),
            ("cond_predictions", bu.cond_predictions),
            ("cond_mispredictions", bu.cond_mispredictions),
        ]
    }

    fn leakage(&self) -> Option<&LeakageSummary> {
        self.taint.as_deref().map(|t| &t.summary)
    }

    fn phases(&self) -> PhaseTable {
        self.phase_cycles
    }

    fn probes(&mut self) -> &mut Probes {
        &mut self.probes
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.put_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.take_state(r)
    }

    fn warm_boot(&mut self, regs: &[u64; NUM_REGS], pc: u64) {
        // Squash every trace of speculation: the sampled-simulation driver
        // teleports the core to an architectural point the functional model
        // reached, so nothing in flight can be legitimate.
        self.epochs.clear();
        self.dq.clear();
        self.stb.squash_from(0);
        self.replay_check_at = Cycle::MAX;
        self.no_defer = false;
        self.halted = false;
        let mut image = RegImage::new();
        for (i, &v) in regs.iter().enumerate() {
            if let Some(reg) = Reg::from_index(i as u8) {
                image.write(reg, v, 0, 0);
            }
        }
        self.spec = image;
        self.frontend.warm_reset(pc);
        // The teleport is intentional idleness, not a wedge: restart the
        // watchdog window, or a core parked across several skipped sampling
        // periods would trip the 2M-cycle progress assertion.
        self.last_progress = self.cycle;
    }

    fn warm_predictor(&mut self, pc: u64, inst: Inst, taken: bool, next_pc: u64) {
        self.frontend.resolve(pc, inst, taken, next_pc);
    }
}

sst_isa::snap_record!(state SstCore "SSTC" {
    cycle,
    seq,
    halted,
    no_defer,
    last_progress,
    replay_check_at,
    frontend,
    spec,
    epochs,
    dq,
    stb,
    commits,
    phase_cycles as [u64; Phase::ALL.len()],
    stats,
} then SstCore::restored);

impl SstCore {
    /// The snapshot's epochs fit the checkpoints, each log holds its
    /// epoch's instructions in sequence order (replay indexes it by
    /// sequence number) and covers them ([`SstCore::deferred_state_consistent`]).
    fn restored(&mut self) -> Result<(), SnapError> {
        SnapError::check_bound("epoch count", self.epochs.len(), self.cfg.checkpoints)?;
        for ep in &self.epochs {
            let start = ep.ckpt.start_seq;
            if let Some(c) = ep.log.iter().zip(0..).find(|&(c, i)| c.seq.wrapping_sub(start) != i) {
                return Err(SnapError::Corrupt(format!(
                    "epoch log out of program order at seq {}",
                    c.0.seq
                )));
            }
        }
        self.commit_due = false;
        self.drain_buf.clear();
        if !self.deferred_state_consistent() {
            return Err(SnapError::Corrupt(
                "epoch logs do not cover their epochs' instructions".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
