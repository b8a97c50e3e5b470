//! Fetch + decode frontend with branch prediction.
//!
//! Every core model uses this same frontend, so fetch bandwidth and
//! prediction quality are identical across the SST study's comparisons.
//! The frontend fetches up to `width` instructions per cycle from the L1I
//! (stalling on I-cache misses), decodes them, predicts control flow, and
//! queues [`FetchedInst`]s for the core to consume.

use std::collections::VecDeque;
use std::sync::Arc;

use sst_branch::{BranchKind, BranchUnit, Prediction, PredictorKind};
use sst_isa::{decode, Inst, Program, Reg, SnapError, INST_BYTES};
use sst_mem::{AccessKind, Cycle, MemBus};

/// Frontend configuration.
#[derive(Clone, Copy, Debug)]
pub struct FrontendConfig {
    /// Instructions fetched per cycle.
    pub width: usize,
    /// Decode-queue depth.
    pub queue_depth: usize,
    /// Direction predictor.
    pub predictor: PredictorKind,
    /// BTB entries (power of two).
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Bubble cycles charged on every redirect (pipeline refill).
    pub redirect_penalty: Cycle,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            width: 2,
            queue_depth: 16,
            predictor: PredictorKind::Gshare { bits: 13 },
            btb_entries: 1024,
            ras_depth: 8,
            redirect_penalty: 6,
        }
    }
}

/// A fetched, decoded, direction-predicted instruction.
#[derive(Clone, Copy, Debug)]
pub struct FetchedInst {
    /// PC of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// Predicted direction (always `true` for unconditional control,
    /// meaningless for non-control).
    pub pred_taken: bool,
    /// The PC fetch continued at after this instruction.
    pub pred_next_pc: u64,
    /// Direction-predictor confidence at fetch time (`true` for
    /// non-control and unconditional instructions).
    pub pred_confident: bool,
}

sst_isa::snap_record!(FetchedInst {
    pc,
    inst,
    pred_taken,
    pred_next_pc,
    pred_confident
});

/// Classifies a control instruction for the branch unit.
#[inline]
pub(crate) fn branch_kind(inst: Inst) -> Option<BranchKind> {
    match inst {
        Inst::Branch { .. } => Some(BranchKind::Conditional),
        Inst::Jal { rd, .. } => {
            if rd == Reg::LINK {
                Some(BranchKind::IndirectCall) // call: pushes the RAS
            } else {
                Some(BranchKind::Direct)
            }
        }
        Inst::Jalr { rd, base, .. } => {
            if base == Reg::LINK && rd != Reg::LINK {
                Some(BranchKind::Return)
            } else if rd == Reg::LINK {
                Some(BranchKind::IndirectCall)
            } else {
                Some(BranchKind::Indirect)
            }
        }
        _ => None,
    }
}

/// The fetch/decode engine.
pub struct Frontend {
    cfg: FrontendConfig,
    unit: BranchUnit,
    fetch_pc: u64,
    queue: VecDeque<FetchedInst>,
    stalled_until: Cycle,
    /// Waiting for an indirect target the BTB/RAS could not supply; cleared
    /// by [`Frontend::redirect`].
    waiting_indirect: bool,
    /// Fetched undecodable bytes (deep wrong-path); cleared by redirect.
    bad_path: bool,
    /// Fetched a `halt`; stop until redirected.
    saw_halt: bool,
    /// PC of the fetched `halt` (set with `saw_halt`, cleared by redirect).
    halt_pc: Option<u64>,
    /// Base PC of the program's text segment.
    text_base: u64,
    /// The program's text decoded at build ([`Program::decoded`]), shared
    /// with every other core and interpreter running it; indexed by
    /// `(pc - text_base) / 4`. There is no self-modifying-code path in
    /// this machine (speculative stores drain only at epoch commit, and
    /// no workload writes its own text), so it stays valid for the life of
    /// the run. A PC outside it, or a word that does not decode, is
    /// decoded from memory.
    decoded: Arc<[Option<Inst>]>,
    /// The I-line held in the fetch buffer: fetch re-accesses the I-cache
    /// only when it leaves this line (one timing access per line, as a
    /// real fetch buffer behaves), not once per cycle. Invalidated by
    /// [`Frontend::redirect`] so a resteer always re-checks the cache.
    fetch_line: Option<u64>,
    /// Fetch-cycle statistics.
    pub fetched_insts: u64,
    /// Cycles fetch was blocked on the I-cache.
    pub icache_stall_cycles: u64,
}

impl Frontend {
    /// Creates a frontend fetching from `program.entry`, decoding through
    /// the program's decoded text.
    pub fn new(cfg: FrontendConfig, program: &Program) -> Frontend {
        Frontend {
            unit: BranchUnit::new(cfg.predictor, cfg.btb_entries, cfg.ras_depth),
            cfg,
            fetch_pc: program.entry,
            queue: VecDeque::new(),
            stalled_until: 0,
            waiting_indirect: false,
            bad_path: false,
            saw_halt: false,
            halt_pc: None,
            text_base: program.text_base(),
            decoded: Arc::clone(program.decoded()),
            fetch_line: None,
            fetched_insts: 0,
            icache_stall_cycles: 0,
        }
    }

    /// The decoded instruction at `pc`, if `pc` is in the text and its
    /// word decodes.
    #[inline]
    fn decoded_at(&self, pc: u64) -> Option<Inst> {
        let off = pc.wrapping_sub(self.text_base);
        if off % INST_BYTES != 0 {
            return None;
        }
        *self.decoded.get((off / INST_BYTES) as usize)?
    }

    /// Read-only view of the branch unit, for statistics reporting.
    pub fn branch_unit_ref(&self) -> &BranchUnit {
        &self.unit
    }

    /// Instructions currently queued for the core.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// `true` if fetch is blocked waiting for an unpredictable indirect
    /// target (the core must resolve the jump and redirect).
    pub fn waiting_indirect(&self) -> bool {
        self.waiting_indirect
    }

    /// Next instruction without consuming it.
    #[inline]
    pub fn peek(&self) -> Option<&FetchedInst> {
        self.queue.front()
    }

    /// The PC at which in-order execution will continue: the next queued
    /// instruction, or the fetch PC if the queue is empty. `None` when the
    /// continuation is unknown (fetch parked on undecodable wrong-path
    /// bytes). SST cores checkpoint at this PC when closing an epoch.
    ///
    /// When fetch has stopped on a `halt`, the continuation is the halt
    /// itself — never a PC past it. With the halt still queued that falls
    /// out of the first arm; once the core has consumed it the recorded
    /// halt PC is returned explicitly, so an epoch closing at that moment
    /// checkpoints at the halt (a rollback then re-fetches and re-commits
    /// it) rather than at whatever `fetch_pc` happens to hold.
    pub fn resume_pc(&self) -> Option<u64> {
        if let Some(f) = self.queue.front() {
            Some(f.pc)
        } else if self.saw_halt {
            self.halt_pc
        } else if self.bad_path || self.waiting_indirect {
            None
        } else {
            Some(self.fetch_pc)
        }
    }

    /// Consumes the next instruction.
    #[inline]
    pub fn pop(&mut self) -> Option<FetchedInst> {
        self.queue.pop_front()
    }

    /// Fetches up to `width` instructions this cycle, through the core's
    /// memory bus.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemBus) {
        if now < self.stalled_until {
            self.icache_stall_cycles += 1;
            return;
        }
        if self.waiting_indirect || self.bad_path || self.saw_halt {
            return;
        }
        let line_bytes = mem.line_bytes();

        for _ in 0..self.cfg.width {
            if self.queue.len() >= self.cfg.queue_depth {
                break;
            }
            let pc = self.fetch_pc;
            let line = pc & !(line_bytes - 1);
            if self.fetch_line != Some(line) {
                let out = mem.access(now, AccessKind::IFetch, pc);
                if out.ready_at > now + mem.config().l1_latency {
                    // I-cache miss: resume when the line arrives. The
                    // detection cycle is itself a blocked fetch cycle, so
                    // it is charged here; `tick` charges the remaining
                    // `(now, stalled_until)` window one cycle at a time
                    // (and `note_skipped` bulk-credits the same window),
                    // for a total of `stalled_until - now` per miss.
                    self.stalled_until = out.ready_at;
                    self.icache_stall_cycles += 1;
                    return;
                }
                self.fetch_line = Some(line);
            }

            let decoded = self
                .decoded_at(pc)
                .or_else(|| decode(mem.read(pc, 4) as u32).ok());
            let Some(inst) = decoded else {
                // Wrong-path fetch into non-text bytes; park until the
                // core redirects.
                self.bad_path = true;
                return;
            };

            let (pred_taken, pred_next_pc, pred_confident) = match branch_kind(inst) {
                None => (false, pc.wrapping_add(INST_BYTES), true),
                Some(kind) => {
                    let p: Prediction = self.unit.predict(pc, kind);
                    match inst {
                        Inst::Branch { .. } => {
                            let target = inst.direct_target(pc).expect("direct");
                            if p.taken {
                                (true, target, p.confident)
                            } else {
                                (false, pc.wrapping_add(INST_BYTES), p.confident)
                            }
                        }
                        Inst::Jal { .. } => (true, inst.direct_target(pc).expect("direct"), true),
                        Inst::Jalr { .. } => match p.target {
                            Some(t) => (true, t, true),
                            None => {
                                // No predicted target: enqueue the jump and
                                // block fetch until resolution.
                                self.queue.push_back(FetchedInst {
                                    pc,
                                    inst,
                                    pred_taken: true,
                                    pred_next_pc: 0,
                                    pred_confident: false,
                                });
                                self.fetched_insts += 1;
                                self.waiting_indirect = true;
                                return;
                            }
                        },
                        _ => unreachable!("branch_kind covers only control"),
                    }
                }
            };

            self.queue.push_back(FetchedInst {
                pc,
                inst,
                pred_taken,
                pred_next_pc,
                pred_confident,
            });
            self.fetched_insts += 1;

            if inst == Inst::Halt {
                self.saw_halt = true;
                self.halt_pc = Some(pc);
                return;
            }
            self.fetch_pc = pred_next_pc;
        }
    }

    /// The earliest cycle at which [`Frontend::tick`] could fetch again,
    /// assuming the core consumes nothing in the meantime. `Cycle::MAX`
    /// when fetch is parked on something only the core can clear (an
    /// unresolved indirect, wrong-path bytes, a fetched `halt`, or a full
    /// queue); the end of the current I-cache stall otherwise; `now` when
    /// fetch can proceed immediately.
    #[inline]
    pub fn next_fetch_cycle(&self, now: Cycle) -> Cycle {
        if self.waiting_indirect
            || self.bad_path
            || self.saw_halt
            || self.queue.len() >= self.cfg.queue_depth
        {
            return Cycle::MAX;
        }
        self.stalled_until.max(now)
    }

    /// Bulk-credits the per-cycle bookkeeping [`Frontend::tick`] performs
    /// for skipped cycles `[from, to)`: one `icache_stall_cycles` for each
    /// cycle still inside the I-cache stall window. (The stall check runs
    /// before the parked-flag checks in `tick`, so the credit applies even
    /// while fetch is also parked.)
    pub fn note_skipped(&mut self, from: Cycle, to: Cycle) {
        if from < self.stalled_until {
            self.icache_stall_cycles += self.stalled_until.min(to) - from;
        }
    }

    /// Flushes the queue and restarts fetch at `pc` after the redirect
    /// penalty. Clears indirect/bad-path/halt blocks and conservatively
    /// repairs the RAS.
    pub fn redirect(&mut self, now: Cycle, pc: u64) {
        self.queue.clear();
        self.fetch_pc = pc;
        self.stalled_until = self.stalled_until.max(now + self.cfg.redirect_penalty);
        self.waiting_indirect = false;
        self.bad_path = false;
        self.saw_halt = false;
        self.halt_pc = None;
        self.fetch_line = None;
        self.unit.repair_ras();
    }

    /// Trains the branch unit with a resolved control instruction.
    #[inline]
    pub fn resolve(&mut self, pc: u64, inst: Inst, taken: bool, target: u64) {
        if let Some(kind) = branch_kind(inst) {
            self.unit.update(pc, kind, taken, target);
        }
    }

    /// Squashes all in-flight fetch state and restarts fetch at `pc` with
    /// no redirect penalty, **keeping** learned warmth (the predictor
    /// tables; decoded text belongs to the program and is shared). Sampled
    /// simulation uses this to teleport between measurement intervals; a
    /// normal misprediction recovery uses [`Frontend::redirect`] instead.
    pub fn warm_reset(&mut self, pc: u64) {
        self.queue.clear();
        self.fetch_pc = pc;
        self.stalled_until = 0;
        self.waiting_indirect = false;
        self.bad_path = false;
        self.saw_halt = false;
        self.halt_pc = None;
        self.fetch_line = None;
        self.unit.repair_ras();
    }

    /// The snapshot's queue fits the configured depth and its RAS has the
    /// configured depth (the BTB and predictor tables check their own).
    fn restored(&mut self) -> Result<(), SnapError> {
        SnapError::check_bound(
            "frontend queue length",
            self.queue.len(),
            self.cfg.queue_depth,
        )?;
        SnapError::check_size("RAS depth", self.unit.ras().depth(), self.cfg.ras_depth)
    }
}

// All mutable fetch state: the fetch point, park flags and stall window,
// the queue, and the branch unit's tables. The decoded text belongs to the
// program and is shared, so it is not written.
sst_isa::snap_record!(state Frontend "FRNT" {
    fetch_pc,
    stalled_until,
    waiting_indirect,
    bad_path,
    saw_halt,
    halt_pc,
    fetch_line,
    fetched_insts,
    icache_stall_cycles,
    queue,
    unit,
} then Frontend::restored);

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::{Asm, Reg};
    use sst_mem::{MemConfig, MemSystem};

    fn setup(asm: impl FnOnce(&mut Asm)) -> (Frontend, MemSystem) {
        let mut a = Asm::new();
        asm(&mut a);
        let p = a.finish().unwrap();
        let mut ms = MemSystem::new(&MemConfig::default(), 1);
        p.load_into(ms.mem_mut());
        let fe = Frontend::new(FrontendConfig::default(), &p);
        (fe, ms)
    }

    /// Runs ticks until `n` instructions are queued or `max` cycles pass.
    fn run_until(fe: &mut Frontend, ms: &mut MemSystem, n: usize, max: u64) -> u64 {
        let mut now = 0;
        while fe.queued() < n && now < max {
            fe.tick(now, &mut ms.bus(0));
            now += 1;
        }
        now
    }

    #[test]
    fn fetches_straight_line_code() {
        let (mut fe, mut ms) = setup(|a| {
            a.addi(Reg::x(1), Reg::ZERO, 1);
            a.addi(Reg::x(2), Reg::ZERO, 2);
            a.addi(Reg::x(3), Reg::ZERO, 3);
            a.halt();
        });
        run_until(&mut fe, &mut ms, 4, 1000);
        let i1 = fe.pop().unwrap();
        let i2 = fe.pop().unwrap();
        assert_eq!(i2.pc, i1.pc + 4);
        assert_eq!(i1.pred_next_pc, i2.pc);
        assert!(!i1.pred_taken);
    }

    #[test]
    fn first_fetch_pays_icache_miss() {
        let (mut fe, mut ms) = setup(|a| {
            a.nop();
            a.halt();
        });
        fe.tick(0, &mut ms.bus(0));
        assert_eq!(fe.queued(), 0, "cold I$ miss produces nothing");
        let cycles = run_until(&mut fe, &mut ms, 1, 10_000);
        assert!(cycles > 100, "stalled for the memory round trip");
    }

    #[test]
    fn icache_stall_count_includes_detection_cycle() {
        let (mut fe, mut ms) = setup(|a| {
            a.nop();
            a.halt();
        });
        let mut now = 0;
        while fe.queued() == 0 {
            fe.tick(now, &mut ms.bus(0));
            now += 1;
            assert!(now < 10_000, "fetch never unblocked");
        }
        // The first instruction arrived on cycle `now - 1`; every earlier
        // cycle was blocked on the cold I-cache miss, *including* the
        // detection cycle itself.
        assert_eq!(fe.icache_stall_cycles, now - 1);
        assert!(fe.icache_stall_cycles > 100, "cold miss went off-chip");
    }

    #[test]
    fn resume_pc_is_the_halt_even_after_pop() {
        let (mut fe, mut ms) = setup(|a| {
            a.nop();
            a.halt();
        });
        run_until(&mut fe, &mut ms, 2, 10_000);
        let halt_pc = fe.queue.back().unwrap().pc;
        assert_eq!(fe.resume_pc(), Some(fe.queue.front().unwrap().pc));
        fe.pop(); // nop
        assert_eq!(fe.resume_pc(), Some(halt_pc), "halt at queue head");
        let h = fe.pop().unwrap();
        assert_eq!(h.inst, Inst::Halt);
        assert_eq!(fe.queued(), 0);
        assert_eq!(
            fe.resume_pc(),
            Some(halt_pc),
            "continuation after consuming the halt is the halt itself"
        );
    }

    #[test]
    fn refetch_from_the_shared_text_matches_the_first_fetch() {
        let (mut fe, mut ms) = setup(|a| {
            a.addi(Reg::x(1), Reg::ZERO, 7);
            a.addi(Reg::x(2), Reg::x(1), 1);
            a.halt();
        });
        run_until(&mut fe, &mut ms, 3, 10_000);
        let first: Vec<_> = std::iter::from_fn(|| fe.pop()).collect();
        fe.redirect(20_000, first[0].pc);
        let mut now = 20_000;
        while fe.queued() < 3 && now < 30_000 {
            fe.tick(now, &mut ms.bus(0));
            now += 1;
        }
        let second: Vec<_> = std::iter::from_fn(|| fe.pop()).collect();
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.inst, b.inst);
            let word = ms.mem().read_u32(a.pc);
            assert_eq!(
                Ok(a.inst),
                decode(word),
                "the shared text is the memory's decode"
            );
        }
    }

    #[test]
    fn follows_predicted_taken_jal() {
        let (mut fe, mut ms) = setup(|a| {
            let target = a.label();
            a.j(target); // idx 0
            a.nop(); // idx 1 (skipped)
            a.bind(target);
            a.halt(); // idx 2
        });
        run_until(&mut fe, &mut ms, 2, 10_000);
        let j = fe.pop().unwrap();
        let next = fe.pop().unwrap();
        assert!(j.pred_taken);
        assert_eq!(next.pc, j.pc + 8, "fetch skipped the dead instruction");
    }

    #[test]
    fn halt_stops_fetch() {
        let (mut fe, mut ms) = setup(|a| {
            a.halt();
            a.nop();
            a.nop();
        });
        run_until(&mut fe, &mut ms, 1, 10_000);
        let before = fe.fetched_insts;
        for now in 10_000..10_100 {
            fe.tick(now, &mut ms.bus(0));
        }
        assert_eq!(fe.fetched_insts, before, "no fetch past halt");
    }

    #[test]
    fn unpredicted_indirect_blocks_until_redirect() {
        let (mut fe, mut ms) = setup(|a| {
            a.jalr(Reg::ZERO, Reg::x(5), 0);
            a.nop();
            a.halt();
        });
        run_until(&mut fe, &mut ms, 1, 10_000);
        assert!(fe.waiting_indirect());
        let jr = fe.pop().unwrap();
        assert!(jr.inst.is_indirect());
        // Core resolves the target and redirects.
        fe.redirect(20_000, jr.pc + 4);
        assert!(!fe.waiting_indirect());
        run_until(&mut fe, &mut ms, 1, 30_000);
        assert!(fe.queued() >= 1);
    }

    #[test]
    fn redirect_flushes_and_penalizes() {
        let (mut fe, mut ms) = setup(|a| {
            for _ in 0..8 {
                a.nop();
            }
            a.halt();
        });
        run_until(&mut fe, &mut ms, 4, 10_000);
        assert!(fe.queued() >= 4);
        let restart = fe.peek().unwrap().pc;
        fe.redirect(10_000, restart);
        assert_eq!(fe.queued(), 0);
        // Nothing fetched during the penalty window.
        fe.tick(10_001, &mut ms.bus(0));
        assert_eq!(fe.queued(), 0);
        let mut now = 10_000;
        while fe.queued() == 0 && now < 11_000 {
            fe.tick(now, &mut ms.bus(0));
            now += 1;
        }
        assert!(now - 10_000 >= FrontendConfig::default().redirect_penalty);
    }

    #[test]
    fn conditional_training_changes_fetch_path() {
        // A loop branch: after training, fetch should follow the backedge.
        let (mut fe, mut ms) = setup(|a| {
            let top = a.here();
            a.addi(Reg::x(1), Reg::x(1), 1);
            a.bne(Reg::x(1), Reg::x(2), top);
            a.halt();
        });
        run_until(&mut fe, &mut ms, 2, 10_000);
        let _i = fe.pop().unwrap();
        let b = fe.pop().unwrap();
        assert!(b.inst.is_branch());
        // Train taken a few times and redirect to refetch the branch.
        for _ in 0..4 {
            fe.resolve(b.pc, b.inst, true, b.pc - 4);
        }
        fe.redirect(20_000, b.pc);
        let mut now = 20_000;
        while fe.queued() < 2 && now < 30_000 {
            fe.tick(now, &mut ms.bus(0));
            now += 1;
        }
        let b2 = fe.pop().unwrap();
        assert!(b2.pred_taken, "trained branch predicted taken");
        assert_eq!(b2.pred_next_pc, b.pc - 4);
    }

    #[test]
    fn call_then_return_uses_ras() {
        let (mut fe, mut ms) = setup(|a| {
            let f = a.label();
            a.call(f); // pc X
            a.halt(); // X+4 (return lands here)
            a.bind(f);
            a.ret();
        });
        run_until(&mut fe, &mut ms, 3, 10_000);
        let call = fe.pop().unwrap();
        let ret = fe.pop().unwrap();
        let after = fe.pop().unwrap();
        assert!(matches!(call.inst, Inst::Jal { .. }));
        assert!(matches!(ret.inst, Inst::Jalr { .. }));
        assert_eq!(
            after.pc,
            call.pc + 4,
            "RAS predicted the return to the call site"
        );
    }
}
