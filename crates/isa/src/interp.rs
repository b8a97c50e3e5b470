use std::fmt;

use crate::{
    AluOp, BranchCond, FpuOp, Inst, MemWidth, Program, Reg, Snap, SnapError, SnapReader, SnapState,
    SnapWriter, SparseMem, INST_BYTES, NUM_REGS,
};

/// Where the interpreter's lowered code writes `x0`: one slot past the
/// architectural registers, written and never read.
const SINK: u8 = NUM_REGS as u8;

/// Architectural register + PC state.
#[derive(Clone)]
pub struct ArchState {
    /// The registers, then the `SINK` slot (not part of the state).
    regs: [u64; NUM_REGS + 1],
    /// Current program counter.
    pub pc: u64,
}

impl PartialEq for ArchState {
    fn eq(&self, other: &ArchState) -> bool {
        self.regs() == other.regs() && self.pc == other.pc
    }
}

impl Eq for ArchState {}

impl ArchState {
    /// Creates a zeroed state with the given entry PC.
    pub fn new(entry: u64) -> ArchState {
        ArchState {
            regs: [0; NUM_REGS + 1],
            pc: entry,
        }
    }

    /// Reads raw register index `r` (never the sink).
    #[inline(always)]
    fn get(&self, r: u8) -> u64 {
        self.regs[r as usize]
    }

    /// Writes raw register index `rd` — the sink for `x0` — and reports
    /// the write as a [`StepEvent`] shows it: not at all for `x0`.
    #[inline(always)]
    fn put(&mut self, rd: u8, v: u64) -> Option<(Reg, u64)> {
        self.regs[rd as usize] = v;
        Reg::from_index(rd).map(|r| (r, v))
    }

    /// Reads a register (reads of `x0` always return zero).
    pub fn read(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `x0` are dropped).
    pub fn write(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// A snapshot of all 64 registers in unified-index order.
    pub fn regs(&self) -> &[u64; NUM_REGS] {
        self.regs[..NUM_REGS]
            .try_into()
            .expect("the sink follows them")
    }
}

/// The registers (the sink is not state), then the PC.
impl Snap for ArchState {
    fn put(&self, w: &mut SnapWriter) {
        w.tag("ARCH");
        self.regs().put(w);
        self.pc.put(w);
    }

    fn take(r: &mut SnapReader<'_>) -> Result<ArchState, SnapError> {
        r.tag("ARCH")?;
        let regs: [u64; NUM_REGS] = Snap::take(r)?;
        let mut state = ArchState::new(Snap::take(r)?);
        state.regs[..NUM_REGS].copy_from_slice(&regs);
        Ok(state)
    }
}

impl fmt::Debug for ArchState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pc = {:#x}", self.pc)?;
        for r in Reg::all() {
            let v = self.read(r);
            if v != 0 {
                writeln!(f, "  {r} = {v:#x}")?;
            }
        }
        Ok(())
    }
}

/// An architectural trap raised by [`Interp::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trap {
    /// The PC left the text segment or was misaligned.
    BadPc(u64),
    /// The instruction word at the PC failed to decode.
    BadInst {
        /// PC of the undecodable word.
        pc: u64,
        /// The word itself.
        word: u32,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::BadPc(pc) => write!(f, "pc {pc:#x} is outside the text segment"),
            Trap::BadInst { pc, word } => {
                write!(f, "invalid instruction {word:#010x} at pc {pc:#x}")
            }
        }
    }
}

impl std::error::Error for Trap {}

/// The memory effect of one retired instruction, as reported in
/// [`StepEvent`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemEffect {
    /// No memory access.
    None,
    /// A load of `bytes` bytes from `addr` returning `value` (post-extension).
    Load {
        /// Byte address.
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
        /// Architectural result written to the destination.
        value: u64,
    },
    /// A store of the low `bytes` bytes of `value` to `addr`.
    Store {
        /// Byte address.
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
        /// Value stored (low `bytes` significant).
        value: u64,
    },
}

/// Everything observable about one functional step. Timing cores compare
/// their retirement stream against these events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepEvent {
    /// PC of the retired instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// PC of the next instruction (reflects taken branches).
    pub next_pc: u64,
    /// Register write performed, if any.
    pub reg_write: Option<(Reg, u64)>,
    /// Memory effect, if any.
    pub mem: MemEffect,
    /// `true` if this step was `halt`.
    pub halted: bool,
}

impl StepEvent {
    /// What a step reports once `halt` has latched at `pc`.
    fn latched_halt(pc: u64) -> StepEvent {
        StepEvent {
            pc,
            inst: Inst::Halt,
            next_pc: pc,
            reg_write: None,
            mem: MemEffect::None,
            halted: true,
        }
    }
}

/// Why [`Interp::run`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// A `halt` instruction retired.
    Halt,
    /// The step budget was exhausted before `halt`.
    StepLimit,
}

/// Result of [`Interp::run`].
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Instructions retired (including the `halt`, if any).
    pub steps: u64,
}

/// Observer of the effects [`Interp::run_with_hooks`] computes anyway.
///
/// Each method is called from the point of `exec` that already
/// knows the effect, in program order; every method defaults to doing
/// nothing, so an observer implements only what it needs and the unit
/// type `()` observes nothing. Hooks see exactly what a [`Interp::step`]
/// loop reports: `fetch` once per step (including a replayed latched
/// halt), before that step's `load`/`store`/`control`; nothing for the
/// step that traps.
pub trait Hooks {
    /// The instruction at `pc` executes.
    #[inline(always)]
    fn fetch(&mut self, _pc: u64) {}
    /// It loads from `addr`.
    #[inline(always)]
    fn load(&mut self, _addr: u64) {}
    /// It stores to `addr`.
    #[inline(always)]
    fn store(&mut self, _addr: u64) {}
    /// It is a branch, `jal` or `jalr` and continues at `next_pc`; `taken`
    /// is whether that leaves the fall-through path (as a [`StepEvent`]
    /// shows it: a branch to the next instruction is not taken), always
    /// `true` for the two jumps.
    #[inline(always)]
    fn control(&mut self, _pc: u64, _inst: Inst, _taken: bool, _next_pc: u64) {}
}

impl Hooks for () {}

/// Functional reference interpreter.
///
/// Executes one instruction per [`Interp::step`] with no timing model. It is
/// the golden model for co-simulation: every timing core in the workspace
/// checks its retirement stream against an `Interp` running the same
/// program (see `sst-sim`'s `RetireChecker`).
///
/// The text is lowered once, at construction, into a flat table of
/// operations that carry their ALU operator, branch condition or access
/// width in the variant, and into the length of the straight-line run that
/// starts at each instruction. [`Interp::step`] and the one loop over those
/// runs behind [`Interp::run`], [`Interp::run_traced`] and
/// [`Interp::run_with_hooks`] execute through one `exec`.
pub struct Interp {
    state: ArchState,
    mem: SparseMem,
    halted: bool,
    retired: u64,
    /// `ops[i]` is the instruction at `text_base + 4*i`, lowered
    /// (`Op::Invalid` for an undecodable word). Pure memoization of the
    /// immutable program text.
    ops: Vec<Op>,
    /// `runs[i]` counts the instructions from `ops[i]` up to and including
    /// the first branch, jump or `halt` (or up to the end of the text or an
    /// undecodable word); 0 for an undecodable word.
    runs: Vec<u32>,
    text_base: u64,
}

impl Interp {
    /// Creates an interpreter with the program's image loaded into a fresh
    /// memory.
    pub fn new(program: &Program) -> Interp {
        let mut mem = SparseMem::new();
        program.load_into(&mut mem);
        Interp::over_image(mem, program.text_base(), program.decoded(), program.entry)
    }

    /// Creates an interpreter over an image that is already loaded: `mem`
    /// holds what [`Program::load_into`] writes for a program whose text
    /// at `text_base` decodes to `text` ([`Program::decoded`]), entered at
    /// `entry`. For a caller that has the loaded image but no longer the
    /// [`Program`]. The text is lowered here, once.
    pub fn over_image(mem: SparseMem, text_base: u64, text: &[Option<Inst>], entry: u64) -> Interp {
        let mut ops = vec![Op::Invalid; text.len()];
        let mut runs = vec![0; text.len()];
        // Back to front: a run ends at a control transfer or `halt`.
        let mut run = 0;
        for (i, &decoded) in text.iter().enumerate().rev() {
            ops[i] = decoded.map_or(Op::Invalid, lower);
            run = match decoded {
                Some(inst) if inst.is_control() || inst == Inst::Halt => 1,
                Some(_) => run + 1,
                None => 0,
            };
            runs[i] = run;
        }
        Interp {
            state: ArchState::new(entry),
            mem,
            halted: false,
            retired: 0,
            ops,
            runs,
            text_base,
        }
    }

    /// Current architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The data memory image (shared view; text lives here too).
    pub fn mem(&self) -> &SparseMem {
        &self.mem
    }

    /// Mutable access to memory (for tests that poke inputs).
    pub fn mem_mut(&mut self) -> &mut SparseMem {
        &mut self.mem
    }

    /// `true` once a `halt` has retired; further steps are no-ops.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Total instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Executes one instruction.
    ///
    /// After `halt` retires the interpreter latches [`Interp::is_halted`]
    /// and replays the same halt event on subsequent calls.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the PC leaves the text segment or the fetched
    /// word cannot be decoded (both as [`Trap::BadPc`]). The state is
    /// unchanged on error.
    pub fn step(&mut self) -> Result<StepEvent, Trap> {
        let pc = self.state.pc;
        if self.halted {
            return Ok(StepEvent::latched_halt(pc));
        }
        let (i, _) = run_at(&self.runs, self.text_base, pc).ok_or(Trap::BadPc(pc))?;
        let ev = exec(&mut self.state, &mut self.mem, self.ops[i], pc, &mut ());
        self.state.pc = ev.next_pc;
        self.retired += 1;
        self.halted = ev.halted;
        Ok(ev)
    }

    /// Runs until `halt` or until `max_steps` instructions retire.
    ///
    /// This is the functional fast-forward hot loop: no effect is reported
    /// and none is assembled (use [`Interp::step`] when the events matter).
    ///
    /// # Errors
    ///
    /// Propagates the first [`Trap`].
    pub fn run(&mut self, max_steps: u64) -> Result<RunOutcome, Trap> {
        self.run_loop(max_steps, &mut (), |_| {})
    }

    /// Runs until `halt` or until `max_steps` instructions retire,
    /// handing every step's [`StepEvent`] to `on_step`.
    ///
    /// Semantically equivalent to calling [`Interp::step`] in a loop —
    /// including replaying a single halt event when the halt is already
    /// latched — but monomorphized over the callback, so the run loop and
    /// the observer inline into one hot loop. For observers that need whole
    /// events (values, register writes); one that needs only addresses and
    /// control flow is cheaper as [`Hooks`] on [`Interp::run_with_hooks`],
    /// which assembles no event.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Trap`]; steps before it have already been
    /// observed.
    pub fn run_traced<F: FnMut(&StepEvent)>(
        &mut self,
        max_steps: u64,
        on_step: F,
    ) -> Result<RunOutcome, Trap> {
        self.run_loop(max_steps, &mut (), on_step)
    }

    /// Runs until `halt` or until `max_steps` instructions retire,
    /// reporting each step's effects to `hooks` as it executes (see
    /// [`Hooks`] for the order). The hooks are inlined into the run loop.
    /// The functional-warming path of sampled simulation.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Trap`]; steps before it have already been
    /// reported, the trapping one has not.
    pub fn run_with_hooks<H: Hooks>(
        &mut self,
        max_steps: u64,
        hooks: &mut H,
    ) -> Result<RunOutcome, Trap> {
        self.run_loop(max_steps, hooks, |_| {})
    }

    /// The one run loop behind [`Interp::run`], [`Interp::run_traced`]
    /// and [`Interp::run_with_hooks`]; an unused event or no-op hooks
    /// compile away. It checks the PC once per straight-line run (nothing
    /// inside a run can trap), clamps the run to the step budget, and
    /// writes the PC and the retire count once per run.
    fn run_loop<H: Hooks, F: FnMut(&StepEvent)>(
        &mut self,
        max_steps: u64,
        hooks: &mut H,
        mut on_step: F,
    ) -> Result<RunOutcome, Trap> {
        if max_steps == 0 {
            return Ok(RunOutcome {
                stop: StopReason::StepLimit,
                steps: 0,
            });
        }
        if self.halted {
            // A latched halt replays as a single halt step.
            let pc = self.state.pc;
            hooks.fetch(pc);
            on_step(&StepEvent::latched_halt(pc));
            return Ok(RunOutcome {
                stop: StopReason::Halt,
                steps: 1,
            });
        }
        let Interp {
            state,
            mem,
            halted,
            retired,
            ops,
            runs,
            text_base,
        } = self;
        let mut steps = 0;
        while steps < max_steps {
            let mut pc = state.pc;
            let (i, run) = run_at(runs, *text_base, pc).ok_or(Trap::BadPc(pc))?;
            let run = run.min(max_steps - steps);
            let mut halt = false;
            for &op in &ops[i..i + run as usize] {
                let ev = exec(state, mem, op, pc, hooks);
                on_step(&ev);
                pc = ev.next_pc;
                halt = ev.halted;
            }
            state.pc = pc;
            *retired += run;
            steps += run;
            if halt {
                *halted = true;
                return Ok(RunOutcome {
                    stop: StopReason::Halt,
                    steps,
                });
            }
        }
        Ok(RunOutcome {
            stop: StopReason::StepLimit,
            steps,
        })
    }

    /// Serializes the interpreter's mutable state (registers, PC, halt
    /// latch, retire count, memory). The program itself is *not*
    /// serialized — restore requires an interpreter built over the same
    /// program, which the caller validates by workload name.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.put_state(w);
    }

    /// Restores state written by [`Interp::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on truncated or corrupt input.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.take_state(r)
    }
}

crate::snap_record!(state Interp "INTP" { state, halted, retired, mem });

/// The text index of `pc` and the length of the run that starts there,
/// if `pc` is an aligned text address whose word decodes.
#[inline(always)]
fn run_at(runs: &[u32], text_base: u64, pc: u64) -> Option<(usize, u64)> {
    let off = pc.wrapping_sub(text_base);
    let i = (off / INST_BYTES) as usize;
    match runs.get(i) {
        Some(&run) if run > 0 && off % INST_BYTES == 0 => Some((i, run.into())),
        _ => None,
    }
}

/// The register a raw index names; the [`SINK`] raises to `x0`.
#[inline(always)]
fn reg(r: u8) -> Reg {
    Reg::from_index(r).unwrap_or(Reg::ZERO)
}

/// What a step that falls through to the next instruction with no other
/// effect reports; `exec` overrides the fields its operation sets.
#[inline(always)]
fn fall(pc: u64, inst: Inst) -> StepEvent {
    StepEvent {
        pc,
        inst,
        next_pc: pc.wrapping_add(INST_BYTES),
        reg_write: None,
        mem: MemEffect::None,
        halted: false,
    }
}

/// A loaded value, sign-extended from `bytes` if `signed`.
#[inline(always)]
fn extend(raw: u64, bytes: u64, signed: bool) -> u64 {
    if signed && bytes < 8 {
        let shift = 64 - bytes * 8;
        (((raw << shift) as i64) >> shift) as u64
    } else {
        raw
    }
}

/// Defines [`Op`], [`lower`] (the one `match` on [`Inst`]) and [`exec`]
/// (the one `match` on [`Op`]) from the lists of operators, conditions and
/// access widths. Each arm calls the shared `eval` of its constant
/// operator, so the interpreter and the timing cores cannot disagree about
/// arithmetic.
macro_rules! lowering {
    (
        alu: $($alu:ident $alui:ident),+;
        fpu: $($fpu:ident),+;
        branch: $($br:ident $cond:ident),+;
        load: $($ld:ident $lw:ident $signed:literal),+;
        store: $($st:ident $sw:ident),+;
    ) => {
        /// An instruction lowered for [`exec`]: one variant per operator,
        /// condition, or access width and signedness; registers are raw
        /// indices, and a register write to `x0` goes to the [`SINK`].
        #[derive(Clone, Copy)]
        enum Op {
            $(
                $alu { rd: u8, rs1: u8, rs2: u8 },
                $alui { rd: u8, rs1: u8, imm: i32 },
            )+
            $($fpu { rd: u8, rs1: u8, rs2: u8 },)+
            $($br { rs1: u8, rs2: u8, offset: i32 },)+
            $($ld { rd: u8, base: u8, offset: i32 },)+
            $($st { src: u8, base: u8, offset: i32 },)+
            Lui { rd: u8, imm: i32 },
            Jal { rd: u8, offset: i32 },
            Jalr { rd: u8, base: u8, offset: i32 },
            Prefetch { base: u8, offset: i32 },
            Halt,
            /// An undecodable word; its run is empty, so it never executes.
            Invalid,
        }

        /// Lowers a decoded instruction; `x0` as a destination becomes the
        /// [`SINK`], here and nowhere else.
        fn lower(inst: Inst) -> Op {
            let r = Reg::raw;
            let w = |rd: Reg| if rd.is_zero() { SINK } else { rd.raw() };
            let i = |v: i64| i32::try_from(v).expect("a decoded immediate has at most 18 bits");
            match inst {
                $(
                    Inst::Alu { op: AluOp::$alu, rd, rs1, rs2 } => {
                        Op::$alu { rd: w(rd), rs1: r(rs1), rs2: r(rs2) }
                    }
                    Inst::AluImm { op: AluOp::$alu, rd, rs1, imm } => {
                        Op::$alui { rd: w(rd), rs1: r(rs1), imm: i(imm) }
                    }
                )+
                $(
                    Inst::Fpu { op: FpuOp::$fpu, rd, rs1, rs2 } => {
                        Op::$fpu { rd: w(rd), rs1: r(rs1), rs2: r(rs2) }
                    }
                )+
                $(
                    Inst::Branch { cond: BranchCond::$cond, rs1, rs2, offset } => {
                        Op::$br { rs1: r(rs1), rs2: r(rs2), offset: i(offset) }
                    }
                )+
                $(
                    Inst::Load { width: MemWidth::$lw, signed: $signed, rd, base, offset } => {
                        Op::$ld { rd: w(rd), base: r(base), offset: i(offset) }
                    }
                )+
                // `ld` has one encoding, which decodes as signed.
                Inst::Load { width: MemWidth::B8, signed: false, rd, base, offset } => {
                    Op::Ld { rd: w(rd), base: r(base), offset: i(offset) }
                }
                $(
                    Inst::Store { width: MemWidth::$sw, src, base, offset } => {
                        Op::$st { src: r(src), base: r(base), offset: i(offset) }
                    }
                )+
                Inst::Lui { rd, imm } => Op::Lui { rd: w(rd), imm: i(imm) },
                Inst::Jal { rd, offset } => Op::Jal { rd: w(rd), offset: i(offset) },
                Inst::Jalr { rd, base, offset } => {
                    Op::Jalr { rd: w(rd), base: r(base), offset: i(offset) }
                }
                Inst::Prefetch { base, offset } => {
                    Op::Prefetch { base: r(base), offset: i(offset) }
                }
                Inst::Halt => Op::Halt,
            }
        }

        /// Executes one lowered instruction at `pc` against the
        /// architectural state, reporting its effects to `hooks` and
        /// returning its event, with the original [`Inst`] raised back; the
        /// caller moves the PC. What a caller does not read compiles away.
        #[inline(always)]
        fn exec<H: Hooks>(
            state: &mut ArchState,
            mem: &mut SparseMem,
            op: Op,
            pc: u64,
            hooks: &mut H,
        ) -> StepEvent {
            hooks.fetch(pc);
            let next = pc.wrapping_add(INST_BYTES);
            match op {
                $(
                    Op::$alu { rd, rs1, rs2 } => {
                        let v = AluOp::$alu.eval(state.get(rs1), state.get(rs2));
                        let (op, rs1, rs2) = (AluOp::$alu, reg(rs1), reg(rs2));
                        let inst = Inst::Alu { op, rd: reg(rd), rs1, rs2 };
                        StepEvent { reg_write: state.put(rd, v), ..fall(pc, inst) }
                    }
                    Op::$alui { rd, rs1, imm } => {
                        let v = AluOp::$alu.eval(state.get(rs1), i64::from(imm) as u64);
                        let (op, rs1, imm) = (AluOp::$alu, reg(rs1), imm.into());
                        let inst = Inst::AluImm { op, rd: reg(rd), rs1, imm };
                        StepEvent { reg_write: state.put(rd, v), ..fall(pc, inst) }
                    }
                )+
                $(
                    Op::$fpu { rd, rs1, rs2 } => {
                        let v = FpuOp::$fpu.eval(state.get(rs1), state.get(rs2));
                        let (op, rs1, rs2) = (FpuOp::$fpu, reg(rs1), reg(rs2));
                        let inst = Inst::Fpu { op, rd: reg(rd), rs1, rs2 };
                        StepEvent { reg_write: state.put(rd, v), ..fall(pc, inst) }
                    }
                )+
                $(
                    Op::$br { rs1, rs2, offset } => {
                        let cond = BranchCond::$cond;
                        let taken = cond.eval(state.get(rs1), state.get(rs2));
                        let (rs1, rs2, offset) = (reg(rs1), reg(rs2), i64::from(offset));
                        let inst = Inst::Branch { cond, rs1, rs2, offset };
                        let next_pc = if taken { pc.wrapping_add_signed(offset * 4) } else { next };
                        // A branch to the next instruction is not taken.
                        hooks.control(pc, inst, next_pc != next, next_pc);
                        StepEvent { next_pc, ..fall(pc, inst) }
                    }
                )+
                $(
                    Op::$ld { rd, base, offset } => {
                        let addr = state.get(base).wrapping_add_signed(offset.into());
                        let bytes = MemWidth::$lw.bytes();
                        let value = extend(mem.read_le(addr, bytes), bytes, $signed);
                        hooks.load(addr);
                        let (width, base, offset) = (MemWidth::$lw, reg(base), offset.into());
                        let inst = Inst::Load { width, signed: $signed, rd: reg(rd), base, offset };
                        StepEvent {
                            reg_write: state.put(rd, value),
                            mem: MemEffect::Load { addr, bytes, value },
                            ..fall(pc, inst)
                        }
                    }
                )+
                $(
                    Op::$st { src, base, offset } => {
                        let addr = state.get(base).wrapping_add_signed(offset.into());
                        let (bytes, value) = (MemWidth::$sw.bytes(), state.get(src));
                        mem.write_le(addr, bytes, value);
                        hooks.store(addr);
                        let (src, base, offset) = (reg(src), reg(base), offset.into());
                        let inst = Inst::Store { width: MemWidth::$sw, src, base, offset };
                        StepEvent { mem: MemEffect::Store { addr, bytes, value }, ..fall(pc, inst) }
                    }
                )+
                Op::Lui { rd, imm } => {
                    let inst = Inst::Lui { rd: reg(rd), imm: imm.into() };
                    let v = (i64::from(imm) << 12) as u64;
                    StepEvent { reg_write: state.put(rd, v), ..fall(pc, inst) }
                }
                Op::Jal { rd, offset } => {
                    let inst = Inst::Jal { rd: reg(rd), offset: offset.into() };
                    let next_pc = pc.wrapping_add_signed(i64::from(offset) * 4);
                    hooks.control(pc, inst, true, next_pc);
                    StepEvent { next_pc, reg_write: state.put(rd, next), ..fall(pc, inst) }
                }
                Op::Jalr { rd, base, offset } => {
                    // The target reads `base` before the link can overwrite it.
                    let next_pc = state.get(base).wrapping_add_signed(offset.into()) & !3;
                    let (base, offset) = (reg(base), offset.into());
                    let inst = Inst::Jalr { rd: reg(rd), base, offset };
                    hooks.control(pc, inst, true, next_pc);
                    StepEvent { next_pc, reg_write: state.put(rd, next), ..fall(pc, inst) }
                }
                Op::Prefetch { base, offset } => {
                    fall(pc, Inst::Prefetch { base: reg(base), offset: offset.into() })
                }
                Op::Halt => StepEvent { next_pc: pc, halted: true, ..fall(pc, Inst::Halt) },
                Op::Invalid => unreachable!("an undecodable word starts no run"),
            }
        }
    };
}

lowering! {
    alu: Add Addi, Sub Subi, And Andi, Or Ori, Xor Xori, Sll Slli, Srl Srli, Sra Srai,
        Slt Slti, Sltu Sltiu, Mul Muli, Mulh Mulhi, Div Divi, Divu Divui, Rem Remi,
        Remu Remui;
    fpu: Fadd, Fsub, Fmul, Fdiv, Fmin, Fmax, Fsqrt, Feq, Flt, Fle, CvtIntToF, CvtFToInt;
    branch: Beq Eq, Bne Ne, Blt Lt, Bge Ge, Bltu Ltu, Bgeu Geu;
    load: Lb B1 true, Lbu B1 false, Lh B2 true, Lhu B2 false, Lw B4 true, Lwu B4 false,
        Ld B8 true;
    store: Sb B1, Sh B2, Sw B4, Sd B8;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asm, BranchCond};

    #[test]
    fn arithmetic_loop_sums() {
        let mut a = Asm::new();
        a.li(Reg::x(5), 100);
        a.li(Reg::x(6), 0);
        let top = a.here();
        a.add(Reg::x(6), Reg::x(6), Reg::x(5));
        a.addi(Reg::x(5), Reg::x(5), -1);
        a.bne(Reg::x(5), Reg::ZERO, top);
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        let out = i.run(10_000).unwrap();
        assert_eq!(out.stop, StopReason::Halt);
        assert_eq!(i.state().read(Reg::x(6)), 5050);
    }

    #[test]
    fn li_expansion_handles_big_constants() {
        for &v in &[
            0x7fff_ffff_ffff_ffffi64,
            i64::MIN,
            -1,
            0x1234_5678,
            -0x1234_5678_9abc,
            4096,
            -4097,
            0xdead_beef_cafe_i64,
        ] {
            let mut a = Asm::new();
            a.li(Reg::x(1), v);
            a.halt();
            let p = a.finish().unwrap();
            let mut i = Interp::new(&p);
            i.run(100).unwrap();
            assert_eq!(i.state().read(Reg::x(1)) as i64, v, "li {v:#x}");
        }
    }

    #[test]
    fn loads_extend_correctly() {
        let mut a = Asm::new();
        let addr = a.data_bytes(&[0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0]);
        a.la(Reg::x(1), addr);
        a.lbu(Reg::x(2), Reg::x(1), 0);
        a.load(crate::MemWidth::B1, true, Reg::x(3), Reg::x(1), 0);
        a.lw(Reg::x(4), Reg::x(1), 0);
        a.lwu(Reg::x(5), Reg::x(1), 0);
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.state().read(Reg::x(2)), 0xff);
        assert_eq!(i.state().read(Reg::x(3)), u64::MAX);
        assert_eq!(i.state().read(Reg::x(4)), u64::MAX);
        assert_eq!(i.state().read(Reg::x(5)), 0xffff_ffff);
    }

    #[test]
    fn store_load_roundtrip_and_event() {
        let mut a = Asm::new();
        let buf = a.reserve(64);
        a.la(Reg::x(1), buf);
        a.li(Reg::x(2), 0x55);
        a.sd(Reg::x(2), Reg::x(1), 8);
        a.ld(Reg::x(3), Reg::x(1), 8);
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        // step through to observe the store event
        let mut store_seen = false;
        loop {
            let ev = i.step().unwrap();
            if let MemEffect::Store { addr, bytes, value } = ev.mem {
                assert_eq!(addr, buf + 8);
                assert_eq!(bytes, 8);
                assert_eq!(value, 0x55);
                store_seen = true;
            }
            if ev.halted {
                break;
            }
        }
        assert!(store_seen);
        assert_eq!(i.state().read(Reg::x(3)), 0x55);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let mut a = Asm::new();
        a.li(Reg::x(1), 1);
        let skip = a.label();
        a.branch(BranchCond::Eq, Reg::x(1), Reg::ZERO, skip); // not taken
        a.li(Reg::x(2), 11);
        a.bind(skip);
        let skip2 = a.label();
        a.branch(BranchCond::Ne, Reg::x(1), Reg::ZERO, skip2); // taken
        a.li(Reg::x(2), 99); // skipped
        a.bind(skip2);
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.state().read(Reg::x(2)), 11);
    }

    #[test]
    fn jal_jalr_call_ret() {
        let mut a = Asm::new();
        let func = a.label();
        a.call(func); // x1 = ret addr
        a.halt();
        a.bind(func);
        a.li(Reg::x(10), 77);
        a.ret();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        let out = i.run(100).unwrap();
        assert_eq!(out.stop, StopReason::Halt);
        assert_eq!(i.state().read(Reg::x(10)), 77);
    }

    #[test]
    fn fp_kernel() {
        let mut a = Asm::new();
        let vals = a.data_u64(&[1.5f64, 2.5].map(f64::to_bits));
        a.la(Reg::x(1), vals);
        a.ld(Reg::f(0), Reg::x(1), 0);
        a.ld(Reg::f(1), Reg::x(1), 8);
        a.fadd(Reg::f(2), Reg::f(0), Reg::f(1));
        a.fmul(Reg::f(3), Reg::f(2), Reg::f(2));
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        i.run(100).unwrap();
        assert_eq!(f64::from_bits(i.state().read(Reg::f(2))), 4.0);
        assert_eq!(f64::from_bits(i.state().read(Reg::f(3))), 16.0);
    }

    #[test]
    fn bad_pc_traps() {
        let mut a = Asm::new();
        a.li(Reg::x(1), 0);
        a.jalr(Reg::ZERO, Reg::x(1), 0); // jump to 0: outside text
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        i.step().unwrap();
        i.step().unwrap();
        assert_eq!(i.step(), Err(Trap::BadPc(0)));
    }

    #[test]
    fn halt_latches() {
        let mut a = Asm::new();
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        let e1 = i.step().unwrap();
        assert!(e1.halted);
        let e2 = i.step().unwrap();
        assert!(e2.halted);
        assert!(i.is_halted());
        assert_eq!(i.retired(), 1, "latched halt replays do not retire");
    }

    #[test]
    fn x0_writes_dropped_in_events() {
        let mut a = Asm::new();
        a.addi(Reg::ZERO, Reg::ZERO, 5);
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        let ev = i.step().unwrap();
        assert_eq!(ev.reg_write, None);
        assert_eq!(i.state().read(Reg::ZERO), 0);
    }

    /// One reported effect, in the order the hooks saw them.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Fetch(u64),
        Load(u64),
        Store(u64),
        Control(u64, Inst, bool, u64),
    }

    #[derive(Default)]
    struct Recorder(Vec<Seen>);

    impl Hooks for Recorder {
        fn fetch(&mut self, pc: u64) {
            self.0.push(Seen::Fetch(pc));
        }
        fn load(&mut self, addr: u64) {
            self.0.push(Seen::Load(addr));
        }
        fn store(&mut self, addr: u64) {
            self.0.push(Seen::Store(addr));
        }
        fn control(&mut self, pc: u64, inst: Inst, taken: bool, next_pc: u64) {
            self.0.push(Seen::Control(pc, inst, taken, next_pc));
        }
    }

    /// What the hooks must report for one step, from its event.
    fn expected(ev: &StepEvent, out: &mut Vec<Seen>) {
        out.push(Seen::Fetch(ev.pc));
        match ev.mem {
            MemEffect::Load { addr, .. } => out.push(Seen::Load(addr)),
            MemEffect::Store { addr, .. } => out.push(Seen::Store(addr)),
            MemEffect::None => {}
        }
        match ev.inst {
            Inst::Branch { .. } => {
                let taken = ev.next_pc != ev.pc.wrapping_add(INST_BYTES);
                out.push(Seen::Control(ev.pc, ev.inst, taken, ev.next_pc));
            }
            Inst::Jal { .. } | Inst::Jalr { .. } => {
                out.push(Seen::Control(ev.pc, ev.inst, true, ev.next_pc));
            }
            _ => {}
        }
    }

    const ALU: [AluOp; 16] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Mul,
        AluOp::Mulh,
        AluOp::Div,
        AluOp::Divu,
        AluOp::Rem,
        AluOp::Remu,
    ];
    const FPU: [FpuOp; 12] = [
        FpuOp::Fadd,
        FpuOp::Fsub,
        FpuOp::Fmul,
        FpuOp::Fdiv,
        FpuOp::Fmin,
        FpuOp::Fmax,
        FpuOp::Fsqrt,
        FpuOp::Feq,
        FpuOp::Flt,
        FpuOp::Fle,
        FpuOp::CvtIntToF,
        FpuOp::CvtFToInt,
    ];
    const WIDTHS: [MemWidth; 4] = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];
    const CONDS: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];

    /// Operands of each condition that make it true, then false.
    fn outcomes(cond: BranchCond) -> [(Reg, Reg); 2] {
        // x1 is negative (a huge unsigned), x2 small and positive.
        let (neg, pos) = (Reg::x(1), Reg::x(2));
        match cond {
            BranchCond::Eq => [(pos, pos), (neg, pos)],
            BranchCond::Ne => [(neg, pos), (pos, pos)],
            BranchCond::Lt => [(neg, pos), (pos, neg)],
            BranchCond::Ge => [(pos, neg), (neg, pos)],
            BranchCond::Ltu => [(pos, neg), (neg, pos)],
            BranchCond::Geu => [(neg, pos), (pos, neg)],
        }
    }

    /// Every operation: all sixteen ALU operators in register and
    /// immediate form, every FPU operator, `lui`, loads of every width and
    /// signedness (one straddling a page), stores of every width, prefetch,
    /// each branch condition taken, not taken and true but targeting the
    /// next instruction, `jal` and `jalr` with and without a link (one
    /// `jalr` linking into its own base), a write to `x0` from every class
    /// that writes a register, a loop and a call; then `tail`.
    fn every_op(tail: impl FnOnce(&mut Asm)) -> Program {
        let mut a = Asm::new();
        // The data starts page-aligned; its bytes all have the top bit set.
        let page = a.data_bytes(&[0x9c; 4096 + 8]);
        assert_eq!(page % 4096, 0);
        let fp = a.data_u64(&[2.5f64, -1.25].map(f64::to_bits));
        let buf = a.reserve(64);
        a.la(Reg::x(3), page);
        a.la(Reg::x(4), fp);
        a.la(Reg::x(8), buf);
        a.li(Reg::x(1), -7);
        a.li(Reg::x(2), 3);
        a.inst(Inst::Lui {
            rd: Reg::x(5),
            imm: -5,
        });
        for op in ALU {
            a.alu(op, Reg::x(10), Reg::x(1), Reg::x(2));
            let imm = match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => 3,
                AluOp::And | AluOp::Or | AluOp::Xor => 0xf0f,
                _ => -5,
            };
            a.alu_imm(op, Reg::x(11), Reg::x(1), imm);
        }
        a.ld(Reg::f(0), Reg::x(4), 0);
        a.ld(Reg::f(1), Reg::x(4), 8);
        for op in FPU {
            a.fpu(op, Reg::f(2), Reg::f(0), Reg::f(1));
        }
        for width in WIDTHS {
            for signed in [true, false] {
                a.load(width, signed, Reg::x(12), Reg::x(3), 5);
            }
            a.store(width, Reg::x(1), Reg::x(8), 8);
        }
        a.addi(Reg::x(3), Reg::x(3), 2047);
        a.ld(Reg::x(13), Reg::x(3), 2045); // bytes 4092..4100: two pages
        a.prefetch(Reg::x(3), 64);
        // Writes to x0, one per class that writes a register.
        a.add(Reg::ZERO, Reg::x(1), Reg::x(2));
        a.addi(Reg::ZERO, Reg::x(1), 1);
        a.inst(Inst::Lui {
            rd: Reg::ZERO,
            imm: 1,
        });
        a.lbu(Reg::ZERO, Reg::x(3), 0);
        a.fadd(Reg::ZERO, Reg::f(0), Reg::f(1));
        for cond in CONDS {
            let [(t1, t2), (f1, f2)] = outcomes(cond);
            let skip = a.label();
            a.branch(cond, t1, t2, skip);
            a.addi(Reg::x(20), Reg::x(20), 1); // skipped
            a.bind(skip);
            a.branch(cond, f1, f2, skip);
            let next = a.label();
            a.branch(cond, t1, t2, next);
            a.bind(next);
        }
        // `jal` with a link in x6; the `jalr` reads x6 before relinking it.
        let (back, over) = (a.label(), a.label());
        a.jal(Reg::x(6), back);
        a.j(over);
        a.bind(back);
        a.jalr(Reg::x(6), Reg::x(6), 0);
        a.bind(over);
        a.li(Reg::x(7), 3);
        let top = a.here();
        a.addi(Reg::x(7), Reg::x(7), -1);
        a.bne(Reg::x(7), Reg::ZERO, top);
        let func = a.label();
        a.call(func);
        tail(&mut a);
        a.bind(func);
        a.lbu(Reg::x(9), Reg::x(8), 8);
        a.ret();
        a.finish().unwrap()
    }

    /// [`every_op`] ending in a straight-line run and then a word that does
    /// not decode, at the returned PC.
    fn every_op_then_undecodable() -> (Program, u64) {
        let mut at = 0;
        let p = every_op(|a| {
            a.addi(Reg::x(5), Reg::x(5), 1);
            a.addi(Reg::x(5), Reg::x(5), 1);
            at = a.len();
            a.nop();
        });
        assert!(crate::decode(u32::MAX).is_err());
        let image = p.image();
        let mut text: Vec<u32> = (0..p.len_insts())
            .map(|i| image.read_u32(p.text_base() + i as u64 * INST_BYTES))
            .collect();
        let mut data = vec![0; 4096 + 8 + 16];
        image.read_bytes(crate::DEFAULT_DATA_BASE, &mut data);
        text[at] = u32::MAX;
        let p = Program::from_parts(
            p.text_base(),
            &text,
            &[(crate::DEFAULT_DATA_BASE, &data)],
            p.entry,
        );
        let at = p.text_base() + at as u64 * INST_BYTES;
        (p, at)
    }

    /// The three ways [`every_op`] can end: a halt, a jump out of the
    /// text, an undecodable word.
    fn every_op_endings() -> Vec<(Program, Option<Trap>)> {
        let (undecodable, at) = every_op_then_undecodable();
        vec![
            (every_op(|a| a.halt()), None),
            (
                every_op(|a| {
                    a.li(Reg::x(1), 0);
                    a.jalr(Reg::ZERO, Reg::x(1), 0);
                }),
                Some(Trap::BadPc(0)),
            ),
            (undecodable, Some(Trap::BadPc(at))),
        ]
    }

    /// What `inst` at `pc` does, by the shared `eval` functions: the next
    /// PC, the register write a step reports, the memory effect.
    fn by_eval(
        s: &ArchState,
        mem: &SparseMem,
        pc: u64,
        inst: Inst,
    ) -> (u64, Option<(Reg, u64)>, MemEffect) {
        let r = |reg: Reg| s.read(reg);
        let w = |rd: Reg, v: u64| (!rd.is_zero()).then_some((rd, v));
        let next = pc + INST_BYTES;
        let none = MemEffect::None;
        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => (next, w(rd, op.eval(r(rs1), r(rs2))), none),
            Inst::AluImm { op, rd, rs1, imm } => (next, w(rd, op.eval(r(rs1), imm as u64)), none),
            Inst::Fpu { op, rd, rs1, rs2 } => (next, w(rd, op.eval(r(rs1), r(rs2))), none),
            Inst::Lui { rd, imm } => (next, w(rd, (imm << 12) as u64), none),
            Inst::Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => {
                let (addr, bytes) = (r(base).wrapping_add_signed(offset), width.bytes());
                let raw = mem.read_le(addr, bytes);
                let shift = 64 - 8 * bytes;
                let value = if signed {
                    (((raw << shift) as i64) >> shift) as u64
                } else {
                    raw
                };
                (next, w(rd, value), MemEffect::Load { addr, bytes, value })
            }
            Inst::Store {
                width,
                src,
                base,
                offset,
            } => {
                let addr = r(base).wrapping_add_signed(offset);
                let (bytes, value) = (width.bytes(), r(src));
                (next, None, MemEffect::Store { addr, bytes, value })
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let taken = cond.eval(r(rs1), r(rs2));
                let to = if taken {
                    pc.wrapping_add_signed(offset * 4)
                } else {
                    next
                };
                (to, None, none)
            }
            Inst::Jal { rd, offset } => (pc.wrapping_add_signed(offset * 4), w(rd, next), none),
            Inst::Jalr { rd, base, offset } => {
                let to = r(base).wrapping_add_signed(offset) & !3;
                (to, w(rd, next), none)
            }
            Inst::Prefetch { .. } => (next, None, none),
            Inst::Halt => (pc, None, none),
        }
    }

    /// What [`every_op_does_what_the_shared_evals_say`] counts a step as.
    fn coverage(before: &ArchState, ev: &StepEvent) -> Vec<String> {
        let mnemonic = ev.inst.to_string();
        let mnemonic = mnemonic.split(' ').next().unwrap();
        let mut keys = vec![mnemonic.to_string()];
        match ev.inst {
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let truth = cond.eval(before.read(rs1), before.read(rs2));
                keys.push(match (truth, offset) {
                    (true, 1) => format!("{cond:?} to the next instruction"),
                    (true, _) => format!("{cond:?} taken"),
                    (false, _) => format!("{cond:?} not taken"),
                });
            }
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Lui { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::Fpu { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
                if rd.is_zero() =>
            {
                keys.push(format!("{mnemonic} x0"));
            }
            _ => {}
        }
        if let MemEffect::Load { addr, bytes, .. } = ev.mem {
            if addr % 4096 + bytes > 4096 {
                keys.push("a load across a page".into());
            }
        }
        keys
    }

    #[test]
    fn every_op_does_what_the_shared_evals_say() {
        let p = every_op(|a| a.halt());
        let mut i = Interp::new(&p);
        let mut covered = std::collections::BTreeSet::new();
        loop {
            let (before, pc) = (i.state().clone(), i.state().pc);
            let inst = crate::decode(i.mem().read_u32(pc)).unwrap();
            let want = by_eval(&before, i.mem(), pc, inst);
            let ev = i.step().unwrap();
            assert_eq!((ev.pc, ev.inst), (pc, inst));
            assert_eq!((ev.next_pc, ev.reg_write, ev.mem), want, "{inst}");
            // The step moved the PC and wrote what it reports, nothing else.
            let mut after = before.clone();
            if let Some((rd, v)) = ev.reg_write {
                after.write(rd, v);
            }
            after.pc = ev.next_pc;
            assert_eq!(i.state(), &after, "{inst}");
            assert_eq!(i.state().read(Reg::ZERO), 0);
            if let MemEffect::Store { addr, bytes, value } = ev.mem {
                let mask = u64::MAX >> (64 - 8 * bytes);
                assert_eq!(i.mem().read_le(addr, bytes), value & mask);
            }
            covered.extend(coverage(&before, &ev));
            if ev.halted {
                break;
            }
        }
        let mut want: Vec<String> = ALU
            .iter()
            .flat_map(|op| [op.mnemonic().to_string(), format!("{}i", op.mnemonic())])
            .chain(FPU.iter().map(|op| op.mnemonic().to_string()))
            .collect();
        for cond in CONDS {
            want.extend(
                ["taken", "not taken", "to the next instruction"].map(|o| format!("{cond:?} {o}")),
            );
        }
        want.extend(
            [
                "lb",
                "lbu",
                "lh",
                "lhu",
                "lw",
                "lwu",
                "ld",
                "sb",
                "sh",
                "sw",
                "sd",
                "lui",
                "prefetch",
                "jal",
                "jalr",
                "halt",
                "add x0",
                "addi x0",
                "lui x0",
                "lbu x0",
                "fadd x0",
                "jal x0",
                "jalr x0",
                "a load across a page",
            ]
            .map(String::from),
        );
        for w in want {
            assert!(covered.contains(&w), "{w:?} not covered: {covered:?}");
        }
    }

    /// A step loop's account of `p`: its events, the hook stream they
    /// imply, its trap (if any), and the interpreter where it stopped.
    fn stepped(p: &Program) -> (Vec<StepEvent>, Vec<Seen>, Option<Trap>, Interp) {
        let mut i = Interp::new(p);
        let (mut events, mut seen) = (Vec::new(), Vec::new());
        let trap = loop {
            match i.step() {
                Ok(ev) => {
                    expected(&ev, &mut seen);
                    events.push(ev);
                    if ev.halted {
                        break None;
                    }
                }
                Err(t) => break Some(t),
            }
        };
        (events, seen, trap, i)
    }

    fn same_state(a: &Interp, b: &Interp) {
        assert_eq!(a.state(), b.state());
        assert_eq!((a.retired(), a.is_halted()), (b.retired(), b.is_halted()));
    }

    const CHUNKS: [u64; 6] = [1, 2, 3, 5, 64, u64::MAX];

    /// Runs `p` to its end in `run(interp, chunk)` calls; returns the trap,
    /// if any, and the interpreter.
    fn chunked(
        p: &Program,
        chunk: u64,
        mut run: impl FnMut(&mut Interp, u64) -> Result<RunOutcome, Trap>,
    ) -> (Option<Trap>, Interp) {
        let mut i = Interp::new(p);
        let trap = loop {
            match run(&mut i, chunk) {
                Ok(out) if out.stop == StopReason::Halt => break None,
                Ok(out) => assert_eq!(out.steps, chunk),
                Err(t) => break Some(t),
            }
        };
        (trap, i)
    }

    #[test]
    fn hooks_report_what_a_step_loop_reports() {
        for (p, ending) in every_op_endings() {
            let (_, want, trap, end) = stepped(&p);
            assert_eq!(trap, ending);
            for chunk in CHUNKS {
                let mut seen = Recorder::default();
                let (trap, mut i) = chunked(&p, chunk, |i, n| i.run_with_hooks(n, &mut seen));
                assert_eq!(seen.0, want, "chunk {chunk}");
                assert_eq!(trap, ending);
                same_state(&i, &end);
                if trap.is_none() {
                    // A latched halt replays once, as `step` and `run` do.
                    let mut replay = Recorder::default();
                    let out = i.run_with_hooks(10, &mut replay).unwrap();
                    assert_eq!((out.stop, out.steps), (StopReason::Halt, 1));
                    assert_eq!(replay.0, [Seen::Fetch(end.state().pc)]);
                    assert_eq!(i.run(10).unwrap().steps, 1);
                    same_state(&i, &end);
                }
            }
        }
    }

    #[test]
    fn chunked_runs_match_a_step_loop() {
        for (p, ending) in every_op_endings() {
            let (events, _, _, end) = stepped(&p);
            for chunk in CHUNKS {
                let (trap, i) = chunked(&p, chunk, |i, n| i.run(n));
                assert_eq!(trap, ending, "chunk {chunk}");
                same_state(&i, &end);
                let mut seen = Vec::new();
                let (trap, i) = chunked(&p, chunk, |i, n| i.run_traced(n, |ev| seen.push(*ev)));
                assert_eq!(seen, events, "chunk {chunk}");
                assert_eq!(trap, ending);
                same_state(&i, &end);
            }
        }
    }

    #[test]
    fn hooks_stop_at_the_trapping_pc() {
        let p = every_op(|a| {
            a.li(Reg::x(1), 0);
            a.jalr(Reg::ZERO, Reg::x(1), 0);
        });
        let (_, want, trap, stepped) = stepped(&p);
        assert_eq!(trap, Some(Trap::BadPc(0)));

        let mut i = Interp::new(&p);
        let mut seen = Recorder::default();
        assert_eq!(
            i.run_with_hooks(u64::MAX, &mut seen).unwrap_err(),
            Trap::BadPc(0)
        );
        assert_eq!(seen.0, want);
        // The last report is the `jalr` to 0; nothing for the fetch at 0.
        assert!(
            matches!(
                seen.0.last(),
                Some(Seen::Control(_, Inst::Jalr { .. }, true, 0))
            ),
            "{:?}",
            seen.0.last()
        );
        same_state(&i, &stepped);
        assert_eq!(i.state().pc, 0);
    }

    #[test]
    fn running_to_step_limit() {
        let mut a = Asm::new();
        let top = a.here();
        a.j(top);
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        let out = i.run(50).unwrap();
        assert_eq!(out.stop, StopReason::StepLimit);
        assert_eq!(out.steps, 50);
    }
}
