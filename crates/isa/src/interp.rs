use std::fmt;

use crate::{Inst, Program, Reg, SnapError, SnapReader, SnapWriter, SparseMem, INST_BYTES, NUM_REGS};

/// Architectural register + PC state.
#[derive(Clone, PartialEq, Eq)]
pub struct ArchState {
    regs: [u64; NUM_REGS],
    /// Current program counter.
    pub pc: u64,
}

impl ArchState {
    /// Creates a zeroed state with the given entry PC.
    pub fn new(entry: u64) -> ArchState {
        ArchState {
            regs: [0; NUM_REGS],
            pc: entry,
        }
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
        &self.regs
    }

    /// Serializes the register file and PC.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.tag("ARCH");
        for &v in &self.regs {
            w.put_u64(v);
        }
        w.put_u64(self.pc);
    }

    /// Restores state written by [`ArchState::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on truncated or corrupt input; the state
    /// is unspecified (but memory-safe) on error.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag("ARCH")?;
        for v in self.regs.iter_mut() {
            *v = r.take_u64()?;
        }
        self.pc = r.take_u64()?;
        Ok(())
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
/// Each method is called from the point of the dispatch that already
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
pub struct Interp {
    state: ArchState,
    mem: SparseMem,
    halted: bool,
    retired: u64,
    /// Text predecoded once at construction: `decoded[i]` is the
    /// instruction at `text_base + 4*i`, or `None` for an undecodable
    /// word. Pure memoization of the immutable program text — the
    /// per-step decode was the functional fast-forward bottleneck.
    decoded: Vec<Option<Inst>>,
    text_base: u64,
}

impl Interp {
    /// Creates an interpreter with the program's image loaded into a fresh
    /// memory.
    pub fn new(program: &Program) -> Interp {
        let mut mem = SparseMem::new();
        program.load_into(&mut mem);
        Interp::over_image(mem, program.text_base, program.len_insts(), program.entry)
    }

    /// Creates an interpreter over an image that is already loaded: `mem`
    /// holds what [`Program::load_into`] writes for a program of `insts`
    /// instructions at `text_base`, entered at `entry`. For a caller that
    /// has the loaded image but no longer the [`Program`].
    pub fn over_image(mem: SparseMem, text_base: u64, insts: usize, entry: u64) -> Interp {
        let decoded = (0..insts as u64)
            .map(|i| crate::decode(mem.read_u32(text_base + i * INST_BYTES)).ok())
            .collect();
        Interp {
            state: ArchState::new(entry),
            mem,
            halted: false,
            retired: 0,
            decoded,
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
    /// word cannot be decoded. The state is unchanged on error.
    pub fn step(&mut self) -> Result<StepEvent, Trap> {
        let pc = self.state.pc;
        if self.halted {
            return Ok(StepEvent::latched_halt(pc));
        }
        let inst = self.inst_fast(pc)?;
        let (next_pc, reg_write, mem, halted) = self.dispatch(pc, inst, &mut ());
        Ok(StepEvent {
            pc,
            inst,
            next_pc,
            reg_write,
            mem,
            halted,
        })
    }

    /// Predecoded-table fetch: bounds + alignment check, then a slot
    /// read. Out-of-text and undecodable words both trap as
    /// [`Trap::BadPc`], matching the `Program::inst_at` path this
    /// replaced.
    #[inline(always)]
    fn inst_fast(&self, pc: u64) -> Result<Inst, Trap> {
        let off = pc.wrapping_sub(self.text_base);
        if off % INST_BYTES != 0 {
            return Err(Trap::BadPc(pc));
        }
        match self.decoded.get((off / INST_BYTES) as usize) {
            Some(&Some(inst)) => Ok(inst),
            _ => Err(Trap::BadPc(pc)),
        }
    }

    /// Executes one decoded instruction against the architectural state,
    /// reporting its effects to `hooks` and returning `(next_pc,
    /// reg_write, mem_effect, halted)`. The one dispatch behind
    /// [`Interp::step`] and every run loop, so no two paths can diverge;
    /// with `()` hooks the calls compile away.
    #[inline(always)]
    fn dispatch<H: Hooks>(
        &mut self,
        pc: u64,
        inst: Inst,
        hooks: &mut H,
    ) -> (u64, Option<(Reg, u64)>, MemEffect, bool) {
        hooks.fetch(pc);
        let mut next_pc = pc.wrapping_add(INST_BYTES);
        let mut reg_write = None;
        let mut mem_effect = MemEffect::None;
        let mut halted = false;

        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.state.read(rs1), self.state.read(rs2));
                reg_write = Some((rd, v));
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = op.eval(self.state.read(rs1), imm as u64);
                reg_write = Some((rd, v));
            }
            Inst::Lui { rd, imm } => {
                reg_write = Some((rd, (imm << 12) as u64));
            }
            Inst::Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => {
                let addr = self.state.read(base).wrapping_add_signed(offset);
                let bytes = width.bytes();
                let raw = self.mem.read_le(addr, bytes);
                let value = if signed && bytes < 8 {
                    let shift = 64 - bytes * 8;
                    (((raw << shift) as i64) >> shift) as u64
                } else {
                    raw
                };
                reg_write = Some((rd, value));
                mem_effect = MemEffect::Load { addr, bytes, value };
                hooks.load(addr);
            }
            Inst::Store {
                width,
                src,
                base,
                offset,
            } => {
                let addr = self.state.read(base).wrapping_add_signed(offset);
                let bytes = width.bytes();
                let value = self.state.read(src);
                self.mem.write_le(addr, bytes, value);
                mem_effect = MemEffect::Store { addr, bytes, value };
                hooks.store(addr);
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                if cond.eval(self.state.read(rs1), self.state.read(rs2)) {
                    next_pc = pc.wrapping_add_signed(offset * 4);
                }
                hooks.control(pc, inst, next_pc != pc.wrapping_add(INST_BYTES), next_pc);
            }
            Inst::Jal { rd, offset } => {
                reg_write = Some((rd, pc.wrapping_add(INST_BYTES)));
                next_pc = pc.wrapping_add_signed(offset * 4);
                hooks.control(pc, inst, true, next_pc);
            }
            Inst::Jalr { rd, base, offset } => {
                let target = self.state.read(base).wrapping_add_signed(offset) & !3u64;
                reg_write = Some((rd, pc.wrapping_add(INST_BYTES)));
                next_pc = target;
                hooks.control(pc, inst, true, next_pc);
            }
            Inst::Fpu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.state.read(rs1), self.state.read(rs2));
                reg_write = Some((rd, v));
            }
            Inst::Prefetch { .. } => {}
            Inst::Halt => {
                halted = true;
                next_pc = pc;
            }
        }

        if let Some((rd, v)) = reg_write {
            self.state.write(rd, v);
            if rd.is_zero() {
                reg_write = None;
            }
        }
        self.state.pc = next_pc;
        self.halted = halted;
        self.retired += 1;

        (next_pc, reg_write, mem_effect, halted)
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
    /// latched — but monomorphized over the callback, so the dispatch
    /// loop and the observer inline into one hot loop. For observers that
    /// need whole events (values, register writes); one that needs only
    /// addresses and control flow is cheaper as [`Hooks`] on
    /// [`Interp::run_with_hooks`], which assembles no event.
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
    /// [`Hooks`] for the order). The hooks are inlined into the dispatch
    /// loop. The functional-warming path of sampled simulation.
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
    /// compile away.
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
            // A latched halt replays as a single halt step, as `step` does.
            let pc = self.state.pc;
            hooks.fetch(pc);
            on_step(&StepEvent::latched_halt(pc));
            return Ok(RunOutcome {
                stop: StopReason::Halt,
                steps: 1,
            });
        }
        let mut steps = 0;
        while steps < max_steps {
            let pc = self.state.pc;
            let inst = self.inst_fast(pc)?;
            let (next_pc, reg_write, mem, halted) = self.dispatch(pc, inst, hooks);
            steps += 1;
            on_step(&StepEvent {
                pc,
                inst,
                next_pc,
                reg_write,
                mem,
                halted,
            });
            if halted {
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
        w.tag("INTP");
        self.state.save_state(w);
        w.put_bool(self.halted);
        w.put_u64(self.retired);
        self.mem.save_state(w);
    }

    /// Restores state written by [`Interp::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on truncated or corrupt input.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag("INTP")?;
        self.state.restore_state(r)?;
        self.halted = r.take_bool()?;
        self.retired = r.take_u64()?;
        self.mem.restore_state(r)?;
        Ok(())
    }
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
        let vals = a.data_f64(&[1.5, 2.5]);
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

    /// Steps `i` until it halts or traps, collecting what the hooks must
    /// report; returns the trap, if any.
    fn step_loop(i: &mut Interp, out: &mut Vec<Seen>) -> Option<Trap> {
        loop {
            match i.step() {
                Ok(ev) => {
                    expected(&ev, out);
                    if ev.halted {
                        return None;
                    }
                }
                Err(t) => return Some(t),
            }
        }
    }

    /// Every `Inst` class: ALU, ALU-immediate, `lui`, load, store, FPU,
    /// prefetch, a branch taken, not taken and to the next instruction,
    /// `jal`, `jalr`, `halt`.
    fn every_class(tail: impl FnOnce(&mut Asm)) -> Program {
        let mut a = Asm::new();
        let buf = a.data_u64(&[7, 0]);
        a.la(Reg::x(3), buf);
        a.inst(Inst::Lui {
            rd: Reg::x(2),
            imm: 5,
        });
        a.ld(Reg::x(4), Reg::x(3), 0);
        a.sd(Reg::x(4), Reg::x(3), 8);
        a.add(Reg::x(5), Reg::x(4), Reg::x(2));
        a.fadd(Reg::f(1), Reg::f(0), Reg::f(0));
        a.prefetch(Reg::x(3), 64);
        a.li(Reg::x(6), 3);
        let top = a.here();
        a.addi(Reg::x(6), Reg::x(6), -1);
        a.bne(Reg::x(6), Reg::ZERO, top);
        // Condition true, target the fall-through: reported not taken.
        let next = a.label();
        a.beq(Reg::ZERO, Reg::ZERO, next);
        a.bind(next);
        let func = a.label();
        a.call(func);
        tail(&mut a);
        a.bind(func);
        a.lbu(Reg::x(7), Reg::x(3), 8);
        a.ret();
        a.finish().unwrap()
    }

    fn same_state(a: &Interp, b: &Interp) {
        assert_eq!(a.state(), b.state());
        assert_eq!((a.retired(), a.is_halted()), (b.retired(), b.is_halted()));
    }

    #[test]
    fn hooks_report_what_a_step_loop_reports() {
        let p = every_class(|a| a.halt());
        let mut stepped = Interp::new(&p);
        let mut want = Vec::new();
        assert_eq!(step_loop(&mut stepped, &mut want), None);

        // One call, and the same stream cut into three-step calls.
        for chunk in [u64::MAX, 3] {
            let mut i = Interp::new(&p);
            let mut seen = Recorder::default();
            let mut steps = 0;
            loop {
                let out = i.run_with_hooks(chunk, &mut seen).unwrap();
                steps += out.steps;
                if out.stop == StopReason::Halt {
                    break;
                }
            }
            assert_eq!(seen.0, want, "chunk {chunk}");
            assert_eq!(steps, stepped.retired());
            same_state(&i, &stepped);

            // A latched halt replays once, as `step` and `run` do.
            let mut replay = Recorder::default();
            let out = i.run_with_hooks(10, &mut replay).unwrap();
            assert_eq!((out.stop, out.steps), (StopReason::Halt, 1));
            let mut again = Vec::new();
            expected(&stepped.step().unwrap(), &mut again);
            assert_eq!(replay.0, again);
            assert_eq!(i.run(10).unwrap().steps, 1);
            same_state(&i, &stepped);
        }
        let loads = want.iter().filter(|s| matches!(s, Seen::Load(_))).count();
        let stores = want.iter().filter(|s| matches!(s, Seen::Store(_))).count();
        let not_taken = want
            .iter()
            .filter(|s| matches!(s, Seen::Control(_, Inst::Branch { .. }, false, _)))
            .count();
        assert_eq!((loads, stores, not_taken), (2, 1, 2));
    }

    #[test]
    fn hooks_stop_at_the_trapping_pc() {
        let p = every_class(|a| {
            a.li(Reg::x(1), 0);
            a.jalr(Reg::ZERO, Reg::x(1), 0);
        });
        let mut stepped = Interp::new(&p);
        let mut want = Vec::new();
        let trap = step_loop(&mut stepped, &mut want);
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
