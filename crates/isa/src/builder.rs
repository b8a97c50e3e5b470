//! Programmatic assembler.
//!
//! [`Asm`] is the builder the workload generators use to construct programs
//! in code, with forward-referencing labels, `li`/`la` constant expansion,
//! and a data-segment allocator.

use std::fmt;

use crate::program::{DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE};
use crate::sparse_mem::PAGE_SIZE;
use crate::{
    encode, AluOp, BranchCond, EncodeError, FpuOp, Inst, MemWidth, Program, Reg, SparseMem, INST_BYTES,
};


/// A code label created by [`Asm::label`] and bound by [`Asm::bind`].
///
/// Labels may be referenced before they are bound; offsets are resolved by
/// [`Asm::finish`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(usize);

/// Error produced by [`Asm::finish`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A referenced label was never bound.
    UnboundLabel(Label),
    /// A resolved control-flow offset does not fit its encoding field.
    OffsetOutOfRange {
        /// Index of the offending instruction in the text segment.
        inst_index: usize,
        /// The resolved offset in instructions.
        offset: i64,
    },
    /// A directly emitted instruction had an unencodable field.
    Encode {
        /// Index of the offending instruction in the text segment.
        inst_index: usize,
        /// Underlying encoding error.
        source: EncodeError,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel(l) => write!(f, "label {l:?} was referenced but never bound"),
            BuildError::OffsetOutOfRange { inst_index, offset } => write!(
                f,
                "instruction {inst_index}: branch/jump offset {offset} out of range"
            ),
            BuildError::Encode { inst_index, source } => {
                write!(f, "instruction {inst_index}: {source}")
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Encode { source, .. } => Some(source),
            _ => None,
        }
    }
}

enum Slot {
    /// A fully formed instruction.
    Done(Inst),
    /// A branch whose offset awaits label resolution.
    Branch { cond: BranchCond, rs1: Reg, rs2: Reg, target: Label },
    /// A jal whose offset awaits label resolution.
    Jal { rd: Reg, target: Label },
}

/// A data region [`Asm::data_in_place`] has appended, as its filler
/// writes it: the program image's own page frames.
pub struct Region<'a> {
    /// Offset of the region's first byte in `pages[0]`.
    head: usize,
    len: u64,
    pages: Vec<&'a mut [u8]>,
}

impl Region<'_> {
    /// The `len` bytes at offset `off` into the region, to write in place.
    /// Panics if they run past the region's end or cross a page boundary
    /// (in a region aligned to `len`, a power of two up to 4 KiB, none do).
    pub fn at(&mut self, off: u64, len: usize) -> &mut [u8] {
        assert!(off + len as u64 <= self.len, "bytes past the end of the region");
        let at = self.head + off as usize;
        let (page, o) = (at / PAGE_SIZE, at % PAGE_SIZE);
        assert!(o + len <= PAGE_SIZE, "bytes across a page boundary");
        &mut self.pages[page][o..o + len]
    }
}

/// Programmatic assembler with labels and a data allocator.
///
/// # Example
///
/// ```
/// use sst_isa::{Asm, Reg, Interp, StopReason};
///
/// let mut a = Asm::new();
/// let table = a.data_u64(&[5, 10, 15, 20]);
/// a.la(Reg::x(10), table);
/// a.li(Reg::x(11), 0); // sum
/// a.li(Reg::x(12), 4); // count
/// let top = a.here();
/// a.ld(Reg::x(13), Reg::x(10), 0);
/// a.add(Reg::x(11), Reg::x(11), Reg::x(13));
/// a.addi(Reg::x(10), Reg::x(10), 8);
/// a.addi(Reg::x(12), Reg::x(12), -1);
/// a.bne(Reg::x(12), Reg::ZERO, top);
/// a.halt();
///
/// let program = a.finish().unwrap();
/// let mut interp = Interp::new(&program);
/// assert_eq!(interp.run(1_000).unwrap().stop, StopReason::Halt);
/// assert_eq!(interp.state().read(Reg::x(11)), 50);
/// ```
pub struct Asm {
    text_base: u64,
    slots: Vec<Slot>,
    labels: Vec<Option<usize>>,
    /// The data written so far, in the page frames the program will hold.
    image: SparseMem,
    /// Initialized data bytes written (reserved gaps are not).
    data_len: u64,
    data_cursor: u64,
}

impl Asm {
    /// Creates a builder with the default text and data bases.
    pub fn new() -> Asm {
        Asm::with_bases(DEFAULT_TEXT_BASE, DEFAULT_DATA_BASE)
    }

    /// Creates a builder with explicit text and data segment bases.
    ///
    /// # Panics
    ///
    /// Panics if `text_base` is not 4-byte aligned.
    pub fn with_bases(text_base: u64, data_base: u64) -> Asm {
        assert!(text_base % INST_BYTES == 0, "text base must be aligned");
        Asm {
            text_base,
            slots: Vec::new(),
            labels: Vec::new(),
            image: SparseMem::based_at(text_base.min(data_base)),
            data_len: 0,
            data_cursor: data_base,
        }
    }

    // ---- labels -----------------------------------------------------------

    /// Declares a new, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound (each label is bound exactly once).
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.slots.len());
    }

    /// Declares and immediately binds a label at the current position.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// The address a bound label resolves to, or `None` if unbound.
    pub fn addr_of(&self, label: Label) -> Option<u64> {
        self.labels[label.0].map(|idx| self.text_base + idx as u64 * INST_BYTES)
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The PC the next emitted instruction will occupy.
    pub fn cur_pc(&self) -> u64 {
        self.text_base + self.slots.len() as u64 * INST_BYTES
    }

    // ---- raw emission ------------------------------------------------------

    /// Emits an already-formed instruction.
    pub fn inst(&mut self, inst: Inst) {
        self.slots.push(Slot::Done(inst));
    }

    // ---- ALU ---------------------------------------------------------------

    /// Emits a register-register ALU operation.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.inst(Inst::Alu { op, rd, rs1, rs2 });
    }

    /// Emits a register-immediate ALU operation.
    pub fn alu_imm(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i64) {
        self.inst(Inst::AluImm { op, rd, rs1, imm });
    }

    /// `add rd, rs1, rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Add, rd, rs1, rs2);
    }

    /// `sub rd, rs1, rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Sub, rd, rs1, rs2);
    }

    /// `and rd, rs1, rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::And, rd, rs1, rs2);
    }

    /// `or rd, rs1, rs2`
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Or, rd, rs1, rs2);
    }

    /// `xor rd, rs1, rs2`
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Xor, rd, rs1, rs2);
    }

    /// `mul rd, rs1, rs2`
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Mul, rd, rs1, rs2);
    }

    /// `div rd, rs1, rs2`
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Div, rd, rs1, rs2);
    }

    /// `rem rd, rs1, rs2`
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Rem, rd, rs1, rs2);
    }

    /// `sll rd, rs1, rs2`
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Sll, rd, rs1, rs2);
    }

    /// `addi rd, rs1, imm`
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i64) {
        self.alu_imm(AluOp::Add, rd, rs1, imm);
    }

    /// `andi rd, rs1, imm` (immediate zero-extended)
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i64) {
        self.alu_imm(AluOp::And, rd, rs1, imm);
    }

    /// `ori rd, rs1, imm` (immediate zero-extended)
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i64) {
        self.alu_imm(AluOp::Or, rd, rs1, imm);
    }

    /// `xori rd, rs1, imm` (immediate zero-extended)
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i64) {
        self.alu_imm(AluOp::Xor, rd, rs1, imm);
    }

    /// `slli rd, rs1, sh`
    pub fn slli(&mut self, rd: Reg, rs1: Reg, sh: i64) {
        self.alu_imm(AluOp::Sll, rd, rs1, sh);
    }

    /// `srli rd, rs1, sh`
    pub fn srli(&mut self, rd: Reg, rs1: Reg, sh: i64) {
        self.alu_imm(AluOp::Srl, rd, rs1, sh);
    }

    /// `srai rd, rs1, sh`
    pub fn srai(&mut self, rd: Reg, rs1: Reg, sh: i64) {
        self.alu_imm(AluOp::Sra, rd, rs1, sh);
    }

    /// `slti rd, rs1, imm`
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i64) {
        self.alu_imm(AluOp::Slt, rd, rs1, imm);
    }

    /// `mv rd, rs` (pseudo: `add rd, rs, x0`; also moves between files)
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.alu(AluOp::Add, rd, rs, Reg::ZERO);
    }

    /// `nop`
    pub fn nop(&mut self) {
        self.inst(Inst::NOP);
    }

    /// Loads an arbitrary 64-bit constant, expanding into an
    /// `addi`/`slli`/`ori` sequence (1–11 instructions).
    pub fn li(&mut self, rd: Reg, value: i64) {
        if (-2048..=2047).contains(&value) {
            self.addi(rd, Reg::ZERO, value);
            return;
        }
        // Peel 11-bit chunks off the low end until the head fits in a signed
        // 12-bit immediate, then rebuild MSB-first with shift/or pairs.
        let mut chunks: Vec<i64> = Vec::new();
        let mut head = value;
        while !(-2048..=2047).contains(&head) {
            chunks.push(head & 0x7ff);
            head >>= 11; // arithmetic shift keeps the sign in the head
        }
        self.addi(rd, Reg::ZERO, head);
        for chunk in chunks.into_iter().rev() {
            self.slli(rd, rd, 11);
            if chunk != 0 {
                self.ori(rd, rd, chunk);
            }
        }
    }

    /// Loads an address constant (pseudo for [`Asm::li`]).
    pub fn la(&mut self, rd: Reg, addr: u64) {
        self.li(rd, addr as i64);
    }

    // ---- memory ------------------------------------------------------------

    /// Emits a load of the given width/signedness.
    pub fn load(&mut self, width: MemWidth, signed: bool, rd: Reg, base: Reg, offset: i64) {
        self.inst(Inst::Load {
            width,
            signed,
            rd,
            base,
            offset,
        });
    }

    /// Emits a store of the given width.
    pub fn store(&mut self, width: MemWidth, src: Reg, base: Reg, offset: i64) {
        self.inst(Inst::Store {
            width,
            src,
            base,
            offset,
        });
    }

    /// `ld rd, offset(base)` — 64-bit load.
    pub fn ld(&mut self, rd: Reg, base: Reg, offset: i64) {
        self.load(MemWidth::B8, true, rd, base, offset);
    }

    /// `lw rd, offset(base)` — 32-bit sign-extending load.
    pub fn lw(&mut self, rd: Reg, base: Reg, offset: i64) {
        self.load(MemWidth::B4, true, rd, base, offset);
    }

    /// `lwu rd, offset(base)` — 32-bit zero-extending load.
    pub fn lwu(&mut self, rd: Reg, base: Reg, offset: i64) {
        self.load(MemWidth::B4, false, rd, base, offset);
    }

    /// `lbu rd, offset(base)` — byte zero-extending load.
    pub fn lbu(&mut self, rd: Reg, base: Reg, offset: i64) {
        self.load(MemWidth::B1, false, rd, base, offset);
    }

    /// `sd src, offset(base)` — 64-bit store.
    pub fn sd(&mut self, src: Reg, base: Reg, offset: i64) {
        self.store(MemWidth::B8, src, base, offset);
    }

    /// `sw src, offset(base)` — 32-bit store.
    pub fn sw(&mut self, src: Reg, base: Reg, offset: i64) {
        self.store(MemWidth::B4, src, base, offset);
    }

    /// `sb src, offset(base)` — byte store.
    pub fn sb(&mut self, src: Reg, base: Reg, offset: i64) {
        self.store(MemWidth::B1, src, base, offset);
    }

    /// `prefetch offset(base)` — software prefetch hint.
    pub fn prefetch(&mut self, base: Reg, offset: i64) {
        self.inst(Inst::Prefetch { base, offset });
    }

    // ---- control flow ------------------------------------------------------

    /// Emits a conditional branch to `target`.
    pub fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, target: Label) {
        self.slots.push(Slot::Branch {
            cond,
            rs1,
            rs2,
            target,
        });
    }

    /// `beq rs1, rs2, target`
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Eq, rs1, rs2, target);
    }

    /// `bne rs1, rs2, target`
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Ne, rs1, rs2, target);
    }

    /// `blt rs1, rs2, target` (signed)
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Lt, rs1, rs2, target);
    }

    /// `bge rs1, rs2, target` (signed)
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Ge, rs1, rs2, target);
    }

    /// `bltu rs1, rs2, target` (unsigned)
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Ltu, rs1, rs2, target);
    }

    /// `bgeu rs1, rs2, target` (unsigned)
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Geu, rs1, rs2, target);
    }

    /// `jal rd, target`
    pub fn jal(&mut self, rd: Reg, target: Label) {
        self.slots.push(Slot::Jal { rd, target });
    }

    /// `j target` (pseudo: `jal x0, target`)
    pub fn j(&mut self, target: Label) {
        self.jal(Reg::ZERO, target);
    }

    /// `call target` (pseudo: `jal x1, target`)
    pub fn call(&mut self, target: Label) {
        self.jal(Reg::LINK, target);
    }

    /// `jalr rd, offset(base)`
    pub fn jalr(&mut self, rd: Reg, base: Reg, offset: i64) {
        self.inst(Inst::Jalr { rd, base, offset });
    }

    /// `ret` (pseudo: `jalr x0, 0(x1)`)
    pub fn ret(&mut self) {
        self.jalr(Reg::ZERO, Reg::LINK, 0);
    }

    /// `halt`
    pub fn halt(&mut self) {
        self.inst(Inst::Halt);
    }

    // ---- floating point -----------------------------------------------------

    /// Emits a floating-point operation.
    pub fn fpu(&mut self, op: FpuOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.inst(Inst::Fpu { op, rd, rs1, rs2 });
    }

    /// `fadd rd, rs1, rs2`
    pub fn fadd(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.fpu(FpuOp::Fadd, rd, rs1, rs2);
    }

    /// `fsub rd, rs1, rs2`
    pub fn fsub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.fpu(FpuOp::Fsub, rd, rs1, rs2);
    }

    /// `fmul rd, rs1, rs2`
    pub fn fmul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.fpu(FpuOp::Fmul, rd, rs1, rs2);
    }

    /// `fdiv rd, rs1, rs2`
    pub fn fdiv(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.fpu(FpuOp::Fdiv, rd, rs1, rs2);
    }

    // ---- data segment --------------------------------------------------------

    /// The address the next appended datum will occupy.
    pub fn data_cursor_addr(&self) -> u64 {
        self.data_cursor
    }

    /// Aligns the data cursor up to a multiple of `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align_data(&mut self, align: u64) {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let cur = self.data_cursor;
        let next = (cur + align - 1) & !(align - 1);
        self.skip_data(next - cur);
    }

    /// Writes `n` zero bytes (padding is part of the image).
    fn skip_data(&mut self, n: u64) {
        self.data_stream(n, |_| {});
    }

    /// Appends raw bytes to the data segment; returns their address.
    pub fn data_bytes(&mut self, bytes: &[u8]) -> u64 {
        let addr = self.data_cursor;
        self.image.write_bytes(addr, bytes);
        self.data_cursor += bytes.len() as u64;
        self.data_len += bytes.len() as u64;
        addr
    }

    /// Appends 64-bit little-endian words; returns the address of the first.
    pub fn data_u64(&mut self, words: &[u64]) -> u64 {
        self.align_data(8);
        let mut words = words.iter();
        self.data_stream(words.len() as u64 * 8, |chunk| {
            for (b, w) in chunk.chunks_exact_mut(8).zip(&mut words) {
                b.copy_from_slice(&w.to_le_bytes());
            }
        })
    }

    /// Appends `len` bytes that `fill` writes in address order, one chunk
    /// of a 4 KiB buffer at a time (every chunk but the last is full);
    /// returns their address. Nothing is staged beyond the buffer.
    pub fn data_stream(&mut self, len: u64, mut fill: impl FnMut(&mut [u8])) -> u64 {
        let addr = self.data_cursor;
        let mut buf = [0; 4096];
        let mut left = len;
        while left > 0 {
            let chunk = &mut buf[..left.min(4096) as usize];
            fill(chunk);
            left -= chunk.len() as u64;
            self.data_bytes(chunk);
        }
        addr
    }

    /// Appends `len` bytes that `fill` writes in place, in whatever order
    /// it draws them; returns their address, which `fill` is also given.
    /// The [`Region`] is the image's own page frames, every one the
    /// region spans materialized and zero until written.
    pub fn data_in_place(&mut self, len: u64, fill: impl FnOnce(u64, &mut Region<'_>)) -> u64 {
        let addr = self.data_cursor;
        let pages = self.image.pages_mut(addr, len);
        fill(addr, &mut Region { head: addr as usize % PAGE_SIZE, len, pages });
        self.data_cursor += len;
        self.data_len += len;
        addr
    }

    /// Reserves `n` zero bytes; returns their address.
    ///
    /// The reservation stays sparse (no bytes are stored in the program
    /// image), so multi-megabyte work buffers are cheap.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let addr = self.data_cursor;
        self.data_cursor += n;
        addr
    }

    // ---- finish ----------------------------------------------------------------

    /// Resolves labels and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Fails if a referenced label was never bound, a branch/jump target is
    /// out of encoding range, or an emitted instruction had an unencodable
    /// immediate.
    pub fn finish(self) -> Result<Program, BuildError> {
        let mut text = Vec::with_capacity(self.slots.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            let inst = match *slot {
                Slot::Done(i) => i,
                Slot::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    let t = self.labels[target.0].ok_or(BuildError::UnboundLabel(target))?;
                    let offset = t as i64 - idx as i64;
                    if !(-2048..=2047).contains(&offset) {
                        return Err(BuildError::OffsetOutOfRange {
                            inst_index: idx,
                            offset,
                        });
                    }
                    Inst::Branch {
                        cond,
                        rs1,
                        rs2,
                        offset,
                    }
                }
                Slot::Jal { rd, target } => {
                    let t = self.labels[target.0].ok_or(BuildError::UnboundLabel(target))?;
                    let offset = t as i64 - idx as i64;
                    if !(-131072..=131071).contains(&offset) {
                        return Err(BuildError::OffsetOutOfRange {
                            inst_index: idx,
                            offset,
                        });
                    }
                    Inst::Jal { rd, offset }
                }
            };
            let word = encode(inst).map_err(|source| BuildError::Encode {
                inst_index: idx,
                source,
            })?;
            text.push(word);
        }

        Ok(Program::assemble(self.text_base, &text, self.image, self.data_len))
    }
}

impl Default for Asm {
    fn default() -> Asm {
        Asm::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels() {
        let mut a = Asm::new();
        let fwd = a.label();
        a.beq(Reg::x(1), Reg::x(2), fwd); // idx 0 -> idx 2, offset +2
        a.nop(); // idx 1
        a.bind(fwd);
        let back = a.here();
        a.bne(Reg::x(1), Reg::x(2), back); // idx 2 -> idx 2, offset 0
        a.j(back); // idx 3 -> idx 2, offset -1
        let p = a.finish().unwrap();
        let insts = p.decode_all();
        assert_eq!(
            insts[0],
            Inst::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::x(1),
                rs2: Reg::x(2),
                offset: 2
            }
        );
        assert_eq!(
            insts[3],
            Inst::Jal {
                rd: Reg::ZERO,
                offset: -1
            }
        );
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new();
        let l = a.label();
        a.j(l);
        assert!(matches!(a.finish(), Err(BuildError::UnboundLabel(_))));
    }

    #[test]
    fn branch_out_of_range_is_an_error() {
        let mut a = Asm::new();
        let top = a.here();
        for _ in 0..3000 {
            a.nop();
        }
        a.beq(Reg::x(1), Reg::x(2), top);
        assert!(matches!(
            a.finish(),
            Err(BuildError::OffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn li_small_is_single_addi() {
        let mut a = Asm::new();
        a.li(Reg::x(1), -7);
        let p = a.finish().unwrap();
        assert_eq!(p.len_insts(), 1);
    }

    #[test]
    fn data_layout_and_alignment() {
        let mut a = Asm::new();
        let b = a.data_bytes(&[1, 2, 3]);
        let w = a.data_u64(&[0xdead]);
        assert_eq!(w % 8, 0, "u64 data is 8-byte aligned");
        assert!(w >= b + 3);
        a.halt();
        let p = a.finish().unwrap();
        let mut m = crate::SparseMem::new();
        p.load_into(&mut m);
        assert_eq!(m.read_u8(b), 1);
        assert_eq!(m.read_u64(w), 0xdead);
    }

    #[test]
    fn reserve_creates_sparse_gap() {
        let mut a = Asm::new();
        let before = a.data_u64(&[11]);
        let gap = a.reserve(1 << 20); // 1 MiB hole, no bytes in the image
        let after = a.data_u64(&[22]);
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(after, gap + (1 << 20));
        let image = p.image_bytes() - p.len_insts() as u64 * INST_BYTES;
        assert!(image < 64, "gap must not be materialized, got {image}");
        assert_eq!(p.image().page_count(), 3, "text, and the data either side");
        let mut m = crate::SparseMem::new();
        p.load_into(&mut m);
        assert_eq!(m.read_u64(before), 11);
        assert_eq!(m.read_u64(gap), 0);
        assert_eq!(m.read_u64(after), 22);
    }

    #[test]
    fn segments_are_the_runs_between_gaps_in_address_order() {
        const PAGE: u64 = 4096;
        let mut a = Asm::new();
        let base = a.data_cursor_addr();
        a.reserve(64); // a leading gap
        let first = a.data_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        a.reserve(2 * PAGE);
        a.reserve(PAGE); // two gaps back to back
        let second = a.data_bytes(&[9, 10]);
        a.reserve(32); // a trailing gap
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!((first, second), (base + 64, base + 72 + 3 * PAGE));
        let image = p.image();
        let mut back = [0; 10];
        image.read_bytes(first, &mut back[..8]);
        image.read_bytes(second, &mut back[8..]);
        assert_eq!(back, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(p.image_bytes(), INST_BYTES + 10);
        // The image holds the pages the runs wrote and no page the gaps
        // span alone; all of them shared frames.
        let mut pages = SparseMem::new();
        for (addr, n) in [(p.text_base(), INST_BYTES), (first, 8), (second, 2)] {
            pages.write_bytes(addr, &vec![0; n as usize]);
        }
        assert_eq!(image.page_count(), pages.page_count());
        assert_eq!(image.page_count(), 3);
        assert_eq!(image.owned_pages(), 0);
    }

    #[test]
    fn streamed_and_in_place_data_match_appended_bytes() {
        // From an unaligned cursor, so the region's pages straddle: the same
        // bytes appended, streamed in 4 KiB chunks, and written in place
        // backwards in 4-byte pieces.
        let bytes: Vec<u8> = (0..10_000u32).map(|i| (i * 7 + 3) as u8).collect();
        let len = bytes.len() as u64;
        let build = |how: u8| {
            let mut a = Asm::new();
            a.data_bytes(&[1; 100]);
            let mut chunks = bytes.chunks(4096);
            let at = match how {
                0 => a.data_bytes(&bytes),
                1 => a.data_stream(len, |c| c.copy_from_slice(chunks.next().unwrap())),
                _ => a.data_in_place(len, |_, region| {
                    for (i, piece) in bytes.chunks(4).enumerate().rev() {
                        region.at(i as u64 * 4, piece.len()).copy_from_slice(piece);
                    }
                }),
            };
            a.data_bytes(&[2]);
            a.halt();
            let p = a.finish().unwrap();
            let mut snap = crate::SnapWriter::new();
            p.image().save_state(&mut snap);
            (at, p.image_bytes(), p.image().page_count(), snap.into_bytes())
        };
        let appended = build(0);
        assert_eq!(appended.2, 4, "text and three data pages");
        assert!(build(1) == appended, "streamed");
        assert!(build(2) == appended, "in place");
    }

    #[test]
    #[should_panic(expected = "bytes past the end of the region")]
    fn in_place_bytes_stay_in_the_region() {
        Asm::new().data_in_place(8, |_, region| region.at(4, 5)[0] = 1);
    }

    #[test]
    #[should_panic(expected = "bytes across a page boundary")]
    fn in_place_bytes_stay_in_one_page() {
        Asm::new().data_in_place(8192, |_, region| region.at(4092, 8)[0] = 1);
    }

    #[test]
    fn cur_pc_tracks_emission() {
        let mut a = Asm::new();
        let start = a.cur_pc();
        a.nop();
        a.nop();
        assert_eq!(a.cur_pc(), start + 8);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }
}
