use crate::{decode, Inst, SparseMem, INST_BYTES};

/// A contiguous initialized data region of a [`Program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// First byte address of the segment.
    pub base: u64,
    /// Segment contents.
    pub bytes: Vec<u8>,
}

impl Segment {
    /// One-past-the-end address of the segment.
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }
}

/// A complete executable image: encoded text, initialized data segments,
/// and an entry point.
///
/// Programs are produced by the [`crate::Asm`] builder or the
/// [`crate::assemble`] text assembler and consumed in two ways:
///
/// * [`Program::load_into`] writes the byte image into a [`SparseMem`]
///   (the path timing cores use — their instruction caches fetch and decode
///   real bytes);
/// * [`Program::inst_at`] decodes directly from the text vector (the fast
///   path used by the functional interpreter).
#[derive(Clone, Debug)]
pub struct Program {
    /// Base address of the text segment.
    pub text_base: u64,
    /// Encoded instruction words, contiguous from `text_base`.
    pub text: Vec<u32>,
    /// Initialized data segments.
    pub data: Vec<Segment>,
    /// Initial program counter.
    pub entry: u64,
}

/// Default text segment base used by the builders.
pub const DEFAULT_TEXT_BASE: u64 = 0x1_0000;
/// Default first data segment base used by the builders.
pub const DEFAULT_DATA_BASE: u64 = 0x100_0000;

impl Program {
    /// Creates an empty program at the default bases.
    pub fn new() -> Program {
        Program {
            text_base: DEFAULT_TEXT_BASE,
            text: Vec::new(),
            data: Vec::new(),
            entry: DEFAULT_TEXT_BASE,
        }
    }

    /// Number of instructions in the text segment.
    pub fn len_insts(&self) -> usize {
        self.text.len()
    }

    /// One-past-the-end PC of the text segment.
    pub fn end_pc(&self) -> u64 {
        self.text_base + self.text.len() as u64 * INST_BYTES
    }

    /// `true` if `pc` addresses an instruction inside the text segment.
    pub fn contains_pc(&self, pc: u64) -> bool {
        pc >= self.text_base && pc < self.end_pc() && (pc - self.text_base) % INST_BYTES == 0
    }

    /// Decodes the instruction at `pc`, if `pc` lies in the text segment.
    pub fn inst_at(&self, pc: u64) -> Option<Inst> {
        if !self.contains_pc(pc) {
            return None;
        }
        let idx = ((pc - self.text_base) / INST_BYTES) as usize;
        decode(self.text[idx]).ok()
    }

    /// Decodes the entire text segment in order.
    pub fn decode_all(&self) -> Vec<Inst> {
        self.text
            .iter()
            .map(|&w| decode(w).expect("program text contains only valid encodings"))
            .collect()
    }

    /// Writes the full byte image (text + data) into `mem`, sizing its
    /// page window for the whole image first.
    pub fn load_into(&self, mem: &mut SparseMem) {
        let (mut start, mut end) = (self.text_base, self.end_pc());
        for seg in &self.data {
            (start, end) = (start.min(seg.base), end.max(seg.end()));
        }
        mem.reserve(start, end);
        for (i, &w) in self.text.iter().enumerate() {
            mem.write_u32(self.text_base + i as u64 * INST_BYTES, w);
        }
        for seg in &self.data {
            mem.write_bytes(seg.base, &seg.bytes);
        }
    }

    /// Total size of the initialized image in bytes (text + data).
    pub fn image_bytes(&self) -> u64 {
        self.text.len() as u64 * INST_BYTES
            + self.data.iter().map(|s| s.bytes.len() as u64).sum::<u64>()
    }
}

impl Default for Program {
    fn default() -> Program {
        Program::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode, AluOp, Reg};

    fn tiny() -> Program {
        let mut p = Program::new();
        p.text = vec![
            encode(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::x(1),
                rs1: Reg::ZERO,
                imm: 7,
            })
            .unwrap(),
            encode(Inst::Halt).unwrap(),
        ];
        p.data.push(Segment {
            base: DEFAULT_DATA_BASE,
            bytes: vec![1, 2, 3, 4],
        });
        p
    }

    #[test]
    fn pc_bounds() {
        let p = tiny();
        assert!(p.contains_pc(p.text_base));
        assert!(p.contains_pc(p.text_base + 4));
        assert!(!p.contains_pc(p.text_base + 8));
        assert!(!p.contains_pc(p.text_base + 2), "misaligned pc");
        assert!(!p.contains_pc(p.text_base - 4));
        assert_eq!(p.end_pc(), p.text_base + 8);
    }

    #[test]
    fn inst_at_decodes() {
        let p = tiny();
        assert_eq!(p.inst_at(p.text_base + 4), Some(Inst::Halt));
        assert_eq!(p.inst_at(p.text_base + 8), None);
        assert_eq!(p.decode_all().len(), 2);
    }

    #[test]
    fn load_into_writes_text_and_data() {
        let p = tiny();
        let mut m = SparseMem::new();
        p.load_into(&mut m);
        assert_eq!(m.read_u32(p.text_base), p.text[0]);
        assert_eq!(m.read_u32(p.text_base + 4), p.text[1]);
        assert_eq!(m.read_u32(DEFAULT_DATA_BASE), 0x0403_0201);
        assert_eq!(p.image_bytes(), 12);
    }
}
