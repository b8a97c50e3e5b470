use std::sync::Arc;

use crate::{decode, Inst, SparseMem, INST_BYTES};

/// A complete executable image: encoded text, initialized data, and an
/// entry point. Immutable once built.
///
/// Programs are produced by the [`crate::Asm`] builder, the
/// [`crate::assemble`] text assembler or [`Program::from_parts`], and
/// consumed in two ways:
///
/// * [`Program::load_into`] maps the byte image into a [`SparseMem`]
///   (the path timing cores use). The program holds its text and data
///   once, as shared page frames, which every memory it is loaded into
///   shares until it writes one;
/// * [`Program::decoded`] is the text decoded once, at build, shared by
///   every frontend and interpreter of the program.
#[derive(Clone, Debug)]
pub struct Program {
    text_base: u64,
    /// Each text word decoded, in order; `None` for one that does not
    /// decode.
    decoded: Arc<[Option<Inst>]>,
    /// Text and data, every page a shared frame.
    image: SparseMem,
    /// Initialized bytes: the text plus every data byte written
    /// (alignment padding included, reserved gaps not).
    image_bytes: u64,
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
        Program::from_parts(DEFAULT_TEXT_BASE, &[], &[], DEFAULT_TEXT_BASE)
    }

    /// Builds a program from its encoded `text` at `text_base`, its
    /// initialized `data` as `(address, bytes)` runs, and its `entry`.
    pub fn from_parts(text_base: u64, text: &[u32], data: &[(u64, &[u8])], entry: u64) -> Program {
        let start = data.iter().fold(text_base, |a, &(base, _)| a.min(base));
        let mut image = SparseMem::based_at(start);
        for &(base, bytes) in data {
            image.write_bytes(base, bytes);
        }
        let data_bytes = data.iter().map(|&(_, bytes)| bytes.len() as u64).sum();
        Program {
            entry,
            ..Program::assemble(text_base, text, image, data_bytes)
        }
    }

    /// The program of `text` at `text_base` over `image`, a data image
    /// holding `data_bytes` initialized bytes; entered at `text_base`.
    pub(crate) fn assemble(
        text_base: u64,
        text: &[u32],
        mut image: SparseMem,
        data_bytes: u64,
    ) -> Program {
        let bytes: Vec<u8> = text.iter().flat_map(|w| w.to_le_bytes()).collect();
        image.write_bytes(text_base, &bytes);
        image.share();
        Program {
            text_base,
            decoded: text.iter().map(|&w| decode(w).ok()).collect(),
            image,
            image_bytes: bytes.len() as u64 + data_bytes,
            entry: text_base,
        }
    }

    /// Base address of the text segment.
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// The text decoded, one slot per instruction from
    /// [`Program::text_base`]; `None` for a word that does not decode.
    pub fn decoded(&self) -> &Arc<[Option<Inst>]> {
        &self.decoded
    }

    /// The byte image (text and data) as [`Program::load_into`] maps it.
    pub fn image(&self) -> &SparseMem {
        &self.image
    }

    /// Number of instructions in the text segment.
    pub fn len_insts(&self) -> usize {
        self.decoded.len()
    }

    /// One-past-the-end PC of the text segment.
    pub fn end_pc(&self) -> u64 {
        self.text_base + self.decoded.len() as u64 * INST_BYTES
    }

    /// `true` if `pc` addresses an instruction inside the text segment.
    pub fn contains_pc(&self, pc: u64) -> bool {
        pc >= self.text_base && pc < self.end_pc() && (pc - self.text_base) % INST_BYTES == 0
    }

    /// The instruction at `pc`, if `pc` lies in the text segment and its
    /// word decodes.
    pub fn inst_at(&self, pc: u64) -> Option<Inst> {
        if !self.contains_pc(pc) {
            return None;
        }
        self.decoded[((pc - self.text_base) / INST_BYTES) as usize]
    }

    /// The entire text segment, decoded, in order.
    ///
    /// # Panics
    ///
    /// Panics if a text word does not decode.
    pub fn decode_all(&self) -> Vec<Inst> {
        self.decoded
            .iter()
            .map(|i| i.expect("program text contains only valid encodings"))
            .collect()
    }

    /// Maps the full byte image (text + data) into `mem`. A page `mem`
    /// does not hold shares the program's frame, so no bytes are copied;
    /// a page it already holds gets the image page's bytes.
    pub fn load_into(&self, mem: &mut SparseMem) {
        mem.map(&self.image);
    }

    /// Total size of the initialized image in bytes (text + data).
    pub fn image_bytes(&self) -> u64 {
        self.image_bytes
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
        let text = [
            Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::x(1),
                rs1: Reg::ZERO,
                imm: 7,
            },
            Inst::Halt,
        ]
        .map(|i| encode(i).unwrap());
        Program::from_parts(
            DEFAULT_TEXT_BASE,
            &text,
            &[(DEFAULT_DATA_BASE, &[1, 2, 3, 4])],
            DEFAULT_TEXT_BASE,
        )
    }

    #[test]
    fn pc_bounds() {
        let p = tiny();
        assert!(p.contains_pc(p.text_base()));
        assert!(p.contains_pc(p.text_base() + 4));
        assert!(!p.contains_pc(p.text_base() + 8));
        assert!(!p.contains_pc(p.text_base() + 2), "misaligned pc");
        assert!(!p.contains_pc(p.text_base() - 4));
        assert_eq!(p.end_pc(), p.text_base() + 8);
    }

    #[test]
    fn inst_at_decodes() {
        let p = tiny();
        assert_eq!(p.inst_at(p.text_base() + 4), Some(Inst::Halt));
        assert_eq!(p.inst_at(p.text_base() + 8), None);
        assert_eq!(p.decode_all().len(), 2);
    }

    #[test]
    fn load_into_writes_text_and_data() {
        let p = tiny();
        let mut m = SparseMem::new();
        p.load_into(&mut m);
        assert_eq!(
            m.read_u32(p.text_base()),
            encode(p.decode_all()[0]).unwrap()
        );
        assert_eq!(m.read_u32(p.text_base() + 4), encode(Inst::Halt).unwrap());
        assert_eq!(m.read_u32(DEFAULT_DATA_BASE), 0x0403_0201);
        assert_eq!(p.image_bytes(), 12);
        assert_eq!((m.page_count(), m.owned_pages()), (2, 0));
    }
}
