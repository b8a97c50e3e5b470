//! Text assembler.
//!
//! [`assemble`] turns assembly source into a [`Program`]. Syntax:
//!
//! ```text
//! .text                      # switch to the text section (default)
//! main:                      # labels end with ':'
//!     li   x5, 0x1234        # pseudo: loads any 64-bit constant
//!     la   x6, table         # pseudo: loads a data label's address
//!     ld   x7, 8(x6)         # loads/stores use offset(base)
//!     beq  x7, x0, done      # branches take a text label
//!     j    main              # pseudo: jal x0
//! done:
//!     halt
//!
//! .data
//! table:  .word64 1, 2, 3    # 64-bit little-endian words
//! msg:    .byte 1, 2, 0xff   # raw bytes
//! vec:    .f64 1.5, -2.0     # f64 bit patterns
//! buf:    .zero 4096         # sparse zero reservation
//!         .align 64          # align the data cursor
//! ```
//!
//! Comments start with `#` or `;`. Registers are `x0..x31` / `f0..f31` with
//! aliases `zero`, `ra`, `sp`. Data labels must not collide with text labels.
//! The assembler is two-pass: data is laid out first, so `la` may reference
//! data labels defined later in the file; text labels may be forward
//! references as usual.

use std::collections::HashMap;
use std::fmt;

use crate::{Asm, Label, MemWidth, Program, Reg};

/// Error from [`assemble`], carrying the 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending source line.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError {
        line,
        msg: msg.into(),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// Strips a comment and trims whitespace.
fn clean(line: &str) -> &str {
    let no_comment = match line.find(['#', ';']) {
        Some(pos) => &line[..pos],
        None => line,
    };
    no_comment.trim()
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let t = tok.trim();
    match t {
        "zero" => return Ok(Reg::ZERO),
        "ra" => return Ok(Reg::LINK),
        "sp" => return Ok(Reg::SP),
        _ => {}
    }
    let (kind, num) = t.split_at(1.min(t.len()));
    let n: u8 = num
        .parse()
        .map_err(|_| err(line, format!("bad register `{t}`")))?;
    match kind {
        "x" if n < 32 => Ok(Reg::x(n)),
        "f" if n < 32 => Ok(Reg::f(n)),
        _ => Err(err(line, format!("bad register `{t}`"))),
    }
}

fn parse_int(tok: &str, line: usize) -> Result<i64, AsmError> {
    let t = tok.trim();
    let (neg, body) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16)
            .map_err(|_| err(line, format!("bad integer `{t}`")))? as i64
    } else {
        body.replace('_', "")
            .parse::<i64>()
            .map_err(|_| err(line, format!("bad integer `{t}`")))?
    };
    Ok(if neg { v.wrapping_neg() } else { v })
}

fn parse_f64(tok: &str, line: usize) -> Result<f64, AsmError> {
    tok.trim()
        .parse::<f64>()
        .map_err(|_| err(line, format!("bad float `{tok}`")))
}

/// Parses `offset(base)`, or a bare `(base)` / `offset` form.
fn parse_mem_operand(tok: &str, line: usize) -> Result<(i64, Reg), AsmError> {
    let t = tok.trim();
    if let Some(open) = t.find('(') {
        let close = t
            .rfind(')')
            .ok_or_else(|| err(line, format!("missing `)` in `{t}`")))?;
        let off_str = t[..open].trim();
        let offset = if off_str.is_empty() {
            0
        } else {
            parse_int(off_str, line)?
        };
        let base = parse_reg(&t[open + 1..close], line)?;
        Ok((offset, base))
    } else {
        Err(err(line, format!("expected offset(base), got `{t}`")))
    }
}

struct TextCtx {
    labels: HashMap<String, Label>,
    bound: HashMap<String, bool>,
}

impl TextCtx {
    fn get(&mut self, a: &mut Asm, name: &str) -> Label {
        if let Some(&l) = self.labels.get(name) {
            return l;
        }
        let l = a.label();
        self.labels.insert(name.to_string(), l);
        self.bound.insert(name.to_string(), false);
        l
    }
}

/// Assembles a source string into a [`Program`].
///
/// See the [module documentation](self) for the accepted syntax.
///
/// # Errors
///
/// Returns an [`AsmError`] with the offending line for any syntax error,
/// unknown mnemonic, duplicate or undefined label, or out-of-range operand.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut a = Asm::new();

    // ---- pass 1: lay out the data section, collecting data-label addresses.
    // A label's address is where the *next datum* lands, after that datum's
    // own alignment — so bare labels are held pending until a directive is
    // seen.
    let mut data_labels: HashMap<String, u64> = HashMap::new();
    {
        let mut section = Section::Text;
        let mut pending: Vec<(String, usize)> = Vec::new();
        for (i, raw) in source.lines().enumerate() {
            let lno = i + 1;
            let mut line = clean(raw);
            if line.is_empty() {
                continue;
            }
            if line == ".text" {
                section = Section::Text;
                continue;
            }
            if line == ".data" {
                section = Section::Data;
                continue;
            }
            if section != Section::Data {
                continue;
            }
            if let Some(colon) = line.find(':') {
                let name = line[..colon].trim();
                if name.is_empty() || name.contains(char::is_whitespace) {
                    return Err(err(lno, "bad label"));
                }
                if data_labels.contains_key(name) || pending.iter().any(|(n, _)| n == name) {
                    return Err(err(lno, format!("duplicate data label `{name}`")));
                }
                pending.push((name.to_string(), lno));
                line = line[colon + 1..].trim();
                if line.is_empty() {
                    continue;
                }
            }
            let addr = data_directive_addr_probe(&mut a, line, lno)?;
            for (name, _) in pending.drain(..) {
                data_labels.insert(name, addr);
            }
            apply_data_directive(&mut a, line, lno)?;
        }
        // Trailing labels point at the end of the data image.
        let tail = a.data_cursor_addr();
        for (name, _) in pending.drain(..) {
            data_labels.insert(name, tail);
        }
    }

    // ---- pass 2: assemble the text section.
    let mut ctx = TextCtx {
        labels: HashMap::new(),
        bound: HashMap::new(),
    };
    let mut section = Section::Text;
    for (i, raw) in source.lines().enumerate() {
        let lno = i + 1;
        let mut line = clean(raw);
        if line.is_empty() {
            continue;
        }
        if line == ".text" {
            section = Section::Text;
            continue;
        }
        if line == ".data" {
            section = Section::Data;
            continue;
        }
        if section != Section::Text {
            continue;
        }
        while let Some(colon) = line.find(':') {
            let name = line[..colon].trim().to_string();
            if name.is_empty() || name.contains(char::is_whitespace) {
                return Err(err(lno, "bad label"));
            }
            if data_labels.contains_key(&name) {
                return Err(err(lno, format!("label `{name}` already used in .data")));
            }
            let l = ctx.get(&mut a, &name);
            if ctx.bound[&name] {
                return Err(err(lno, format!("duplicate label `{name}`")));
            }
            a.bind(l);
            ctx.bound.insert(name, true);
            line = line[colon + 1..].trim();
        }
        if line.is_empty() {
            continue;
        }
        emit_inst(&mut a, &mut ctx, &data_labels, line, lno)?;
    }

    for (name, bound) in &ctx.bound {
        if !bound {
            return Err(AsmError {
                line: 0,
                msg: format!("undefined label `{name}`"),
            });
        }
    }

    a.finish().map_err(|e| AsmError {
        line: 0,
        msg: e.to_string(),
    })
}

/// Returns the address the next datum of `directive` will occupy (applying
/// only its alignment), without emitting anything.
fn data_directive_addr_probe(a: &mut Asm, directive: &str, lno: usize) -> Result<u64, AsmError> {
    let d = directive.trim();
    if d.starts_with(".word64") || d.starts_with(".f64") {
        a.align_data(8);
    } else if d.starts_with(".word32") {
        a.align_data(4);
    } else if let Some(rest) = d.strip_prefix(".align") {
        let n = parse_int(rest, lno)?;
        if n <= 0 || !(n as u64).is_power_of_two() {
            return Err(err(lno, "alignment must be a positive power of two"));
        }
        a.align_data(n as u64);
    }
    Ok(a.data_cursor_addr())
}

fn apply_data_directive(a: &mut Asm, directive: &str, lno: usize) -> Result<(), AsmError> {
    let d = directive.trim();
    if d.is_empty() {
        return Ok(());
    }
    let (name, rest) = match d.find(char::is_whitespace) {
        Some(pos) => (&d[..pos], d[pos..].trim()),
        None => (d, ""),
    };
    match name {
        ".word64" => {
            let vals = split_list(rest)
                .map(|t| parse_int(t, lno).map(|v| v as u64))
                .collect::<Result<Vec<_>, _>>()?;
            a.data_u64(&vals);
        }
        ".word32" => {
            a.align_data(4);
            for t in split_list(rest) {
                let v = parse_int(t, lno)? as u32;
                a.data_bytes(&v.to_le_bytes());
            }
        }
        ".byte" => {
            for t in split_list(rest) {
                let v = parse_int(t, lno)?;
                if !(0..=255).contains(&v) && !(-128..0).contains(&v) {
                    return Err(err(lno, format!("byte value {v} out of range")));
                }
                a.data_bytes(&[(v & 0xff) as u8]);
            }
        }
        ".f64" => {
            let vals = split_list(rest)
                .map(|t| parse_f64(t, lno).map(f64::to_bits))
                .collect::<Result<Vec<_>, _>>()?;
            a.data_u64(&vals);
        }
        ".zero" => {
            let n = parse_int(rest, lno)?;
            if n < 0 {
                return Err(err(lno, "negative .zero size"));
            }
            a.reserve(n as u64);
        }
        ".align" => {
            // already applied by the probe when labelled; idempotent anyway
            let n = parse_int(rest, lno)?;
            if n <= 0 || !(n as u64).is_power_of_two() {
                return Err(err(lno, "alignment must be a positive power of two"));
            }
            a.align_data(n as u64);
        }
        other => return Err(err(lno, format!("unknown data directive `{other}`"))),
    }
    Ok(())
}

fn split_list(s: &str) -> impl Iterator<Item = &str> {
    s.split(',').map(str::trim).filter(|t| !t.is_empty())
}

fn emit_inst(
    a: &mut Asm,
    ctx: &mut TextCtx,
    data_labels: &HashMap<String, u64>,
    line: &str,
    lno: usize,
) -> Result<(), AsmError> {
    use crate::{AluOp, BranchCond, FpuOp};

    let (mn, rest) = match line.find(char::is_whitespace) {
        Some(pos) => (&line[..pos], line[pos..].trim()),
        None => (line, ""),
    };
    let ops: Vec<&str> = split_list(rest).collect();

    let need = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(
                lno,
                format!("`{mn}` expects {n} operands, got {}", ops.len()),
            ))
        }
    };

    let alu3 = |m: &str| -> Option<AluOp> {
        Some(match m {
            "add" => AluOp::Add,
            "sub" => AluOp::Sub,
            "and" => AluOp::And,
            "or" => AluOp::Or,
            "xor" => AluOp::Xor,
            "sll" => AluOp::Sll,
            "srl" => AluOp::Srl,
            "sra" => AluOp::Sra,
            "slt" => AluOp::Slt,
            "sltu" => AluOp::Sltu,
            "mul" => AluOp::Mul,
            "mulh" => AluOp::Mulh,
            "div" => AluOp::Div,
            "divu" => AluOp::Divu,
            "rem" => AluOp::Rem,
            "remu" => AluOp::Remu,
            _ => return None,
        })
    };
    let alui = |m: &str| -> Option<AluOp> {
        Some(match m {
            "addi" => AluOp::Add,
            "andi" => AluOp::And,
            "ori" => AluOp::Or,
            "xori" => AluOp::Xor,
            "slli" => AluOp::Sll,
            "srli" => AluOp::Srl,
            "srai" => AluOp::Sra,
            "slti" => AluOp::Slt,
            "sltiu" => AluOp::Sltu,
            _ => return None,
        })
    };
    let load_kind = |m: &str| -> Option<(MemWidth, bool)> {
        Some(match m {
            "lb" => (MemWidth::B1, true),
            "lbu" => (MemWidth::B1, false),
            "lh" => (MemWidth::B2, true),
            "lhu" => (MemWidth::B2, false),
            "lw" => (MemWidth::B4, true),
            "lwu" => (MemWidth::B4, false),
            "ld" | "fld" => (MemWidth::B8, true),
            _ => return None,
        })
    };
    let store_kind = |m: &str| -> Option<MemWidth> {
        Some(match m {
            "sb" => MemWidth::B1,
            "sh" => MemWidth::B2,
            "sw" => MemWidth::B4,
            "sd" | "fsd" => MemWidth::B8,
            _ => return None,
        })
    };
    let br_kind = |m: &str| -> Option<BranchCond> {
        Some(match m {
            "beq" => BranchCond::Eq,
            "bne" => BranchCond::Ne,
            "blt" => BranchCond::Lt,
            "bge" => BranchCond::Ge,
            "bltu" => BranchCond::Ltu,
            "bgeu" => BranchCond::Geu,
            _ => return None,
        })
    };
    let fpu_bin = |m: &str| -> Option<FpuOp> {
        Some(match m {
            "fadd" => FpuOp::Fadd,
            "fsub" => FpuOp::Fsub,
            "fmul" => FpuOp::Fmul,
            "fdiv" => FpuOp::Fdiv,
            "fmin" => FpuOp::Fmin,
            "fmax" => FpuOp::Fmax,
            "feq" => FpuOp::Feq,
            "flt" => FpuOp::Flt,
            "fle" => FpuOp::Fle,
            _ => return None,
        })
    };

    if let Some(op) = alu3(mn) {
        need(3)?;
        a.alu(
            op,
            parse_reg(ops[0], lno)?,
            parse_reg(ops[1], lno)?,
            parse_reg(ops[2], lno)?,
        );
        return Ok(());
    }
    if let Some(op) = alui(mn) {
        need(3)?;
        a.alu_imm(
            op,
            parse_reg(ops[0], lno)?,
            parse_reg(ops[1], lno)?,
            parse_int(ops[2], lno)?,
        );
        return Ok(());
    }
    if let Some((w, s)) = load_kind(mn) {
        need(2)?;
        let rd = parse_reg(ops[0], lno)?;
        let (off, base) = parse_mem_operand(ops[1], lno)?;
        a.load(w, s, rd, base, off);
        return Ok(());
    }
    if let Some(w) = store_kind(mn) {
        need(2)?;
        let src = parse_reg(ops[0], lno)?;
        let (off, base) = parse_mem_operand(ops[1], lno)?;
        a.store(w, src, base, off);
        return Ok(());
    }
    if let Some(c) = br_kind(mn) {
        need(3)?;
        let rs1 = parse_reg(ops[0], lno)?;
        let rs2 = parse_reg(ops[1], lno)?;
        let target = ctx.get(a, ops[2]);
        a.branch(c, rs1, rs2, target);
        return Ok(());
    }
    if let Some(op) = fpu_bin(mn) {
        need(3)?;
        a.fpu(
            op,
            parse_reg(ops[0], lno)?,
            parse_reg(ops[1], lno)?,
            parse_reg(ops[2], lno)?,
        );
        return Ok(());
    }

    match mn {
        "lui" => {
            need(2)?;
            let rd = parse_reg(ops[0], lno)?;
            let imm = parse_int(ops[1], lno)?;
            a.inst(crate::Inst::Lui { rd, imm });
        }
        "fsqrt" | "fcvt.d.l" | "fcvt.l.d" => {
            need(2)?;
            let op = match mn {
                "fsqrt" => FpuOp::Fsqrt,
                "fcvt.d.l" => FpuOp::CvtIntToF,
                _ => FpuOp::CvtFToInt,
            };
            a.fpu(
                op,
                parse_reg(ops[0], lno)?,
                parse_reg(ops[1], lno)?,
                Reg::ZERO,
            );
        }
        "beqz" | "bnez" => {
            need(2)?;
            let rs1 = parse_reg(ops[0], lno)?;
            let target = ctx.get(a, ops[1]);
            let cond = if mn == "beqz" {
                BranchCond::Eq
            } else {
                BranchCond::Ne
            };
            a.branch(cond, rs1, Reg::ZERO, target);
        }
        "jal" => match ops.len() {
            1 => {
                let t = ctx.get(a, ops[0]);
                a.jal(Reg::LINK, t);
            }
            2 => {
                let rd = parse_reg(ops[0], lno)?;
                let t = ctx.get(a, ops[1]);
                a.jal(rd, t);
            }
            n => return Err(err(lno, format!("`jal` expects 1 or 2 operands, got {n}"))),
        },
        "j" => {
            need(1)?;
            let t = ctx.get(a, ops[0]);
            a.j(t);
        }
        "call" => {
            need(1)?;
            let t = ctx.get(a, ops[0]);
            a.call(t);
        }
        "jalr" => {
            need(2)?;
            let rd = parse_reg(ops[0], lno)?;
            let (off, base) = parse_mem_operand(ops[1], lno)?;
            a.jalr(rd, base, off);
        }
        "ret" => {
            need(0)?;
            a.ret();
        }
        "mv" | "fmv" => {
            need(2)?;
            a.mv(parse_reg(ops[0], lno)?, parse_reg(ops[1], lno)?);
        }
        "li" => {
            need(2)?;
            a.li(parse_reg(ops[0], lno)?, parse_int(ops[1], lno)?);
        }
        "la" => {
            need(2)?;
            let rd = parse_reg(ops[0], lno)?;
            let addr = *data_labels
                .get(ops[1])
                .ok_or_else(|| err(lno, format!("unknown data label `{}`", ops[1])))?;
            a.la(rd, addr);
        }
        "prefetch" => {
            need(1)?;
            let (off, base) = parse_mem_operand(ops[0], lno)?;
            a.prefetch(base, off);
        }
        "nop" => {
            need(0)?;
            a.nop();
        }
        "halt" => {
            need(0)?;
            a.halt();
        }
        other => return Err(err(lno, format!("unknown mnemonic `{other}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interp, StopReason};

    #[test]
    fn full_featured_source_assembles_and_runs() {
        let p = assemble(
            r#"
            .data
            table: .word64 3, 1, 4, 1, 5
            buf:   .zero 64
            vals:  .f64 2.0, 8.0

            .text
            main:
                la   x10, table
                li   x11, 5
                li   x12, 0       # sum
            loop:
                ld   x13, 0(x10)
                add  x12, x12, x13
                addi x10, x10, 8
                addi x11, x11, -1
                bnez x11, loop
                la   x14, buf
                sd   x12, 0(x14)
                la   x15, vals
                fld  f0, 0(x15)
                fld  f1, 8(x15)
                fmul f2, f0, f1
                call square
                halt
            square:
                mul  x12, x12, x12
                ret
            "#,
        )
        .unwrap();
        let mut i = Interp::new(&p);
        let out = i.run(10_000).unwrap();
        assert_eq!(out.stop, StopReason::Halt);
        assert_eq!(i.state().read(Reg::x(12)), 14 * 14);
        assert_eq!(f64::from_bits(i.state().read(Reg::f(2))), 16.0);
    }

    #[test]
    fn forward_data_label_reference() {
        // `la` before the .data section that defines the label.
        let p = assemble(
            r#"
            .text
                la  x1, value
                ld  x2, 0(x1)
                halt
            .data
            value: .word64 42
            "#,
        )
        .unwrap();
        let mut i = Interp::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.state().read(Reg::x(2)), 42);
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = assemble("  bogus x1, x2\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("bogus"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("a:\n nop\na:\n halt\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn undefined_text_label_rejected() {
        let e = assemble(" j nowhere\n halt\n").unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn register_aliases() {
        let p = assemble(
            r#"
            li sp, 100
            li ra, 200
            add x3, sp, ra
            mv x4, zero
            halt
            "#,
        )
        .unwrap();
        let mut i = Interp::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.state().read(Reg::x(3)), 300);
        assert_eq!(i.state().read(Reg::x(4)), 0);
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble(" li x1, 0xff\n li x2, -16\n add x3, x1, x2\n halt\n").unwrap();
        let mut i = Interp::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.state().read(Reg::x(3)), 0xef);
    }

    #[test]
    fn label_and_inst_on_same_line() {
        let p = assemble("start: li x1, 1\n j end\n li x1, 9\nend: halt\n").unwrap();
        let mut i = Interp::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.state().read(Reg::x(1)), 1);
    }

    #[test]
    fn data_text_label_collision_rejected() {
        let e = assemble(".data\nd: .word64 1\n.text\nd: halt\n").unwrap_err();
        assert!(e.msg.contains("already used"));
    }

    #[test]
    fn prefetch_and_alignment_directives() {
        let p = assemble(
            r#"
            .data
                .align 64
            big: .zero 128
            .text
                la x1, big
                prefetch 0(x1)
                halt
            "#,
        )
        .unwrap();
        let mut i = Interp::new(&p);
        assert_eq!(i.run(100).unwrap().stop, StopReason::Halt);
    }
}
