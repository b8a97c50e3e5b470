//! Lock-step co-simulation against the functional golden model.

use std::fmt;

use sst_isa::{Inst, Interp, MemEffect, Program, SparseMem};
use sst_uarch::Commit;

/// A divergence between a core's commit stream and the reference
/// interpreter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CosimError {
    /// Index of the diverging commit (1-based).
    pub at: u64,
    /// Description of the mismatch.
    pub what: String,
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "co-simulation divergence at commit {}: {}", self.at, self.what)
    }
}

impl std::error::Error for CosimError {}

/// Verifies a core's architectural commit stream against the reference
/// interpreter, one instruction at a time.
///
/// Checks: PC, decoded instruction, sequence density, register writes, and
/// store address/size/value. Any mismatch means the timing model corrupted
/// architectural state — the cardinal sin of a speculation mechanism.
pub struct RetireChecker {
    interp: Interp,
    checked: u64,
}

// The verified-commit count, then the reference interpreter.
sst_isa::snap_record!(state RetireChecker "CHKR" { checked, interp });

impl RetireChecker {
    /// Creates a checker for `program`.
    pub fn new(program: &Program) -> RetireChecker {
        RetireChecker {
            interp: Interp::new(program),
            checked: 0,
        }
    }

    /// Creates a checker over an already loaded image — the arguments of
    /// [`Interp::over_image`].
    pub fn over_image(mem: SparseMem, text_base: u64, text: &[Option<Inst>], entry: u64) -> RetireChecker {
        RetireChecker {
            interp: Interp::over_image(mem, text_base, text, entry),
            checked: 0,
        }
    }

    /// Instructions verified so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// `true` once the reference has executed its `halt`.
    pub fn finished(&self) -> bool {
        self.interp.is_halted()
    }

    /// Verifies one commit.
    ///
    /// # Errors
    ///
    /// Returns a [`CosimError`] describing the first divergence.
    pub fn check(&mut self, c: &Commit) -> Result<(), CosimError> {
        let at = self.checked + 1;
        let err = |what: String| CosimError { at, what };
        let ev = self
            .interp
            .step()
            .map_err(|t| err(format!("reference trapped: {t}")))?;
        self.checked = at;
        if c.seq != at {
            return Err(err(format!("sequence {} is not dense", c.seq)));
        }
        if c.pc != ev.pc {
            return Err(err(format!("pc {:#x}, reference {:#x}", c.pc, ev.pc)));
        }
        if c.inst != ev.inst {
            return Err(err(format!("inst {:?}, reference {:?}", c.inst, ev.inst)));
        }
        if c.reg_write != ev.reg_write {
            return Err(err(format!(
                "register write {:?}, reference {:?} (pc {:#x})",
                c.reg_write, ev.reg_write, c.pc
            )));
        }
        match (c.store, ev.mem) {
            (None, MemEffect::Store { .. }) => {
                return Err(err("core missed a store".to_string()))
            }
            (Some(_), MemEffect::None | MemEffect::Load { .. }) => {
                return Err(err("core invented a store".to_string()))
            }
            (Some((addr, bytes, value)), MemEffect::Store { addr: ea, bytes: eb, value: ev_ }) => {
                if (addr, bytes) != (ea, eb) {
                    return Err(err(format!(
                        "store to {addr:#x}/{bytes}, reference {ea:#x}/{eb}"
                    )));
                }
                let mask = if bytes == 8 {
                    u64::MAX
                } else {
                    (1u64 << (bytes * 8)) - 1
                };
                if value & mask != ev_ & mask {
                    return Err(err(format!(
                        "store value {:#x}, reference {:#x}",
                        value & mask,
                        ev_ & mask
                    )));
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::{Asm, Inst, Reg};

    fn tiny_program() -> Program {
        let mut a = Asm::new();
        a.li(Reg::x(1), 7);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn accepts_matching_stream() {
        let p = tiny_program();
        let mut ck = RetireChecker::new(&p);
        ck.check(&Commit {
            seq: 1,
            pc: p.entry,
            inst: p.inst_at(p.entry).unwrap(),
            reg_write: Some((Reg::x(1), 7)),
            store: None,
            at: 0,
        })
        .unwrap();
        assert_eq!(ck.checked(), 1);
        assert!(!ck.finished());
    }

    #[test]
    fn rejects_wrong_value() {
        let p = tiny_program();
        let mut ck = RetireChecker::new(&p);
        let e = ck
            .check(&Commit {
                seq: 1,
                pc: p.entry,
                inst: p.inst_at(p.entry).unwrap(),
                reg_write: Some((Reg::x(1), 8)),
                store: None,
                at: 0,
            })
            .unwrap_err();
        assert!(e.what.contains("register write"), "{e}");
    }

    #[test]
    fn rejects_gapped_seq() {
        let p = tiny_program();
        let mut ck = RetireChecker::new(&p);
        let e = ck
            .check(&Commit {
                seq: 2,
                pc: p.entry,
                inst: p.inst_at(p.entry).unwrap(),
                reg_write: Some((Reg::x(1), 7)),
                store: None,
                at: 0,
            })
            .unwrap_err();
        assert!(e.what.contains("dense"), "{e}");
    }

    #[test]
    fn rejects_invented_store() {
        let p = tiny_program();
        let mut ck = RetireChecker::new(&p);
        let e = ck
            .check(&Commit {
                seq: 1,
                pc: p.entry,
                inst: Inst::Halt,
                reg_write: None,
                store: Some((0x100, 8, 1)),
                at: 0,
            })
            .unwrap_err();
        assert!(e.what.contains("inst") || e.what.contains("store"), "{e}");
    }
}
