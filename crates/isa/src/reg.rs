use std::fmt;

/// An architectural register name.
///
/// The ISA exposes 32 integer registers `x0..x31` and 32 floating-point
/// registers `f0..f31`. Internally (and in the checkpoint hardware of every
/// core model) both files live in one unified 64-entry register space:
/// indices `0..=31` are the integer file, `32..=63` the FP file. `x0` is
/// hardwired to zero; writes to it are dropped.
///
/// `Reg` is a thin validated index, cheap to copy and to use as an array
/// index via [`Reg::index`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired-zero integer register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// Conventional link register (`x1`), written by `jal`/`jalr` pseudos.
    pub const LINK: Reg = Reg(1);
    /// Conventional stack pointer (`x2`).
    pub const SP: Reg = Reg(2);

    /// Returns integer register `xN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn x(n: u8) -> Reg {
        assert!(n < 32, "integer register index out of range");
        Reg(n)
    }

    /// Returns floating-point register `fN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn f(n: u8) -> Reg {
        assert!(n < 32, "fp register index out of range");
        Reg(32 + n)
    }

    /// Builds a register from its unified 6-bit index.
    ///
    /// Returns `None` if `idx >= 64`.
    pub const fn from_index(idx: u8) -> Option<Reg> {
        if idx < 64 {
            Some(Reg(idx))
        } else {
            None
        }
    }

    /// The unified index in `0..64`, suitable for indexing register files.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The unified index as the raw `u8` used by the binary encoding.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// `true` for `x0`, whose value is always zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `true` if this names one of the integer registers `x0..x31`.
    pub const fn is_int(self) -> bool {
        self.0 < 32
    }

    /// `true` if this names one of the FP registers `f0..f31`.
    pub const fn is_fp(self) -> bool {
        self.0 >= 32
    }

    /// Iterates over all 64 architectural registers in index order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0u8..64).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_int() {
            write!(f, "x{}", self.0)
        } else {
            write!(f, "f{}", self.0 - 32)
        }
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_ranges() {
        assert_eq!(Reg::x(0).index(), 0);
        assert_eq!(Reg::x(31).index(), 31);
        assert_eq!(Reg::f(0).index(), 32);
        assert_eq!(Reg::f(31).index(), 63);
        assert!(Reg::x(5).is_int());
        assert!(!Reg::x(5).is_fp());
        assert!(Reg::f(5).is_fp());
    }

    #[test]
    fn zero_register() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::x(1).is_zero());
        assert!(!Reg::f(0).is_zero());
    }

    #[test]
    fn from_index_bounds() {
        assert_eq!(Reg::from_index(63), Some(Reg::f(31)));
        assert_eq!(Reg::from_index(64), None);
        assert_eq!(Reg::from_index(0), Some(Reg::ZERO));
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::x(7).to_string(), "x7");
        assert_eq!(Reg::f(12).to_string(), "f12");
    }

    #[test]
    fn all_covers_everything_once() {
        let regs: Vec<Reg> = Reg::all().collect();
        assert_eq!(regs.len(), 64);
        assert_eq!(regs[0], Reg::ZERO);
        assert_eq!(regs[63], Reg::f(31));
    }

    #[test]
    #[should_panic]
    fn x_out_of_range_panics() {
        let _ = Reg::x(32);
    }

    #[test]
    #[should_panic]
    fn f_out_of_range_panics() {
        let _ = Reg::f(32);
    }
}
