//! Condition codes for `jcc`, `setcc` and `cmovcc`.

use std::fmt;

/// An x86 condition code (the low nibble of the `jcc`/`setcc`/`cmovcc`
/// opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    O,
    No,
    B,
    Ae,
    E,
    Ne,
    Be,
    A,
    S,
    Ns,
    P,
    Np,
    L,
    Ge,
    Le,
    G,
}

impl Cond {
    /// All sixteen condition codes in encoding order.
    pub const ALL: [Cond; 16] = [
        Cond::O,
        Cond::No,
        Cond::B,
        Cond::Ae,
        Cond::E,
        Cond::Ne,
        Cond::Be,
        Cond::A,
        Cond::S,
        Cond::Ns,
        Cond::P,
        Cond::Np,
        Cond::L,
        Cond::Ge,
        Cond::Le,
        Cond::G,
    ];

    /// The encoding nibble (0–15).
    pub const fn number(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Cond::number`].
    ///
    /// # Panics
    ///
    /// Panics if `n > 15`.
    pub fn from_number(n: u8) -> Cond {
        Cond::ALL[n as usize]
    }

    /// The negated condition (`e` ↔ `ne`, `l` ↔ `ge`, …).
    pub fn negate(self) -> Cond {
        Cond::from_number(self.number() ^ 1)
    }

    /// Evaluate the condition against concrete flag values.
    pub fn eval(self, cf: bool, pf: bool, zf: bool, sf: bool, of: bool) -> bool {
        match self {
            Cond::O => of,
            Cond::No => !of,
            Cond::B => cf,
            Cond::Ae => !cf,
            Cond::E => zf,
            Cond::Ne => !zf,
            Cond::Be => cf || zf,
            Cond::A => !(cf || zf),
            Cond::S => sf,
            Cond::Ns => !sf,
            Cond::P => pf,
            Cond::Np => !pf,
            Cond::L => sf != of,
            Cond::Ge => sf == of,
            Cond::Le => zf || (sf != of),
            Cond::G => !zf && (sf == of),
        }
    }

    /// Mnemonic suffix (`o`, `b`, `ne`, …).
    pub const fn suffix(self) -> &'static str {
        match self {
            Cond::O => "o",
            Cond::No => "no",
            Cond::B => "b",
            Cond::Ae => "ae",
            Cond::E => "e",
            Cond::Ne => "ne",
            Cond::Be => "be",
            Cond::A => "a",
            Cond::S => "s",
            Cond::Ns => "ns",
            Cond::P => "p",
            Cond::Np => "np",
            Cond::L => "l",
            Cond::Ge => "ge",
            Cond::Le => "le",
            Cond::G => "g",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_roundtrip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_number(c.number()), c);
        }
    }

    #[test]
    fn negation_is_involution() {
        for c in Cond::ALL {
            assert_eq!(c.negate().negate(), c);
            // A condition and its negation always disagree.
            for bits in 0..32u32 {
                let f = |i: u32| bits >> i & 1 == 1;
                let (cf, pf, zf, sf, of) = (f(0), f(1), f(2), f(3), f(4));
                assert_ne!(c.eval(cf, pf, zf, sf, of), c.negate().eval(cf, pf, zf, sf, of));
            }
        }
    }

    #[test]
    fn signed_conditions() {
        // sf != of  =>  less
        assert!(Cond::L.eval(false, false, false, true, false));
        assert!(Cond::Ge.eval(false, false, false, true, true));
        assert!(Cond::G.eval(false, false, false, false, false));
        assert!(!Cond::G.eval(false, false, true, false, false));
    }

    #[test]
    fn unsigned_conditions() {
        assert!(Cond::B.eval(true, false, false, false, false));
        assert!(Cond::Be.eval(false, false, true, false, false));
        assert!(Cond::A.eval(false, false, false, false, false));
        assert!(!Cond::A.eval(true, false, false, false, false));
    }
}
