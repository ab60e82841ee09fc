//! Symbols: the leaves of constant expressions.

use hgl_x86::Reg;
use std::fmt;

/// A symbol denoting an unknown-but-fixed 64-bit value.
///
/// Symbols are the variables `V` of the paper's expression grammar
/// (§3.1): they stand for values fixed at function entry or introduced
/// by the analysis, never for mutable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sym {
    /// The initial value of a register at function entry (`rdi0`, …).
    Init(Reg),
    /// `a_r`: the value initially stored at the top of the stack frame
    /// (the return address slot `*[rsp0, 8]`).
    RetAddr,
    /// `S_f`: the symbolic return address pushed when the function at
    /// this entry address is called context-free (§4.2.2).
    RetSym(u64),
    /// A fresh unknown, e.g. the contents of a destroyed memory region
    /// or a register havocked by an external call. The payload is a
    /// unique id.
    Fresh(u64),
    /// The value of a cell in the global/data space at the given
    /// address, as of function entry.
    Global(u64),
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::Init(r) => write!(f, "{r}0"),
            Sym::RetAddr => write!(f, "a_r"),
            Sym::RetSym(a) => write!(f, "S{a:#x}"),
            Sym::Fresh(id) => write!(f, "u{id}"),
            Sym::Global(a) => write!(f, "g{a:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(Sym::Init(Reg::Rdi).to_string(), "rdi0");
        assert_eq!(Sym::RetAddr.to_string(), "a_r");
        assert_eq!(Sym::RetSym(0x400).to_string(), "S0x400");
        assert_eq!(Sym::Fresh(3).to_string(), "u3");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![Sym::Fresh(1), Sym::Init(Reg::Rax), Sym::RetAddr, Sym::RetSym(4)];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 4);
    }
}
