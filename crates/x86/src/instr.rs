//! The decoded-instruction representation.

use crate::{Cond, MemOperand, Mnemonic, Operand, Width};

/// A `rep`-family prefix on a string instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepPrefix {
    /// `rep` / `repe` (F3).
    Rep,
    /// `repne` (F2).
    Repne,
}

/// A decoded x86-64 instruction.
///
/// Relative branch displacements are resolved at decode time: the
/// immediate operand of a `jmp`/`jcc`/`call` holds the *absolute*
/// target address. The encoder converts back to relative form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instr {
    /// Virtual address of the first byte.
    pub addr: u64,
    /// Encoded length in bytes.
    pub len: u8,
    /// Mnemonic (with condition code where applicable).
    pub mnemonic: Mnemonic,
    /// Operands, destination first.
    pub operands: Vec<Operand>,
    /// Operation width: destination width, element width for string
    /// instructions, or [`Width::B8`] for width-less instructions.
    pub width: Width,
    /// `rep`/`repne` prefix, for string instructions.
    pub rep: Option<RepPrefix>,
}

impl Instr {
    /// Construct an instruction with no address/length assigned yet
    /// (used by the assembler before layout).
    pub fn new(mnemonic: Mnemonic, operands: Vec<Operand>, width: Width) -> Instr {
        Instr { addr: 0, len: 0, mnemonic, operands, width, rep: None }
    }

    /// Address of the instruction following this one.
    pub fn next_addr(&self) -> u64 {
        self.addr.wrapping_add(self.len as u64)
    }

    /// For a direct `jmp`/`jcc`/`call`, the absolute target address.
    pub fn direct_target(&self) -> Option<u64> {
        match self.mnemonic {
            Mnemonic::Jmp | Mnemonic::Jcc(_) | Mnemonic::Call => match self.operands.first() {
                Some(Operand::Imm(t)) => Some(*t as u64),
                _ => None,
            },
            _ => None,
        }
    }

    /// The condition code, for `jcc`/`setcc`/`cmovcc`.
    pub fn cond(&self) -> Option<Cond> {
        match self.mnemonic {
            Mnemonic::Jcc(c) | Mnemonic::Setcc(c) | Mnemonic::Cmovcc(c) => Some(c),
            _ => None,
        }
    }

    /// True for indirect control transfers (`jmp r/m`, `call r/m`).
    pub fn is_indirect_branch(&self) -> bool {
        matches!(self.mnemonic, Mnemonic::Jmp | Mnemonic::Call)
            && !matches!(self.operands.first(), Some(Operand::Imm(_)))
    }

    /// Explicit memory operands of this instruction.
    pub fn mem_operands(&self) -> impl Iterator<Item = &MemOperand> {
        self.operands.iter().filter_map(|op| match op {
            Operand::Mem(m) => Some(m),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Reg, RegRef};

    fn jmp_to(target: u64) -> Instr {
        let mut i = Instr::new(Mnemonic::Jmp, vec![Operand::Imm(target as i64)], Width::B8);
        i.addr = 0x100;
        i.len = 5;
        i
    }

    #[test]
    fn direct_target() {
        assert_eq!(jmp_to(0x200).direct_target(), Some(0x200));
        let indirect = Instr::new(Mnemonic::Jmp, vec![Operand::reg64(Reg::Rax)], Width::B8);
        assert_eq!(indirect.direct_target(), None);
        assert!(indirect.is_indirect_branch());
        assert!(!jmp_to(0x200).is_indirect_branch());
    }

    #[test]
    fn next_addr_wraps() {
        let mut i = jmp_to(0);
        i.addr = u64::MAX;
        i.len = 1;
        assert_eq!(i.next_addr(), 0);
    }

    #[test]
    fn mem_operand_iteration() {
        let i = Instr::new(
            Mnemonic::Mov,
            vec![
                Operand::Mem(MemOperand::base_disp(Reg::Rdi, 0, Width::B8)),
                Operand::Reg(RegRef::full(Reg::Rax)),
            ],
            Width::B8,
        );
        assert_eq!(i.mem_operands().count(), 1);
    }
}
