//! Verification errors, unsoundness annotations and proof obligations.

use crate::budget::BudgetDim;
use hgl_expr::Expr;
use hgl_solver::{Assumption, Region};
use hgl_x86::Reg;
use std::collections::BTreeSet;
use std::fmt;

/// Reasons why lifting *rejects* a function (no Hoare Graph produced).
///
/// These correspond to the second column of Table 1: unprovable return
/// addresses, calling-convention violations, and the related §5.3
/// failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerificationError {
    /// At a `ret`, the predicate could not prove that the return
    /// address at `*[rsp0, 8]` is unmodified.
    UnprovableReturnAddress {
        /// Address of the `ret`.
        addr: u64,
        /// What the return slot evaluates to (⊥ if destroyed).
        found: Expr,
    },
    /// At a `ret`, the stack pointer is not `rsp0 + 8` (§5.3's
    /// non-standard stack-pointer restoration, or stack probing).
    NonStandardStackRestore {
        /// Address of the `ret`.
        addr: u64,
        /// The symbolic stack-pointer value.
        rsp: Expr,
    },
    /// A callee-saved register was not restored (calling-convention
    /// adherence).
    CallingConventionViolation {
        /// Address of the `ret`.
        addr: u64,
        /// The offending register.
        reg: Reg,
        /// Its symbolic value at return.
        found: Expr,
    },
    /// A write may touch the region holding the return address
    /// (return-address integrity cannot be proven; §1 "as soon as a
    /// memory write occurs… the function is rejected").
    ReturnAddressClobbered {
        /// Address of the writing instruction.
        addr: u64,
        /// The written region.
        region: Region,
    },
    /// Instruction bytes at a reachable address failed to decode.
    Undecodable {
        /// The address.
        addr: u64,
        /// Decoder message.
        message: String,
    },
    /// Control flow left the executable sections.
    JumpOutsideText {
        /// Source instruction.
        addr: u64,
        /// The bogus target.
        target: u64,
    },
}

impl fmt::Display for VerificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerificationError::UnprovableReturnAddress { addr, found } => {
                write!(f, "@{addr:#x}: return address not provably intact (slot holds {found})")
            }
            VerificationError::NonStandardStackRestore { addr, rsp } => {
                write!(f, "@{addr:#x}: RSP not restored to RSP0 + 8 (RSP == {rsp})")
            }
            VerificationError::CallingConventionViolation { addr, reg, found } => {
                write!(f, "@{addr:#x}: callee-saved {reg} not restored ({reg} == {found})")
            }
            VerificationError::ReturnAddressClobbered { addr, region } => {
                write!(f, "@{addr:#x}: write to {region} may clobber the return address")
            }
            VerificationError::Undecodable { addr, message } => {
                write!(f, "@{addr:#x}: undecodable instruction: {message}")
            }
            VerificationError::JumpOutsideText { addr, target } => {
                write!(f, "@{addr:#x}: control transfer to non-code address {target:#x}")
            }
        }
    }
}

impl std::error::Error for VerificationError {}

/// Unsoundness annotations (Algorithm 1, line 13): exploration stopped
/// because an indirection could not be bounded. Columns B and C of
/// Table 1.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Annotation {
    /// An indirect `jmp` whose target set could not be bounded.
    UnresolvedJump {
        /// Address of the jump.
        addr: u64,
        /// The symbolic target.
        target: Expr,
    },
    /// An indirect `call` whose callee could not be determined
    /// (typically a callback; §5.1).
    UnresolvedCall {
        /// Address of the call.
        addr: u64,
        /// The symbolic target.
        target: Expr,
    },
    /// Exploration stopped at this address because a resource budget
    /// ran out; the Hoare Graph covers everything up to here but the
    /// states queued at `addr` were never stepped.
    BudgetFrontier {
        /// Address of the unexplored frontier state.
        addr: u64,
        /// The exhausted dimension.
        dimension: BudgetDim,
    },
}

impl Annotation {
    /// Address of the annotated instruction.
    pub fn addr(&self) -> u64 {
        match self {
            Annotation::UnresolvedJump { addr, .. }
            | Annotation::UnresolvedCall { addr, .. }
            | Annotation::BudgetFrontier { addr, .. } => *addr,
        }
    }
}

impl fmt::Display for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Annotation::UnresolvedJump { addr, target } => {
                write!(f, "@{addr:#x}: unresolved indirect jump to {target}")
            }
            Annotation::UnresolvedCall { addr, target } => {
                write!(f, "@{addr:#x}: unresolved indirect call to {target}")
            }
            Annotation::BudgetFrontier { addr, dimension } => {
                write!(f, "@{addr:#x}: unexplored frontier ({dimension} budget exhausted)")
            }
        }
    }
}

/// A proof obligation on an external function (§5.3):
/// `@400701: memset(RDI := RSP0 - 40) MUST PRESERVE [RSP0 - 8, 16]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofObligation {
    /// The call site.
    pub call_site: u64,
    /// Name of the external function.
    pub callee: String,
    /// Argument registers whose values point into the caller frame.
    pub frame_args: Vec<(Reg, Expr)>,
    /// Regions the callee must preserve (always includes the return
    /// address slot and saved non-volatile spill slots).
    pub must_preserve: Vec<Region>,
}

impl fmt::Display for ProofObligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:#x}: {}(", self.call_site, self.callee)?;
        for (i, (r, v)) in self.frame_args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} := {v}", r.name64().to_uppercase())?;
        }
        write!(f, ") MUST PRESERVE")?;
        for (i, region) in self.must_preserve.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, " {region}")?;
        }
        Ok(())
    }
}

/// Aggregated diagnostics of one lifted function.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// Unsoundness annotations.
    pub annotations: Vec<Annotation>,
    /// External-function proof obligations.
    pub obligations: Vec<ProofObligation>,
    /// Memory-space assumptions used by the solver.
    pub assumptions: Vec<Assumption>,
    /// Count of successfully bounded indirections (column A of
    /// Table 1).
    pub resolved_indirections: usize,
    /// `(addr, size)` of every image byte range the lift *read* while
    /// stepping: read-only constant loads and enumerated jump-table
    /// entries. Together with the Hoare Graph's decoded instructions
    /// (and the window of a failed decode) this is the exact byte
    /// footprint a persisted artifact depends on — the content hash of
    /// the artifact store covers all of it.
    pub image_reads: BTreeSet<(u64, u8)>,
}

impl Diagnostics {
    /// Record an assumption once (dedup by equality).
    pub fn assume(&mut self, a: Assumption) {
        if !self.assumptions.contains(&a) {
            self.assumptions.push(a);
        }
    }

    /// Record an annotation once.
    pub fn annotate(&mut self, a: Annotation) {
        if !self.annotations.contains(&a) {
            self.annotations.push(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_expr::Sym;

    #[test]
    fn obligation_display_matches_paper_format() {
        let rsp0 = Expr::sym(Sym::Init(Reg::Rsp));
        let ob = ProofObligation {
            call_site: 0x400701,
            callee: "memset".to_string(),
            frame_args: vec![(Reg::Rdi, rsp0.sub(Expr::imm(40)))],
            must_preserve: vec![Region::stack(-8, 16)],
        };
        let s = ob.to_string();
        assert!(s.starts_with("@0x400701: memset(RDI := "), "{s}");
        assert!(s.contains("MUST PRESERVE"), "{s}");
    }

    #[test]
    fn annotation_display() {
        let a = Annotation::UnresolvedCall { addr: 0x1000, target: Expr::bottom() };
        assert_eq!(a.to_string(), "@0x1000: unresolved indirect call to ⊥");
        assert_eq!(a.addr(), 0x1000);
    }

    #[test]
    fn diagnostics_dedup() {
        let mut d = Diagnostics::default();
        let a = Annotation::UnresolvedJump { addr: 1, target: Expr::bottom() };
        d.annotate(a.clone());
        d.annotate(a);
        assert_eq!(d.annotations.len(), 1);
    }
}
