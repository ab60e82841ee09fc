//! Solver context: bounds mined from predicate clauses, and the memory
//! layout used to classify constant addresses.

use hgl_expr::{Atom, Clause, Expr, Interval, Rel, Sym};
use hgl_x86::Reg;
use std::collections::BTreeMap;

/// Address-space layout of the binary under analysis, used to classify
/// constant addresses as code or data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layout {
    /// `[start, end)` ranges of executable sections.
    pub text: Vec<(u64, u64)>,
    /// `[start, end)` ranges of data sections.
    pub data: Vec<(u64, u64)>,
}

impl Layout {
    /// True if `addr` falls in an executable section.
    pub fn is_code(&self, addr: u64) -> bool {
        self.text.iter().any(|&(s, e)| s <= addr && addr < e)
    }

    /// True if `addr` falls in a data section.
    pub fn is_data(&self, addr: u64) -> bool {
        self.data.iter().any(|&(s, e)| s <= addr && addr < e)
    }
}

/// Provenance class of an address expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Provenance {
    /// Based on `rsp0`: the caller's local stack frame.
    Stack,
    /// A compile-time constant address (global/data space or code).
    Global,
    /// Based on a fresh symbol — heap or externally supplied pointer.
    Heap(Sym),
    /// Based on an initial register value other than `rsp0` — a caller
    /// supplied pointer of unknown space.
    Param(Sym),
    /// Anything else.
    Unknown,
}

/// The read-only query context: symbol bounds mined from the current
/// predicate's clauses, plus the binary layout.
#[derive(Debug, Clone, Default)]
pub struct Ctx {
    bounds: BTreeMap<Atom, Interval>,
    /// Binary layout for constant-address classification. Shared: one
    /// `Layout` is built per binary and every per-query context holds
    /// a handle, so constructing a `Ctx` never copies section tables.
    pub layout: std::sync::Arc<Layout>,
    /// Set when mined bounds are contradictory: the clause set is
    /// unsatisfiable and the state vacuous.
    unsat: bool,
    /// Shared memo table consulted by [`decide`](crate::decide). A
    /// cache must never outlive the binary whose layout it was built
    /// under (see `cache.rs` on key soundness).
    pub cache: Option<std::sync::Arc<crate::QueryCache>>,
}

impl Ctx {
    /// An empty context (no clause information).
    pub fn new() -> Ctx {
        Ctx::default()
    }

    /// Attach a shared query cache; subsequent [`decide`](crate::decide)
    /// calls under this context memoize through it.
    pub fn with_cache(mut self, cache: std::sync::Arc<crate::QueryCache>) -> Ctx {
        self.cache = Some(cache);
        self
    }

    /// Build a context from predicate clauses, mining interval bounds
    /// for single-atom left-hand sides compared against constants.
    ///
    /// Accepts either an owned [`Layout`] (interned into a fresh `Arc`,
    /// convenient in tests) or an `Arc<Layout>` handle (the hot path:
    /// the engine builds the layout once per binary and every solver
    /// query shares it).
    pub fn from_clauses<'a, I, L>(clauses: I, layout: L) -> Ctx
    where
        I: IntoIterator<Item = &'a Clause>,
        L: Into<std::sync::Arc<Layout>>,
    {
        let mut ctx =
            Ctx { bounds: BTreeMap::new(), layout: layout.into(), unsat: false, cache: None };
        for c in clauses {
            ctx.add_clause(c);
        }
        ctx
    }

    /// Incorporate one clause into the bound map.
    ///
    /// Only wraparound-safe forms are mined: an offset-free
    /// `1·atom □ imm`, or an offset equality `1·atom + k == imm`
    /// (exact in modular arithmetic). Inequalities over `atom + k`
    /// with `k ≠ 0` are *not* sound to shift under wrapping (e.g.
    /// `atom + 5 < 3` holds for `atom = −4`), so they are skipped.
    pub fn add_clause(&mut self, c: &Clause) {
        let Some(rhs) = c.rhs.as_imm() else { return };
        let lin = c.lhs.linear_form();
        // Only `1·atom + k □ imm` forms produce bounds.
        let Some((atom, k)) = lin.single_atom() else { return };
        if k == 0 {
            self.constrain(*atom, c.rel, rhs);
        } else if c.rel == Rel::Eq {
            self.constrain(*atom, Rel::Eq, rhs.wrapping_sub(k as u64));
        }
    }

    fn constrain(&mut self, atom: Atom, rel: Rel, c: u64) {
        let iv = match rel {
            Rel::Eq => Interval::point(c),
            Rel::Lt => {
                if c == 0 {
                    // Nothing is unsigned-less-than zero.
                    self.unsat = true;
                    return;
                }
                Interval::new(0, c - 1)
            }
            Rel::Ge => Interval::new(c, u64::MAX),
            // Signed comparisons against small non-negative constants
            // bound the unsigned range only when the value is also
            // known non-negative; be conservative and skip.
            Rel::SLt | Rel::SGe | Rel::Ne => return,
        };
        let merged = match self.bounds.get(&atom) {
            Some(old) => match old.meet(iv) {
                Some(m) => m,
                None => {
                    // Disjoint bounds on the same atom: vacuous state.
                    self.unsat = true;
                    return;
                }
            },
            None => iv,
        };
        self.bounds.insert(atom, merged);
    }

    /// True if the mined bounds are contradictory (the clause set has
    /// no satisfying assignment — the state is vacuous and need not be
    /// explored).
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// The mined interval for an atom, if any.
    pub fn bound_of(&self, atom: &Atom) -> Option<Interval> {
        self.bounds.get(atom).copied()
    }

    /// Interval abstraction of an arbitrary expression: `Some(iv)` if
    /// every atom of its linear form is bounded and the arithmetic does
    /// not overflow; `None` means unbounded/unknown.
    pub fn interval_of(&self, e: &Expr) -> Option<Interval> {
        let lin = e.linear_form();
        if lin.has_bottom {
            return None;
        }
        let mut acc = Interval::point(lin.offset as u64);
        // Constant-only form: exact.
        for (atom, &coeff) in &lin.terms {
            if coeff <= 0 {
                return None;
            }
            let base = self.bounds.get(atom)?;
            let scaled = base.mul_const(coeff as u64)?;
            acc = Interval {
                lo: acc.lo.checked_add(scaled.lo)?,
                hi: acc.hi.checked_add(scaled.hi)?,
            };
        }
        Some(acc)
    }

    /// Provenance classification of an address expression.
    pub fn provenance(&self, e: &Expr) -> Provenance {
        let lin = e.linear_form();
        if lin.has_bottom {
            return Provenance::Unknown;
        }
        if lin.terms.is_empty() {
            return Provenance::Global;
        }
        // `rsp0 + k` exactly: the canonical stack-slot shape, decided
        // by the shared single-atom matcher (see `region.rs`).
        if crate::region::rsp0_displacement(lin).is_some() {
            return Provenance::Stack;
        }
        if lin.terms.len() == 1 {
            let (atom, &coeff) = lin.terms.iter().next().expect("len checked");
            if coeff == 1 {
                if let Atom::Sym(s) = atom {
                    return match s {
                        Sym::Init(_) => Provenance::Param(*s),
                        Sym::Fresh(_) => Provenance::Heap(*s),
                        _ => Provenance::Unknown,
                    };
                }
            }
        }
        // Multi-atom forms rooted in rsp0 (e.g. rsp0 - i*8 with bounded
        // i) still count as stack if rsp0 has coefficient 1.
        if lin.terms.get(&Atom::Sym(Sym::Init(Reg::Rsp))) == Some(&1) {
            return Provenance::Stack;
        }
        // Bounded computed addresses that provably stay inside the
        // binary's image (e.g. a jump-table access `table + i*8` with
        // bounded `i`) are global.
        if let Some(iv) = self.interval_of(e) {
            let in_image = |a: u64| self.layout.is_data(a) || self.layout.is_code(a);
            if in_image(iv.lo) && in_image(iv.hi) && iv.count() < (1 << 32) {
                return Provenance::Global;
            }
        }
        Provenance::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rax0() -> Expr {
        Expr::sym(Sym::Init(Reg::Rax))
    }

    #[test]
    fn mines_lt_bound() {
        let c = Clause::new(rax0(), Rel::Lt, Expr::imm(0xc3));
        let ctx = Ctx::from_clauses([&c], Layout::default());
        assert_eq!(ctx.bound_of(&Atom::Sym(Sym::Init(Reg::Rax))), Some(Interval::new(0, 0xc2)));
    }

    #[test]
    fn mines_eq_and_meets() {
        let c1 = Clause::new(rax0(), Rel::Lt, Expr::imm(100));
        let c2 = Clause::new(rax0(), Rel::Ge, Expr::imm(10));
        let ctx = Ctx::from_clauses([&c1, &c2], Layout::default());
        assert_eq!(ctx.bound_of(&Atom::Sym(Sym::Init(Reg::Rax))), Some(Interval::new(10, 99)));
    }

    #[test]
    fn offset_lhs_inequalities_not_mined() {
        // `rax0 + 5 < 10` does NOT bound rax0 under wrapping
        // arithmetic (rax0 = -4 satisfies it), so no interval is mined.
        let c = Clause::new(rax0().add(Expr::imm(5)), Rel::Lt, Expr::imm(10));
        let ctx = Ctx::from_clauses([&c], Layout::default());
        assert_eq!(ctx.bound_of(&Atom::Sym(Sym::Init(Reg::Rax))), None);
        // Offset *equalities* are exact in modular arithmetic and are
        // mined.
        let e = Clause::new(rax0().add(Expr::imm(5)), Rel::Eq, Expr::imm(3));
        let ctx = Ctx::from_clauses([&e], Layout::default());
        assert_eq!(
            ctx.bound_of(&Atom::Sym(Sym::Init(Reg::Rax))),
            Some(Interval::point(3u64.wrapping_sub(5)))
        );
    }

    #[test]
    fn interval_of_scaled() {
        let c = Clause::new(rax0(), Rel::Lt, Expr::imm(0xc3));
        let ctx = Ctx::from_clauses([&c], Layout::default());
        // a + rax0*4 with a = 0x1000
        let e = Expr::imm(0x1000).add(rax0().mul(Expr::imm(4)));
        assert_eq!(ctx.interval_of(&e), Some(Interval::new(0x1000, 0x1000 + 0xc2 * 4)));
    }

    #[test]
    fn interval_of_unbounded_is_none() {
        let ctx = Ctx::new();
        assert_eq!(ctx.interval_of(&rax0()), None);
        assert_eq!(ctx.interval_of(&Expr::imm(7)), Some(Interval::point(7)));
    }

    #[test]
    fn provenance_classes() {
        let ctx = Ctx::new();
        assert_eq!(ctx.provenance(&Expr::sym(Sym::Init(Reg::Rsp)).sub(Expr::imm(8))), Provenance::Stack);
        assert_eq!(ctx.provenance(&Expr::imm(0x601000)), Provenance::Global);
        assert_eq!(
            ctx.provenance(&Expr::sym(Sym::Fresh(3)).add(Expr::imm(16))),
            Provenance::Heap(Sym::Fresh(3))
        );
        assert_eq!(
            ctx.provenance(&Expr::sym(Sym::Init(Reg::Rdi))),
            Provenance::Param(Sym::Init(Reg::Rdi))
        );
        assert_eq!(ctx.provenance(&Expr::bottom()), Provenance::Unknown);
    }

    #[test]
    fn layout_classification() {
        let layout = Layout { text: vec![(0x400000, 0x401000)], data: vec![(0x601000, 0x602000)] };
        assert!(layout.is_code(0x400500));
        assert!(!layout.is_code(0x601500));
        assert!(layout.is_data(0x601500));
    }
}
