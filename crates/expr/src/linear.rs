//! Linear normal forms `Σ cᵢ·atomᵢ + k` over 64-bit wrapping arithmetic.
//!
//! Pointer expressions produced by compilers are almost always linear
//! in the initial register values (`rsp0 - 0x28`, `a + rax0*4`), so the
//! separation/aliasing queries of Definition 3.6 reduce to comparing
//! linear forms. Non-linear subterms are swallowed whole as *opaque
//! atoms*, which keeps the translation total (and merely less precise,
//! never unsound).

use crate::{Expr, ExprKind, OpKind, Sym};
use std::collections::BTreeMap;
use std::fmt;

/// A term of a linear form: a symbol or an opaque non-linear
/// subexpression. `Copy` now that expressions are interned handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// A symbol.
    Sym(Sym),
    /// An opaque (non-linear) subexpression treated as a unit.
    Opaque(Expr),
}

impl Atom {
    fn to_expr(self) -> Expr {
        match self {
            Atom::Sym(s) => Expr::sym(s),
            Atom::Opaque(e) => e,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Sym(s) => write!(f, "{s}"),
            Atom::Opaque(e) => write!(f, "{e}"),
        }
    }
}

/// The greatest common divisor, with `gcd(0, b) == b`.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A linear combination of atoms plus a constant, with wrapping 64-bit
/// coefficient arithmetic. Contains ⊥ if the source expression did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Linear {
    /// Coefficients per atom; zero coefficients are never stored.
    pub terms: BTreeMap<Atom, i64>,
    /// The constant offset.
    pub offset: i64,
    /// True if the expression contained ⊥ anywhere.
    pub has_bottom: bool,
}

impl Linear {
    /// The zero form.
    pub fn zero() -> Linear {
        Linear { terms: BTreeMap::new(), offset: 0, has_bottom: false }
    }

    /// A single constant.
    pub fn constant(k: i64) -> Linear {
        Linear { terms: BTreeMap::new(), offset: k, has_bottom: false }
    }

    fn add_term(&mut self, a: Atom, c: i64) {
        use std::collections::btree_map::Entry;
        match self.terms.entry(a) {
            Entry::Vacant(v) => {
                if c != 0 {
                    v.insert(c);
                }
            }
            Entry::Occupied(mut o) => {
                let n = o.get().wrapping_add(c);
                if n == 0 {
                    o.remove();
                } else {
                    *o.get_mut() = n;
                }
            }
        }
    }

    /// Translate an expression to its linear normal form. Total:
    /// non-linear parts become opaque atoms.
    pub fn of_expr(e: &Expr) -> Linear {
        let mut lin = Linear::zero();
        lin.accumulate(*e, 1);
        lin
    }

    /// The linear form of `ca·a + cb·b`, without materialising the
    /// intermediate sum node. This is the entry point the smart
    /// constructors use: interning a transient `a + b` term only to
    /// normalise it away would grow the arena for nothing.
    pub fn of_sum(a: Expr, ca: i64, b: Expr, cb: i64) -> Linear {
        let mut lin = Linear::zero();
        lin.accumulate(a, ca);
        lin.accumulate(b, cb);
        lin
    }

    /// The linear form of `c·e`, without materialising a product node.
    pub fn of_scaled(e: Expr, c: i64) -> Linear {
        let mut lin = Linear::zero();
        lin.accumulate(e, c);
        lin
    }

    fn accumulate(&mut self, e: Expr, scale: i64) {
        match e.kind() {
            ExprKind::Imm(v) => {
                self.offset = self.offset.wrapping_add((*v as i64).wrapping_mul(scale))
            }
            ExprKind::Sym(s) => self.add_term(Atom::Sym(*s), scale),
            ExprKind::Bottom => self.has_bottom = true,
            ExprKind::Op { op: OpKind::Add, args } if args.len() == 2 => {
                self.accumulate(args[0], scale);
                self.accumulate(args[1], scale);
            }
            ExprKind::Op { op: OpKind::Sub, args } if args.len() == 2 => {
                self.accumulate(args[0], scale);
                self.accumulate(args[1], scale.wrapping_neg());
            }
            ExprKind::Op { op: OpKind::Neg, args } if args.len() == 1 => {
                self.accumulate(args[0], scale.wrapping_neg());
            }
            ExprKind::Op { op: OpKind::Mul, args } if args.len() == 2 => {
                match (args[0].as_imm(), args[1].as_imm()) {
                    (Some(c), _) => self.accumulate(args[1], scale.wrapping_mul(c as i64)),
                    (_, Some(c)) => self.accumulate(args[0], scale.wrapping_mul(c as i64)),
                    _ => self.add_term(Atom::Opaque(e), scale),
                }
            }
            _ => self.add_term(Atom::Opaque(e), scale),
        }
    }

    /// Reconstruct a canonical expression: terms in atom order,
    /// constant last. Inverse of [`Linear::of_expr`] up to
    /// normalisation. Built through the raw interning constructors —
    /// the node shape here *is* the canonical form, so no further
    /// simplification may run.
    pub fn to_expr(&self) -> Expr {
        if self.has_bottom {
            return Expr::bottom();
        }
        let mut acc: Option<Expr> = None;
        for (atom, &coeff) in &self.terms {
            let base = atom.to_expr();
            let term = if coeff == 1 {
                base
            } else {
                Expr::op2_raw(OpKind::Mul, base, Expr::imm(coeff as u64))
            };
            acc = Some(match acc {
                None => term,
                Some(prev) => Expr::op2_raw(OpKind::Add, prev, term),
            });
        }
        match acc {
            None => Expr::imm(self.offset as u64),
            Some(e) if self.offset == 0 => e,
            Some(e) => Expr::op2_raw(OpKind::Add, e, Expr::imm(self.offset as u64)),
        }
    }

    /// The difference `self - other` as a linear form.
    pub fn diff(&self, other: &Linear) -> Linear {
        let mut out = self.clone();
        out.has_bottom |= other.has_bottom;
        out.offset = out.offset.wrapping_sub(other.offset);
        for (a, c) in &other.terms {
            out.add_term(*a, c.wrapping_neg());
        }
        out
    }

    /// If `self` is a plain constant, return it.
    pub fn as_constant(&self) -> Option<i64> {
        (!self.has_bottom && self.terms.is_empty()).then_some(self.offset)
    }

    /// True if the two forms have identical terms (and thus differ by a
    /// compile-time constant).
    pub fn same_base(&self, other: &Linear) -> bool {
        !self.has_bottom && !other.has_bottom && self.terms == other.terms
    }

    /// The single atom, if the form is exactly `1·atom + k`.
    pub fn single_atom(&self) -> Option<(&Atom, i64)> {
        if self.has_bottom || self.terms.len() != 1 {
            return None;
        }
        let (a, c) = self.terms.iter().next().expect("len checked");
        (*c == 1).then_some((a, self.offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_x86::Reg;

    #[test]
    fn gcd_folds_from_zero() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 8), 8);
        assert_eq!(gcd(8, 0), 8);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!([8u64, 4, 6].into_iter().fold(0, gcd), 2);
    }

    fn sym(r: Reg) -> Expr {
        Expr::sym(Sym::Init(r))
    }

    #[test]
    fn of_expr_roundtrip_simple() {
        let e = sym(Reg::Rdi).add(Expr::imm(8));
        let lin = Linear::of_expr(&e);
        assert_eq!(lin.offset, 8);
        assert_eq!(lin.terms.len(), 1);
        assert_eq!(lin.to_expr(), e);
    }

    #[test]
    fn diff_of_same_base() {
        let a = Linear::of_expr(&sym(Reg::Rsp).sub(Expr::imm(0x28)));
        let b = Linear::of_expr(&sym(Reg::Rsp).sub(Expr::imm(0x10)));
        let d = a.diff(&b);
        assert_eq!(d.as_constant(), Some(-0x18));
        assert!(a.same_base(&b));
    }

    #[test]
    fn scaled_terms() {
        // rax0*4 + rax0*4 = rax0*8
        let e = sym(Reg::Rax).mul(Expr::imm(4)).add(sym(Reg::Rax).mul(Expr::imm(4)));
        let lin = Linear::of_expr(&e);
        assert_eq!(lin.terms.values().copied().collect::<Vec<_>>(), vec![8]);
    }

    #[test]
    fn cancellation_removes_term() {
        let e = sym(Reg::Rax).add(sym(Reg::Rbx)).sub(sym(Reg::Rax));
        let lin = Linear::of_expr(&e);
        assert_eq!(lin.terms.len(), 1);
        assert_eq!(lin.to_expr(), sym(Reg::Rbx));
    }

    #[test]
    fn opaque_atoms_for_nonlinear() {
        let e = sym(Reg::Rax).mul(sym(Reg::Rbx)).add(Expr::imm(4));
        let lin = Linear::of_expr(&e);
        assert_eq!(lin.offset, 4);
        assert_eq!(lin.terms.len(), 1);
        assert!(matches!(lin.terms.keys().next(), Some(Atom::Opaque(_))));
    }

    #[test]
    fn bottom_tracked() {
        let e = Expr::op_raw(OpKind::Add, vec![Expr::bottom(), Expr::imm(1)]);
        let lin = Linear::of_expr(&e);
        assert!(lin.has_bottom);
        assert!(lin.to_expr().is_bottom());
        assert_eq!(lin.as_constant(), None);
    }

    #[test]
    fn wrapping_coefficients() {
        // -1 * rax0 twice wraps but stays consistent.
        let e = sym(Reg::Rax).neg().add(sym(Reg::Rax).neg());
        let lin = Linear::of_expr(&e);
        assert_eq!(lin.terms.values().copied().collect::<Vec<_>>(), vec![-2]);
    }

    #[test]
    fn of_sum_matches_materialised_sum() {
        // of_sum is the smart constructors' transient-free path; it
        // must agree with accumulating an explicit sum node.
        let a = sym(Reg::Rdi).add(Expr::imm(8));
        let b = sym(Reg::Rsi).mul(Expr::imm(4));
        let direct = Linear::of_sum(a, 1, b, -1);
        let via_node = Linear::of_expr(&Expr::op_raw(OpKind::Sub, vec![a, b]));
        assert_eq!(direct, via_node);
        assert_eq!(Linear::of_scaled(a, -3), Linear::of_expr(&Expr::op_raw(
            OpKind::Mul,
            vec![a, Expr::imm((-3i64) as u64)],
        )));
    }
}
