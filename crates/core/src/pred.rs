//! Symbolic predicates (§3.1) and symbolic states.

use crate::memmodel::MemModel;
use hgl_expr::{Clause, Expr, ExprKind, Rel, Sym};
use hgl_solver::Region;
use hgl_x86::{Cond, Reg, RegRef, Width};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A copy-on-write collection handle. Symbolic states are forked at
/// every branch, join, and memory-model split, but most forks never
/// touch most of the forked maps — the clause set and memory valuation
/// ride along unchanged. `Shared` makes the fork a reference-count
/// bump: reads go through [`Deref`]; the first write through
/// [`DerefMut`] un-shares (clones) the underlying collection if and
/// only if another state still holds it. Semantically transparent —
/// equality, ordering, and iteration all delegate to the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shared<T>(Arc<T>);

impl<T> Shared<T> {
    /// Wrap an owned collection.
    pub fn new(value: T) -> Shared<T> {
        Shared(Arc::new(value))
    }
}

impl<T: Clone + Default> Default for Shared<T> {
    fn default() -> Shared<T> {
        Shared::new(T::default())
    }
}

impl<T: Clone> Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    fn deref_mut(&mut self) -> &mut T {
        Arc::make_mut(&mut self.0)
    }
}

impl<'a, T: Clone> IntoIterator for &'a Shared<T>
where
    &'a T: IntoIterator,
{
    type Item = <&'a T as IntoIterator>::Item;
    type IntoIter = <&'a T as IntoIterator>::IntoIter;
    fn into_iter(self) -> Self::IntoIter {
        (&*self.0).into_iter()
    }
}

/// Abstract flag state: which comparison produced the current flags.
///
/// Keeping the producing operands (rather than six separate flag
/// expressions) is what lets a later `jcc` turn the flags into a
/// precise [`Clause`] — the `cmp`/`ja` pair of the §2 example.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlagState {
    /// Nothing known.
    Unknown,
    /// Flags set by `sub`/`cmp lhs, rhs` at the given width (operand
    /// expressions already truncated to that width).
    Cmp {
        /// Operand width.
        width: Width,
        /// Left operand.
        lhs: Expr,
        /// Right operand.
        rhs: Expr,
    },
    /// Flags set by `test`/`and lhs, rhs` (CF=OF=0).
    Test {
        /// Operand width.
        width: Width,
        /// Left operand.
        lhs: Expr,
        /// Right operand.
        rhs: Expr,
    },
    /// Flags set from a known result value (CF=OF=0, e.g. `xor`/`or`).
    Result {
        /// Operand width.
        width: Width,
        /// The result expression.
        value: Expr,
    },
}

impl FlagState {
    /// The clause guaranteed by taking a conditional branch on `cond`
    /// with the current flag state (`None` if nothing useful can be
    /// derived). Negate `cond` for the fall-through edge.
    pub fn clause_for(&self, cond: Cond) -> Option<Clause> {
        match self {
            FlagState::Cmp { width, lhs, rhs } if !lhs.is_bottom() && !rhs.is_bottom() => {
                let (l, r) = (*lhs, *rhs);
                // Signed relations are evaluated on 64-bit values, so
                // sub-64-bit operands must be *sign*-extended (their
                // zero-extended form would misorder negatives).
                let (sl, sr) = (lhs.sext(*width), rhs.sext(*width));
                let bump = |e: &Expr| e.as_imm().filter(|v| *v < u64::MAX).map(|v| Expr::imm(v + 1));
                let bump_s = |e: &Expr| {
                    e.as_imm().filter(|v| (*v as i64) < i64::MAX).map(|v| Expr::imm(v + 1))
                };
                Some(match cond {
                    Cond::E => Clause::new(l, Rel::Eq, r),
                    Cond::Ne => Clause::new(l, Rel::Ne, r),
                    Cond::B => Clause::new(l, Rel::Lt, r),
                    Cond::Ae => Clause::new(l, Rel::Ge, r),
                    Cond::A => Clause::new(l, Rel::Ge, bump(&r)?),
                    Cond::Be => Clause::new(l, Rel::Lt, bump(&r)?),
                    Cond::L => Clause::new(sl, Rel::SLt, sr),
                    Cond::Ge => Clause::new(sl, Rel::SGe, sr),
                    Cond::G => Clause::new(sl, Rel::SGe, bump_s(&sr)?),
                    Cond::Le => Clause::new(sl, Rel::SLt, bump_s(&sr)?),
                    _ => return None,
                })
            }
            FlagState::Test { lhs, rhs, .. } if lhs == rhs => Some(match cond {
                Cond::E => Clause::new(*lhs, Rel::Eq, Expr::imm(0)),
                Cond::Ne => Clause::new(*lhs, Rel::Ne, Expr::imm(0)),
                _ => return None,
            }),
            FlagState::Result { value, .. } => Some(match cond {
                Cond::E => Clause::new(*value, Rel::Eq, Expr::imm(0)),
                Cond::Ne => Clause::new(*value, Rel::Ne, Expr::imm(0)),
                _ => return None,
            }),
            _ => None,
        }
    }

    /// Concretely evaluate whether `cond` holds, given a symbol
    /// environment and memory oracle. `None` when unknown.
    ///
    /// [`FlagState::Result`] constrains only ZF/SF/PF: the producing
    /// instruction (`inc`, shifts, …) computes CF/OF by rules the
    /// abstraction does not track, so CF/OF-dependent conditions are
    /// unknown there.
    pub fn eval_cond<F, M>(&self, cond: Cond, env: &F, mem: &M) -> Option<bool>
    where
        F: Fn(Sym) -> u64,
        M: Fn(u64, u8) -> Option<u64>,
    {
        let (cf, zf, sf, of, pf) = match self {
            FlagState::Unknown => return None,
            FlagState::Cmp { width, lhs, rhs } => {
                let a = width.trunc(lhs.eval(env, mem)?);
                let b = width.trunc(rhs.eval(env, mem)?);
                let r = width.trunc(a.wrapping_sub(b));
                let (sa, sb, sr) = (width.sign_bit(a), width.sign_bit(b), width.sign_bit(r));
                (a < b, r == 0, sr, sa != sb && sr != sa, (r as u8).count_ones().is_multiple_of(2))
            }
            FlagState::Test { width, lhs, rhs } => {
                let r = width.trunc(lhs.eval(env, mem)? & rhs.eval(env, mem)?);
                (false, r == 0, width.sign_bit(r), false, (r as u8).count_ones().is_multiple_of(2))
            }
            FlagState::Result { width, value } => {
                if !matches!(cond, Cond::E | Cond::Ne | Cond::S | Cond::Ns | Cond::P | Cond::Np) {
                    return None;
                }
                let r = width.trunc(value.eval(env, mem)?);
                (false, r == 0, width.sign_bit(r), false, (r as u8).count_ones().is_multiple_of(2))
            }
        };
        Some(cond.eval(cf, pf, zf, sf, of))
    }
}

/// Dense register file: every one of the sixteen general-purpose
/// registers always has a value (⊥ when unknown), so a fixed array
/// indexed by [`Reg::number`] replaces the former `BTreeMap<Reg,
/// Expr>`. Iteration follows [`Reg::ALL`] — the same order the map's
/// keys sorted in — so canonical forms and serialized artifacts are
/// byte-identical, while clone is a 16-word copy and lookup an array
/// index (this sits on the join/step hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegFile([Expr; 16]);

impl RegFile {
    /// Every register holds its initial-value symbol `init(r)`.
    pub fn function_entry() -> RegFile {
        let mut f = RegFile::all_bottom();
        for r in Reg::ALL {
            f.set(r, Expr::sym(Sym::Init(r)));
        }
        f
    }

    /// Every register holds ⊥ (decode seed; also the value absent
    /// entries of the old map representation denoted).
    pub fn all_bottom() -> RegFile {
        RegFile([Expr::bottom(); 16])
    }

    /// Current value of `r`.
    pub fn get(&self, r: Reg) -> Expr {
        self.0[r.number() as usize]
    }

    /// Set the value of `r`.
    pub fn set(&mut self, r: Reg, v: Expr) {
        self.0[r.number() as usize] = v;
    }

    /// `(register, value)` pairs in [`Reg::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, Expr)> + '_ {
        Reg::ALL.iter().map(move |&r| (r, self.get(r)))
    }

    /// Register values in [`Reg::ALL`] order.
    pub fn values(&self) -> impl Iterator<Item = Expr> + '_ {
        self.0.iter().copied()
    }

    /// Number of registers (always sixteen; mirrors the map API for
    /// the serialization layer).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// A symbolic predicate: current register values, flag state, known
/// memory contents, direction flag, and path clauses — all in terms of
/// constant expressions over the function-entry symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pred {
    /// Current value of each 64-bit register.
    pub regs: RegFile,
    /// Current flag state.
    pub flags: FlagState,
    /// Direction flag (`Some(false)` per the System V entry contract).
    pub df: Option<bool>,
    /// Known memory contents: region → value. Copy-on-write: forked
    /// states share it until one of them writes.
    pub mem: Shared<BTreeMap<Region, Expr>>,
    /// Path clauses. Copy-on-write, like `mem`.
    pub clauses: Shared<BTreeSet<Clause>>,
}

impl Pred {
    /// The entry predicate of a function at `entry`: every register
    /// holds its initial-value symbol, and the return-address slot
    /// `*[rsp0, 8]` holds the return symbol `S_entry` (§4.2.2).
    pub fn function_entry(entry: u64) -> Pred {
        let regs = RegFile::function_entry();
        let mut mem = BTreeMap::new();
        mem.insert(Region::return_address_slot(), Expr::sym(Sym::RetSym(entry)));
        Pred {
            regs,
            flags: FlagState::Unknown,
            df: Some(false),
            mem: Shared::new(mem),
            clauses: Shared::default(),
        }
    }

    /// Current value of a 64-bit register.
    pub fn reg(&self, r: Reg) -> Expr {
        self.regs.get(r)
    }

    /// Set a 64-bit register.
    pub fn set_reg(&mut self, r: Reg, v: Expr) {
        self.regs.set(r, v);
    }

    /// The value of a register view, as a 64-bit (zero-extended)
    /// expression.
    pub fn reg_ref(&self, r: RegRef) -> Expr {
        let v = self.reg(r.reg);
        if r.high8 {
            v.shr(Expr::imm(8)).trunc(Width::B1)
        } else {
            v.trunc(r.width)
        }
    }

    /// Write a register view with x86 aliasing semantics. Sub-64-bit
    /// partial writes (16/8-bit) merge bit-precisely when the old value
    /// is known, otherwise the register degrades to ⊥.
    pub fn write_reg_ref(&mut self, r: RegRef, v: Expr) {
        let new = match (r.width, r.high8) {
            (Width::B8, _) => v,
            (Width::B4, _) => v.trunc(Width::B4),
            (Width::B2, _) | (Width::B1, _) => {
                let old = self.reg(r.reg);
                let (mask, shift) = match (r.width, r.high8) {
                    (Width::B2, _) => (0xffffu64, 0u32),
                    (Width::B1, false) => (0xff, 0),
                    _ => (0xff00, 8),
                };
                let vpart = if shift == 0 {
                    v.and(Expr::imm(mask))
                } else {
                    v.trunc(Width::B1).mul(Expr::imm(1 << shift))
                };
                if old.is_bottom() {
                    Expr::bottom()
                } else {
                    old.and(Expr::imm(!mask)).or(vpart)
                }
            }
        };
        self.set_reg(r.reg, new);
    }

    /// Look up the known value of a memory region (exact match after
    /// normalisation).
    pub fn mem_value(&self, r: &Region) -> Option<&Expr> {
        self.mem.get(r)
    }

    /// Record the value of a region.
    pub fn set_mem(&mut self, r: Region, v: Expr) {
        self.mem.insert(r, v);
    }

    /// Forget the value of a region.
    pub fn forget_mem(&mut self, r: &Region) {
        self.mem.remove(r);
    }

    /// Forget everything a predicate knows about regions failing `keep`.
    pub fn retain_mem<F: Fn(&Region) -> bool>(&mut self, keep: F) {
        self.mem.retain(|r, _| keep(r));
    }

    /// Join (Definition 3.3): clause sets merge with range abstraction
    /// over equal left-hand sides; register/memory entries must agree
    /// — *up to a consistent renaming of fresh symbols* — or are
    /// dropped. `widen` disables range abstraction, guaranteeing a
    /// strictly shrinking (hence terminating) join for vertices that
    /// keep growing.
    ///
    /// Fresh symbols are existentially quantified unknowns (havoc
    /// results, contents of unresolved reads). Two visits of the same
    /// program point allocate different ids for the same unknowns, so
    /// the join matches them with a bijection: `{rax == u48, *[s] ==
    /// u48} ⊔ {rax == u128, *[s] == u128}` keeps the sharing (`rax ==
    /// *[s]`), while inconsistent sharing patterns degrade to ⊥.
    /// Surviving entries keep `other`'s names, so a vertex's state is
    /// stable across repeated joins (important for the ⊑ fixpoint
    /// check).
    pub fn join(&self, other: &Pred, widen: bool) -> Pred {
        let mut uni = Unifier::default();
        let mut regs = RegFile::all_bottom();
        for (r, v) in self.regs.iter() {
            let v2 = other.regs.get(r);
            if uni.unify(v, v2) {
                regs.set(r, v2);
            }
        }
        let mut mem = BTreeMap::new();
        for (region, v) in &self.mem {
            if let Some(v2) = other.mem.get(region) {
                if uni.unify(*v, *v2) {
                    mem.insert(*region, *v2);
                }
            }
        }
        let flags = match (&self.flags, &other.flags) {
            (a, b) if a == b => other.flags,
            (
                FlagState::Cmp { width: w1, lhs: l1, rhs: r1 },
                FlagState::Cmp { width: w2, lhs: l2, rhs: r2 },
            ) if w1 == w2 && uni.unify(*l1, *l2) && uni.unify(*r1, *r2) => other.flags,
            _ => FlagState::Unknown,
        };
        let df = if self.df == other.df { self.df } else { None };
        let clauses = join_clauses(&self.clauses, &other.clauses, widen);
        Pred { regs, flags, df, mem: Shared::new(mem), clauses: Shared::new(clauses) }
    }

    /// Evaluate whether a concrete state (symbol environment plus
    /// memory oracle) satisfies all clauses and memory entries of this
    /// predicate. Registers/flags are checked by the caller against the
    /// machine. Returns `None` if some expression cannot be evaluated.
    pub fn clauses_hold<F, M>(&self, env: &F, mem: &M) -> Option<bool>
    where
        F: Fn(Sym) -> u64,
        M: Fn(u64, u8) -> Option<u64>,
    {
        for c in &self.clauses {
            if !c.eval(env, mem)? {
                return Some(false);
            }
        }
        for (r, v) in &self.mem {
            let addr = r.addr.eval(env, mem)?;
            // Compare only up to 8 bytes (larger regions are tracked
            // structurally, not by value).
            if r.size <= 8 {
                let actual = mem(addr, r.size as u8)?;
                let expected = v.eval(env, mem)?;
                let mask = if r.size == 8 { u64::MAX } else { (1 << (8 * r.size)) - 1 };
                if actual & mask != expected & mask {
                    return Some(false);
                }
            }
        }
        Some(true)
    }
}

/// A greedy bijection between the fresh symbols of two predicates, as
/// `(self's symbol, other's symbol)` pairs. In the Table-1 study and
/// `rewrite_verify` passes at seeds 7–9 a join pairs a median of 7–8
/// fresh symbols and at most 15 (EXPERIMENTS.md), so a linear scan of
/// one `Vec` is cheaper than two ordered maps.
#[derive(Default)]
struct Unifier {
    pairs: Vec<(Sym, Sym)>,
}

impl Unifier {
    /// True if `a` and `b` are equal up to a consistent renaming of
    /// fresh symbols (extending the bijection as a side effect).
    fn unify(&mut self, a: Expr, b: Expr) -> bool {
        // O(1) fast path: identical interned terms with no fresh
        // symbols unify trivially and leave no bijection obligations.
        // (Identical terms *with* fresh symbols must still walk, so the
        // identity mapping is recorded and later pairs stay consistent
        // with it.)
        if a == b && !a.has_fresh() {
            return true;
        }
        match (a.kind(), b.kind()) {
            (ExprKind::Imm(x), ExprKind::Imm(y)) => x == y,
            (ExprKind::Sym(Sym::Fresh(x)), ExprKind::Sym(Sym::Fresh(y))) => {
                let (sa, sb) = (Sym::Fresh(*x), Sym::Fresh(*y));
                let mapped = self.pairs.iter().find(|p| p.0 == sa).map(|p| p.1);
                let back = self.pairs.iter().find(|p| p.1 == sb).map(|p| p.0);
                match (mapped, back) {
                    (Some(mapped), Some(back)) => mapped == sb && back == sa,
                    (None, None) => {
                        self.pairs.push((sa, sb));
                        true
                    }
                    _ => false,
                }
            }
            (ExprKind::Sym(x), ExprKind::Sym(y)) => x == y,
            (ExprKind::Deref { addr: a1, size: s1 }, ExprKind::Deref { addr: a2, size: s2 }) => {
                s1 == s2 && self.unify(*a1, *a2)
            }
            (ExprKind::Op { op: o1, args: a1 }, ExprKind::Op { op: o2, args: a2 }) => {
                o1 == o2
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2).all(|(x, y)| self.unify(*x, *y))
            }
            _ => false,
        }
    }
}

/// Clause-set join: intersection, plus range abstraction (Example 3.4)
/// for pairs of constant comparisons over the same left-hand side.
fn join_clauses(a: &BTreeSet<Clause>, b: &BTreeSet<Clause>, widen: bool) -> BTreeSet<Clause> {
    if a.is_empty() || b.is_empty() {
        // Intersection is empty and range abstraction needs bounds
        // from *both* sides, so the join is empty.
        return BTreeSet::new();
    }
    let mut out: BTreeSet<Clause> = a.intersection(b).copied().collect();
    if widen {
        return out;
    }
    // Bounds per lhs: Eq c contributes [c, c]; Lt c → [0, c-1]; Ge c →
    // [c, MAX].
    let bounds = |set: &BTreeSet<Clause>| -> BTreeMap<Expr, (Option<u64>, Option<u64>)> {
        let mut m: BTreeMap<Expr, (Option<u64>, Option<u64>)> = BTreeMap::new();
        for c in set {
            let Some(v) = c.rhs.as_imm() else { continue };
            let e = m.entry(c.lhs).or_insert((None, None));
            match c.rel {
                Rel::Eq => {
                    e.0 = Some(e.0.map_or(v, |x| x.max(v)));
                    e.1 = Some(e.1.map_or(v, |x| x.min(v)));
                }
                Rel::Lt if v > 0 => e.1 = Some(e.1.map_or(v - 1, |x| x.min(v - 1))),
                Rel::Ge => e.0 = Some(e.0.map_or(v, |x| x.max(v))),
                _ => {}
            }
        }
        m
    };
    let ba = bounds(a);
    let bb = bounds(b);
    for (lhs, (lo_a, hi_a)) in &ba {
        let Some((lo_b, hi_b)) = bb.get(lhs) else { continue };
        // Joined lower bound: min of the two sides' lower bounds.
        if let (Some(la), Some(lb)) = (lo_a, lo_b) {
            let lo = la.min(lb);
            if *lo > 0 {
                out.insert(Clause::new(*lhs, Rel::Ge, Expr::imm(*lo)));
            }
        }
        if let (Some(ha), Some(hb)) = (hi_a, hi_b) {
            let hi = ha.max(hb);
            if *hi < u64::MAX {
                out.insert(Clause::new(*lhs, Rel::Lt, Expr::imm(hi + 1)));
            }
        }
    }
    out
}

/// A symbolic state: a predicate plus a memory model (the `P × M`
/// vertices of the Hoare Graph, Definition 3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymState {
    /// The predicate.
    pub pred: Pred,
    /// The memory model. Copy-on-write: states forked by branching
    /// share the forest until a step replaces it.
    pub model: Shared<MemModel>,
}

impl SymState {
    /// The entry state of a function at `entry`.
    pub fn function_entry(entry: u64) -> SymState {
        let pred = Pred::function_entry(entry);
        let mut model = MemModel::empty();
        model.trees.push(crate::memmodel::MemTree::leaf(Region::return_address_slot()));
        SymState { pred, model: Shared::new(model) }
    }

    /// The join `σ₀ ⊔ σ₁` (Definition 3.15). When the memory-model join
    /// takes its equal-model fast path, the result shares `other`'s
    /// forest handle instead of a copy.
    pub fn join(&self, other: &SymState, widen: bool) -> SymState {
        let model = if self.model.join_is_other(&other.model) {
            other.model.clone()
        } else {
            Shared::new(self.model.join_classes(&other.model))
        };
        SymState { pred: self.pred.join(&other.pred, widen), model }
    }

    /// `self ⊑ other`: other is at least as abstract (defined as
    /// `other == self ⊔ other`, §3).
    pub fn leq(&self, other: &SymState) -> bool {
        &self.join(other, false) == other
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (r, v) in self.regs.iter() {
            if v != Expr::sym(Sym::Init(r)) && !v.is_bottom() {
                if wrote {
                    write!(f, " ∧ ")?;
                }
                write!(f, "{r} == {v}")?;
                wrote = true;
            }
        }
        for (region, v) in &self.mem {
            if wrote {
                write!(f, " ∧ ")?;
            }
            write!(f, "*{region} == {v}")?;
            wrote = true;
        }
        for c in &self.clauses {
            if wrote {
                write!(f, " ∧ ")?;
            }
            write!(f, "{c}")?;
            wrote = true;
        }
        if !wrote {
            write!(f, "⊤")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rax0() -> Expr {
        Expr::sym(Sym::Init(Reg::Rax))
    }

    #[test]
    fn entry_state_has_return_symbol() {
        let s = SymState::function_entry(0x401000);
        assert_eq!(
            s.pred.mem_value(&Region::return_address_slot()),
            Some(&Expr::sym(Sym::RetSym(0x401000)))
        );
        assert_eq!(s.pred.reg(Reg::Rsp), Expr::sym(Sym::Init(Reg::Rsp)));
        assert_eq!(s.pred.df, Some(false));
    }

    #[test]
    fn reg_ref_width_views() {
        let mut p = Pred::function_entry(0);
        p.set_reg(Reg::Rax, Expr::imm(0x1122_3344_5566_7788));
        assert_eq!(p.reg_ref(RegRef::new(Reg::Rax, Width::B4)), Expr::imm(0x5566_7788));
        assert_eq!(p.reg_ref(RegRef::new(Reg::Rax, Width::B1)), Expr::imm(0x88));
        assert_eq!(p.reg_ref(RegRef::high(Reg::Rax)), Expr::imm(0x77));
    }

    #[test]
    fn partial_writes() {
        let mut p = Pred::function_entry(0);
        p.set_reg(Reg::Rbx, Expr::imm(0xaaaa_bbbb_cccc_dddd));
        p.write_reg_ref(RegRef::new(Reg::Rbx, Width::B4), Expr::imm(0x1234));
        assert_eq!(p.reg(Reg::Rbx), Expr::imm(0x1234), "32-bit write zero-extends");
        p.set_reg(Reg::Rcx, Expr::imm(0xffff));
        p.write_reg_ref(RegRef::new(Reg::Rcx, Width::B1), Expr::imm(0xab));
        assert_eq!(p.reg(Reg::Rcx), Expr::imm(0xffab), "8-bit write merges");
    }

    #[test]
    fn cmp_ja_clause() {
        // cmp eax, 0xc3 ; flags = Cmp(B4, trunc32(rax0), 0xc3)
        let fs = FlagState::Cmp { width: Width::B4, lhs: rax0().trunc(Width::B4), rhs: Expr::imm(0xc3) };
        // Not-taken edge of `ja`: !(l > r) = l <= r → l < r+1.
        let c = fs.clause_for(Cond::A.negate()).expect("clause");
        assert_eq!(c.rel, Rel::Lt);
        assert_eq!(c.rhs.as_imm(), Some(0xc4));
        // Taken edge: l > r → l >= r+1.
        let t = fs.clause_for(Cond::A).expect("clause");
        assert_eq!(t.rel, Rel::Ge);
        assert_eq!(t.rhs.as_imm(), Some(0xc4));
    }

    #[test]
    fn flag_eval_matches_clause() {
        let fs = FlagState::Cmp { width: Width::B4, lhs: rax0().trunc(Width::B4), rhs: Expr::imm(5) };
        let nomem = |_: u64, _: u8| None;
        for v in [0u64, 4, 5, 6, 0xffff_ffff] {
            let env = |_s: Sym| v;
            let taken = fs.eval_cond(Cond::B, &env, &nomem).expect("concrete");
            assert_eq!(taken, (v & 0xffff_ffff) < 5);
        }
    }

    #[test]
    fn join_example_3_4() {
        // P = {a = 3}, Q = {a = 4}  ⊔→  {a ≥ 3, a < 5}
        let mut p = Pred::function_entry(0);
        p.clauses.insert(Clause::new(rax0(), Rel::Eq, Expr::imm(3)));
        let mut q = Pred::function_entry(0);
        q.clauses.insert(Clause::new(rax0(), Rel::Eq, Expr::imm(4)));
        let j = p.join(&q, false);
        assert!(j.clauses.contains(&Clause::new(rax0(), Rel::Ge, Expr::imm(3))));
        assert!(j.clauses.contains(&Clause::new(rax0(), Rel::Lt, Expr::imm(5))));
        assert!(!j.clauses.contains(&Clause::new(rax0(), Rel::Eq, Expr::imm(3))));
    }

    #[test]
    fn join_drops_disagreeing_regs() {
        let mut p = Pred::function_entry(0);
        p.set_reg(Reg::Rax, Expr::imm(1));
        let mut q = Pred::function_entry(0);
        q.set_reg(Reg::Rax, Expr::imm(2));
        let j = p.join(&q, false);
        assert!(j.reg(Reg::Rax).is_bottom());
        assert_eq!(j.reg(Reg::Rbx), Expr::sym(Sym::Init(Reg::Rbx)), "agreeing regs kept");
    }

    #[test]
    fn join_is_idempotent_and_commutative_on_clauses() {
        let mut p = Pred::function_entry(0);
        p.clauses.insert(Clause::new(rax0(), Rel::Lt, Expr::imm(10)));
        assert_eq!(p.join(&p, false), p);
        let mut q = Pred::function_entry(0);
        q.clauses.insert(Clause::new(rax0(), Rel::Lt, Expr::imm(20)));
        assert_eq!(p.join(&q, false).clauses, q.join(&p, false).clauses);
    }

    #[test]
    fn leq_reflexive_and_after_join() {
        let s = SymState::function_entry(0x1000);
        assert!(s.leq(&s));
        let mut bigger = s.clone();
        bigger.pred.set_reg(Reg::Rax, Expr::imm(1));
        // `bigger` knows more; joining loses that → bigger ⊑ joined.
        let joined = bigger.join(&s, false);
        assert!(bigger.leq(&joined));
        assert!(s.leq(&joined));
    }

    #[test]
    fn widen_join_is_plain_intersection() {
        let mut p = Pred::function_entry(0);
        p.clauses.insert(Clause::new(rax0(), Rel::Eq, Expr::imm(3)));
        let mut q = Pred::function_entry(0);
        q.clauses.insert(Clause::new(rax0(), Rel::Eq, Expr::imm(4)));
        let j = p.join(&q, true);
        assert!(j.clauses.is_empty());
    }

    #[test]
    fn clauses_hold_checks_memory() {
        let mut p = Pred::function_entry(0x400);
        p.set_mem(Region::stack(-8, 8), Expr::imm(7));
        let env = |s: Sym| match s {
            Sym::Init(Reg::Rsp) => 0x8000,
            Sym::RetSym(_) => 0xdead,
            _ => 0,
        };
        let good_mem = |addr: u64, _sz: u8| match addr {
            0x7ff8 => Some(7),
            0x8000 => Some(0xdead),
            _ => None,
        };
        assert_eq!(p.clauses_hold(&env, &good_mem), Some(true));
        let bad_mem = |addr: u64, _sz: u8| match addr {
            0x7ff8 => Some(8),
            0x8000 => Some(0xdead),
            _ => None,
        };
        assert_eq!(p.clauses_hold(&env, &bad_mem), Some(false));
    }
}
