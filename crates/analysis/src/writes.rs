//! Write classification: every memory write in a lifted binary is
//! classified by the address space it provably lands in.
//!
//! This reproduces the paper's Table-2 precision metric: the fraction
//! of memory writes whose destination the lifter resolved to a
//! concrete region family (stack frame, global data, or a heap/pointer
//! symbol). Classification is purely static — it reads the invariant
//! at each Hoare-Graph vertex — and uses the *same* write-site
//! predicate as the step function `tau`
//! ([`hgl_core::tau::writes_first_operand`] and
//! [`hgl_core::tau::addr_expr`]), so a claim here talks about exactly
//! the writes the lifter reasoned about.

use hgl_core::lift::LiftResult;
use hgl_core::pred::Pred;
use hgl_core::tau::{addr_expr, writes_first_operand};
use hgl_elf::Binary;
use hgl_expr::{Atom, Linear, Sym};
use hgl_solver::{Ctx, Provenance, Region};
use hgl_x86::{Instr, Mnemonic, Operand, Reg};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The address-space class of one memory write under one vertex
/// invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WriteClass {
    /// The write lands in the frame of the function being analysed:
    /// its start displacement from `rsp0` lies in `[lo, hi]`
    /// (inclusive, bytes; negative = below the return address).
    StackLocal {
        /// Least displacement from `rsp0`.
        lo: i64,
        /// Greatest displacement from `rsp0`.
        hi: i64,
    },
    /// The write lands at a concrete address in `[lo, hi]` (inclusive)
    /// — global/data space.
    Global {
        /// Least concrete start address.
        lo: u64,
        /// Greatest concrete start address.
        hi: u64,
    },
    /// The write is rooted at a symbol (heap pointer or caller-supplied
    /// pointer) at an offset the invariant does not pin down to stack
    /// or global space.
    HeapSymbol {
        /// The root symbol.
        sym: Sym,
    },
    /// The invariant does not resolve the destination.
    Unresolved,
}

/// Signed hex rendering of a displacement: `+0x10` / `-0x10`.
fn disp(d: i64) -> String {
    if d < 0 {
        format!("-{:#x}", d.unsigned_abs())
    } else {
        format!("+{d:#x}")
    }
}

impl fmt::Display for WriteClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteClass::StackLocal { lo, hi } if lo == hi => {
                write!(f, "stack[rsp0{}]", disp(*lo))
            }
            WriteClass::StackLocal { lo, hi } => {
                write!(f, "stack[rsp0{}..rsp0{}]", disp(*lo), disp(*hi))
            }
            WriteClass::Global { lo, hi } if lo == hi => write!(f, "global[{lo:#x}]"),
            WriteClass::Global { lo, hi } => write!(f, "global[{lo:#x}..{hi:#x}]"),
            WriteClass::HeapSymbol { sym } => write!(f, "symbol[{sym}]"),
            WriteClass::Unresolved => f.write_str("unresolved"),
        }
    }
}

impl WriteClass {
    /// The stable kebab-case family name used in reports and JSON.
    pub fn family(&self) -> &'static str {
        match self {
            WriteClass::StackLocal { .. } => "stack-local",
            WriteClass::Global { .. } => "global",
            WriteClass::HeapSymbol { .. } => "heap-symbol",
            WriteClass::Unresolved => "unresolved",
        }
    }
}

/// One write site: an instruction that writes memory, with the classes
/// claimed by every vertex invariant at its address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedWrite {
    /// Entry address of the function containing the write.
    pub function: u64,
    /// Address of the writing instruction.
    pub addr: u64,
    /// Bytes written.
    pub size: u64,
    /// One class per vertex invariant at `addr` (deduplicated). The
    /// machine state is always contained in *some* vertex at the
    /// address, so a concrete execution of this write must satisfy at
    /// least one member.
    pub classes: BTreeSet<WriteClass>,
}

impl ClassifiedWrite {
    /// True if every invariant resolved the destination.
    pub fn resolved(&self) -> bool {
        !self.classes.is_empty() && !self.classes.contains(&WriteClass::Unresolved)
    }

    /// The family this site is accounted under: `unresolved` if any
    /// invariant failed to resolve it, otherwise the family of the
    /// least class (sites almost always carry exactly one family).
    pub fn family(&self) -> &'static str {
        if !self.resolved() {
            return "unresolved";
        }
        self.classes.iter().next().map_or("unresolved", WriteClass::family)
    }

    /// Check a concrete write start address against the static claim.
    ///
    /// `Some(true)`: some class admits the address. `Some(false)`: no
    /// class does — the static claim is contradicted. `None`: the
    /// claim is not dynamically checkable (an unresolved or
    /// symbol-rooted class admits addresses we cannot enumerate).
    pub fn admits(&self, concrete: u64, entry_rsp: u64) -> Option<bool> {
        if self.classes.is_empty() {
            return None;
        }
        let mut ok = false;
        for c in &self.classes {
            match c {
                WriteClass::StackLocal { lo, hi } => {
                    let d = concrete.wrapping_sub(entry_rsp) as i64;
                    if *lo <= d && d <= *hi {
                        ok = true;
                    }
                }
                WriteClass::Global { lo, hi } => {
                    if *lo <= concrete && concrete <= *hi {
                        ok = true;
                    }
                }
                WriteClass::HeapSymbol { .. } | WriteClass::Unresolved => return None,
            }
        }
        Some(ok)
    }
}

/// Per-binary write-classification totals (the Table-2 row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteTotals {
    /// Write sites classified stack-local.
    pub stack_local: usize,
    /// Write sites classified global.
    pub global: usize,
    /// Write sites classified heap/pointer-symbol.
    pub heap_symbol: usize,
    /// Write sites left unresolved.
    pub unresolved: usize,
}

impl WriteTotals {
    /// All write sites.
    pub fn total(&self) -> usize {
        self.stack_local + self.global + self.heap_symbol + self.unresolved
    }

    /// Fraction of write sites resolved to a concrete family
    /// (1.0 when there are no writes at all).
    pub fn resolved_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 1.0;
        }
        (t - self.unresolved) as f64 / t as f64
    }

    /// Tally one classified site.
    pub fn add(&mut self, w: &ClassifiedWrite) {
        match w.family() {
            "stack-local" => self.stack_local += 1,
            "global" => self.global += 1,
            "heap-symbol" => self.heap_symbol += 1,
            _ => self.unresolved += 1,
        }
    }
}

/// The write region of `instr` under `pred`, using the same predicate
/// as the lifter's step function: an explicit first-operand memory
/// destination, or the implicit `[rsp - 8, 8]` slot of `push`/`call`.
pub fn write_region(pred: &Pred, instr: &Instr) -> Option<Region> {
    if instr.mnemonic != Mnemonic::Lea {
        if let Some(Operand::Mem(m)) = instr.operands.first() {
            if writes_first_operand(instr.mnemonic) {
                let addr = addr_expr(pred, m, instr.next_addr());
                return Some(Region::new(addr, m.size.bytes() as u64));
            }
        }
    }
    if matches!(instr.mnemonic, Mnemonic::Push | Mnemonic::Call) {
        let rsp = pred.reg(Reg::Rsp);
        return Some(Region::new(rsp.sub(hgl_expr::Expr::imm(8)), 8));
    }
    None
}

/// Signed displacement bounds of a residue (a linear form minus its
/// `rsp0` term) under the invariant's mined atom intervals.
///
/// Displacements are signed; the solver's intervals are unsigned, so
/// the old path (`interval_of` + reinterpret both ends as `i64`) broke
/// down at *both* wrap boundaries: a residue crossing zero (say
/// `[-0x10, +0x10]`) overflows the unsigned evaluation at `2^64` and
/// was dropped to `Unresolved`, and a mined bound straddling the `i64`
/// boundary reinterprets to `lo > hi` and relied on an implicit
/// comparison to stay sound. This evaluator works in signed space
/// throughout. Every step is `checked_*`: an overflowing bound means
/// the machine (mod-`2^64`) displacement set has no contiguous signed
/// image, and *saturating* the bound instead would clip real wrapped
/// displacements out of the claim — letting [`ClassifiedWrite::admits`]
/// refute a write that actually happened. Overflow therefore saturates
/// the whole claim to `None` (→ `Unresolved`), never a bound.
fn signed_residue_bounds(ctx: &Ctx, residue: &Linear) -> Option<(i64, i64)> {
    let (mut lo, mut hi) = (residue.offset, residue.offset);
    for (atom, &coeff) in &residue.terms {
        // Negative or zero coefficients never appear in mined address
        // forms; bail conservatively rather than reorder bounds.
        if coeff <= 0 {
            return None;
        }
        let b = ctx.bound_of(atom)?;
        // Reinterpret the unsigned atom bound; `b_lo <= b_hi` fails
        // exactly when it straddles the i64 boundary (two disjoint
        // signed rays — no contiguous image).
        let (b_lo, b_hi) = (b.lo as i64, b.hi as i64);
        if b_lo > b_hi {
            return None;
        }
        lo = lo.checked_add(b_lo.checked_mul(coeff)?)?;
        hi = hi.checked_add(b_hi.checked_mul(coeff)?)?;
    }
    (lo <= hi).then_some((lo, hi))
}

/// Classify one write region under one invariant.
pub fn classify_region(ctx: &Ctx, region: &Region) -> WriteClass {
    let lin = region.linear();
    if lin.has_bottom {
        return WriteClass::Unresolved;
    }
    if lin.terms.is_empty() {
        let k = lin.offset as u64;
        return WriteClass::Global { lo: k, hi: k };
    }
    // `rsp0 + k` exactly: a stack slot at a known displacement.
    if let Some(d) = region.displacement_from_rsp0() {
        return WriteClass::StackLocal { lo: d, hi: d };
    }
    // `rsp0 + residue` with a bounded residue (e.g. an indexed local
    // array store): still stack, over a displacement interval.
    if lin.terms.get(&Atom::Sym(Sym::Init(Reg::Rsp))) == Some(&1) {
        let mut residue = Linear::constant(lin.offset);
        for (a, &c) in &lin.terms {
            if *a != Atom::Sym(Sym::Init(Reg::Rsp)) {
                residue.terms.insert(*a, c);
            }
        }
        if let Some((lo, hi)) = signed_residue_bounds(ctx, &residue) {
            return WriteClass::StackLocal { lo, hi };
        }
        return WriteClass::Unresolved;
    }
    match ctx.provenance(&region.addr) {
        Provenance::Heap(sym) | Provenance::Param(sym) => WriteClass::HeapSymbol { sym },
        Provenance::Global => match ctx.interval_of(&region.addr) {
            Some(iv) => WriteClass::Global { lo: iv.lo, hi: iv.hi },
            None => WriteClass::Unresolved,
        },
        _ => WriteClass::Unresolved,
    }
}

/// Classify every write site of every function in `lift`, merging the
/// claims of all vertex invariants per instruction address. A vertex
/// whose address has no decoded instruction in the graph is skipped.
/// Output is sorted by (function, address).
pub fn classify_writes(binary: &Binary, lift: &LiftResult) -> Vec<ClassifiedWrite> {
    let layout = crate::lints::layout(binary);
    let mut out: BTreeMap<(u64, u64), ClassifiedWrite> = BTreeMap::new();
    for (&entry, f) in &lift.functions {
        for (_, v, instr) in crate::lints::decoded(&f.graph) {
            let Some(region) = write_region(&v.state.pred, instr) else { continue };
            let ctx = Ctx::from_clauses(v.state.pred.clauses.iter(), layout.clone());
            let class = classify_region(&ctx, &region);
            out.entry((entry, instr.addr))
                .or_insert_with(|| ClassifiedWrite {
                    function: entry,
                    addr: instr.addr,
                    size: region.size,
                    classes: BTreeSet::new(),
                })
                .classes
                .insert(class);
        }
    }
    out.into_values().collect()
}

/// A per-(function, instruction) index of write claims, used by the
/// trace oracle to cross-validate classifications against concrete
/// executions.
#[derive(Debug, Clone, Default)]
pub struct WriteClassMap {
    map: BTreeMap<(u64, u64), ClassifiedWrite>,
}

impl WriteClassMap {
    /// Build the index for a lifted binary.
    pub fn build(binary: &Binary, lift: &LiftResult) -> WriteClassMap {
        let mut map = BTreeMap::new();
        for w in classify_writes(binary, lift) {
            map.insert((w.function, w.addr), w);
        }
        WriteClassMap { map }
    }

    /// The claim for the write at `addr` inside the function entered at
    /// `function`, if that instruction writes memory.
    pub fn claim(&self, function: u64, addr: u64) -> Option<&ClassifiedWrite> {
        self.map.get(&(function, addr))
    }

    /// Replace (or add) a claim. Differential tests use this to plant
    /// a deliberately wrong classification and prove the dynamic
    /// cross-check refutes it.
    pub fn insert_claim(&mut self, w: ClassifiedWrite) {
        self.map.insert((w.function, w.addr), w);
    }

    /// Number of write sites indexed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no write sites are indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All claims, ordered by (function, address).
    pub fn iter(&self) -> impl Iterator<Item = &ClassifiedWrite> {
        self.map.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_expr::Expr;
    use hgl_solver::Layout;

    fn rsp0() -> Expr {
        Expr::sym(Sym::Init(Reg::Rsp))
    }

    #[test]
    fn classify_constant_and_stack() {
        let ctx = Ctx::new();
        assert_eq!(
            classify_region(&ctx, &Region::global(0x601000, 8)),
            WriteClass::Global { lo: 0x601000, hi: 0x601000 }
        );
        assert_eq!(
            classify_region(&ctx, &Region::stack(-0x10, 8)),
            WriteClass::StackLocal { lo: -0x10, hi: -0x10 }
        );
        assert_eq!(classify_region(&ctx, &Region::new(Expr::bottom(), 8)), WriteClass::Unresolved);
    }

    #[test]
    fn classify_symbol_rooted() {
        let ctx = Ctx::new();
        let heap = Region::new(Expr::sym(Sym::Fresh(7)).add(Expr::imm(16)), 8);
        assert_eq!(classify_region(&ctx, &heap), WriteClass::HeapSymbol { sym: Sym::Fresh(7) });
        let param = Region::new(Expr::sym(Sym::Init(Reg::Rdi)), 4);
        assert_eq!(
            classify_region(&ctx, &param),
            WriteClass::HeapSymbol { sym: Sym::Init(Reg::Rdi) }
        );
    }

    #[test]
    fn classify_indexed_stack_with_bound() {
        use hgl_expr::{Clause, Rel};
        // rsp0 + rax0*8 with rax0 < 4: displacement in [0, 24].
        let c = Clause::new(Expr::sym(Sym::Init(Reg::Rax)), Rel::Lt, Expr::imm(4));
        let ctx = Ctx::from_clauses([&c], Layout::default());
        let r = Region::new(rsp0().add(Expr::sym(Sym::Init(Reg::Rax)).mul(Expr::imm(8))), 8);
        assert_eq!(classify_region(&ctx, &r), WriteClass::StackLocal { lo: 0, hi: 24 });
        // Unbounded index: unresolved.
        let ctx = Ctx::new();
        assert_eq!(classify_region(&ctx, &r), WriteClass::Unresolved);
    }

    /// A residue crossing zero (negative frame offset plus an index
    /// bound reaching past it) classifies to the signed interval. The
    /// old unsigned evaluation overflowed at `2^64` on exactly this
    /// shape and dropped it to `Unresolved`.
    #[test]
    fn classify_zero_crossing_residue() {
        use hgl_expr::{Clause, Rel};
        // rsp0 - 0x20 + rax0*8 with rax0 < 7: displacement in [-0x20, 0x10].
        let c = Clause::new(Expr::sym(Sym::Init(Reg::Rax)), Rel::Lt, Expr::imm(7));
        let ctx = Ctx::from_clauses([&c], Layout::default());
        let r = Region::new(
            rsp0().add(Expr::sym(Sym::Init(Reg::Rax)).mul(Expr::imm(8))).sub(Expr::imm(0x20)),
            8,
        );
        assert_eq!(classify_region(&ctx, &r), WriteClass::StackLocal { lo: -0x20, hi: 0x10 });
    }

    /// Displacement overflow at the `i64` boundary: companion to the
    /// `i64::MIN` edge case in `hgl_solver::region`. A displacement of
    /// exactly `i64::MIN` round-trips; pushing a bound past either rail
    /// must collapse the whole claim to `Unresolved` (a clipped bound
    /// would exclude real wrapped displacements and falsely refute).
    #[test]
    fn classify_displacement_i64_boundary() {
        use hgl_expr::{Clause, Rel};
        let ctx = Ctx::new();
        // `-i64::MIN` does not exist in i64; the exact point claim
        // still classifies without wrapping.
        assert_eq!(
            classify_region(&ctx, &Region::stack(i64::MIN, 8)),
            WriteClass::StackLocal { lo: i64::MIN, hi: i64::MIN }
        );

        // rsp0 + i64::MAX + rax0 with rax0 < 4: the upper bound walks
        // off the positive rail — machine displacements wrap negative,
        // so no contiguous signed claim exists.
        let c = Clause::new(Expr::sym(Sym::Init(Reg::Rax)), Rel::Lt, Expr::imm(4));
        let ctx = Ctx::from_clauses([&c], Layout::default());
        let r = Region::new(
            rsp0().add(Expr::sym(Sym::Init(Reg::Rax))).add(Expr::imm(i64::MAX as u64)),
            8,
        );
        assert_eq!(classify_region(&ctx, &r), WriteClass::Unresolved);

        // A mined atom bound that straddles the i64 boundary has two
        // disjoint signed rays for an image: also unresolved.
        let lo = Clause::new(
            Expr::sym(Sym::Init(Reg::Rax)),
            Rel::Ge,
            Expr::imm(i64::MAX as u64 - 1),
        );
        let hi = Clause::new(
            Expr::sym(Sym::Init(Reg::Rax)),
            Rel::Lt,
            Expr::imm(i64::MIN as u64 + 2),
        );
        let ctx = Ctx::from_clauses([&lo, &hi], Layout::default());
        let b = ctx.bound_of(&Atom::Sym(Sym::Init(Reg::Rax))).expect("bound mined");
        assert!((b.lo as i64) > (b.hi as i64), "bound straddles the boundary: {b:?}");
        let r = Region::new(rsp0().add(Expr::sym(Sym::Init(Reg::Rax))), 8);
        assert_eq!(classify_region(&ctx, &r), WriteClass::Unresolved);
    }

    #[test]
    fn admits_checks_concrete_addresses() {
        let w = ClassifiedWrite {
            function: 0x401000,
            addr: 0x401005,
            size: 8,
            classes: [WriteClass::StackLocal { lo: -0x20, hi: -0x8 }].into_iter().collect(),
        };
        let rsp = 0x7fff_0000u64;
        assert_eq!(w.admits(rsp - 0x10, rsp), Some(true));
        assert_eq!(w.admits(rsp + 0x10, rsp), Some(false));
        assert_eq!(w.admits(0x601000, rsp), Some(false));

        let sym = ClassifiedWrite {
            classes: [WriteClass::HeapSymbol { sym: Sym::Fresh(0) }].into_iter().collect(),
            ..w.clone()
        };
        assert_eq!(sym.admits(rsp, rsp), None);
    }

    #[test]
    fn totals_fraction() {
        let mut t = WriteTotals::default();
        assert_eq!(t.resolved_fraction(), 1.0);
        t.stack_local = 3;
        t.unresolved = 1;
        assert_eq!(t.total(), 4);
        assert!((t.resolved_fraction() - 0.75).abs() < 1e-12);
    }
}
