//! Strided-interval value-set analysis (VSA) over Hoare-Graph edges.
//!
//! The fact at a vertex is an abstract environment mapping registers
//! and `rsp0`-relative stack slots to [`StridedInterval`]s — the
//! classic `stride[lo, hi]` domain of Balakrishnan & Reps, restricted
//! to unsigned 64-bit values. The pass runs forward on the existing
//! worklist [`fixpoint`](crate::engine::fixpoint) engine and exists
//! for one purpose: to bound the index register of an indirect
//! `jmp [table + idx*scale]` so the jump-table recovery in
//! [`jumptable`](crate::jumptable) can read the concrete targets out
//! of the ELF image.
//!
//! # Termination
//!
//! Widening is built into the join: every constructed `Range` holds at
//! most [`MAX_CARDINALITY`] concrete values, and a join whose minimal
//! strided superset would exceed that collapses to `Top`. A strict
//! lattice increase therefore strictly increases the (finite) number
//! of concrete values an interval denotes, so any ascending chain has
//! at most `MAX_CARDINALITY + 2` strict steps: the pass terminates
//! without a separate widening operator, and the join laws
//! (commutativity, associativity, idempotence) hold *exactly* — the
//! proptest suite asserts them with `==`, not approximately.
//!
//! # Soundness notes
//!
//! Register views narrower than 64 bits are the subtle part. A value
//! tracked for `rax` only describes the `eax` view when it fits in 32
//! bits; conversely a 32-bit write zero-extends, so its result is kept
//! only when it provably fits. `cmp`/`jcc` refinement uses only the
//! *unsigned* conditions, and only when the compared view determines
//! the full register (64-bit compares always; 32-bit compares only if
//! the tracked value already fits in 32 bits). Everything the
//! transfer does not understand goes to `Top`, never to a guess.

use crate::engine::{Direction, Lattice, Transfer};
use hgl_core::graph::{Edge, HoareGraph, VertexId};
use hgl_core::tau::writes_first_operand;
use hgl_expr::{gcd, Linear};
use hgl_solver::rsp0_displacement;
use hgl_x86::{Cond, Instr, MemOperand, Mnemonic, Operand, Reg, RegRef, Width};
use std::collections::BTreeMap;
use std::fmt;

/// The widening cap: the maximum number of concrete values a `Range`
/// may denote. Joins that would exceed it collapse to `Top`, which
/// bounds every ascending chain (see the module docs).
pub const MAX_CARDINALITY: u64 = 4096;

/// A strided interval `stride[lo, hi]` of unsigned 64-bit values:
/// `{ lo, lo + stride, …, hi }`.
///
/// Canonical form: `lo ≤ hi`; `lo == hi` implies `stride == 0`;
/// `lo < hi` implies `stride > 0` and `stride | (hi - lo)`; the
/// element count never exceeds [`MAX_CARDINALITY`]. All constructors
/// enforce this, collapsing to `Top` past the cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StridedInterval {
    /// The empty set (unreached).
    Bottom,
    /// `{ lo + k·stride | 0 ≤ k ≤ (hi-lo)/stride }`.
    Range {
        /// Distance between consecutive elements (0 for a singleton).
        stride: u64,
        /// Smallest element.
        lo: u64,
        /// Largest element.
        hi: u64,
    },
    /// Any value.
    Top,
}

use StridedInterval::{Bottom, Range, Top};

impl StridedInterval {
    /// The canonical strided interval over `[lo, hi]` with the given
    /// stride hint; collapses to `Top` past [`MAX_CARDINALITY`].
    fn mk(stride: u64, lo: u64, hi: u64) -> StridedInterval {
        if lo > hi {
            return Bottom;
        }
        if lo == hi {
            return Range { stride: 0, lo, hi };
        }
        let s = if stride == 0 { hi - lo } else { stride };
        let hi = lo + ((hi - lo) / s) * s;
        if lo == hi {
            return Range { stride: 0, lo, hi };
        }
        if (hi - lo) / s + 1 > MAX_CARDINALITY {
            return Top;
        }
        Range { stride: s, lo, hi }
    }

    /// The singleton `{v}`.
    pub fn point(v: u64) -> StridedInterval {
        Range { stride: 0, lo: v, hi: v }
    }

    /// The dense interval `[lo, hi]` (stride 1), `Top` past the cap.
    pub fn range(lo: u64, hi: u64) -> StridedInterval {
        StridedInterval::mk(1, lo, hi)
    }

    /// The canonicalised strided interval `stride[lo, hi]` (`Bottom`
    /// when empty, `Top` past the cardinality cap).
    pub fn strided(stride: u64, lo: u64, hi: u64) -> StridedInterval {
        StridedInterval::mk(stride, lo, hi)
    }

    /// Number of concrete values (`None` for `Top`).
    pub fn count(&self) -> Option<u64> {
        match *self {
            Bottom => Some(0),
            Range { stride: 0, .. } => Some(1),
            Range { stride, lo, hi } => Some((hi - lo) / stride + 1),
            Top => None,
        }
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: u64) -> bool {
        match *self {
            Bottom => false,
            Top => true,
            Range { stride: 0, lo, .. } => v == lo,
            Range { stride, lo, hi } => lo <= v && v <= hi && (v - lo).is_multiple_of(stride),
        }
    }

    /// Lattice order: `self ⊑ other` iff `self ⊔ other == other`.
    pub fn leq(&self, other: &StridedInterval) -> bool {
        self.join(other) == *other
    }

    /// All concrete values, when there are at most `cap` of them.
    pub fn enumerate(&self, cap: u64) -> Option<Vec<u64>> {
        match *self {
            Bottom => Some(Vec::new()),
            Top => None,
            Range { stride, lo, hi } => {
                let n = self.count().expect("range count");
                if n > cap {
                    return None;
                }
                let mut out = Vec::with_capacity(n as usize);
                let mut v = lo;
                loop {
                    out.push(v);
                    if v == hi {
                        break;
                    }
                    v += stride.max(1);
                }
                Some(out)
            }
        }
    }

    /// Abstract addition (`Top` on 64-bit overflow — the concrete op
    /// would wrap, which an interval cannot express).
    pub fn add(&self, other: &StridedInterval) -> StridedInterval {
        match (*self, *other) {
            (Bottom, _) | (_, Bottom) => Bottom,
            (Top, _) | (_, Top) => Top,
            (Range { stride: s1, lo: l1, hi: h1 }, Range { stride: s2, lo: l2, hi: h2 }) => {
                match (l1.checked_add(l2), h1.checked_add(h2)) {
                    (Some(lo), Some(hi)) => StridedInterval::mk(gcd(s1, s2), lo, hi),
                    _ => Top,
                }
            }
        }
    }

    /// Abstract `self + k` for signed `k` (`Top` on u64 overflow or
    /// underflow).
    pub fn add_signed(&self, k: i64) -> StridedInterval {
        if k >= 0 {
            return self.add(&StridedInterval::point(k as u64));
        }
        let d = k.unsigned_abs();
        match *self {
            Range { stride, lo, hi } => match (lo.checked_sub(d), hi.checked_sub(d)) {
                (Some(lo), Some(hi)) => Range { stride, lo, hi },
                _ => Top,
            },
            x => x,
        }
    }

    /// Abstract multiplication by a constant (`Top` on overflow).
    pub fn mul_const(&self, k: u64) -> StridedInterval {
        if k == 0 {
            return match self {
                Bottom => Bottom,
                _ => StridedInterval::point(0),
            };
        }
        match *self {
            Range { stride, lo, hi } => {
                match (stride.checked_mul(k), lo.checked_mul(k), hi.checked_mul(k)) {
                    (Some(s), Some(lo), Some(hi)) => StridedInterval::mk(s, lo, hi),
                    _ => Top,
                }
            }
            x => x,
        }
    }

    /// Abstract `self << k` (`Top` when any value could shift out).
    pub fn shl_const(&self, k: u64) -> StridedInterval {
        if k >= 64 {
            return match self {
                Bottom => Bottom,
                _ => Top,
            };
        }
        self.mul_const(1u64 << k)
    }

    /// Abstract `self & mask`. Exact when the interval already fits
    /// under an all-ones mask; otherwise the sound `[0, mask]`
    /// envelope — which bounds even `Top` (this is what recovers
    /// `and eax, n-1`-masked jump-table indices).
    pub fn and_mask(&self, mask: u64) -> StridedInterval {
        if let Range { hi, .. } = *self {
            if hi <= mask && (mask == u64::MAX || (mask + 1).is_power_of_two()) {
                return *self;
            }
        }
        match self {
            Bottom => Bottom,
            _ => StridedInterval::range(0, mask),
        }
    }

    /// Refine to `[min, max]` (either bound optional): the abstract
    /// meet with a dense interval, used for `cmp`/`jcc` refinement.
    /// Bounds are aligned onto the stride grid; an empty result is
    /// `Bottom`.
    pub fn clamp(&self, min: Option<u64>, max: Option<u64>) -> StridedInterval {
        match *self {
            Bottom => Bottom,
            // The domain is unsigned, so a missing lower bound is 0;
            // a missing upper bound leaves Top unbounded.
            Top => match max {
                Some(hi) => StridedInterval::range(min.unwrap_or(0), hi),
                None => Top,
            },
            Range { stride, lo, hi } => {
                let mut nlo = lo;
                let mut nhi = hi;
                if let Some(mn) = min {
                    if mn > nlo {
                        if stride == 0 {
                            return Bottom;
                        }
                        let steps = (mn - lo).div_ceil(stride);
                        match steps.checked_mul(stride).and_then(|d| lo.checked_add(d)) {
                            Some(v) => nlo = v,
                            None => return Bottom,
                        }
                    }
                }
                if let Some(mx) = max {
                    if mx < nhi {
                        if mx < lo {
                            return Bottom;
                        }
                        if stride == 0 {
                            return Bottom;
                        }
                        nhi = lo + ((mx - lo) / stride) * stride;
                    }
                }
                if nlo > nhi {
                    Bottom
                } else {
                    StridedInterval::mk(stride, nlo, nhi)
                }
            }
        }
    }
}

impl Lattice for StridedInterval {
    fn bottom() -> StridedInterval {
        Bottom
    }

    fn join(&self, other: &StridedInterval) -> StridedInterval {
        match (*self, *other) {
            (Bottom, x) | (x, Bottom) => x,
            (Top, _) | (_, Top) => Top,
            (Range { stride: s1, lo: l1, hi: h1 }, Range { stride: s2, lo: l2, hi: h2 }) => {
                let g = gcd(gcd(s1, s2), l1.abs_diff(l2));
                StridedInterval::mk(g, l1.min(l2), h1.max(h2))
            }
        }
    }
}

impl fmt::Display for StridedInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bottom => write!(f, "⊥"),
            Top => write!(f, "⊤"),
            Range { stride: 0, lo, .. } => write!(f, "{{{lo:#x}}}"),
            Range { stride, lo, hi } => write!(f, "{stride}[{lo:#x}, {hi:#x}]"),
        }
    }
}

/// The System-V caller-saved registers a call may clobber.
const CALL_CLOBBERED: &[Reg] = &[
    Reg::Rax,
    Reg::Rcx,
    Reg::Rdx,
    Reg::Rsi,
    Reg::Rdi,
    Reg::R8,
    Reg::R9,
    Reg::R10,
    Reg::R11,
];

/// The abstract environment at a program point: register and stack
/// slot values plus the pending `cmp reg, imm` (for `jcc` refinement).
///
/// A register or slot absent from the map is `Top`; `reachable: false`
/// is the bottom environment (no path reaches here yet).
#[derive(Debug, Clone, PartialEq)]
pub struct VsaEnv {
    /// False for the bottom environment.
    pub reachable: bool,
    /// Register values (absent = `Top`; never stores `Top`/`Bottom`).
    pub regs: BTreeMap<Reg, StridedInterval>,
    /// 8-byte stack slots keyed by their `rsp0` displacement.
    pub slots: BTreeMap<i64, StridedInterval>,
    /// The live `cmp reg, imm` fact: register, width-masked immediate,
    /// and compare width. Cleared by any flag-writing instruction and
    /// by any write to the compared register (the fact describes the
    /// value at the `cmp`, not the current one).
    pub last_cmp: Option<(Reg, u64, Width)>,
}

impl VsaEnv {
    /// The environment at a function entry: reachable, everything
    /// unknown.
    pub fn entry() -> VsaEnv {
        VsaEnv { reachable: true, ..VsaEnv::bottom() }
    }

    /// The abstract value of a full 64-bit register.
    pub fn reg(&self, r: Reg) -> StridedInterval {
        if !self.reachable {
            return Bottom;
        }
        self.regs.get(&r).copied().unwrap_or(Top)
    }

    /// The value of a register *view*: the tracked 64-bit value when
    /// it provably fits the view, else `Top`.
    fn read_view(&self, rr: RegRef) -> StridedInterval {
        if rr.high8 {
            return Top;
        }
        let iv = self.reg(rr.reg);
        if rr.width == Width::B8 {
            return iv;
        }
        match iv {
            Range { hi, .. } if hi <= rr.width.mask() => iv,
            Bottom => Bottom,
            _ => Top,
        }
    }

    /// Forget the pending compare fact when register `r` is written:
    /// the fact describes the value `r` held at the `cmp`, and a
    /// refinement derived from it after an overwrite would clamp the
    /// *new* value with the *old* comparison — unsoundly (e.g.
    /// `cmp rax, 5; mov rax, 100; jbe L` concretely reaches `L` with
    /// `rax == 100`).
    fn invalidate_cmp(&mut self, r: Reg) {
        if matches!(self.last_cmp, Some((c, _, _)) if c == r) {
            self.last_cmp = None;
        }
    }

    /// Write a register view. 64-bit writes set; 32-bit writes
    /// zero-extend (kept only when the value provably fits); narrower
    /// views preserve unknown upper bits, so the register is dropped.
    /// Any write invalidates a compare fact about the same register.
    fn write_view(&mut self, rr: RegRef, val: StridedInterval) {
        self.invalidate_cmp(rr.reg);
        let keep = match (rr.high8, rr.width) {
            (false, Width::B8) => matches!(val, Range { .. }),
            (false, Width::B4) => matches!(val, Range { hi, .. } if hi <= Width::B4.mask()),
            _ => false,
        };
        if keep {
            self.regs.insert(rr.reg, val);
        } else {
            self.regs.remove(&rr.reg);
        }
    }

    fn set_slot(&mut self, key: i64, val: StridedInterval) {
        if matches!(val, Range { .. }) {
            self.slots.insert(key, val);
        } else {
            self.slots.remove(&key);
        }
    }

    /// Drop every tracked slot whose 8-byte region overlaps a write of
    /// `size` bytes at displacement `key`.
    fn clobber_slots_overlapping(&mut self, key: i64, size: u64) {
        let lo = key.saturating_sub(7);
        let hi = key.saturating_add(size as i64 - 1);
        let stale: Vec<i64> =
            self.slots.range(lo..=hi).map(|(&k, _)| k).collect();
        for k in stale {
            self.slots.remove(&k);
        }
    }
}

impl Lattice for VsaEnv {
    fn bottom() -> VsaEnv {
        VsaEnv {
            reachable: false,
            regs: BTreeMap::new(),
            slots: BTreeMap::new(),
            last_cmp: None,
        }
    }

    fn join(&self, other: &VsaEnv) -> VsaEnv {
        if !self.reachable {
            return other.clone();
        }
        if !other.reachable {
            return self.clone();
        }
        let mut regs = BTreeMap::new();
        for (&r, a) in &self.regs {
            if let Some(b) = other.regs.get(&r) {
                let j = a.join(b);
                if matches!(j, Range { .. }) {
                    regs.insert(r, j);
                }
            }
        }
        let mut slots = BTreeMap::new();
        for (&k, a) in &self.slots {
            if let Some(b) = other.slots.get(&k) {
                let j = a.join(b);
                if matches!(j, Range { .. }) {
                    slots.insert(k, j);
                }
            }
        }
        let last_cmp = if self.last_cmp == other.last_cmp { self.last_cmp } else { None };
        VsaEnv { reachable: true, regs, slots, last_cmp }
    }
}

/// Forward value-set analysis over one function's Hoare Graph.
///
/// The fact at a vertex describes the machine state *before* the
/// instruction at that vertex executes. Stack slots are resolved via
/// the source vertex's own invariant (`rsp = rsp0 + k`), the same
/// mechanism [`StackDepth`](crate::passes::StackDepth) uses.
pub struct VsaPass<'g> {
    /// The graph being analysed (for `rsp` invariants).
    pub graph: &'g HoareGraph,
    /// The function entry address.
    pub entry: u64,
}

impl VsaPass<'_> {
    /// The `rsp0` displacement of `rsp` at a vertex, when its
    /// invariant pins it.
    fn rsp_disp(&self, id: VertexId) -> Option<i64> {
        let v = self.graph.vertices.get(&id)?;
        rsp0_displacement(&Linear::of_expr(&v.state.pred.reg(Reg::Rsp)))
    }

    /// The `rsp0` displacement a memory operand addresses, when it is
    /// a statically resolved `[rsp + disp]` slot.
    fn slot_key(m: &MemOperand, rsp_disp: Option<i64>) -> Option<i64> {
        if m.base == Some(Reg::Rsp) && m.index.is_none() && !m.rip_relative {
            return rsp_disp?.checked_add(m.disp);
        }
        None
    }

    /// The abstract value of a source operand read at `width`.
    fn value_of(env: &VsaEnv, op: &Operand, width: Width, rsp_disp: Option<i64>) -> StridedInterval {
        match op {
            Operand::Imm(k) => StridedInterval::point((*k as u64) & width.mask()),
            Operand::Reg(rr) => env.read_view(*rr),
            Operand::Mem(m) => {
                if m.size == Width::B8 {
                    if let Some(key) = VsaPass::slot_key(m, rsp_disp) {
                        return env.slots.get(&key).copied().unwrap_or(Top);
                    }
                }
                Top
            }
        }
    }

    /// The abstract effective address of a memory operand.
    fn eff_addr(env: &VsaEnv, m: &MemOperand, instr: &Instr) -> StridedInterval {
        if m.rip_relative {
            return StridedInterval::point(instr.next_addr().wrapping_add(m.disp as u64));
        }
        let mut v = match m.base {
            None => StridedInterval::point(0),
            Some(b) => env.reg(b),
        };
        if let Some(ix) = m.index {
            v = v.add(&env.reg(ix).mul_const(m.scale as u64));
        }
        v.add_signed(m.disp)
    }

    /// Abstract store through a memory operand. Every resolved write
    /// first clobbers the tracked slots its byte range overlaps (a
    /// qword store at `+0` kills a stale value tracked at `+4`); only
    /// an aligned 8-byte store then records the new value.
    fn write_mem(env: &mut VsaEnv, m: &MemOperand, rsp_disp: Option<i64>, val: StridedInterval) {
        match VsaPass::slot_key(m, rsp_disp) {
            Some(key) if m.size == Width::B8 => {
                env.clobber_slots_overlapping(key, 8);
                env.set_slot(key, val);
            }
            Some(key) => {
                env.clobber_slots_overlapping(key, m.size.bytes() as u64);
            }
            // A write through an unresolved address may hit any slot.
            None => env.slots.clear(),
        }
    }

    /// Refine the compared register across a `jcc` edge using the live
    /// `cmp reg, imm` fact. Unsigned conditions only; a 32-bit compare
    /// refines the full register only when the tracked value already
    /// fits in 32 bits (otherwise the 32-bit view does not determine
    /// the 64-bit value). An infeasible outcome yields the bottom
    /// environment.
    fn refine_jcc(env: &mut VsaEnv, cond: Cond, instr: &Instr, edge: &Edge) -> bool {
        let Some((r, k, w)) = env.last_cmp else { return true };
        // A `jcc` whose taken target *is* its fallthrough (`jcc +0`)
        // has a single successor reached under both outcomes: there is
        // no branch direction to refine on, and classifying the edge
        // as not-taken would wrongly exclude condition-holds states.
        if let Some(Operand::Imm(t)) = instr.operands.first() {
            if *t as u64 == instr.next_addr() {
                return true;
            }
        }
        let taken = match edge.to {
            VertexId::At(a, _) => a != instr.next_addr(),
            VertexId::Exit => return true,
        };
        let c = if taken { cond } else { cond.negate() };
        let cur = env.reg(r);
        let view_determines = match w {
            Width::B8 => true,
            Width::B4 => matches!(cur, Range { hi, .. } if hi <= Width::B4.mask()),
            _ => false,
        };
        if !view_determines {
            return true;
        }
        let refined = match c {
            Cond::B => match k.checked_sub(1) {
                Some(m) => cur.clamp(None, Some(m)),
                None => Bottom,
            },
            Cond::Be => cur.clamp(None, Some(k)),
            Cond::Ae => cur.clamp(Some(k), None),
            Cond::A => {
                if k >= w.mask() {
                    Bottom
                } else {
                    cur.clamp(Some(k + 1), None)
                }
            }
            Cond::E => {
                if cur.contains(k) {
                    StridedInterval::point(k)
                } else {
                    Bottom
                }
            }
            _ => return true,
        };
        if refined == Bottom {
            return false;
        }
        if matches!(refined, Range { .. }) {
            env.regs.insert(r, refined);
        }
        true
    }

    /// One instruction's abstract step.
    fn step(&self, edge: &Edge, fact: &VsaEnv) -> VsaEnv {
        let mut env = fact.clone();
        let instr = self.graph.edge_instr(edge);
        let rsp_disp = self.rsp_disp(edge.from);
        let dst = instr.operands.first().copied();
        let src = instr.operands.get(1).copied();

        match instr.mnemonic {
            Mnemonic::Mov | Mnemonic::Movabs => match (dst, src) {
                (Some(Operand::Reg(rr)), Some(s)) => {
                    let v = VsaPass::value_of(&env, &s, rr.width, rsp_disp);
                    env.write_view(rr, v);
                }
                (Some(Operand::Mem(m)), Some(s)) => {
                    let v = VsaPass::value_of(&env, &s, m.size, rsp_disp);
                    VsaPass::write_mem(&mut env, &m, rsp_disp, v);
                }
                _ => {}
            },
            Mnemonic::Movzx => {
                if let (Some(Operand::Reg(rr)), Some(s)) = (dst, src) {
                    let srcw = s.width().unwrap_or(Width::B1);
                    let v = match VsaPass::value_of(&env, &s, srcw, rsp_disp) {
                        Top => StridedInterval::range(0, srcw.mask()),
                        x => x,
                    };
                    env.write_view(rr, v);
                }
            }
            Mnemonic::Movsx | Mnemonic::Movsxd => {
                if let (Some(Operand::Reg(rr)), Some(s)) = (dst, src) {
                    let srcw = s.width().unwrap_or(Width::B1);
                    // Sign extension is the identity only when the
                    // sign bit is provably clear.
                    let v = match VsaPass::value_of(&env, &s, srcw, rsp_disp) {
                        Range { stride, lo, hi } if hi <= srcw.mask() >> 1 => {
                            Range { stride, lo, hi }
                        }
                        Bottom => Bottom,
                        _ => Top,
                    };
                    env.write_view(rr, v);
                }
            }
            Mnemonic::Lea => {
                if let (Some(Operand::Reg(rr)), Some(Operand::Mem(m))) = (dst, src) {
                    let v = VsaPass::eff_addr(&env, &m, instr);
                    env.write_view(rr, v);
                }
            }
            Mnemonic::Add | Mnemonic::Sub => {
                if let (Some(Operand::Reg(rr)), Some(s)) = (dst, src) {
                    let a = env.read_view(rr);
                    let b = VsaPass::value_of(&env, &s, rr.width, rsp_disp);
                    let v = if instr.mnemonic == Mnemonic::Add {
                        a.add(&b)
                    } else {
                        match b {
                            Range { stride: 0, lo, .. } if lo <= i64::MAX as u64 => {
                                a.add_signed(-(lo as i64))
                            }
                            Bottom => Bottom,
                            _ => Top,
                        }
                    };
                    env.write_view(rr, v);
                } else if let Some(Operand::Mem(m)) = dst {
                    VsaPass::write_mem(&mut env, &m, rsp_disp, Top);
                }
                env.last_cmp = None;
            }
            Mnemonic::And => {
                if let (Some(Operand::Reg(rr)), Some(Operand::Imm(k))) = (dst, src) {
                    if k >= 0 {
                        let v = env.read_view(rr).and_mask(k as u64);
                        env.write_view(rr, v);
                    } else {
                        env.write_view(rr, Top);
                    }
                } else if let Some(Operand::Reg(rr)) = dst {
                    env.write_view(rr, Top);
                } else if let Some(Operand::Mem(m)) = dst {
                    VsaPass::write_mem(&mut env, &m, rsp_disp, Top);
                }
                env.last_cmp = None;
            }
            Mnemonic::Xor => {
                match (dst, src) {
                    (Some(Operand::Reg(a)), Some(Operand::Reg(b)))
                        if a.reg == b.reg && a.width == b.width && !a.high8 && !b.high8 =>
                    {
                        env.write_view(
                            RegRef::new(a.reg, Width::B8),
                            StridedInterval::point(0),
                        );
                    }
                    (Some(Operand::Reg(rr)), _) => env.write_view(rr, Top),
                    (Some(Operand::Mem(m)), _) => VsaPass::write_mem(&mut env, &m, rsp_disp, Top),
                    _ => {}
                }
                env.last_cmp = None;
            }
            Mnemonic::Shl => {
                if let (Some(Operand::Reg(rr)), Some(Operand::Imm(k))) = (dst, src) {
                    let v = env.read_view(rr).shl_const((k as u64) & 0x3f);
                    env.write_view(rr, v);
                } else if let Some(Operand::Reg(rr)) = dst {
                    env.write_view(rr, Top);
                }
                env.last_cmp = None;
            }
            Mnemonic::Cmp => {
                env.last_cmp = match (dst, src) {
                    (Some(Operand::Reg(rr)), Some(Operand::Imm(k))) if !rr.high8 => {
                        Some((rr.reg, (k as u64) & rr.width.mask(), rr.width))
                    }
                    _ => None,
                };
            }
            Mnemonic::Jcc(c) => {
                if !VsaPass::refine_jcc(&mut env, c, instr, edge) {
                    return VsaEnv::bottom();
                }
            }
            Mnemonic::Jmp | Mnemonic::Nop | Mnemonic::Endbr64 | Mnemonic::Ret => {}
            Mnemonic::Push => {
                // Push moves rsp, so a pending `cmp rsp, imm` is stale.
                env.invalidate_cmp(Reg::Rsp);
                let mut stored = false;
                if let (Some(s), Some(d)) = (dst, rsp_disp) {
                    let v = VsaPass::value_of(&env, &s, Width::B8, rsp_disp);
                    if let Some(key) = d.checked_sub(8) {
                        env.clobber_slots_overlapping(key, 8);
                        env.set_slot(key, v);
                        stored = true;
                    }
                }
                if !stored {
                    env.slots.clear();
                }
            }
            Mnemonic::Pop => {
                env.invalidate_cmp(Reg::Rsp);
                match dst {
                    Some(Operand::Reg(rr)) => {
                        let v = match rsp_disp {
                            Some(d) => env.slots.get(&d).copied().unwrap_or(Top),
                            None => Top,
                        };
                        env.write_view(rr, v);
                    }
                    Some(Operand::Mem(m)) => VsaPass::write_mem(&mut env, &m, rsp_disp, Top),
                    _ => {}
                }
            }
            Mnemonic::Call => {
                for &r in CALL_CLOBBERED {
                    env.regs.remove(&r);
                }
                env.slots.clear();
                env.last_cmp = None;
            }
            Mnemonic::Leave => {
                env.invalidate_cmp(Reg::Rbp);
                env.invalidate_cmp(Reg::Rsp);
                env.regs.remove(&Reg::Rbp);
                env.slots.clear();
            }
            m => {
                // Conservative default: kill whatever the instruction
                // writes and forget the compare fact.
                match dst {
                    Some(Operand::Reg(rr)) if writes_first_operand(m) => env.write_view(rr, Top),
                    Some(Operand::Mem(mo)) if writes_first_operand(m) => {
                        VsaPass::write_mem(&mut env, &mo, rsp_disp, Top);
                    }
                    _ => {}
                }
                if m.is_control_flow() {
                    // jrcxz/loop read registers but write none.
                } else {
                    env.slots.clear();
                    env.regs.clear();
                }
                env.last_cmp = None;
            }
        }
        env
    }
}

impl Transfer for VsaPass<'_> {
    type Fact = VsaEnv;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, id: VertexId) -> Option<VsaEnv> {
        matches!(id, VertexId::At(a, _) if a == self.entry).then(VsaEnv::entry)
    }

    fn transfer(&self, edge: &Edge, fact: &VsaEnv) -> VsaEnv {
        if !fact.reachable {
            return VsaEnv::bottom();
        }
        self.step(edge, fact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixpoint;
    use hgl_core::pred::SymState;

    fn si(stride: u64, lo: u64, hi: u64) -> StridedInterval {
        StridedInterval::mk(stride, lo, hi)
    }

    #[test]
    fn canonical_form() {
        assert_eq!(si(4, 3, 17), Range { stride: 4, lo: 3, hi: 15 });
        assert_eq!(si(0, 5, 9), Range { stride: 4, lo: 5, hi: 9 });
        assert_eq!(si(1, 9, 5), Bottom);
        assert_eq!(si(1, 0, MAX_CARDINALITY), Top);
        assert_eq!(si(1, 0, MAX_CARDINALITY - 1).count(), Some(MAX_CARDINALITY));
    }

    #[test]
    fn join_is_minimal_strided_superset() {
        let a = StridedInterval::point(3);
        let b = StridedInterval::point(11);
        assert_eq!(a.join(&b), Range { stride: 8, lo: 3, hi: 11 });
        let c = si(4, 0, 16);
        let d = si(6, 2, 14);
        let j = c.join(&d);
        assert_eq!(j, Range { stride: 2, lo: 0, hi: 16 });
        for v in [0, 4, 8, 12, 16, 2, 14] {
            assert!(j.contains(v));
        }
        assert!(c.leq(&j) && d.leq(&j));
    }

    #[test]
    fn join_caps_to_top() {
        let a = StridedInterval::point(0);
        let b = StridedInterval::point(u64::MAX);
        // Minimal superset is {0, u64::MAX} — two points, fine.
        assert_eq!(a.join(&b).count(), Some(2));
        let c = si(1, 0, 100);
        let d = si(1, 1 << 20, (1 << 20) + 100);
        assert_eq!(c.join(&d), Top);
    }

    #[test]
    fn arithmetic() {
        let a = si(4, 0, 12);
        assert_eq!(a.add(&StridedInterval::point(5)), si(4, 5, 17));
        // Underflow below zero is Top (the concrete op would wrap).
        assert_eq!(a.add_signed(-4), Top);
        assert_eq!(si(4, 8, 16).add_signed(-8), si(4, 0, 8));
        assert_eq!(si(0, 4, 4).add_signed(-8), Top);
        assert_eq!(a.mul_const(8), si(32, 0, 96));
        assert_eq!(si(1, 0, 3).shl_const(3), si(8, 0, 24));
        assert_eq!(StridedInterval::point(u64::MAX).add(&StridedInterval::point(1)), Top);
    }

    #[test]
    fn and_mask_bounds_top() {
        assert_eq!(Top.and_mask(7), si(1, 0, 7));
        assert_eq!(si(1, 0, 5).and_mask(7), si(1, 0, 5));
        // Non-power-of-two mask cannot keep the interval exact.
        assert_eq!(si(1, 0, 5).and_mask(6), si(1, 0, 6));
        assert_eq!(Bottom.and_mask(7), Bottom);
    }

    #[test]
    fn clamp_refines() {
        let a = si(4, 3, 19);
        assert_eq!(a.clamp(Some(5), None), si(4, 7, 19));
        assert_eq!(a.clamp(None, Some(14)), si(4, 3, 11));
        // [8, 10] contains no grid point of 4[3, 19]: empty.
        assert_eq!(a.clamp(Some(8), Some(10)), Bottom);
        assert_eq!(Top.clamp(Some(0), Some(7)), si(1, 0, 7));
        // Unsigned domain: a missing lower bound is implicitly 0.
        assert_eq!(Top.clamp(None, Some(5)), si(1, 0, 5));
        assert_eq!(Top.clamp(Some(3), None), Top);
        assert_eq!(StridedInterval::point(5).clamp(Some(6), None), Bottom);
    }

    #[test]
    fn enumerate_bounded() {
        assert_eq!(si(4, 0, 12).enumerate(16), Some(vec![0, 4, 8, 12]));
        assert_eq!(si(4, 0, 12).enumerate(2), None);
        assert_eq!(Top.enumerate(1 << 20), None);
        assert_eq!(Bottom.enumerate(4), Some(vec![]));
    }

    fn instr_at(m: Mnemonic, ops: Vec<Operand>, w: Width, addr: u64) -> Instr {
        let mut i = Instr::new(m, ops, w);
        i.addr = addr;
        i.len = 2;
        i
    }

    fn reg32(r: Reg) -> Operand {
        Operand::Reg(RegRef::new(r, Width::B4))
    }

    /// `mov eax, edi; and eax, 7; jmp [table + rax*8]` — the masked
    /// jump-table shape: VSA must bound `rax` to `1[0, 7]` at the jump
    /// even though `rdi` is unknown.
    #[test]
    fn masked_index_is_bounded_at_jump() {
        let mut g = HoareGraph::new();
        let s = SymState::function_entry(0x10);
        for a in [0x10u64, 0x12, 0x14] {
            g.add_vertex(VertexId::At(a, 0), s.clone());
        }
        crate::add_labelled(&mut g, 
            VertexId::At(0x10, 0),
            VertexId::At(0x12, 0),
            instr_at(Mnemonic::Mov, vec![reg32(Reg::Rax), reg32(Reg::Rdi)], Width::B4, 0x10),
        );
        crate::add_labelled(&mut g, 
            VertexId::At(0x12, 0),
            VertexId::At(0x14, 0),
            instr_at(Mnemonic::And, vec![reg32(Reg::Rax), Operand::Imm(7)], Width::B4, 0x12),
        );
        let sol = fixpoint(&g, &VsaPass { graph: &g, entry: 0x10 }, 10_000);
        assert!(sol.converged);
        let env = sol.fact(VertexId::At(0x14, 0)).unwrap();
        assert_eq!(env.reg(Reg::Rax), si(1, 0, 7));
        assert_eq!(env.reg(Reg::Rdi), Top);
    }

    /// `cmp rax, 5; jbe L` refines `rax` on the taken edge and
    /// `ja`-complements it on the fallthrough.
    #[test]
    fn cmp_jcc_refinement() {
        let mut g = HoareGraph::new();
        let s = SymState::function_entry(0x10);
        for a in [0x10u64, 0x14, 0x16, 0x40] {
            g.add_vertex(VertexId::At(a, 0), s.clone());
        }
        // 0x10: mov rax, 20 ; then clamp comes only from the branch.
        crate::add_labelled(&mut g, 
            VertexId::At(0x10, 0),
            VertexId::At(0x14, 0),
            instr_at(
                Mnemonic::Cmp,
                vec![Operand::reg64(Reg::Rax), Operand::Imm(5)],
                Width::B8,
                0x10,
            ),
        );
        let jcc = instr_at(Mnemonic::Jcc(Cond::Be), vec![Operand::Imm(0x40)], Width::B8, 0x14);
        crate::add_labelled(&mut g, VertexId::At(0x14, 0), VertexId::At(0x40, 0), jcc.clone());
        crate::add_labelled(&mut g, VertexId::At(0x14, 0), VertexId::At(0x16, 0), jcc);
        let sol = fixpoint(&g, &VsaPass { graph: &g, entry: 0x10 }, 10_000);
        let taken = sol.fact(VertexId::At(0x40, 0)).unwrap();
        assert_eq!(taken.reg(Reg::Rax), si(1, 0, 5));
        // Fallthrough: rax > 5, unbounded above — Top from a Top start.
        let fall = sol.fact(VertexId::At(0x16, 0)).unwrap();
        assert_eq!(fall.reg(Reg::Rax), Top);
    }

    /// A 32-bit compare must NOT refine a register whose tracked value
    /// exceeds 32 bits: the `eax` view does not determine `rax`.
    #[test]
    fn narrow_cmp_does_not_refine_wide_value() {
        let mut g = HoareGraph::new();
        let s = SymState::function_entry(0x10);
        for a in [0x10u64, 0x14, 0x18, 0x40] {
            g.add_vertex(VertexId::At(a, 0), s.clone());
        }
        crate::add_labelled(&mut g, 
            VertexId::At(0x10, 0),
            VertexId::At(0x14, 0),
            instr_at(
                Mnemonic::Movabs,
                vec![Operand::reg64(Reg::Rax), Operand::Imm(0x1_0000_0005)],
                Width::B8,
                0x10,
            ),
        );
        crate::add_labelled(&mut g, 
            VertexId::At(0x14, 0),
            VertexId::At(0x18, 0),
            instr_at(Mnemonic::Cmp, vec![reg32(Reg::Rax), Operand::Imm(10)], Width::B4, 0x14),
        );
        let jcc = instr_at(Mnemonic::Jcc(Cond::Be), vec![Operand::Imm(0x40)], Width::B8, 0x18);
        crate::add_labelled(&mut g, VertexId::At(0x18, 0), VertexId::At(0x40, 0), jcc);
        let sol = fixpoint(&g, &VsaPass { graph: &g, entry: 0x10 }, 10_000);
        let taken = sol.fact(VertexId::At(0x40, 0)).unwrap();
        // eax == 5 ≤ 10, so the branch is concretely taken with
        // rax == 0x1_0000_0005: refusing to clamp is what keeps the
        // analysis sound here.
        assert_eq!(taken.reg(Reg::Rax), StridedInterval::point(0x1_0000_0005));
    }

    /// `cmp rax, 5; mov rax, 100; jbe L`: the mov overwrites the
    /// compared register, so the branch must NOT clamp the new value
    /// with the old comparison — the taken edge is concretely reached
    /// with `rax == 100` and must stay reachable.
    #[test]
    fn overwriting_compared_register_invalidates_cmp_fact() {
        let mut g = HoareGraph::new();
        let s = SymState::function_entry(0x10);
        for a in [0x10u64, 0x12, 0x14, 0x16, 0x40] {
            g.add_vertex(VertexId::At(a, 0), s.clone());
        }
        crate::add_labelled(&mut g, 
            VertexId::At(0x10, 0),
            VertexId::At(0x12, 0),
            instr_at(
                Mnemonic::Cmp,
                vec![Operand::reg64(Reg::Rax), Operand::Imm(5)],
                Width::B8,
                0x10,
            ),
        );
        crate::add_labelled(&mut g, 
            VertexId::At(0x12, 0),
            VertexId::At(0x14, 0),
            instr_at(
                Mnemonic::Mov,
                vec![Operand::reg64(Reg::Rax), Operand::Imm(100)],
                Width::B8,
                0x12,
            ),
        );
        let jcc = instr_at(Mnemonic::Jcc(Cond::Be), vec![Operand::Imm(0x40)], Width::B8, 0x14);
        crate::add_labelled(&mut g, VertexId::At(0x14, 0), VertexId::At(0x40, 0), jcc.clone());
        crate::add_labelled(&mut g, VertexId::At(0x14, 0), VertexId::At(0x16, 0), jcc);
        let sol = fixpoint(&g, &VsaPass { graph: &g, entry: 0x10 }, 10_000);
        assert!(sol.converged);
        // Both edges keep rax == 100; neither is marked unreachable.
        let taken = sol.fact(VertexId::At(0x40, 0)).unwrap();
        assert!(taken.reachable, "taken edge wrongly refined to bottom");
        assert_eq!(taken.reg(Reg::Rax), StridedInterval::point(100));
        let fall = sol.fact(VertexId::At(0x16, 0)).unwrap();
        assert!(fall.reachable);
        assert_eq!(fall.reg(Reg::Rax), StridedInterval::point(100));
    }

    /// An 8-byte store to a tracked slot must clobber every tracked
    /// slot whose region overlaps the written range, not just the
    /// exact key — a stale value at `+4` would otherwise survive a
    /// qword write at `+0`.
    #[test]
    fn qword_store_clobbers_overlapping_slots() {
        let mut env = VsaEnv::entry();
        env.slots.insert(0, StridedInterval::point(1));
        env.slots.insert(4, StridedInterval::point(2));
        env.slots.insert(-4, StridedInterval::point(3));
        env.slots.insert(8, StridedInterval::point(4));
        let m = MemOperand::base_disp(Reg::Rsp, 0, Width::B8);
        VsaPass::write_mem(&mut env, &m, Some(0), StridedInterval::point(9));
        // [0, 7] overlaps the regions of slots -4, 0 and 4 but not 8.
        assert_eq!(env.slots.get(&0), Some(&StridedInterval::point(9)));
        assert_eq!(env.slots.get(&4), None, "stale overlapping slot survived");
        assert_eq!(env.slots.get(&-4), None, "stale overlapping slot survived");
        assert_eq!(env.slots.get(&8), Some(&StridedInterval::point(4)));
    }

    /// `push` writes 8 bytes at `rsp0 + d - 8`: overlapping tracked
    /// slots must be clobbered exactly like an explicit qword store.
    #[test]
    fn push_clobbers_overlapping_slots() {
        let mut g = HoareGraph::new();
        let s = SymState::function_entry(0x10);
        g.add_vertex(VertexId::At(0x10, 0), s.clone());
        g.add_vertex(VertexId::At(0x12, 0), s);
        let push = instr_at(Mnemonic::Push, vec![Operand::Imm(7)], Width::B8, 0x10);
        crate::add_labelled(&mut g, VertexId::At(0x10, 0), VertexId::At(0x12, 0), push);
        let pass = VsaPass { graph: &g, entry: 0x10 };
        let mut env = VsaEnv::entry();
        // function_entry pins rsp = rsp0, so the push stores at -8;
        // a stale tracked value at -4 overlaps it.
        env.slots.insert(-4, StridedInterval::point(3));
        let out = pass.transfer(&g.edges[0], &env);
        assert_eq!(out.slots.get(&-8), Some(&StridedInterval::point(7)));
        assert_eq!(out.slots.get(&-4), None, "stale overlapping slot survived push");
    }

    /// A `jcc` whose taken target equals its fallthrough address has a
    /// single edge reached under both outcomes: refining it with the
    /// negated condition would wrongly drop condition-holds states.
    #[test]
    fn jcc_to_own_fallthrough_is_not_refined() {
        let mut g = HoareGraph::new();
        let s = SymState::function_entry(0x10);
        for a in [0x10u64, 0x12, 0x14, 0x16] {
            g.add_vertex(VertexId::At(a, 0), s.clone());
        }
        crate::add_labelled(&mut g, 
            VertexId::At(0x10, 0),
            VertexId::At(0x12, 0),
            instr_at(
                Mnemonic::Mov,
                vec![Operand::reg64(Reg::Rax), Operand::Imm(3)],
                Width::B8,
                0x10,
            ),
        );
        crate::add_labelled(&mut g, 
            VertexId::At(0x12, 0),
            VertexId::At(0x14, 0),
            instr_at(
                Mnemonic::Cmp,
                vec![Operand::reg64(Reg::Rax), Operand::Imm(5)],
                Width::B8,
                0x12,
            ),
        );
        // jcc at 0x14 with len 2: taken target 0x16 == next_addr.
        let jcc = instr_at(Mnemonic::Jcc(Cond::Be), vec![Operand::Imm(0x16)], Width::B8, 0x14);
        crate::add_labelled(&mut g, VertexId::At(0x14, 0), VertexId::At(0x16, 0), jcc);
        let sol = fixpoint(&g, &VsaPass { graph: &g, entry: 0x10 }, 10_000);
        let after = sol.fact(VertexId::At(0x16, 0)).unwrap();
        // rax == 3 satisfies `be`, so treating the lone edge as
        // not-taken would have produced bottom here.
        assert!(after.reachable, "jcc+0 edge wrongly refined away");
        assert_eq!(after.reg(Reg::Rax), StridedInterval::point(3));
    }

    #[test]
    fn call_clobbers_volatile_state() {
        let mut env = VsaEnv::entry();
        env.regs.insert(Reg::Rax, StridedInterval::point(1));
        env.regs.insert(Reg::Rbx, StridedInterval::point(2));
        env.slots.insert(-8, StridedInterval::point(3));
        env.last_cmp = Some((Reg::Rax, 0, Width::B8));
        let mut g = HoareGraph::new();
        let s = SymState::function_entry(0x10);
        g.add_vertex(VertexId::At(0x10, 0), s.clone());
        g.add_vertex(VertexId::At(0x15, 0), s);
        let call = instr_at(Mnemonic::Call, vec![Operand::Imm(0x100)], Width::B8, 0x10);
        crate::add_labelled(&mut g, VertexId::At(0x10, 0), VertexId::At(0x15, 0), call);
        let pass = VsaPass { graph: &g, entry: 0x10 };
        let out = pass.transfer(&g.edges[0], &env);
        assert_eq!(out.reg(Reg::Rax), Top);
        assert_eq!(out.reg(Reg::Rbx), StridedInterval::point(2));
        assert!(out.slots.is_empty());
        assert_eq!(out.last_cmp, None);
    }

    #[test]
    fn env_join_drops_disagreeing_keys() {
        let mut a = VsaEnv::entry();
        a.regs.insert(Reg::Rax, StridedInterval::point(1));
        a.regs.insert(Reg::Rbx, StridedInterval::point(7));
        let mut b = VsaEnv::entry();
        b.regs.insert(Reg::Rax, StridedInterval::point(3));
        let j = a.join(&b);
        assert_eq!(j.reg(Reg::Rax), si(2, 1, 3));
        // Rbx is Top in `b` (absent), so it is Top in the join.
        assert_eq!(j.reg(Reg::Rbx), Top);
        assert_eq!(VsaEnv::bottom().join(&a), a);
    }
}
