//! The decision procedure for necessarily-relations between regions
//! (Definition 3.6).

use crate::ctx::Provenance;
use crate::{Assumption, AssumptionKind, Ctx, Region};
use hgl_expr::Linear;

/// The decided relation between two regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionRel {
    /// `r0 ≡ r1`: same start, same size, in every state.
    Alias,
    /// `r0 ⊲⊳ r1`: disjoint in every state.
    Separate,
    /// `r0 ⪯ r1`: `r0` lies within `r1` in every state.
    Enclosed,
    /// `r1 ⪯ r0`.
    Encloses,
    /// Definitely overlapping but not nested (partial overlap): the
    /// caller must destroy, per §1.
    Overlap,
    /// Nothing provable: the caller forks over the possible relations
    /// and keeps a destroyed fallback model.
    Unknown,
}

/// A decision plus the memory-space assumptions it rests on.
///
/// Arithmetic decisions carry no assumptions; provenance-class
/// decisions (stack vs. global, caller pointer vs. frame, …) record
/// one, which the lifter surfaces as a proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The decided relation.
    pub rel: RegionRel,
    /// Assumptions used (empty for arithmetic proofs).
    pub assumptions: Vec<Assumption>,
}

impl Answer {
    fn pure(rel: RegionRel) -> Answer {
        Answer { rel, assumptions: Vec::new() }
    }

    fn assumed(rel: RegionRel, a: Assumption) -> Answer {
        Answer { rel, assumptions: vec![a] }
    }
}

/// Guard against reasoning across 64-bit wraparound: offsets and
/// region extents beyond this magnitude fall back to `Unknown`.
const WRAP_GUARD: i128 = 1 << 62;

/// The signed range of a linear form under the context's atom bounds:
/// `Some((lo, hi))` if every atom is bounded (or the form is constant).
fn signed_range(lin: &Linear, ctx: &Ctx) -> Option<(i128, i128)> {
    if lin.has_bottom {
        return None;
    }
    let mut lo = lin.offset as i128;
    let mut hi = lo;
    for (atom, &coeff) in &lin.terms {
        let b = ctx.bound_of(atom)?;
        // Bounds at or above 2^63 would be negative under a signed
        // reading; refuse rather than misinterpret.
        if b.hi >= 1 << 63 {
            return None;
        }
        let c = coeff as i128;
        let (blo, bhi) = (b.lo as i128, b.hi as i128);
        if c >= 0 {
            lo += c * blo;
            hi += c * bhi;
        } else {
            lo += c * bhi;
            hi += c * blo;
        }
    }
    if lo.abs() >= WRAP_GUARD || hi.abs() >= WRAP_GUARD {
        return None;
    }
    Some((lo, hi))
}

/// Decide the necessarily-relation between `r0` and `r1` under the
/// clause context `ctx`.
///
/// The decision is sound under the no-wraparound guard: region sizes
/// must be modest (the lifter never materialises regions larger than a
/// few KiB) and symbolic offsets within ±2⁶².
///
/// When the context carries a [`QueryCache`](crate::QueryCache)
/// (attached via [`Ctx::with_cache`]), verdicts are memoized under the
/// regions-plus-bounds key of `cache.rs`; the decision procedure itself
/// is a pure function of that key, so a hit is exact.
///
/// ```
/// use hgl_solver::{decide, Ctx, Region, RegionRel};
///
/// let ctx = Ctx::new();
/// let a = Region::stack(-0x28, 8);
/// let b = Region::stack(-0x10, 8);
/// assert_eq!(decide(&ctx, &a, &b).rel, RegionRel::Separate);
/// assert_eq!(decide(&ctx, &a, &a).rel, RegionRel::Alias);
/// ```
pub fn decide(ctx: &Ctx, r0: &Region, r1: &Region) -> Answer {
    let Some(cache) = &ctx.cache else {
        return decide_uncached(ctx, r0, r1);
    };
    let key = crate::QueryKey::of(ctx, r0, r1);
    match cache.get(&key) {
        Some(hit) => hit,
        None => {
            // Only misses are timed: the decision procedure is where
            // solver time goes, and clocking every hit costs more than
            // the hit itself on the lifting hot path.
            let started = std::time::Instant::now();
            let computed = decide_uncached(ctx, r0, r1);
            cache.add_query_nanos(started.elapsed().as_nanos() as u64);
            cache.insert(key, computed.clone());
            computed
        }
    }
}

/// The memo-free decision procedure; `decide` delegates here on a
/// cache miss (or when no cache is attached).
fn decide_uncached(ctx: &Ctx, r0: &Region, r1: &Region) -> Answer {
    if r0.is_unknown() || r1.is_unknown() {
        return Answer::pure(RegionRel::Unknown);
    }
    let (n0, n1) = (r0.size as i128, r1.size as i128);
    if n0 == 0 || n1 == 0 || n0 >= WRAP_GUARD || n1 >= WRAP_GUARD {
        return Answer::pure(RegionRel::Unknown);
    }

    let l0 = r0.linear();
    let l1 = r1.linear();
    let diff = l0.diff(l1);

    // Arithmetic path: the difference of the two addresses has a known
    // signed range.
    if let Some((dlo, dhi)) = signed_range(&diff, ctx) {
        if dlo == dhi {
            let d = dlo;
            if d == 0 && n0 == n1 {
                return Answer::pure(RegionRel::Alias);
            }
            if d >= n1 || -d >= n0 {
                return Answer::pure(RegionRel::Separate);
            }
            if d >= 0 && d + n0 <= n1 {
                return Answer::pure(RegionRel::Enclosed);
            }
            if d <= 0 && -d + n1 <= n0 {
                return Answer::pure(RegionRel::Encloses);
            }
            return Answer::pure(RegionRel::Overlap);
        }
        // A genuine range: relations must hold for every value in it.
        if dlo >= n1 || dhi <= -n0 {
            return Answer::pure(RegionRel::Separate);
        }
        if dlo >= 0 && dhi + n0 <= n1 {
            return Answer::pure(RegionRel::Enclosed);
        }
        if dhi <= 0 && -dlo + n1 <= n0 {
            return Answer::pure(RegionRel::Encloses);
        }
        // Fall through: ranges straddle; try provenance.
    }

    // Provenance path: different memory spaces are separate by
    // (recorded) assumption.
    let p0 = ctx.provenance(&r0.addr);
    let p1 = ctx.provenance(&r1.addr);
    let assume = |kind| Answer::assumed(RegionRel::Separate, Assumption::new(kind, *r0, *r1));
    match (p0, p1) {
        (Provenance::Stack, Provenance::Global) | (Provenance::Global, Provenance::Stack) => {
            assume(AssumptionKind::StackVsGlobal)
        }
        (Provenance::Stack, Provenance::Heap(_)) | (Provenance::Heap(_), Provenance::Stack) => {
            assume(AssumptionKind::StackVsHeap)
        }
        (Provenance::Global, Provenance::Heap(_)) | (Provenance::Heap(_), Provenance::Global) => {
            assume(AssumptionKind::GlobalVsHeap)
        }
        (Provenance::Heap(a), Provenance::Heap(b)) if a != b => {
            assume(AssumptionKind::DistinctAllocations)
        }
        (Provenance::Param(_), Provenance::Stack) | (Provenance::Stack, Provenance::Param(_)) => {
            assume(AssumptionKind::CallerVsFrame)
        }
        (Provenance::Param(_), Provenance::Global) | (Provenance::Global, Provenance::Param(_)) => {
            assume(AssumptionKind::CallerVsGlobal)
        }
        (Provenance::Param(_), Provenance::Heap(_)) | (Provenance::Heap(_), Provenance::Param(_)) => {
            assume(AssumptionKind::CallerVsFreshAllocation)
        }
        // Two distinct caller pointers (the §2 edi/esi case), same-space
        // pairs that arithmetic could not split, or unknown provenance:
        // nothing provable.
        _ => Answer::pure(RegionRel::Unknown),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_expr::{Clause, Expr, Rel, Sym};
    use hgl_x86::Reg;

    fn sym(r: Reg) -> Expr {
        Expr::sym(Sym::Init(r))
    }

    #[test]
    fn same_base_offsets() {
        let ctx = Ctx::new();
        let a = Region::stack(-0x28, 8);
        let b = Region::stack(-0x20, 8);
        assert_eq!(decide(&ctx, &a, &b).rel, RegionRel::Separate);
        assert_eq!(decide(&ctx, &b, &a).rel, RegionRel::Separate);
        assert_eq!(decide(&ctx, &a, &a).rel, RegionRel::Alias);
    }

    #[test]
    fn enclosure_same_base() {
        let ctx = Ctx::new();
        // [rsi0+4, 4] enclosed in [rsi0, 8]  (Example 3.8)
        let inner = Region::new(sym(Reg::Rsi).add(Expr::imm(4)), 4);
        let outer = Region::new(sym(Reg::Rsi), 8);
        assert_eq!(decide(&ctx, &inner, &outer).rel, RegionRel::Enclosed);
        assert_eq!(decide(&ctx, &outer, &inner).rel, RegionRel::Encloses);
        // [rsi0, 4] separate from [rsi0+4, 4]
        let low = Region::new(sym(Reg::Rsi), 4);
        assert_eq!(decide(&ctx, &low, &inner).rel, RegionRel::Separate);
    }

    #[test]
    fn partial_overlap_same_base() {
        let ctx = Ctx::new();
        let a = Region::new(sym(Reg::Rsi), 8);
        let b = Region::new(sym(Reg::Rsi).add(Expr::imm(4)), 8);
        assert_eq!(decide(&ctx, &a, &b).rel, RegionRel::Overlap);
    }

    #[test]
    fn two_params_unknown() {
        // The §2 situation: [edi, 4] vs [esi, 4].
        let ctx = Ctx::new();
        let a = Region::new(sym(Reg::Rdi), 4);
        let b = Region::new(sym(Reg::Rsi), 4);
        let ans = decide(&ctx, &a, &b);
        assert_eq!(ans.rel, RegionRel::Unknown);
        assert!(ans.assumptions.is_empty());
    }

    #[test]
    fn param_vs_stack_assumed_separate() {
        let ctx = Ctx::new();
        let p = Region::new(sym(Reg::Rdi), 8);
        let s = Region::return_address_slot();
        let ans = decide(&ctx, &p, &s);
        assert_eq!(ans.rel, RegionRel::Separate);
        assert_eq!(ans.assumptions.len(), 1);
        assert_eq!(ans.assumptions[0].kind, AssumptionKind::CallerVsFrame);
    }

    #[test]
    fn stack_vs_global_assumed_separate() {
        let ctx = Ctx::new();
        let s = Region::stack(-16, 8);
        let g = Region::global(0x601000, 8);
        let ans = decide(&ctx, &s, &g);
        assert_eq!(ans.rel, RegionRel::Separate);
        assert_eq!(ans.assumptions[0].kind, AssumptionKind::StackVsGlobal);
    }

    #[test]
    fn fresh_allocations_distinct() {
        let ctx = Ctx::new();
        let a = Region::new(Expr::sym(Sym::Fresh(1)), 16);
        let b = Region::new(Expr::sym(Sym::Fresh(2)), 16);
        let ans = decide(&ctx, &a, &b);
        assert_eq!(ans.rel, RegionRel::Separate);
        assert_eq!(ans.assumptions[0].kind, AssumptionKind::DistinctAllocations);
        // Same allocation, same offset: alias.
        assert_eq!(decide(&ctx, &a, &a).rel, RegionRel::Alias);
    }

    #[test]
    fn bounded_jump_table_access() {
        // Jump table at 0x1000 with 0xc3 8-byte entries, index rax0 < 0xc3,
        // vs the cell just past the table.
        let c = Clause::new(sym(Reg::Rax), Rel::Lt, Expr::imm(0xc3));
        let ctx = Ctx::from_clauses([&c], crate::Layout::default());
        let entry = Region::new(Expr::imm(0x1000).add(sym(Reg::Rax).mul(Expr::imm(8))), 8);
        let past = Region::global(0x1000 + 0xc3 * 8, 8);
        assert_eq!(decide(&ctx, &entry, &past).rel, RegionRel::Separate);
        // …but not from a cell inside the table.
        let inside = Region::global(0x1000 + 8, 8);
        assert_eq!(decide(&ctx, &entry, &inside).rel, RegionRel::Unknown);
        // The whole table encloses any entry.
        let table = Region::global(0x1000, 0xc3 * 8);
        assert_eq!(decide(&ctx, &entry, &table).rel, RegionRel::Enclosed);
    }

    #[test]
    fn scaled_stack_array_separate_from_ret_slot() {
        // rsp0 - 0x30 + i*4, i < 4 is separate from [rsp0, 8].
        let c = Clause::new(sym(Reg::Rcx), Rel::Lt, Expr::imm(4));
        let ctx = Ctx::from_clauses([&c], crate::Layout::default());
        let arr = Region::new(
            sym(Reg::Rsp).sub(Expr::imm(0x30)).add(sym(Reg::Rcx).mul(Expr::imm(4))),
            4,
        );
        let ret = Region::return_address_slot();
        assert_eq!(decide(&ctx, &arr, &ret).rel, RegionRel::Separate);
        // Without the bound, the relation is unknown… but both are
        // stack-rooted so provenance cannot help either.
        let ctx2 = Ctx::new();
        assert_eq!(decide(&ctx2, &arr, &ret).rel, RegionRel::Unknown);
    }

    #[test]
    fn unknown_region_is_unknown() {
        let ctx = Ctx::new();
        let a = Region::new(Expr::bottom(), 8);
        let b = Region::return_address_slot();
        assert_eq!(decide(&ctx, &a, &b).rel, RegionRel::Unknown);
    }

    #[test]
    fn zero_sized_regions_unknown() {
        let ctx = Ctx::new();
        let a = Region::stack(0, 0);
        assert_eq!(decide(&ctx, &a, &a).rel, RegionRel::Unknown);
    }
}
