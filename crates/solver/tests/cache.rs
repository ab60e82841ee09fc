//! Cache soundness: a memoized `decide` must return exactly the
//! verdict the memo-free procedure returns, for every query, in any
//! replay order.
//!
//! The cache key holds both regions plus the mined bounds of every atom
//! their linear forms mention (`cache.rs`); the decision procedure is a
//! pure function of that information, so a cached answer must be
//! bit-identical to a fresh one. This test
//! replays randomized query streams — duplicated and shuffled so the
//! cache serves real hits — through a shared cache and cross-checks
//! every answer against an uncached context.

use hgl_expr::{Clause, Expr, Rel, Sym};
use hgl_solver::{decide, Ctx, Layout, QueryCache, Region};
use hgl_x86::Reg;
use proptest::prelude::*;

fn arb_region() -> impl Strategy<Value = Region> {
    let size = prop_oneof![Just(1u64), Just(2), Just(4), Just(8), Just(16)];
    prop_oneof![
        // Stack slots: the dominant query population in real lifts.
        (-0x200i64..0x40, size.clone()).prop_map(|(off, n)| Region::stack(off, n)),
        // Globals in a small window, so collisions/enclosures happen.
        (0x601000u64..0x601080, size.clone()).prop_map(|(a, n)| Region::global(a, n)),
        // Pointer-parameter based, with an offset.
        (-0x40i64..0x40, size).prop_map(|(off, n)| Region::new(
            Expr::sym(Sym::Init(Reg::Rdi)).add(Expr::imm(off as u64)),
            n,
        )),
    ]
}

/// An optional interval constraint on the `rdi0` parameter symbol,
/// so bound-mining participates in the key.
fn arb_bound() -> impl Strategy<Value = Option<Clause>> {
    prop_oneof![
        Just(None),
        (0x7000_0000u64..0x7000_4000).prop_map(|lo| Some(Clause {
            lhs: Expr::sym(Sym::Init(Reg::Rdi)),
            rel: Rel::Ge,
            rhs: Expr::imm(lo),
        })),
        (0x7000_4000u64..0x7000_8000).prop_map(|hi| Some(Clause {
            lhs: Expr::sym(Sym::Init(Reg::Rdi)),
            rel: Rel::Lt,
            rhs: Expr::imm(hi),
        })),
    ]
}

fn layout() -> Layout {
    Layout { text: vec![(0x401000, 0x402000)], data: vec![(0x601000, 0x602000)] }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replaying a duplicated, shuffled query stream through one shared
    /// cache yields the same verdict as a cache-free context, query by
    /// query — including queries repeated under *different* clause
    /// contexts, which must not collide.
    #[test]
    fn cached_verdicts_match_uncached_replay(
        queries in proptest::collection::vec((arb_region(), arb_region(), arb_bound()), 1..24),
        dup in 1usize..4,
    ) {
        let cache = std::sync::Arc::new(QueryCache::new());
        for round in 0..dup {
            for (r0, r1, bound) in &queries {
                let clauses: Vec<Clause> = bound.iter().cloned().collect();
                let plain = Ctx::from_clauses(clauses.iter(), layout());
                let cached = Ctx::from_clauses(clauses.iter(), layout())
                    .with_cache(std::sync::Arc::clone(&cache));

                let want = decide(&plain, r0, r1);
                let got = decide(&cached, r0, r1);
                prop_assert_eq!(
                    &got.rel, &want.rel,
                    "round {}: cached relation diverged for {:?} vs {:?} under {:?}",
                    round, r0, r1, bound
                );
                prop_assert_eq!(
                    &got.assumptions, &want.assumptions,
                    "round {}: cached assumptions diverged for {:?} vs {:?}",
                    round, r0, r1
                );
            }
        }
        // After `dup` identical passes the cache must have served hits.
        let stats = cache.stats();
        if dup > 1 {
            prop_assert!(stats.hits > 0, "no hits after {} passes: {:?}", dup, stats);
        }
        prop_assert!(stats.misses > 0);
    }
}

/// The same (r0, r1) pair under different mined bounds must be two
/// distinct cache entries — a collision here would be unsound, not
/// just slow.
#[test]
fn bounds_participate_in_the_cache_key() {
    let cache = std::sync::Arc::new(QueryCache::new());
    let r0 = Region::new(Expr::sym(Sym::Init(Reg::Rdi)), 8);
    let r1 = Region::global(0x601000, 8);

    let unbounded = Ctx::from_clauses([].iter(), layout())
        .with_cache(std::sync::Arc::clone(&cache));
    let first = decide(&unbounded, &r0, &r1);

    // Pin rdi0 to a constant far from the global: the verdict can
    // sharpen, and at minimum the query must MISS, not hit the
    // unbounded entry.
    let pin = Clause { lhs: Expr::sym(Sym::Init(Reg::Rdi)), rel: Rel::Eq, rhs: Expr::imm(0x7000_0000) };
    let clauses = [pin];
    let bounded = Ctx::from_clauses(clauses.iter(), layout())
        .with_cache(std::sync::Arc::clone(&cache));
    let misses_before = cache.stats().misses;
    let second = decide(&bounded, &r0, &r1);
    assert!(
        cache.stats().misses > misses_before,
        "bounded query hit the unbounded entry: keys must include atom bounds"
    );

    // And each cached answer equals its own uncached recomputation.
    assert_eq!(first.rel, decide(&Ctx::from_clauses([].iter(), layout()), &r0, &r1).rel);
    assert_eq!(second.rel, decide(&Ctx::from_clauses(clauses.iter(), layout()), &r0, &r1).rel);
}
