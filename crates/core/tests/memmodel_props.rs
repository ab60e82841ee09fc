//! Property tests for `MemModel::insert` (Definition 3.7): the
//! structural invariants of the forest — siblings pairwise separate,
//! children enclosed in their parents (checked concretely via
//! Definition 3.9's `holds_in`) — and canonicality: the model reached
//! is independent of insertion order.
//!
//! Regions are drawn from a buddy decomposition of eight 8-byte stack
//! slots (sub-regions have power-of-two sizes at aligned offsets), so
//! every pair is arithmetically decidable as alias, nested or
//! disjoint — insertion never forks and never destroys, making the
//! expected outcome exact.

use hgl_core::memmodel::MemModel;
use hgl_expr::Sym;
use hgl_solver::{Ctx, Region, RegionRel};
use hgl_x86::Reg;
use proptest::prelude::*;

/// A buddy sub-region of one of eight stack slots: offset
/// `-(8 * slot) + off`, size a power of two, `off` aligned to it.
fn arb_buddy_region() -> impl Strategy<Value = Region> {
    (1u8..9, 0u8..4).prop_flat_map(|(slot, size_log)| {
        let size = 1u64 << size_log;
        let positions = 8 / size;
        (Just(slot), Just(size), 0u64..positions)
            .prop_map(|(slot, size, idx)| Region::stack(-(8 * slot as i64) + (idx * size) as i64, size))
    })
}

/// An arbitrary (possibly partially overlapping) sub-region of the
/// same eight slots, for the relation test.
fn arb_loose_region() -> impl Strategy<Value = Region> {
    (1u8..9, 0u64..8, 1u64..9)
        .prop_filter("inside one slot", |(_, off, size)| off + size <= 8)
        .prop_map(|(slot, off, size)| Region::stack(-(8 * slot as i64) + off as i64, size))
}

/// The concrete frame base used to evaluate regions.
fn env(s: Sym) -> u64 {
    if s == Sym::Init(Reg::Rsp) {
        0x8000
    } else {
        0
    }
}

/// Concrete half-open extent of a stack region under [`env`].
fn extent(r: &Region) -> (i64, i64) {
    let d = r.displacement_from_rsp0().expect("stack region");
    (d, d + r.size as i64)
}

/// Ground-truth relation from concrete extents.
fn concrete_rel(a: &Region, b: &Region) -> RegionRel {
    let (a0, a1) = extent(a);
    let (b0, b1) = extent(b);
    if a0 == b0 && a1 == b1 {
        RegionRel::Alias
    } else if a1 <= b0 || b1 <= a0 {
        RegionRel::Separate
    } else if b0 <= a0 && a1 <= b1 {
        RegionRel::Enclosed
    } else if a0 <= b0 && b1 <= a1 {
        RegionRel::Encloses
    } else {
        RegionRel::Overlap
    }
}

/// Deterministic Fisher–Yates driven by splitmix64.
fn shuffled(mut v: Vec<Region>, mut seed: u64) -> Vec<Region> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Insert each region in order; decidable relations must produce
/// exactly one branch with no destruction and no assumed alias.
fn build(ctx: &Ctx, regions: &[Region]) -> MemModel {
    let mut model = MemModel::empty();
    for r in regions {
        let mut branches = model.insert(ctx, *r);
        assert_eq!(branches.len(), 1, "decidable insert must not fork: {r}");
        let b = branches.pop().expect("one branch");
        assert!(b.destroyed.is_empty(), "buddy regions never partially overlap: {r}");
        assert!(b.assumed_alias.is_none(), "no alias assumptions needed: {r}");
        model = b.model;
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The forest `insert` builds satisfies Definition 3.9 concretely
    /// (children inside parents, siblings separate), keeps every
    /// inserted region, and is canonical: any insertion order yields
    /// the identical model.
    #[test]
    fn insert_invariants_and_permutation_stability(
        specs in proptest::collection::vec(arb_buddy_region(), 1..10),
        seed in any::<u64>(),
    ) {
        let ctx = Ctx::new();
        let model = build(&ctx, &specs);

        // Definition 3.9 under a concrete frame base: mutual aliasing
        // at nodes, enclosure of children, separation of siblings.
        prop_assert_eq!(model.holds_in(&env), Some(true));

        // Every inserted region is present exactly once.
        let held = model.all_regions();
        for r in &specs {
            prop_assert_eq!(held.iter().filter(|h| ***h == *r).count(), 1);
        }

        // Canonicality: a permuted insertion order reaches the same
        // model (`PartialEq` on the canonicalised forest).
        let permuted = build(&ctx, &shuffled(specs.clone(), seed));
        prop_assert_eq!(&model, &permuted);

        // Structural queries agree with arithmetic ground truth for
        // regions the model holds.
        for a in &specs {
            for b in &specs {
                prop_assert_eq!(model.relation(&ctx, a, b).rel, concrete_rel(a, b));
            }
        }
    }

    /// The decision procedure behind `insert` matches concrete extents
    /// for every pair of (possibly partially overlapping) stack
    /// regions.
    #[test]
    fn relation_matches_concrete_extents(
        a in arb_loose_region(),
        b in arb_loose_region(),
    ) {
        let ctx = Ctx::new();
        prop_assert_eq!(MemModel::empty().relation(&ctx, &a, &b).rel, concrete_rel(&a, &b));
    }
}
