//! Property tests for the join semilattice (§3): joining only loses
//! information, never invents it. Concretely: any machine state
//! satisfying `P` (or `Q`) also satisfies `P ⊔ Q` — the soundness
//! criterion `s ⊢ P ∨ Q ⟹ s ⊢ P ⊔ Q` stated in §3 and Lemma 3.14.
//!
//! The memory-model join's equal-model fast path is checked against
//! [`reference_join`], Definition 3.12 written out independently: on
//! models that `insert`, `remove_region` and `join` build it must
//! return the model unchanged, and on hand-built non-canonical forests
//! it must give the full join's result.

use hgl_core::memmodel::{MemModel, MemTree};
use hgl_core::pred::{Pred, SymState};
use hgl_expr::{Clause, Expr, Rel, Sym};
use hgl_solver::{Ctx, Region};
use hgl_x86::Reg;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A concrete environment for the symbols we use.
fn env_of(vals: &BTreeMap<Sym, u64>) -> impl Fn(Sym) -> u64 + '_ {
    move |s| *vals.get(&s).unwrap_or(&0)
}

/// Does the concrete state satisfy the predicate's clause set and
/// memory entries? (Register satisfaction is definitional in our
/// representation: the predicate *maps* registers to value terms.)
fn clauses_sat(p: &Pred, vals: &BTreeMap<Sym, u64>, mem: &BTreeMap<u64, u64>) -> Option<bool> {
    let env = env_of(vals);
    let oracle = |a: u64, _sz: u8| mem.get(&a).copied();
    p.clauses_hold(&env, &oracle)
}

fn arb_sym() -> impl Strategy<Value = Sym> {
    prop_oneof![
        Just(Sym::Init(Reg::Rax)),
        Just(Sym::Init(Reg::Rdi)),
        Just(Sym::Fresh(1)),
        Just(Sym::Fresh(2)),
    ]
}

fn arb_clause() -> impl Strategy<Value = Clause> {
    (arb_sym(), 0u64..64, prop_oneof![Just(Rel::Eq), Just(Rel::Lt), Just(Rel::Ge), Just(Rel::Ne)])
        .prop_map(|(s, v, rel)| Clause::new(Expr::sym(s), rel, Expr::imm(v)))
}

/// Definition 3.12 as `MemModel::join` implements it, without the
/// library's code: the trees of both sides are grouped by the
/// transitive closure of sharing a top-level region; a group with trees
/// from both sides becomes one tree whose node is the intersection of
/// the group's nodes and whose children are the join of their
/// sub-forests (folded in side order); one-sided groups and empty
/// nodes are dropped; every level is sorted and deduplicated.
fn reference_join(a: &MemModel, b: &MemModel) -> MemModel {
    let all: Vec<(&MemTree, bool)> =
        a.trees.iter().map(|t| (t, false)).chain(b.trees.iter().map(|t| (t, true))).collect();
    let mut group: Vec<usize> = (0..all.len()).collect();
    for i in 0..all.len() {
        for j in i + 1..all.len() {
            if group[i] != group[j] && !all[i].0.regions.is_disjoint(&all[j].0.regions) {
                let (from, to) = (group[j], group[i]);
                group.iter_mut().filter(|g| **g == from).for_each(|g| *g = to);
            }
        }
    }
    let mut trees = Vec::new();
    for g in group.iter().copied().collect::<BTreeSet<usize>>() {
        let members: Vec<(&MemTree, bool)> =
            all.iter().zip(&group).filter(|(_, gi)| **gi == g).map(|(m, _)| *m).collect();
        if !(members.iter().any(|m| !m.1) && members.iter().any(|m| m.1)) {
            continue;
        }
        let regions = members.iter().map(|m| m.0.regions.clone()).reduce(|x, y| &x & &y).unwrap_or_default();
        let children = members
            .iter()
            .map(|m| m.0.children.clone())
            .reduce(|x, y| reference_join(&x, &y))
            .unwrap_or_default();
        if !regions.is_empty() {
            trees.push(MemTree { regions, children });
        }
    }
    trees.sort();
    trees.dedup();
    MemModel { trees }
}

/// Region `i` of a small pool: stack slots whose relations the solver
/// decides, and pointer-based regions whose relations it cannot, so
/// insertion forks (alias, separate, enclosed, destroy) and the models
/// get multi-region nodes, nesting and several trees per level.
fn pool_region(i: usize) -> Region {
    let at = |r: Reg, off: u64, size: u64| Region::new(Expr::sym(Sym::Init(r)).add(Expr::imm(off)), size);
    match i % 8 {
        0 => Region::stack(-8, 8),
        1 => Region::stack(-16, 8),
        2 => Region::stack(-16, 4),
        3 => at(Reg::Rdi, 0, 8),
        4 => at(Reg::Rdi, 4, 4),
        5 => at(Reg::Rsi, 0, 8),
        6 => at(Reg::Rsi, 0, 16),
        _ => at(Reg::Rdx, 8, 8),
    }
}

/// Every model of a random `insert` / `remove_region` / `join` run
/// from the empty model. Op `(kind, arg, pick)`: kinds 0–1 insert
/// region `arg` and keep branch `pick`, kind 2 removes region `arg`,
/// kind 3 joins with model `arg` of the run so far.
fn build_models(ops: &[(u8, usize, usize)]) -> Vec<MemModel> {
    let ctx = Ctx::new();
    let mut models = vec![MemModel::empty()];
    for &(kind, arg, pick) in ops {
        let m = models.last().expect("run starts with the empty model");
        let next = match kind {
            0 | 1 => {
                let mut branches = m.insert(&ctx, pool_region(arg));
                branches.swap_remove(pick % branches.len()).model
            }
            2 => m.remove_region(&pool_region(arg)),
            _ => m.join(&models[arg % models.len()]),
        };
        models.push(next);
    }
    models
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Clause-level join soundness: an env satisfying P's clauses
    /// satisfies (P ⊔ Q)'s clauses.
    #[test]
    fn clause_join_sound(
        ca in proptest::collection::vec(arb_clause(), 0..5),
        cb in proptest::collection::vec(arb_clause(), 0..5),
        vals in proptest::collection::btree_map(arb_sym(), 0u64..64, 0..4),
        widen in any::<bool>(),
    ) {
        let mut p = Pred::function_entry(0);
        p.mem.clear();
        p.clauses.extend(ca);
        let mut q = Pred::function_entry(0);
        q.mem.clear();
        q.clauses.extend(cb);
        let j = p.join(&q, widen);
        let mem = BTreeMap::new();
        for side in [&p, &q] {
            if clauses_sat(side, &vals, &mem) == Some(true) {
                prop_assert_eq!(
                    clauses_sat(&j, &vals, &mem), Some(true),
                    "state satisfying a side must satisfy the join"
                );
            }
        }
    }

    /// Register join soundness: if a register's joined value term
    /// evaluates, it equals the side's value whenever the side's term
    /// evaluates (fresh symbols matched by the unifier pick the
    /// satisfying binding).
    #[test]
    fn reg_join_keeps_only_common_values(
        va in 0u64..8,
        vb in 0u64..8,
        same in any::<bool>(),
    ) {
        let mut p = Pred::function_entry(0);
        let mut q = Pred::function_entry(0);
        p.set_reg(Reg::Rax, Expr::imm(va));
        q.set_reg(Reg::Rax, Expr::imm(if same { va } else { vb }));
        let j = p.join(&q, false);
        if same || va == vb {
            prop_assert_eq!(j.reg(Reg::Rax), Expr::imm(va));
        } else {
            prop_assert!(j.reg(Reg::Rax).is_bottom());
        }
    }

    /// Memory-model join soundness on concrete layouts (Lemma 3.14):
    /// an environment in which M0 holds also makes M0 ⊔ M1 hold.
    #[test]
    fn model_join_sound(
        a0 in 0u64..4u64,
        a1 in 0u64..4u64,
        b0 in 0u64..4u64,
        share in any::<bool>(),
    ) {
        // Two-region models over two pointer symbols with random
        // concrete placements (scaled so regions may or may not
        // overlap).
        let pa = Expr::sym(Sym::Init(Reg::Rdi));
        let pb = Expr::sym(Sym::Init(Reg::Rsi));
        let ra = Region::new(pa, 8);
        let rb = Region::new(pb, 8);
        let m0 = MemModel { trees: vec![MemTree::leaf(ra), MemTree::leaf(rb)] };
        let m1 = if share {
            m0.clone()
        } else {
            MemModel { trees: vec![MemTree::leaf(ra)] }
        };
        let j = m0.join(&m1);
        let env = move |s: Sym| match s {
            Sym::Init(Reg::Rdi) => 0x1000 + a0 * 8 + a1,
            Sym::Init(Reg::Rsi) => 0x1000 + b0 * 8,
            _ => 0,
        };
        for m in [&m0, &m1] {
            if m.holds_in(&env) == Some(true) {
                prop_assert_eq!(j.holds_in(&env), Some(true), "join weaker than both sides");
            }
        }
    }

    /// Models that the library builds are canonical, so joining one
    /// with itself (by value or by reference) takes the equal-model
    /// fast path and returns it unchanged, which is also the full
    /// join's result. Joins of different models match the reference.
    #[test]
    fn built_models_join_to_themselves(
        ops in proptest::collection::vec((0u8..4, 0usize..16, 0usize..8), 1..12),
    ) {
        let models = build_models(&ops);
        for m in &models {
            prop_assert_eq!(&m.join(&m.clone()), m);
            prop_assert_eq!(&m.join(m), m);
            prop_assert_eq!(&reference_join(m, m), m, "fast path result is the full join's");
        }
        for a in &models {
            for b in &models {
                prop_assert_eq!(a.join(b), reference_join(a, b));
            }
        }
    }

    /// `leq` is a partial order compatible with join: σ ⊑ σ⊔τ and
    /// τ ⊑ σ⊔τ … up to the unifier's greedy renaming.
    #[test]
    fn join_is_upper_bound(
        va in 0u64..8,
        vb in 0u64..8,
        clause_v in 0u64..16,
    ) {
        let mut s1 = SymState::function_entry(0x1000);
        s1.pred.set_reg(Reg::Rax, Expr::imm(va));
        s1.pred.clauses.insert(Clause::new(
            Expr::sym(Sym::Init(Reg::Rdi)), Rel::Lt, Expr::imm(clause_v + 1),
        ));
        let mut s2 = SymState::function_entry(0x1000);
        s2.pred.set_reg(Reg::Rax, Expr::imm(vb));
        let j = s1.join(&s2, false);
        prop_assert!(s1.leq(&j), "s1 ⊑ s1⊔s2");
        prop_assert!(s2.leq(&j), "s2 ⊑ s1⊔s2");
        // Idempotence.
        prop_assert_eq!(&j.join(&j, false), &j);
    }

    /// Joining with unified fresh symbols preserves sharing: the
    /// central property behind call-havoc convergence.
    #[test]
    fn unifier_preserves_sharing(id_a in 10u64..20, id_b in 20u64..30) {
        let mut s1 = SymState::function_entry(0x1000);
        s1.pred.set_reg(Reg::Rax, Expr::sym(Sym::Fresh(id_a)));
        s1.pred.set_mem(Region::stack(-8, 8), Expr::sym(Sym::Fresh(id_a)));
        let mut s2 = SymState::function_entry(0x1000);
        s2.pred.set_reg(Reg::Rax, Expr::sym(Sym::Fresh(id_b)));
        s2.pred.set_mem(Region::stack(-8, 8), Expr::sym(Sym::Fresh(id_b)));
        let j = s1.join(&s2, false);
        // The join keeps rax == *[rsp0-8] with a single symbol.
        let r = j.pred.reg(Reg::Rax);
        prop_assert!(matches!(r.kind(), hgl_expr::ExprKind::Sym(Sym::Fresh(_))));
        prop_assert_eq!(j.pred.mem_value(&Region::stack(-8, 8)), Some(&r));
        // And the re-join is a fixpoint.
        prop_assert!(s2.leq(&j));
        prop_assert!(s1.leq(&j));
    }

    /// Mismatched sharing degrades instead of lying.
    #[test]
    fn unifier_rejects_inconsistent_sharing(id_a in 10u64..20, id_b in 20u64..30, id_c in 30u64..40) {
        let mut s1 = SymState::function_entry(0x1000);
        s1.pred.set_reg(Reg::Rax, Expr::sym(Sym::Fresh(id_a)));
        s1.pred.set_reg(Reg::Rbx, Expr::sym(Sym::Fresh(id_a))); // rax == rbx
        let mut s2 = SymState::function_entry(0x1000);
        s2.pred.set_reg(Reg::Rax, Expr::sym(Sym::Fresh(id_b)));
        s2.pred.set_reg(Reg::Rbx, Expr::sym(Sym::Fresh(id_c))); // rax != rbx possible
        let j = s1.join(&s2, false);
        // The join must NOT claim rax == rbx.
        let (ra, rb) = (j.pred.reg(Reg::Rax), j.pred.reg(Reg::Rbx));
        prop_assert!(ra.is_bottom() || rb.is_bottom() || ra != rb,
            "join invented sharing: rax={ra} rbx={rb}");
    }
}

/// Forests that are equal but not canonical must not take the
/// equal-model fast path: the full join regroups them, and `join`
/// must give that result.
#[test]
fn non_canonical_forests_take_the_full_join() {
    let (a, b, c) = (Region::stack(-8, 8), Region::stack(-16, 8), Region::stack(-24, 8));
    let node = |rs: &[Region], children: Vec<MemTree>| MemTree {
        regions: rs.iter().copied().collect(),
        children: MemModel { trees: children },
    };
    let mut descending = vec![MemTree::leaf(a), MemTree::leaf(b), MemTree::leaf(c)];
    descending.sort();
    descending.reverse();
    let unsorted = MemModel { trees: descending };
    let region_in_two_trees = MemModel { trees: vec![node(&[a, b], vec![]), node(&[b, c], vec![])] };
    let empty_node = MemModel { trees: vec![node(&[], vec![MemTree::leaf(a)]), MemTree::leaf(b)] };
    let unsorted_children = MemModel { trees: vec![node(&[a], unsorted.trees.clone())] };
    for m in [unsorted, region_in_two_trees, empty_node, unsorted_children] {
        let full = reference_join(&m, &m);
        assert_ne!(full, m, "the full join regroups {m}");
        assert_eq!(m.join(&m.clone()), full, "join of {m} with an equal copy");
        assert_eq!(m.join(&m), full, "join of {m} with itself");
    }
}

/// When the memory models are equal and canonical, the state join
/// keeps `other`'s forest handle instead of copying it.
#[test]
fn state_join_shares_an_equal_model() {
    let s = SymState::function_entry(0x1000);
    let copy = s.clone();
    let j = copy.join(&s, false);
    assert!(std::ptr::eq(&*j.model, &*s.model), "joined state shares the existing forest");
    assert_eq!(j, s);
}

/// `join` of the reg map respects the documented name-stability: the
/// surviving names come from the `other` (existing-vertex) side.
#[test]
fn join_keeps_existing_names() {
    let mut incoming = SymState::function_entry(0);
    incoming.pred.set_reg(Reg::Rax, Expr::sym(Sym::Fresh(99)));
    let mut existing = SymState::function_entry(0);
    existing.pred.set_reg(Reg::Rax, Expr::sym(Sym::Fresh(7)));
    let j = incoming.join(&existing, false);
    assert_eq!(j.pred.reg(Reg::Rax), Expr::sym(Sym::Fresh(7)));
}
