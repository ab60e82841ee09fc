//! Memory-model ablation (DESIGN.md): `ins` and join scaling with
//! region count, and the destroy-vs-enumerate policy (branch cap 1
//! forces the paper's destroy-only rule; cap 16 enables the §2 forks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hgl_core::memmodel::{MemModel, MemTree};
use hgl_expr::{Expr, Sym};
use hgl_solver::{Ctx, Region};
use hgl_x86::Reg;

fn stack_model(n: usize) -> MemModel {
    let mut m = MemModel::empty();
    for i in 0..n {
        m.trees.push(MemTree::leaf(Region::stack(-8 * (i as i64 + 1), 8)));
    }
    m
}

fn bench_memmodel(c: &mut Criterion) {
    let ctx = Ctx::new();
    let mut group = c.benchmark_group("memmodel");

    // ins() scaling on provably separate (stack) regions.
    for n in [4usize, 16, 64] {
        let m = stack_model(n);
        let fresh = Region::stack(-8 * (n as i64 + 1), 8);
        group.bench_with_input(BenchmarkId::new("ins_separate", n), &n, |b, _| {
            b.iter(|| m.insert(&ctx, fresh, 16))
        });
    }

    // Unknown-relation insertion: fork policy (cap 16) vs destroy-only
    // (cap 1) — the ablation of the paper's §1 design choice.
    let m = MemModel {
        trees: vec![
            MemTree::leaf(Region::new(Expr::sym(Sym::Init(Reg::Rdi)), 8)),
            MemTree::leaf(Region::new(Expr::sym(Sym::Init(Reg::Rsi)), 8)),
        ],
    };
    let r = Region::new(Expr::sym(Sym::Init(Reg::Rdx)), 8);
    for cap in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("ins_unknown_cap", cap), &cap, |b, &cap| {
            b.iter(|| m.insert(&ctx, r, cap))
        });
    }

    // Join scaling. The sides differ by one tree, so the union-find
    // runs: equal models take the join's equal-model fast path.
    for n in [4usize, 16, 64] {
        let a = stack_model(n);
        let b2 = stack_model(n + 1);
        group.bench_with_input(BenchmarkId::new("join", n), &n, |b, _| b.iter(|| a.join(&b2)));
    }
    group.finish();
}

criterion_group!(benches, bench_memmodel);
criterion_main!(benches);
