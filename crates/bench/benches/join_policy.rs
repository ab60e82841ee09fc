//! Ablation of the §4 join refinement: keeping states with different
//! immediate code pointers apart costs states but is what resolves
//! jump-table-fed indirections (DESIGN.md experiment index).
//!
//! Besides timing both policies on the §2 weird-edge binary, the bench
//! prints the resolution counts once, so the precision effect is
//! visible next to the cost.

use criterion::{criterion_group, criterion_main, Criterion};
use hgl_core::lift::LiftConfig;
use hgl_core::Lifter;
use hgl_corpus::failures::weird_edge;

fn bench_join_policy(c: &mut Criterion) {
    let bin = weird_edge();
    let mut with = LiftConfig::default();
    with.limits.code_pointer_refinement = true;
    let mut without = LiftConfig::default();
    without.limits.code_pointer_refinement = false;

    // Report the precision difference once.
    let r_with = Lifter::new(&bin).with_config(with.clone()).lift_entry(bin.entry);
    let r_without = Lifter::new(&bin).with_config(without.clone()).lift_entry(bin.entry);
    println!(
        "join_policy precision: refinement ON  -> states {}, resolved {}, annotations {}",
        r_with.state_count(),
        r_with.indirection_counts().0,
        r_with.indirection_counts().1 + r_with.indirection_counts().2,
    );
    println!(
        "join_policy precision: refinement OFF -> states {}, resolved {}, annotations {}",
        r_without.state_count(),
        r_without.indirection_counts().0,
        r_without.indirection_counts().1 + r_without.indirection_counts().2,
    );

    let mut group = c.benchmark_group("join_policy");
    group.bench_function("refinement_on", |b| b.iter(|| Lifter::new(&bin).with_config(with.clone()).lift_entry(bin.entry)));
    group.bench_function("refinement_off", |b| b.iter(|| Lifter::new(&bin).with_config(without.clone()).lift_entry(bin.entry)));
    group.finish();
}

criterion_group!(benches, bench_join_policy);
criterion_main!(benches);
