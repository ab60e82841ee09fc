//! Explore identity: the Hoare Graphs of multi-variant, budget-bound
//! lifts are pinned across commits.
//!
//! Algorithm 1's compatible-vertex lookup decides which variant a new
//! state joins, so a lookup change that picks a different variant
//! changes the graph of every unit that keeps several code-pointer
//! variants at one address — exactly the units a small fixture never
//! exercises. This test lifts such units and compares the SHA-256 of
//! each `export_json` document against the checked-in digests in
//! `tests/golden/explore_identity.sha256`:
//!
//! - every unit of the miniature Table-1 study for two seeds, binary
//!   units through `lift_all` at one and two workers, library units
//!   through `lift_entry`;
//! - one explosive unit (a chain of code-pointer diamonds) with the §4
//!   code-pointer refinement on and off;
//! - every unit of the miniature study again with `widen_after` at 0
//!   and 1, so Algorithm 1 widens at the first or second join that
//!   changes a vertex (at the default of 8 no pinned lift is known to
//!   widen). A step budget bounds these lifts: at 0, two of them never
//!   reach a fixpoint, because a widened join drops the range clauses
//!   that the covered check's plain join adds back.
//!
//! The wall-clock budget is off and the state budget is lowered, so
//! every lift stops at the same state count on any machine. To
//! intentionally change the lifter's output, regenerate the digests
//! with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test explore_identity
//! ```
//!
//! and commit the refreshed file together with the lifter change.

mod common;

use common::digest;
use hoare_lift::core::{LiftConfig, Lifter};
use hoare_lift::corpus::xen::build_study;
use hoare_lift::corpus::{ProgramGen, StudySpec, UnitKind};
use hoare_lift::export::export_json;
use std::collections::BTreeMap;

/// Study seeds whose units are pinned.
const SEEDS: [u64; 2] = [1, 2];

/// `widen_after` values of the widening lifts.
const WIDEN_AFTER: [u32; 2] = [0, 1];

/// Per-function step budget of the widening lifts.
const WIDEN_FUEL: u64 = 20_000;

/// Diamonds in the explosive unit: 2^16 code-pointer combinations, far
/// beyond the state budget, so the lift is budget-bound.
const EXPLOSIVE_DEPTH: usize = 16;

/// Deterministic configuration: no wall clock, a small state budget.
fn config() -> LiftConfig {
    let mut c = LiftConfig::default();
    c.budget.wall_clock = None;
    c.limits.max_states = 1200;
    c
}

/// `name -> digest of export_json` for every pinned lift.
fn current_digests() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for seed in SEEDS {
        for unit in build_study(&StudySpec::mini(), seed).units {
            let lifter = || Lifter::new(&unit.binary).with_config(config());
            match unit.kind {
                UnitKind::Binary => {
                    for workers in [1, 2] {
                        let report = lifter().workers(workers).lift_all();
                        out.insert(
                            format!("study{seed}/{}/lift_all/w{workers}", unit.name),
                            digest(&export_json(&report.result)),
                        );
                    }
                }
                UnitKind::LibraryFunction => {
                    let result = lifter().lift_entry(unit.entry);
                    out.insert(
                        format!("study{seed}/{}/lift_entry", unit.name),
                        digest(&export_json(&result)),
                    );
                }
            }
            for widen_after in WIDEN_AFTER {
                let mut c = config();
                c.limits.widen_after = widen_after;
                c.budget.max_fuel = Some(WIDEN_FUEL);
                let lifter = Lifter::new(&unit.binary).with_config(c);
                let doc = match unit.kind {
                    UnitKind::Binary => export_json(&lifter.workers(1).lift_all().result),
                    UnitKind::LibraryFunction => export_json(&lifter.lift_entry(unit.entry)),
                };
                out.insert(format!("study{seed}/{}/widen_after{widen_after}", unit.name), digest(&doc));
            }
        }
    }

    let mut pg = ProgramGen::new();
    pg.gen_explosive_function("main", EXPLOSIVE_DEPTH);
    pg.asm.entry("main");
    let bin = pg.asm.assemble().expect("explosive unit assembles");
    for refine in [true, false] {
        let lifter = || {
            let mut c = config();
            c.limits.code_pointer_refinement = refine;
            Lifter::new(&bin).with_config(c)
        };
        let tag = if refine { "refine_on" } else { "refine_off" };
        let entry = lifter().lift_entry(bin.entry);
        out.insert(format!("explosive{EXPLOSIVE_DEPTH}/{tag}/lift_entry"), digest(&export_json(&entry)));
        let all = lifter().lift_all();
        out.insert(format!("explosive{EXPLOSIVE_DEPTH}/{tag}/lift_all"), digest(&export_json(&all.result)));
    }
    out
}

#[test]
fn budget_bound_multi_variant_graphs_are_pinned() {
    common::check_digests("explore_identity", "lift output", &current_digests());
}
