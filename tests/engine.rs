//! Parallel-engine determinism: `lift_all` on N workers must produce
//! a byte-identical result to the engine on one worker, and
//! `lift_entry` — the same engine seeded with one root — must give
//! every function of an entry's call closure the graph `lift_all`
//! gives it.
//!
//! The engine guarantees this by running bulk-synchronous rounds —
//! workers only race *within* a round, and all cross-function
//! coordination (callee discovery, pending-return activation) happens
//! sequentially in sorted order between rounds. The JSON export is a
//! full serialization of the Hoare Graphs (vertices, invariants,
//! memory models, edges, diagnostics), so byte equality of the export
//! is equality of the lift.

use hoare_lift::core::{LiftResult, Lifter};
use hoare_lift::corpus::xen::{build_study, gen_study_binary, study_config};
use hoare_lift::corpus::StudySpec;
use hoare_lift::export::export_json;
use std::collections::BTreeMap;

#[test]
fn parallel_lift_all_matches_sequential_byte_for_byte() {
    for seed in 0..12u64 {
        let bin = gen_study_binary(seed, seed % 3 == 0);

        let seq = Lifter::new(&bin).workers(1);
        let seq_report = seq.lift_all();

        let par = Lifter::new(&bin).workers(4);
        let par_report = par.lift_all();

        assert_eq!(
            seq_report.roots, par_report.roots,
            "seed {seed}: root discovery must not depend on worker count"
        );
        let seq_json = export_json(&seq_report.result);
        let par_json = export_json(&par_report.result);
        if seq_json != par_json {
            let diff_line = seq_json
                .lines()
                .zip(par_json.lines())
                .position(|(a, b)| a != b)
                .map_or(0, |i| i + 1);
            panic!(
                "seed {seed}: parallel lift_all diverged from sequential \
                 (first differing line {diff_line})"
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    let bin = gen_study_binary(42, false);
    let first = export_json(&Lifter::new(&bin).workers(4).lift_all().result);
    for _ in 0..3 {
        let again = export_json(&Lifter::new(&bin).workers(4).lift_all().result);
        assert_eq!(first, again, "parallel lift_all must be run-to-run deterministic");
    }
}

#[test]
fn engine_metrics_report_phases_and_cache_traffic() {
    let bin = gen_study_binary(7, false);
    let lifter = Lifter::new(&bin).workers(2);
    let report = lifter.lift_all();
    let m = &report.metrics;

    assert!(m.functions_lifted + m.functions_rejected > 0, "engine lifted nothing");
    assert!(m.rounds > 0, "engine must report its round count");
    assert!(m.elapsed_nanos > 0);
    let tau = m.phases.iter().find(|p| p.phase.name() == "tau").expect("tau phase");
    assert!(tau.count > 0, "tau phase never ticked: {:?}", m.phases);
    assert!(
        m.cache.hits + m.cache.misses > 0,
        "solver cache saw no traffic: {:?}",
        m.cache
    );
}

/// The `export_json` document of the function at `entry` alone.
fn function_json(result: &LiftResult, entry: u64) -> Option<String> {
    let f = result.functions.get(&entry)?.clone();
    let alone = LiftResult { functions: BTreeMap::from([(entry, f)]), ..LiftResult::default() };
    Some(export_json(&alone))
}

#[test]
fn lift_entry_graphs_match_lift_all_per_function() {
    // No wall clock: only per-function budgets can trip, so every lift
    // is deterministic.
    let mut config = study_config();
    config.budget.wall_clock = None;
    for seed in [1u64, 2] {
        for unit in build_study(&StudySpec::mini(), seed).units {
            let name = format!("study{seed}/{}", unit.name);
            let lifter =
                |workers| Lifter::new(&unit.binary).with_config(config.clone()).workers(workers);
            let mut entry_docs = Vec::new();
            for workers in [1, 2] {
                let entry = lifter(workers).lift_entry(unit.entry);
                let all = lifter(workers).lift_all().result;
                for &addr in entry.functions.keys() {
                    assert!(
                        function_json(&entry, addr) == function_json(&all, addr),
                        "{name}: function {addr:#x} differs between lift_entry and lift_all \
                         at {workers} workers"
                    );
                }
                entry_docs.push(export_json(&entry));
            }
            assert!(
                entry_docs[0] == entry_docs[1],
                "{name}: lift_entry depends on the worker count"
            );
        }
    }
}
