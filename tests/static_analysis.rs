//! Tier-1 static-analysis acceptance: the `hgl-analysis` fixpoint
//! engine and lint suite over the evaluation corpora.
//!
//! Three layers:
//!
//! 1. every corpus binary is pushed through all of the framework's
//!    analyses (write classification, reachability census, stack-depth
//!    bounds, soundness lints) and clean binaries produce zero
//!    error-severity diagnostics;
//! 2. the seeded known-bad fixtures each trigger *exactly* their
//!    intended lint, and together the fixtures cover every rule — the
//!    lint coverage floor;
//! 3. static write classifications are cross-validated dynamically:
//!    a differential campaign replays concrete emulator writes against
//!    the static claims (no trace may contradict a classification),
//!    and a deliberately corrupted claim is refuted by the oracle.

use hoare_lift::analysis::lints::lint_reachability;
use hoare_lift::analysis::{
    analyze, AnalysisReport, ClassifiedWrite, Rule, Severity, WriteClass, ANALYSES,
};
use hoare_lift::asm::Asm;
use hoare_lift::core::Lifter;
use hoare_lift::core::{Budget, HoareGraph, SymState, VertexId};
use hoare_lift::corpus::{coreutils, failures};
use hoare_lift::elf::Binary;
use hoare_lift::oracle::{
    run_campaign, CampaignConfig, Coverage, EntryState, TraceOracle, ViolationKind,
};
use hoare_lift::x86::Reg;
use std::collections::BTreeSet;
use std::time::Duration;

fn analyzed(bin: &Binary) -> AnalysisReport {
    let lifted = Lifter::new(bin).lift_entry(bin.entry);
    analyze(bin, &lifted)
}

/// Rules that produced at least one diagnostic, any severity.
fn fired(report: &AnalysisReport) -> BTreeSet<Rule> {
    report.diags.iter().map(|d| d.rule).collect()
}

/// Rules that produced at least one error-severity diagnostic.
fn errors(report: &AnalysisReport) -> BTreeSet<Rule> {
    report
        .diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.rule)
        .collect()
}

/// Every corpus binary runs through all (≥ 4) analyses; clean binaries
/// yield per-function facts from each of them and no soundness errors.
#[test]
fn all_analyses_cover_every_corpus_binary() {
    assert!(ANALYSES.len() >= 4, "framework advertises {} analyses", ANALYSES.len());

    for (spec, bin) in coreutils::build_all(1) {
        let lifted = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(lifted.is_lifted(), "{}: corpus binary lifts", spec.name);
        let report = analyze(&bin, &lifted);

        assert!(!report.functions.is_empty(), "{}: functions analyzed", spec.name);
        assert_eq!(
            report.count(Severity::Error),
            0,
            "{}: a cleanly lifted binary carries no soundness errors: {}",
            spec.name,
            report
        );

        for (entry, f) in &report.functions {
            // Forward reachability: the entry reaches at least itself.
            assert!(
                f.reachable_states >= 1 && f.reachable_states <= f.states,
                "{}: fn {entry:#x} reachability census in range",
                spec.name
            );
            // Backward exit-reachability: a lifted (returning)
            // function has at least one exit-reaching state.
            assert!(
                f.exit_reaching_states >= 1 && f.exit_reaching_states <= f.states,
                "{}: fn {entry:#x} exit-reachability census in range",
                spec.name
            );
            // Stack-depth bounds: compiler-shaped functions have a
            // proven finite depth.
            assert!(
                f.max_stack_depth.is_some(),
                "{}: fn {entry:#x} stack depth bounded",
                spec.name
            );
        }

        // Write classification: every corpus binary stores to its
        // frame (prologue pushes at minimum), and the per-function
        // lists agree with the binary-wide totals.
        let listed: usize = report.functions.values().map(|f| f.writes.len()).sum();
        assert_eq!(report.totals.total(), listed, "{}: totals match write list", spec.name);
        assert!(report.totals.stack_local > 0, "{}: stack-local writes seen", spec.name);
    }
}

/// The seeded known-bad fixtures trigger exactly their intended lint:
/// the defect's rule fires at error severity and the *other* fixtures'
/// error rules stay silent.
#[test]
fn seeded_fixtures_trigger_exactly_their_lint() {
    let clobber = analyzed(&failures::callee_saved_clobber());
    assert!(
        errors(&clobber).contains(&Rule::CalleeSavedClobber),
        "clobber fixture fires callee-saved-clobber: {clobber}"
    );
    assert!(
        !fired(&clobber).contains(&Rule::RetSlotOverwrite),
        "clobber fixture never writes memory: {clobber}"
    );

    let smash = analyzed(&failures::ret_slot_overwrite());
    assert!(
        errors(&smash).contains(&Rule::RetSlotOverwrite),
        "smash fixture fires ret-slot-overwrite: {smash}"
    );
    assert!(
        !fired(&smash).contains(&Rule::CalleeSavedClobber),
        "smash fixture preserves callee-saved registers: {smash}"
    );

    let probe = analyzed(&failures::stack_probe());
    assert!(
        fired(&probe).contains(&Rule::StackDepth),
        "stack-probe fixture has unbounded depth: {probe}"
    );
    assert!(
        !errors(&probe).contains(&Rule::CalleeSavedClobber),
        "stack-probe fixture preserves callee-saved registers: {probe}"
    );
}

/// Dead nodes cannot arise from the lifter (it only adds vertices it
/// explores into), so the dead-node lint is exercised on a hand-built
/// graph with an orphan vertex.
#[test]
fn dead_node_lint_flags_orphan_vertex() {
    let entry = 0x40_1000u64;
    let orphan = VertexId::At(0x40_1010, 0);
    let mut g = HoareGraph::new();
    g.add_vertex(VertexId::At(entry, 0), SymState::function_entry(entry));
    g.add_vertex(orphan, SymState::function_entry(entry));
    g.add_vertex(VertexId::Exit, SymState::function_entry(entry));
    g.add_edge(VertexId::At(entry, 0), VertexId::Exit);

    let out = lint_reachability(entry, &g);
    let dead: Vec<_> = out.diags.iter().filter(|d| d.rule == Rule::DeadNode).collect();
    assert_eq!(dead.len(), 1, "exactly the orphan is dead: {:?}", out.diags);
    assert_eq!(dead[0].node, Some(orphan));
    assert_eq!(out.reachable_states, 2, "entry and exit are reachable");
    assert_eq!(out.exit_reaching_states, 2, "entry and exit reach the exit");
}

/// The lint coverage floor: across the seeded fixtures (plus the
/// hand-built orphan graph for dead-node), every rule in [`Rule::ALL`]
/// fires somewhere. A rule nothing can trigger is a dead lint.
#[test]
fn every_lint_rule_fires_on_a_seeded_fixture() {
    let mut covered = BTreeSet::new();
    for bin in [
        failures::callee_saved_clobber(),
        failures::ret_slot_overwrite(),
        failures::stack_probe(),
        failures::vsa_unbounded_indirect(),
    ] {
        covered.extend(fired(&analyzed(&bin)));
    }
    // Dead-node from the orphan-graph shape (see above).
    covered.insert(Rule::DeadNode);

    for rule in Rule::ALL {
        assert!(covered.contains(&rule), "no seeded fixture triggers {}", rule.name());
    }
}

/// Dynamic cross-validation, positive direction: a differential
/// campaign replays every concrete emulator write against the static
/// claim for its site — no trace contradicts a classification.
#[test]
fn campaign_cross_validates_write_classifications() {
    let cfg = CampaignConfig {
        programs: 12,
        entries_per_program: 2,
        budget: Budget::from_timeout(Duration::from_secs(120)),
        ..CampaignConfig::default()
    };
    assert!(cfg.check_write_classes, "cross-validation is on by default");
    let report = run_campaign(&cfg);
    if let Some(f) = &report.failure {
        panic!("write-class cross-validation failed (master_seed={:#x}):\n{f}", cfg.master_seed);
    }
    assert!(report.writes_checked > 0, "campaign checked concrete writes:\n{report}");
}

/// Dynamic cross-validation, negative direction: planting a wrong
/// classification makes the oracle report a `write-classification`
/// violation — the check can actually refute claims.
#[test]
fn corrupted_write_claim_is_refuted_dynamically() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.push(Reg::Rbp);
    asm.pop(Reg::Rbp);
    asm.ret();
    let bin = asm.entry("main").assemble().expect("assembles");
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(lifted.is_lifted());

    let es = EntryState { rdi: 1, scratch: [0; 6] };

    // Sound claims: the trace conforms and the push write is checked.
    let oracle = TraceOracle::new(&bin, &lifted).with_write_classes();
    let outcome = oracle.check_trace(&es, &mut Coverage::default());
    assert!(outcome.violation.is_none(), "sound claims conform: {:?}", outcome.violation);
    assert!(outcome.writes_checked > 0, "the push was checked");

    // Corrupt the claim for the entry push — `[rsp0-8, 8]` is a
    // stack-local write, not a low-memory global one.
    let mut oracle = TraceOracle::new(&bin, &lifted).with_write_classes();
    let map = oracle.write_classes.as_mut().expect("claim index built");
    map.insert_claim(ClassifiedWrite {
        function: bin.entry,
        addr: bin.entry,
        size: 8,
        classes: [WriteClass::Global { lo: 0, hi: 7 }].into_iter().collect(),
    });
    let outcome = oracle.check_trace(&es, &mut Coverage::default());
    let v = outcome.violation.expect("corrupted claim must be refuted");
    assert_eq!(v.kind, ViolationKind::WriteClassification, "refuted as {v}");
}
