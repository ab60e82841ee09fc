//! The `ret-slot-overwrite` lint must downgrade (not ignore) writes
//! whose separation from the return slot rests on a stack-vs-heap
//! provenance assumption about a pointer loaded from mutable memory.
//! This is the static half of the shadow-stack story: the warning is
//! what tells `hgl-rewrite` which `ret`s need a guard.

use hgl_analysis::{analyze, Rule, Severity};
use hgl_corpus::failures;
use hgl_corpus::xen::gen_study_binary;
use hgl_core::Lifter;

#[test]
fn corrupted_return_gets_an_assumed_separation_warning() {
    let bin = failures::corrupted_return();
    let lift = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(lift.is_lifted(), "fixture must lift: {:?}", lift.reject_reason());
    let report = analyze(&bin, &lift);
    let warn = report
        .diags
        .iter()
        .find(|d| d.rule == Rule::RetSlotOverwrite && d.severity == Severity::Warning)
        .expect("expected a ret-slot warning on the laundered write");
    assert!(
        warn.detail.contains("assumed separate"),
        "warning should name the assumption: {}",
        warn.detail
    );
}

#[test]
fn generated_corpus_functions_stay_clean() {
    // The generator never writes through memory-loaded pointers, so the
    // new warning arm must not fire on ordinary corpus programs.
    let bin = gen_study_binary(0x5eed, false);
    let lift = Lifter::new(&bin).lift_all();
    let report = analyze(&bin, &lift.result);
    assert!(
        !report
            .diags
            .iter()
            .any(|d| d.rule == Rule::RetSlotOverwrite && d.detail.contains("assumed separate")),
        "assumed-separation warning fired on a clean corpus binary"
    );
}
