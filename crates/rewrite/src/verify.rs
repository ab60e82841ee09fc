//! Re-lift validation: the rewritten artifact must prove itself.
//!
//! Rather than trusting the rewriter's bookkeeping, the rewritten
//! binary is pushed back through the *entire* pipeline — parse,
//! decode, symbolically execute, discharge obligations — and the
//! resulting Hoare Graphs are compared against the original lift via
//! [`hgl_export::graphs_correspond`]. For identity rewrites the
//! correspondence must be exact; this is the per-artifact equivalence
//! check the issue's acceptance bar demands. Instrumented rewrites
//! change the code on purpose, so graph correspondence does not apply
//! to them — their validation channel is the differential trace
//! oracle in `hgl-oracle`, driven by the [`crate::RewriteOutput`]
//! address maps.

use hgl_core::lift::LiftResult;
use hgl_core::Lifter;
use hgl_elf::Binary;
use hgl_export::CorrespondReport;

/// The outcome of re-lifting a rewritten binary.
#[derive(Debug)]
pub struct ReliftVerdict {
    /// The re-lift of the rewritten binary (all roots).
    pub relift: LiftResult,
    /// Graph correspondence between original lift and re-lift.
    pub report: CorrespondReport,
}

impl ReliftVerdict {
    /// Did the rewritten binary re-lift to an equivalent Hoare Graph?
    pub fn ok(&self) -> bool {
        self.report.ok()
    }
}

/// Re-lift `rewritten` from scratch and compare its Hoare Graphs
/// against `original_lift`. Meaningful for identity rewrites, where
/// byte equality should force graph equality; a mismatch means either
/// the rewriter corrupted the image or the lifter is not
/// deterministic — both reportable defects.
pub fn verify_relift(original_lift: &LiftResult, rewritten: &Binary) -> ReliftVerdict {
    let report = Lifter::new(rewritten).lift_all();
    let correspondence = hgl_export::graphs_correspond(original_lift, &report.result);
    ReliftVerdict { relift: report.result, report: correspondence }
}
