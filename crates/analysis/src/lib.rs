//! Static analysis over extracted Hoare Graphs.
//!
//! The lifter in `hgl-core` produces, per function, a Hoare Graph: an
//! invariant (predicate × memory model) at every reached program
//! point. This crate consumes those graphs *after* extraction:
//!
//! - [`engine`] — a generic worklist fixpoint engine: a pass is a
//!   [`Lattice`] of facts plus a [`Transfer`] over edges, forward or
//!   backward.
//! - [`passes`] — concrete passes: forward reachability, backward
//!   exit-reachability, and an interval stack-depth analysis.
//! - [`writes`] — write classification: every memory write classified
//!   as stack-local, global, heap-symbol or unresolved (the paper's
//!   Table-2 precision metric), with a per-binary aggregate and a
//!   claim index the trace oracle cross-validates dynamically.
//! - [`lints`] / [`diag`] — soundness lints (callee-saved-register
//!   clobber, return-address-slot overwrite, stack-depth bounds,
//!   dead nodes) emitting structured [`Diag`]s.
//! - [`report`] — the per-binary driver [`analyze`] and its
//!   [`AnalysisReport`].
//!
//! ```
//! use hgl_analysis::{analyze, Severity};
//! use hgl_core::Lifter;
//!
//! let binary = hgl_corpus::failures::ret2win();
//! let lifted = Lifter::new(&binary).lift_entry(binary.entry);
//! let report = analyze(&binary, &lifted);
//! assert!(report.totals.total() > 0);
//! assert_eq!(report.count(Severity::Error), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod engine;
pub mod lints;
pub mod passes;
pub mod jumptable;
pub mod report;
pub mod vsa;
pub mod writes;

pub use diag::{Diag, Rule, Severity};
pub use engine::{fixpoint, Direction, Lattice, Solution, Transfer};
pub use passes::{CanReachExit, Depth, Reachability, StackDepth};
pub use report::{analyze, AnalysisReport, FnAnalysis, ANALYSES};
pub use jumptable::{
    recover_jump_tables, recover_jumps, JumpTableRecovery, UnboundedIndirect, VsaResolver,
};
pub use vsa::{StridedInterval, VsaEnv, VsaPass, MAX_CARDINALITY};
pub use writes::{
    classify_region, classify_writes, ClassifiedWrite, WriteClass, WriteClassMap, WriteTotals,
};

#[cfg(test)]
/// Unit-test graphs: record `instr` at its address and add the edge it
/// labels.
fn add_labelled(
    g: &mut hgl_core::graph::HoareGraph,
    from: hgl_core::graph::VertexId,
    to: hgl_core::graph::VertexId,
    instr: hgl_x86::Instr,
) {
    g.record_instr(instr);
    g.add_edge(from, to);
}
