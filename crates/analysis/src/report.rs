//! The per-binary analysis driver and its report.

use crate::diag::{Diag, Rule, Severity};
use crate::engine::MAX_ITERATIONS;
use crate::lints::{lint_callee_saved, lint_reachability, lint_ret_slot, lint_stack_depth};
use crate::writes::{classify_writes, ClassifiedWrite, WriteTotals};
use hgl_core::lift::LiftResult;
use hgl_elf::Binary;
use hgl_solver::Layout;
use std::collections::BTreeMap;
use std::fmt;

/// Names of the analyses [`analyze`] runs, in order.
pub const ANALYSES: [&str; 7] = [
    "write-classification",
    "callee-saved-clobber",
    "ret-slot-overwrite",
    "stack-depth",
    "dead-node",
    "exit-reachability",
    "vsa-unbounded-indirect",
];

/// Stack depth in bytes above which `stack-depth` warns.
const STACK_DEPTH_LIMIT: u64 = 1 << 20;

/// Per-function analysis results.
#[derive(Debug, Clone)]
pub struct FnAnalysis {
    /// Function entry address.
    pub entry: u64,
    /// Symbolic states in the graph.
    pub states: usize,
    /// States reachable from the entry (forward pass).
    pub reachable_states: usize,
    /// States from which `Exit` is reachable (backward pass).
    pub exit_reaching_states: usize,
    /// Maximum proven stack depth in bytes; `None` when unbounded.
    pub max_stack_depth: Option<u64>,
    /// This function's classified write sites.
    pub writes: Vec<ClassifiedWrite>,
}

/// The full static-analysis report for one binary.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Per-function results, keyed by entry address.
    pub functions: BTreeMap<u64, FnAnalysis>,
    /// All diagnostics, sorted.
    pub diags: Vec<Diag>,
    /// Binary-wide write-classification totals (the Table-2 row).
    pub totals: WriteTotals,
}

impl AnalysisReport {
    /// Diagnostics of a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }

    /// Diagnostics belonging to one rule.
    pub fn for_rule(&self, rule: Rule) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(move |d| d.rule == rule)
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "analysis: {} function(s), {} diagnostic(s) ({} error(s), {} warning(s))",
            self.functions.len(),
            self.diags.len(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
        )?;
        let t = &self.totals;
        writeln!(
            f,
            "writes: {} total — {} stack-local, {} global, {} heap-symbol, {} unresolved \
             ({:.1}% resolved)",
            t.total(),
            t.stack_local,
            t.global,
            t.heap_symbol,
            t.unresolved,
            t.resolved_fraction() * 100.0,
        )?;
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Run every analysis over every function of a lifted binary.
///
/// Works on partial results too: rejected functions keep their partial
/// graphs, and the lints inspect whatever invariants were established
/// before the reject.
pub fn analyze(binary: &Binary, lift: &LiftResult) -> AnalysisReport {
    let layout =
        std::sync::Arc::new(Layout { text: binary.text_ranges(), data: binary.data_ranges() });
    let mut report = AnalysisReport::default();

    let mut writes_by_fn: BTreeMap<u64, Vec<ClassifiedWrite>> = BTreeMap::new();
    for w in classify_writes(binary, lift) {
        report.totals.add(&w);
        writes_by_fn.entry(w.function).or_default().push(w);
    }

    for (&entry, f) in &lift.functions {
        let g = &f.graph;
        report.diags.extend(lint_callee_saved(binary, entry, g));
        report.diags.extend(lint_ret_slot(binary, entry, g, &layout));
        let depth = lint_stack_depth(entry, g, STACK_DEPTH_LIMIT, MAX_ITERATIONS);
        report.diags.extend(depth.diags);
        let reach = lint_reachability(entry, g, MAX_ITERATIONS);
        report.diags.extend(reach.diags);
        // Value-set recovery over still-unresolved indirect jumps:
        // whatever it cannot bound is statically uncovered control
        // flow, surfaced as `vsa-unbounded-indirect`.
        let rec = crate::jumptable::recover_jump_tables(binary, entry, g, &f.annotations);
        report.diags.extend(rec.diags(entry));
        report.functions.insert(
            entry,
            FnAnalysis {
                entry,
                states: g.state_count(),
                reachable_states: reach.reachable_states,
                exit_reaching_states: reach.exit_reaching_states,
                max_stack_depth: depth.max_depth,
                writes: writes_by_fn.remove(&entry).unwrap_or_default(),
            },
        );
    }
    report.diags.sort();
    report
}
