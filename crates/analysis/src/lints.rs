//! Static soundness lints over a single function's Hoare Graph.
//!
//! Each lint inspects vertex invariants (and, for the stack-depth
//! rule, a dataflow fixpoint) and emits structured [`Diag`]s. The
//! lints run on *partial* graphs too: the lifter adds a vertex before
//! stepping the instruction at it, so a rejected function's graph
//! still carries an invariant at the defect site for the lints to
//! inspect.

use crate::diag::{Diag, Rule, Severity};
use crate::engine::{fixpoint, MAX_ITERATIONS};
use crate::passes::{CanReachExit, Reachability, StackDepth};
use crate::writes::write_region;
use hgl_core::graph::{HoareGraph, Vertex, VertexId};
use hgl_elf::Binary;
use hgl_expr::{Expr, Sym};
use hgl_solver::{Ctx, Layout, Region, RegionRel};
use hgl_x86::{Instr, Mnemonic, Reg};
use std::sync::Arc;

/// Stack depth in bytes above which `stack-depth` warns.
const STACK_DEPTH_LIMIT: u64 = 1 << 20;

/// The solver's view of `binary`: its text and data ranges, as
/// [`lint_ret_slot`] and the write classifier read them.
pub fn layout(binary: &Binary) -> Arc<Layout> {
    Arc::new(Layout { text: binary.text_ranges(), data: binary.data_ranges() })
}

/// Every vertex of `graph` with the instruction decoded at its address,
/// in vertex order. A vertex with no decoded instruction (its address
/// did not decode, or only vacuous states reached it) is skipped.
pub(crate) fn decoded(graph: &HoareGraph) -> impl Iterator<Item = (VertexId, &Vertex, &Instr)> {
    graph
        .vertices
        .iter()
        .filter_map(|(&id, v)| Some((id, v, graph.instr_at(id.addr()?)?)))
}

/// Callee-saved-register clobber: at every `ret` vertex, each of the
/// System-V callee-saved registers must still hold its initial value.
pub fn lint_callee_saved(entry: u64, graph: &HoareGraph) -> Vec<Diag> {
    let mut out = Vec::new();
    for (id, v, instr) in decoded(graph) {
        if instr.mnemonic != Mnemonic::Ret {
            continue;
        }
        for r in Reg::CALLEE_SAVED {
            let held = v.state.pred.reg(r);
            if held != Expr::sym(Sym::Init(r)) {
                out.push(Diag {
                    function: entry,
                    severity: Severity::Error,
                    rule: Rule::CalleeSavedClobber,
                    node: Some(id),
                    edge: None,
                    detail: format!("{r} holds {held} at ret, expected {r}0"),
                });
            }
        }
    }
    out
}

/// Return-address-slot overwrite: every memory write must be provably
/// separate from `[rsp0, 8]`. A proven hit is an error; an unprovable
/// relation is a warning (the lifter destroys or rejects there, but
/// the site is worth surfacing).
pub fn lint_ret_slot(entry: u64, graph: &HoareGraph, layout: &Arc<Layout>) -> Vec<Diag> {
    let ra = Region::return_address_slot();
    let mut out = Vec::new();
    for (id, v, instr) in decoded(graph) {
        let Some(region) = write_region(&v.state.pred, instr) else { continue };
        let ctx = Ctx::from_clauses(v.state.pred.clauses.iter(), Arc::clone(layout));
        let ans = v.state.model.relation(&ctx, &region, &ra);
        let (severity, what) = match ans.rel {
            // A separation that rests on a provenance *assumption* and
            // targets a pointer laundered through mutable memory (a
            // fresh symbol) is not a proof: the pointed-to cell could
            // hold the return slot's own address at runtime. Surface
            // it so instrumentation passes can harden exactly here.
            RegionRel::Separate
                if !ans.assumptions.is_empty()
                    && matches!(
                        ctx.provenance(&region.addr),
                        hgl_solver::Provenance::Heap(Sym::Fresh(_))
                    ) =>
            {
                (Severity::Warning, "is only assumed separate from")
            }
            RegionRel::Separate => continue,
            RegionRel::Alias | RegionRel::Enclosed | RegionRel::Encloses | RegionRel::Overlap => {
                (Severity::Error, "overwrites")
            }
            RegionRel::Unknown => (Severity::Warning, "may overwrite"),
        };
        out.push(Diag {
            function: entry,
            severity,
            rule: Rule::RetSlotOverwrite,
            node: Some(id),
            edge: None,
            detail: format!("write to {region} {what} the return-address slot [rsp0, 8]"),
        });
    }
    out
}

/// Result of the stack-depth lint: the diagnostics plus the function's
/// maximum proven depth (`None` when unbounded at some vertex).
pub struct StackDepthOutcome {
    /// Diagnostics (unbounded depth, or depth above the limit).
    pub diags: Vec<Diag>,
    /// Maximum depth below `rsp0` in bytes, when bounded everywhere.
    pub max_depth: Option<u64>,
}

/// Stack-depth bounds via the forward [`StackDepth`] fixpoint pass. It
/// warns, and only warns, when the depth is unbounded at some vertex,
/// when it exceeds 1 MiB, or when the fixpoint does not converge.
pub fn lint_stack_depth(entry: u64, graph: &HoareGraph) -> StackDepthOutcome {
    let sol = fixpoint(graph, &StackDepth { graph, entry }, MAX_ITERATIONS);
    let mut max_depth = Some(0u64);
    let mut unbounded_at: Option<VertexId> = None;
    let mut unbounded_count = 0usize;
    for (&id, fact) in &sol.facts {
        match fact.max_depth() {
            Some(d) => {
                if let Some(m) = max_depth {
                    max_depth = Some(m.max(d));
                }
            }
            None => {
                unbounded_count += 1;
                if unbounded_at.is_none() {
                    unbounded_at = Some(id);
                }
                max_depth = None;
            }
        }
    }
    let mut diags = Vec::new();
    if let Some(first) = unbounded_at {
        diags.push(Diag {
            function: entry,
            severity: Severity::Warning,
            rule: Rule::StackDepth,
            node: Some(first),
            edge: None,
            detail: format!(
                "rsp displacement from rsp0 is unbounded at {unbounded_count} state(s)"
            ),
        });
    } else if let Some(d) = max_depth {
        if d > STACK_DEPTH_LIMIT {
            diags.push(Diag {
                function: entry,
                severity: Severity::Warning,
                rule: Rule::StackDepth,
                node: None,
                edge: None,
                detail: format!(
                    "maximum stack depth {d:#x} exceeds the limit {STACK_DEPTH_LIMIT:#x}"
                ),
            });
        }
    }
    if !sol.converged {
        diags.push(Diag {
            function: entry,
            severity: Severity::Warning,
            rule: Rule::StackDepth,
            node: None,
            edge: None,
            detail: format!("fixpoint did not converge within {MAX_ITERATIONS} iterations"),
        });
    }
    StackDepthOutcome { diags, max_depth }
}

/// Result of the reachability lints: diagnostics plus the two
/// per-function state counts surfaced in the report.
pub struct ReachOutcome {
    /// Dead-node diagnostics.
    pub diags: Vec<Diag>,
    /// States reachable from the entry (forward pass).
    pub reachable_states: usize,
    /// States from which `Exit` is reachable (backward pass).
    pub exit_reaching_states: usize,
}

/// Dead-node detection (forward [`Reachability`]) plus the backward
/// [`CanReachExit`] census.
pub fn lint_reachability(entry: u64, graph: &HoareGraph) -> ReachOutcome {
    let fwd = fixpoint(graph, &Reachability { entry }, MAX_ITERATIONS);
    let bwd = fixpoint(graph, &CanReachExit, MAX_ITERATIONS);
    let mut diags = Vec::new();
    let mut reachable_states = 0usize;
    for (&id, &reached) in &fwd.facts {
        if reached {
            reachable_states += 1;
        } else {
            diags.push(Diag {
                function: entry,
                severity: Severity::Warning,
                rule: Rule::DeadNode,
                node: Some(id),
                edge: None,
                detail: "state is unreachable from the function entry".to_string(),
            });
        }
    }
    let exit_reaching_states = bwd.facts.values().filter(|&&b| b).count();
    ReachOutcome { diags, reachable_states, exit_reaching_states }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_core::pred::SymState;
    use hgl_x86::Width;

    #[test]
    fn dead_node_fires_on_orphan() {
        let mut g = HoareGraph::new();
        let s = SymState::function_entry(0x10);
        g.add_vertex(VertexId::At(0x10, 0), s.clone());
        g.add_vertex(VertexId::At(0x99, 0), s.clone());
        let mut i = Instr::new(Mnemonic::Nop, vec![], Width::B8);
        i.addr = 0x10;
        i.len = 1;
        g.add_vertex(VertexId::Exit, s);
        g.record_instr(i);
        g.add_edge(VertexId::At(0x10, 0), VertexId::Exit);
        let out = lint_reachability(0x10, &g);
        assert_eq!(out.diags.len(), 1);
        assert_eq!(out.diags[0].rule, Rule::DeadNode);
        assert_eq!(out.diags[0].node, Some(VertexId::At(0x99, 0)));
        assert_eq!(out.reachable_states, 2);
        assert_eq!(out.exit_reaching_states, 2);
    }

    #[test]
    fn stack_depth_bounded_function_is_quiet() {
        // Entry state alone: rsp == rsp0 everywhere, depth 0.
        let mut g = HoareGraph::new();
        g.add_vertex(VertexId::At(0x10, 0), SymState::function_entry(0x10));
        let out = lint_stack_depth(0x10, &g);
        assert!(out.diags.is_empty());
        assert_eq!(out.max_depth, Some(0));
    }
}
