//! Re-lift graph correspondence: the identity-recompilation soundness
//! check of `hgl-rewrite`.
//!
//! An identity rewrite must produce a binary whose *re-lift* extracts
//! the same Hoare Graphs as the original — same functions, same
//! vertices with equal invariants, same labelled edges, same return
//! verdicts. Lifting is deterministic for a fixed binary and config
//! (the artifact store's content-hash design depends on this), so the
//! comparison is exact structural equality, not an approximation.
//!
//! The checker reports every divergence it finds (capped) rather than
//! failing fast, so a broken rewriter produces an actionable list.

use hgl_core::graph::HoareGraph;
use hgl_core::{FnLift, LiftResult};
use std::collections::BTreeSet;

/// Cap on recorded mismatch strings; counting continues past it.
const MAX_DETAILS: usize = 32;

/// Outcome of a graph-correspondence check.
#[derive(Debug, Clone, Default)]
pub struct CorrespondReport {
    /// Functions compared (present on both sides).
    pub functions: usize,
    /// Total mismatches found.
    pub mismatches: usize,
    /// Human-readable details for the first 32 mismatches.
    pub details: Vec<String>,
}

impl CorrespondReport {
    /// True when the two lifts correspond exactly.
    pub fn ok(&self) -> bool {
        self.mismatches == 0
    }

    fn push(&mut self, detail: String) {
        self.mismatches += 1;
        if self.details.len() < MAX_DETAILS {
            self.details.push(detail);
        }
    }
}

fn edge_keys(g: &HoareGraph) -> Vec<String> {
    let mut keys: Vec<String> =
        g.edges.iter().map(|e| format!("{} --[{}]--> {}", e.from, g.edge_instr(e), e.to)).collect();
    keys.sort();
    keys
}

fn compare_fn(entry: u64, a: &FnLift, b: &FnLift, rep: &mut CorrespondReport) {
    if a.returns != b.returns {
        rep.push(format!("{entry:#x}: returns {} vs {}", a.returns, b.returns));
    }
    let va: BTreeSet<_> = a.graph.vertices.keys().collect();
    let vb: BTreeSet<_> = b.graph.vertices.keys().collect();
    for id in va.difference(&vb) {
        rep.push(format!("{entry:#x}: vertex {id} only in original"));
    }
    for id in vb.difference(&va) {
        rep.push(format!("{entry:#x}: vertex {id} only in re-lift"));
    }
    for id in va.intersection(&vb) {
        let x = &a.graph.vertices[id];
        let y = &b.graph.vertices[id];
        if x.state != y.state {
            rep.push(format!("{entry:#x}: invariant at {id} differs"));
        }
    }
    let ea = edge_keys(&a.graph);
    let eb = edge_keys(&b.graph);
    if ea != eb {
        let sa: BTreeSet<_> = ea.iter().collect();
        let sb: BTreeSet<_> = eb.iter().collect();
        for e in sa.symmetric_difference(&sb) {
            rep.push(format!("{entry:#x}: edge mismatch: {e}"));
        }
    }
}

/// Compare the per-function Hoare Graphs of two lifts for exact
/// structural equality.
pub fn graphs_correspond(original: &LiftResult, relift: &LiftResult) -> CorrespondReport {
    let mut rep = CorrespondReport::default();
    let ka: BTreeSet<u64> = original.functions.keys().copied().collect();
    let kb: BTreeSet<u64> = relift.functions.keys().copied().collect();
    for e in ka.difference(&kb) {
        rep.push(format!("function {e:#x} only in original lift"));
    }
    for e in kb.difference(&ka) {
        rep.push(format!("function {e:#x} only in re-lift"));
    }
    for e in ka.intersection(&kb) {
        rep.functions += 1;
        compare_fn(*e, &original.functions[e], &relift.functions[e], &mut rep);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_corpus::xen::gen_study_binary;
    use hgl_core::Lifter;

    #[test]
    fn lift_corresponds_with_itself() {
        let bin = gen_study_binary(0xc0de, false);
        let a = Lifter::new(&bin).lift_all();
        let b = Lifter::new(&bin).lift_all();
        let rep = graphs_correspond(&a.result, &b.result);
        assert!(rep.ok(), "self-correspondence failed: {:?}", rep.details);
        assert!(rep.functions > 0);
    }

    #[test]
    fn missing_function_is_reported() {
        let bin = gen_study_binary(0xc0de, false);
        let a = Lifter::new(&bin).lift_all();
        let mut b = a.result.clone();
        let first = *b.functions.keys().next().expect("functions");
        b.functions.remove(&first);
        let rep = graphs_correspond(&a.result, &b);
        assert!(!rep.ok());
        assert!(rep.details[0].contains("only in original"), "{:?}", rep.details);
    }

    #[test]
    fn perturbed_graph_is_reported() {
        let bin = gen_study_binary(0xc0de, false);
        let a = Lifter::new(&bin).lift_all();
        let mut b = a.result.clone();
        let f = b.functions.values_mut().next().expect("functions");
        f.returns = !f.returns;
        let rep = graphs_correspond(&a.result, &b);
        assert_eq!(rep.mismatches, 1);
        assert!(rep.details[0].contains("returns"), "{:?}", rep.details);
    }
}
