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

use hgl_core::graph::{HoareGraph, VertexId};
use hgl_core::{FnLift, LiftResult};
use hgl_x86::Instr;
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

/// An edge as compared: its endpoints and the instruction at its
/// source.
type EdgeKey<'g> = (VertexId, VertexId, &'g Instr);

/// `g`'s edges, sorted by `(from, to)`.
fn edge_keys(g: &HoareGraph) -> Vec<EdgeKey<'_>> {
    let mut keys: Vec<EdgeKey<'_>> =
        g.edges.iter().map(|e| (e.from, e.to, g.edge_instr(e))).collect();
    keys.sort_unstable_by_key(|&(from, to, _)| (from, to));
    keys
}

/// The edges of `xs` that `ys` lacks, or holds with another
/// instruction at the source, as text. Only a mismatch is formatted.
fn unmatched<'a>(xs: &'a [EdgeKey<'a>], ys: &'a [EdgeKey<'a>]) -> impl Iterator<Item = String> + 'a {
    xs.iter()
        .filter(|e| !ys.contains(e))
        .map(|(from, to, instr)| format!("{from} --[{instr}]--> {to}"))
}

fn compare_fn(entry: u64, a: &FnLift, b: &FnLift, rep: &mut CorrespondReport) {
    let (ra, rb) = (a.graph.returns(), b.graph.returns());
    if ra != rb {
        rep.push(format!("{entry:#x}: returns {ra} vs {rb}"));
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
        let texts: BTreeSet<String> = unmatched(&ea, &eb).chain(unmatched(&eb, &ea)).collect();
        for e in texts {
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

    /// The first function of a lift with an edge into a vertex other
    /// than `exit`, and that edge's index.
    fn function_with_inner_edge(r: &LiftResult) -> (u64, usize) {
        r.functions
            .iter()
            .find_map(|(&entry, f)| {
                let k = f.graph.edges.iter().position(|e| e.to != VertexId::Exit)?;
                Some((entry, k))
            })
            .expect("an edge between two instruction vertices")
    }

    fn edge_text(g: &HoareGraph, e: &hgl_core::graph::Edge) -> String {
        format!("{} --[{}]--> {}", e.from, g.edge_instr(e), e.to)
    }

    #[test]
    fn dropped_edge_is_reported() {
        let bin = gen_study_binary(0xc0de, false);
        let a = Lifter::new(&bin).lift_all().result;
        let (entry, k) = function_with_inner_edge(&a);
        let mut b = a.clone();
        let g = &mut b.functions.get_mut(&entry).expect("function").graph;
        let dropped = g.edges.remove(k);
        let rep = graphs_correspond(&a, &b);
        let g = &a.functions[&entry].graph;
        assert_eq!(rep.mismatches, 1, "{:?}", rep.details);
        assert_eq!(
            rep.details,
            vec![format!("{entry:#x}: edge mismatch: {}", edge_text(g, &dropped))]
        );
    }

    #[test]
    fn redirected_edge_is_reported() {
        let bin = gen_study_binary(0xc0de, false);
        let a = Lifter::new(&bin).lift_all().result;
        let (entry, k) = function_with_inner_edge(&a);
        let mut b = a.clone();
        let g = &mut b.functions.get_mut(&entry).expect("function").graph;
        let old = g.edges[k];
        assert!(!g.edges.contains(&hgl_core::graph::Edge { from: old.from, to: VertexId::Exit }));
        g.edges[k].to = VertexId::Exit;
        let new = g.edges[k];
        let rep = graphs_correspond(&a, &b);
        let g = &a.functions[&entry].graph;
        let mut want = vec![
            format!("{entry:#x}: edge mismatch: {}", edge_text(g, &old)),
            format!("{entry:#x}: edge mismatch: {}", edge_text(g, &new)),
        ];
        want.sort();
        assert_eq!(rep.mismatches, 2, "{:?}", rep.details);
        assert_eq!(rep.details, want);
    }

    #[test]
    fn perturbed_graph_is_reported() {
        let bin = gen_study_binary(0xc0de, false);
        let a = Lifter::new(&bin).lift_all();
        let mut b = a.result.clone();
        let (&entry, f) =
            b.functions.iter_mut().find(|(_, f)| f.graph.returns()).expect("a returning function");
        f.graph.vertices.remove(&VertexId::Exit);
        let rep = graphs_correspond(&a.result, &b);
        // The return verdict and the vertex both go; the edges into
        // `exit` stay and still match.
        assert_eq!(rep.mismatches, 2, "{:?}", rep.details);
        assert_eq!(
            rep.details,
            vec![
                format!("{entry:#x}: returns true vs false"),
                format!("{entry:#x}: vertex exit only in original"),
            ]
        );
    }
}
