//! A generic worklist fixpoint engine over Hoare-Graph vertices and
//! edges.
//!
//! A dataflow pass is a [`Lattice`] of facts plus a [`Transfer`]
//! describing how one edge transforms a fact; the engine computes the
//! least solution of
//!
//! ```text
//! fact(v) = boundary(v) ⊔ ⨆ { transfer(e, fact(src(e))) | e enters v }
//! ```
//!
//! for forward passes (symmetrically over outgoing edges for backward
//! passes) by chaotic iteration with a worklist. All containers are
//! ordered, so the solution — and the iteration order — is
//! deterministic.

use hgl_core::graph::{Edge, HoareGraph, VertexId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A join-semilattice of dataflow facts.
pub trait Lattice: Clone + PartialEq {
    /// The least element (the fact before any information arrives).
    fn bottom() -> Self;
    /// The least upper bound of two facts.
    fn join(&self, other: &Self) -> Self;
}

/// Direction of a dataflow pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow along edges, entry to exit.
    Forward,
    /// Facts flow against edges, exit to entry.
    Backward,
}

/// A dataflow pass: a lattice, a direction, boundary facts and an
/// edge transfer function.
pub trait Transfer {
    /// The fact lattice of this pass.
    type Fact: Lattice;

    /// The direction facts flow in.
    fn direction(&self) -> Direction;

    /// The fact injected at `id` from outside the graph (the entry
    /// vertex of a forward pass, the exit vertex of a backward one).
    /// `None` means bottom.
    fn boundary(&self, id: VertexId) -> Option<Self::Fact>;

    /// The fact after traversing `edge`, given the fact at its source
    /// side (`from` for forward passes, `to` for backward ones).
    fn transfer(&self, edge: &Edge, fact: &Self::Fact) -> Self::Fact;
}

/// The computed fixpoint of one pass.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// The fact at every vertex.
    pub facts: BTreeMap<VertexId, F>,
    /// Vertex recomputations performed.
    pub iterations: usize,
    /// False if the iteration cap tripped before stabilising (the
    /// facts are then a sound under-iteration, not the fixpoint).
    pub converged: bool,
}

impl<F> Solution<F> {
    /// The fact at `id`, if the vertex exists.
    pub fn fact(&self, id: VertexId) -> Option<&F> {
        self.facts.get(&id)
    }
}

/// The cap on vertex recomputations that [`analyze`](crate::analyze)
/// and the jump-table recovery pass to [`fixpoint`].
pub(crate) const MAX_ITERATIONS: usize = 100_000;

/// Run `pass` to fixpoint over `graph`.
///
/// `max_iterations` caps vertex recomputations (a safety net for a
/// lattice with unexpected infinite ascending chains); a healthy pass
/// over a lifted graph converges in a small multiple of the vertex
/// count.
pub fn fixpoint<T: Transfer>(graph: &HoareGraph, pass: &T, max_iterations: usize) -> Solution<T::Fact> {
    let dir = pass.direction();
    // Edge adjacency keyed by the *destination* side of the flow:
    // for each vertex, the edges whose transfer feeds its fact.
    let mut feeding: BTreeMap<VertexId, Vec<usize>> = BTreeMap::new();
    // And the reverse: the vertices whose facts an edge depends on,
    // used to know what to re-enqueue when a fact changes.
    let mut dependents: BTreeMap<VertexId, BTreeSet<VertexId>> = BTreeMap::new();
    for (i, e) in graph.edges.iter().enumerate() {
        let (src, dst) = match dir {
            Direction::Forward => (e.from, e.to),
            Direction::Backward => (e.to, e.from),
        };
        feeding.entry(dst).or_default().push(i);
        dependents.entry(src).or_default().insert(dst);
    }

    let mut facts: BTreeMap<VertexId, T::Fact> = BTreeMap::new();
    for &id in graph.vertices.keys() {
        facts.insert(id, T::Fact::bottom());
    }

    let mut worklist: VecDeque<VertexId> = graph.vertices.keys().copied().collect();
    let mut queued: BTreeSet<VertexId> = worklist.iter().copied().collect();
    let mut iterations = 0usize;
    let mut converged = true;

    while let Some(v) = worklist.pop_front() {
        queued.remove(&v);
        if iterations >= max_iterations {
            converged = false;
            break;
        }
        iterations += 1;

        let mut new_fact = pass.boundary(v).unwrap_or_else(T::Fact::bottom);
        if let Some(edges) = feeding.get(&v) {
            for &i in edges {
                let e = &graph.edges[i];
                let src = match dir {
                    Direction::Forward => e.from,
                    Direction::Backward => e.to,
                };
                let Some(src_fact) = facts.get(&src) else { continue };
                new_fact = new_fact.join(&pass.transfer(e, src_fact));
            }
        }
        let changed = facts.get(&v) != Some(&new_fact);
        if changed {
            facts.insert(v, new_fact);
            if let Some(deps) = dependents.get(&v) {
                for &d in deps {
                    if queued.insert(d) {
                        worklist.push_back(d);
                    }
                }
            }
        }
    }

    Solution { facts, iterations, converged }
}

impl Lattice for bool {
    fn bottom() -> bool {
        false
    }
    fn join(&self, other: &bool) -> bool {
        *self || *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_core::pred::SymState;
    use hgl_x86::{Instr, Mnemonic, Width};

    fn nop_at(addr: u64) -> Instr {
        let mut i = Instr::new(Mnemonic::Nop, vec![], Width::B8);
        i.addr = addr;
        i.len = 1;
        i
    }

    /// A diamond with an unreachable orphan:
    ///
    /// ```text
    /// 0x10 -> 0x11 -> 0x13 -> Exit      0x99 (orphan)
    ///      \-> 0x12 ---^
    /// ```
    fn diamond_with_orphan() -> HoareGraph {
        let mut g = HoareGraph::new();
        let s = SymState::function_entry(0x10);
        for a in [0x10u64, 0x11, 0x12, 0x13, 0x99] {
            g.add_vertex(VertexId::At(a, 0), s.clone(), true);
        }
        g.add_vertex(VertexId::Exit, s.clone(), true);
        g.add_edge(VertexId::At(0x10, 0), VertexId::At(0x11, 0), nop_at(0x10));
        g.add_edge(VertexId::At(0x10, 0), VertexId::At(0x12, 0), nop_at(0x10));
        g.add_edge(VertexId::At(0x11, 0), VertexId::At(0x13, 0), nop_at(0x11));
        g.add_edge(VertexId::At(0x12, 0), VertexId::At(0x13, 0), nop_at(0x12));
        g.add_edge(VertexId::At(0x13, 0), VertexId::Exit, nop_at(0x13));
        g
    }

    struct Reach(u64);
    impl Transfer for Reach {
        type Fact = bool;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self, id: VertexId) -> Option<bool> {
            matches!(id, VertexId::At(a, _) if a == self.0).then_some(true)
        }
        fn transfer(&self, _edge: &Edge, fact: &bool) -> bool {
            *fact
        }
    }

    struct ReachExit;
    impl Transfer for ReachExit {
        type Fact = bool;
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn boundary(&self, id: VertexId) -> Option<bool> {
            (id == VertexId::Exit).then_some(true)
        }
        fn transfer(&self, _edge: &Edge, fact: &bool) -> bool {
            *fact
        }
    }

    #[test]
    fn forward_reachability_finds_orphan() {
        let g = diamond_with_orphan();
        let sol = fixpoint(&g, &Reach(0x10), 10_000);
        assert!(sol.converged);
        assert_eq!(sol.fact(VertexId::At(0x10, 0)), Some(&true));
        assert_eq!(sol.fact(VertexId::At(0x13, 0)), Some(&true));
        assert_eq!(sol.fact(VertexId::Exit), Some(&true));
        assert_eq!(sol.fact(VertexId::At(0x99, 0)), Some(&false));
    }

    #[test]
    fn backward_exit_reachability() {
        let g = diamond_with_orphan();
        let sol = fixpoint(&g, &ReachExit, 10_000);
        assert!(sol.converged);
        assert_eq!(sol.fact(VertexId::At(0x10, 0)), Some(&true));
        assert_eq!(sol.fact(VertexId::At(0x99, 0)), Some(&false));
    }

    #[test]
    fn iteration_cap_reports_non_convergence() {
        let g = diamond_with_orphan();
        let sol = fixpoint(&g, &Reach(0x10), 2);
        assert!(!sol.converged);
    }
}
