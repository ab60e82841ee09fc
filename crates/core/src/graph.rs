//! The Hoare Graph (Definition 3.2).

use crate::pred::SymState;
use hgl_x86::Instr;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifies a vertex of the Hoare Graph.
///
/// Vertices are *mostly* one-per-instruction-address, but the §4 join
/// refinement keeps states with different control-flow-relevant code
/// pointers apart, so an address may carry several variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VertexId {
    /// A state at a concrete instruction address (address, variant).
    At(u64, u32),
    /// The exit state: `rip` equals the function's symbolic return
    /// address.
    Exit,
}

impl VertexId {
    /// The instruction address of an `At` vertex; `None` for `Exit`.
    pub fn addr(self) -> Option<u64> {
        match self {
            VertexId::At(a, _) => Some(a),
            VertexId::Exit => None,
        }
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VertexId::At(a, 0) => write!(f, "{a:#x}"),
            VertexId::At(a, v) => write!(f, "{a:#x}.{v}"),
            VertexId::Exit => write!(f, "exit"),
        }
    }
}

/// A vertex: a symbolic state (predicate × memory model).
///
/// Every vertex is reachable. §4.2.2's reachability marking is the
/// exploration's pending-return mechanism: a call's return site gets a
/// vertex only once the callee provably returns
/// ([`PendingReturn`](crate::explore::PendingReturn)).
#[derive(Debug, Clone)]
pub struct Vertex {
    /// The invariant at this program point.
    pub state: SymState,
}

/// An edge: a Hoare triple `{pre} instr {post}` where `pre`/`post` are
/// the states at `from`/`to` and `instr` is fetched at `from`'s address
/// (Definition 3.1): [`HoareGraph::edge_instr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source vertex.
    pub from: VertexId,
    /// Destination vertex.
    pub to: VertexId,
}

/// An extracted Hoare Graph for one function.
#[derive(Debug, Clone, Default)]
pub struct HoareGraph {
    /// Vertices by id.
    pub vertices: BTreeMap<VertexId, Vertex>,
    /// Edges (may contain several per source for forks).
    pub edges: Vec<Edge>,
    /// The instruction decoded at every address exploration stepped,
    /// with or without outgoing edges. An address reached only by
    /// vacuous states is never decoded: it has vertices but no entry.
    decoded: BTreeMap<u64, Instr>,
}

impl HoareGraph {
    /// An empty graph.
    pub fn new() -> HoareGraph {
        HoareGraph::default()
    }

    /// All vertex ids at instruction address `addr`, in variant order.
    /// A range over the derived `Ord` (address, then variant), so only
    /// the variants at `addr` are visited.
    pub fn vertices_at(&self, addr: u64) -> Vec<VertexId> {
        self.vertices
            .range(VertexId::At(addr, 0)..=VertexId::At(addr, u32::MAX))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Number of distinct instruction addresses among the vertices and
    /// edge sources, so a vertex without outgoing edges (e.g. a
    /// terminating `call exit`) counts. Table 1's "Instrs." column
    /// counts edge sources only
    /// ([`LiftResult::instruction_count`](crate::lift::LiftResult::instruction_count)).
    pub fn instruction_count(&self) -> usize {
        let ids = self.edges.iter().map(|e| e.from).chain(self.vertices.keys().copied());
        ids.filter_map(VertexId::addr).collect::<BTreeSet<u64>>().len()
    }

    /// Number of symbolic states (the "Symbolic States" column).
    pub fn state_count(&self) -> usize {
        self.vertices.len()
    }

    /// Whether some path provably returns: exploration adds the
    /// [`VertexId::Exit`] vertex exactly when a `ret` verifies.
    pub fn returns(&self) -> bool {
        self.vertices.contains_key(&VertexId::Exit)
    }

    /// Outgoing edges of a vertex.
    pub fn successors(&self, id: VertexId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// The distinct instructions labelling edges, by address. An
    /// instruction at a vertex without outgoing edges is not one.
    pub fn instructions(&self) -> BTreeMap<u64, &Instr> {
        self.edges.iter().map(|e| self.edge_instr(e)).map(|i| (i.addr, i)).collect()
    }

    /// Every decoded instruction, by address: a superset of [`instructions`](Self::instructions).
    pub fn decoded(&self) -> impl ExactSizeIterator<Item = &Instr> {
        self.decoded.values()
    }

    /// The instruction decoded at `addr`, if exploration decoded one.
    pub fn instr_at(&self, addr: u64) -> Option<&Instr> {
        self.decoded.get(&addr)
    }

    /// The instruction labelling `e`: the one at its source's address.
    /// Panics if none is recorded there, which exploration and the
    /// store codec rule out.
    pub fn edge_instr(&self, e: &Edge) -> &Instr {
        e.from.addr().and_then(|a| self.instr_at(a)).expect("edge source has a decoded instruction")
    }

    /// Record `instr` as the instruction at its address, keeping one
    /// already recorded there, and return the recorded one.
    pub fn record_instr(&mut self, instr: Instr) -> &Instr {
        self.decoded.entry(instr.addr).or_insert(instr)
    }

    /// Store `state` at vertex `id`, replacing any state it held.
    pub fn add_vertex(&mut self, id: VertexId, state: SymState) {
        self.vertices.insert(id, Vertex { state });
    }

    /// Add an edge unless the graph already has it (re-exploration
    /// after joins).
    pub fn add_edge(&mut self, from: VertexId, to: VertexId) {
        let e = Edge { from, to };
        if !self.edges.contains(&e) {
            self.edges.push(e);
        }
    }
}

impl fmt::Display for HoareGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Hoare Graph: {} states, {} edges", self.state_count(), self.edges.len())?;
        for e in &self.edges {
            writeln!(f, "  {} --[{}]--> {}", e.from, self.edge_instr(e), e.to)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_x86::{Mnemonic, Width};

    fn nop_at(addr: u64) -> Instr {
        let mut i = Instr::new(Mnemonic::Nop, vec![], Width::B8);
        i.addr = addr;
        i.len = 1;
        i
    }

    #[test]
    fn counts() {
        let mut g = HoareGraph::new();
        g.add_vertex(VertexId::At(0x10, 0), SymState::function_entry(0x10));
        g.add_vertex(VertexId::At(0x11, 0), SymState::function_entry(0x10));
        g.add_vertex(VertexId::At(0x11, 1), SymState::function_entry(0x10));
        g.record_instr(nop_at(0x10));
        g.record_instr(nop_at(0x11));
        g.add_edge(VertexId::At(0x10, 0), VertexId::At(0x11, 0));
        g.add_edge(VertexId::At(0x10, 0), VertexId::At(0x11, 1));
        // 0x10 has an outgoing edge; 0x11's vertices also count.
        assert_eq!(g.instruction_count(), 2);
        // Only 0x10 labels an edge; both are decoded.
        assert_eq!(g.instructions().keys().copied().collect::<Vec<_>>(), vec![0x10]);
        assert_eq!(g.decoded().len(), 2);
        assert_eq!(g.state_count(), 3);
        assert_eq!(g.vertices_at(0x11).len(), 2);
        assert_eq!(g.successors(VertexId::At(0x10, 0)).count(), 2);
    }

    #[test]
    fn vertices_at_matches_a_full_scan() {
        let mut g = HoareGraph::new();
        for addr in [0x10, 0x11, 0x12, u64::MAX] {
            for variant in [0, 1, 3, u32::MAX] {
                g.add_vertex(VertexId::At(addr, variant), SymState::function_entry(0x10));
            }
        }
        assert!(!g.returns());
        g.add_vertex(VertexId::Exit, SymState::function_entry(0x10));
        assert!(g.returns());
        for addr in [0, 0x10, 0x11, 0x12, 0x13, u64::MAX] {
            let scanned: Vec<VertexId> = g
                .vertices
                .keys()
                .filter(|id| matches!(id, VertexId::At(a, _) if *a == addr))
                .copied()
                .collect();
            assert_eq!(g.vertices_at(addr), scanned, "addr {addr:#x}");
        }
        assert_eq!(g.vertices_at(0x11).len(), 4);
        assert!(g.vertices_at(0x13).is_empty());
    }

    #[test]
    fn edge_dedup() {
        let mut g = HoareGraph::new();
        g.record_instr(nop_at(0));
        g.add_edge(VertexId::At(0, 0), VertexId::Exit);
        g.add_edge(VertexId::At(0, 0), VertexId::Exit);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edge_instr(&g.edges[0]).addr, 0);
    }

    #[test]
    fn vertex_id_display() {
        assert_eq!(VertexId::At(0x401000, 0).to_string(), "0x401000");
        assert_eq!(VertexId::At(0x401000, 2).to_string(), "0x401000.2");
        assert_eq!(VertexId::Exit.to_string(), "exit");
    }
}
