//! Concrete dataflow passes over Hoare Graphs: forward reachability,
//! backward exit-reachability, and a forward stack-depth analysis.

use crate::engine::{Direction, Lattice, Transfer};
use hgl_core::graph::{Edge, HoareGraph, VertexId};
use hgl_expr::Linear;
use hgl_solver::rsp0_displacement;
use hgl_x86::{Instr, Mnemonic, Operand, Reg};

/// Forward reachability from the function entry.
pub struct Reachability {
    /// The function entry address.
    pub entry: u64,
}

impl Transfer for Reachability {
    type Fact = bool;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self, id: VertexId) -> Option<bool> {
        matches!(id, VertexId::At(a, _) if a == self.entry).then_some(true)
    }
    fn transfer(&self, _edge: &Edge, fact: &bool) -> bool {
        *fact
    }
}

/// Backward reachability of the `Exit` vertex: "can this state still
/// return?".
pub struct CanReachExit;

impl Transfer for CanReachExit {
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

/// The stack-depth fact: the displacement of `rsp` from `rsp0`, as an
/// interval (negative = the stack has grown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// No path reaches here yet.
    Bottom,
    /// `rsp - rsp0` lies in `[lo, hi]`.
    Range(i64, i64),
    /// The displacement is unbounded or unknown.
    Top,
}

impl Depth {
    /// Shift the interval by a known per-instruction `rsp` delta.
    fn shift(self, delta: i64) -> Depth {
        match self {
            Depth::Range(lo, hi) => match (lo.checked_add(delta), hi.checked_add(delta)) {
                (Some(l), Some(h)) => Depth::Range(l, h),
                _ => Depth::Top,
            },
            d => d,
        }
    }

    /// The maximum depth below `rsp0` this fact admits: `Some(bytes)`
    /// if bounded, `None` if unbounded.
    pub fn max_depth(&self) -> Option<u64> {
        match self {
            Depth::Bottom => Some(0),
            Depth::Range(lo, _) => Some(if *lo < 0 { lo.unsigned_abs() } else { 0 }),
            Depth::Top => None,
        }
    }
}

impl Lattice for Depth {
    fn bottom() -> Depth {
        Depth::Bottom
    }
    fn join(&self, other: &Depth) -> Depth {
        match (self, other) {
            (Depth::Bottom, d) | (d, Depth::Bottom) => *d,
            (Depth::Top, _) | (_, Depth::Top) => Depth::Top,
            (Depth::Range(a, b), Depth::Range(c, d)) => Depth::Range((*a).min(*c), (*b).max(*d)),
        }
    }
}

/// The `rsp` delta of `instr` when statically evident: `Some(0)` for
/// instructions that leave `rsp` alone, `Some(±k)` for the standard
/// push/pop/sub/add shapes, `None` when `rsp` is rewritten in a way
/// this syntactic check cannot bound.
fn rsp_delta(instr: &Instr) -> Option<i64> {
    match instr.mnemonic {
        Mnemonic::Push | Mnemonic::Call => Some(-8),
        Mnemonic::Pop | Mnemonic::Ret => Some(8),
        Mnemonic::Leave => None,
        Mnemonic::Sub | Mnemonic::Add => match (instr.operands.first(), instr.operands.get(1)) {
            (Some(Operand::Reg(rr)), Some(Operand::Imm(k))) if rr.reg == Reg::Rsp => {
                Some(if instr.mnemonic == Mnemonic::Sub { k.wrapping_neg() } else { *k })
            }
            (Some(Operand::Reg(rr)), _) if rr.reg == Reg::Rsp => None,
            _ => Some(0),
        },
        _ => match instr.operands.first() {
            // Any other instruction whose destination is rsp.
            Some(Operand::Reg(rr)) if rr.reg == Reg::Rsp => None,
            _ => Some(0),
        },
    }
}

/// Forward stack-depth analysis.
///
/// The transfer prefers the *destination invariant*: when the vertex's
/// own predicate pins `rsp` to `rsp0 + k`, that exact displacement is
/// the fact (this is what makes `leave`-style frame teardown precise —
/// the invariant knows `rsp` even when the instruction delta doesn't).
/// Only when the invariant leaves `rsp` symbolic does the pass fall
/// back to the syntactic per-instruction delta, going to `Top` when
/// `rsp` is rewritten unpredictably.
pub struct StackDepth<'g> {
    /// The graph being analysed (for destination invariants).
    pub graph: &'g HoareGraph,
    /// The function entry address.
    pub entry: u64,
}

impl Transfer for StackDepth<'_> {
    type Fact = Depth;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self, id: VertexId) -> Option<Depth> {
        matches!(id, VertexId::At(a, _) if a == self.entry).then_some(Depth::Range(0, 0))
    }
    fn transfer(&self, edge: &Edge, fact: &Depth) -> Depth {
        if let Some(v) = self.graph.vertices.get(&edge.to) {
            let rsp = v.state.pred.reg(Reg::Rsp);
            if let Some(d) = rsp0_displacement(&Linear::of_expr(&rsp)) {
                return Depth::Range(d, d);
            }
        }
        match rsp_delta(self.graph.edge_instr(edge)) {
            Some(delta) => fact.shift(delta),
            None => Depth::Top,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixpoint;
    use hgl_core::pred::SymState;
    use hgl_x86::{RegRef, Width};

    fn instr(m: Mnemonic, ops: Vec<Operand>, addr: u64) -> Instr {
        let mut i = Instr::new(m, ops, Width::B8);
        i.addr = addr;
        i.len = 1;
        i
    }

    #[test]
    fn rsp_delta_shapes() {
        let sub = instr(
            Mnemonic::Sub,
            vec![Operand::Reg(RegRef::full(Reg::Rsp)), Operand::Imm(0x20)],
            0,
        );
        assert_eq!(rsp_delta(&sub), Some(-0x20));
        let add = instr(
            Mnemonic::Add,
            vec![Operand::Reg(RegRef::full(Reg::Rsp)), Operand::Imm(0x20)],
            0,
        );
        assert_eq!(rsp_delta(&add), Some(0x20));
        let probe = instr(
            Mnemonic::Sub,
            vec![Operand::Reg(RegRef::full(Reg::Rsp)), Operand::Reg(RegRef::full(Reg::Rax))],
            0,
        );
        assert_eq!(rsp_delta(&probe), None);
        assert_eq!(rsp_delta(&instr(Mnemonic::Push, vec![], 0)), Some(-8));
        assert_eq!(rsp_delta(&instr(Mnemonic::Nop, vec![], 0)), Some(0));
        let movrsp = instr(
            Mnemonic::Mov,
            vec![Operand::Reg(RegRef::full(Reg::Rsp)), Operand::Reg(RegRef::full(Reg::Rax))],
            0,
        );
        assert_eq!(rsp_delta(&movrsp), None);
    }

    #[test]
    fn depth_lattice() {
        let a = Depth::Range(-8, 0);
        let b = Depth::Range(-16, -8);
        assert_eq!(a.join(&b), Depth::Range(-16, 0));
        assert_eq!(a.join(&Depth::Bottom), a);
        assert_eq!(a.join(&Depth::Top), Depth::Top);
        assert_eq!(Depth::Range(-0x20, 0).max_depth(), Some(0x20));
        assert_eq!(Depth::Range(8, 8).max_depth(), Some(0));
        assert_eq!(Depth::Top.max_depth(), None);
    }

    #[test]
    fn stack_depth_over_push_chain() {
        // entry --push--> v1 --push--> v2, invariants left symbolic so
        // the syntactic delta path is exercised.
        let mut g = HoareGraph::new();
        let s = SymState::function_entry(0x10);
        // function_entry pins rsp to rsp0, so the destination-invariant
        // path would return Range(0,0); strip the binding to test the
        // delta path.
        let mut sym = s.clone();
        sym.pred.set_reg(Reg::Rsp, hgl_expr::Expr::bottom());
        g.add_vertex(VertexId::At(0x10, 0), s);
        g.add_vertex(VertexId::At(0x11, 0), sym.clone());
        g.add_vertex(VertexId::At(0x12, 0), sym);
        crate::add_labelled(&mut g, VertexId::At(0x10, 0), VertexId::At(0x11, 0), instr(Mnemonic::Push, vec![], 0x10));
        crate::add_labelled(&mut g, VertexId::At(0x11, 0), VertexId::At(0x12, 0), instr(Mnemonic::Push, vec![], 0x11));
        let sol = fixpoint(&g, &StackDepth { graph: &g, entry: 0x10 }, 10_000);
        assert_eq!(sol.fact(VertexId::At(0x12, 0)), Some(&Depth::Range(-16, -16)));
    }
}
