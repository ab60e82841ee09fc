//! Algorithm 1: Hoare-Graph extraction by worklist exploration with
//! joining, plus the §4.2 function-call extensions.

use crate::budget::{Budget, BudgetDim, BudgetExhausted, BudgetMeter};
use crate::diag::{Annotation, Diagnostics};
use crate::graph::{Edge, HoareGraph, VertexId};
use crate::metrics::{Metrics, Phase};
use crate::pred::SymState;
use crate::tau::{step, StepCtx, Successor};
use crate::VerificationError;
use hgl_elf::Binary;
use hgl_expr::Expr;
use hgl_solver::{Layout, QueryCache};
use hgl_x86::decode;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// Everything one exploration step needs from its surroundings: the
/// binary, the configuration, the shared wall-clock meter, the solver
/// cache and the metrics sink. Bundling these keeps
/// [`FnExploration::run`]'s signature stable as the pipeline grows
/// cross-cutting services.
#[derive(Clone, Copy)]
pub struct ExploreCx<'a> {
    /// The binary being lifted.
    pub binary: &'a Binary,
    /// Its section layout (shared handle; cloned per solver query at
    /// the cost of a refcount bump, not a section-table copy).
    pub layout: &'a Arc<Layout>,
    /// Externally resolved indirect-branch targets.
    pub indirect_hints: &'a BTreeMap<u64, BTreeSet<u64>>,
    /// Exploration limits.
    pub limits: &'a ExploreLimits,
    /// The configured budget (per-function dimensions).
    pub budget: &'a Budget,
    /// The lift's wall-clock deadline.
    pub meter: &'a BudgetMeter,
    /// Shared solver-query memo table.
    pub cache: &'a Arc<QueryCache>,
    /// Metrics sink for phase timings.
    pub metrics: &'a Metrics,
}

/// Chained phase timing for the solver→decode→tau sequence that runs
/// once per explored state: one timestamp per phase *boundary* instead
/// of two per phase. The chain opens with one `Instant::now()`; each
/// `lap` charges the time since the previous boundary to `phase` and
/// becomes the next boundary. The few instructions of bookkeeping
/// between phases (window fetch, instruction record, step-context
/// setup) are charged to the following phase — negligible against
/// halving the clock calls on the hot path. The decode lap runs only
/// when an address is decoded; a visit whose instruction the graph
/// already holds skips it, so its lookup is charged to τ.
fn lap(metrics: &Metrics, phase: Phase, prev: std::time::Instant) -> std::time::Instant {
    let now = std::time::Instant::now();
    metrics.record(phase, now.duration_since(prev));
    now
}

/// The immediate code pointer `e` holds, if any.
fn code_imm(binary: &Binary, e: &Expr) -> Option<u64> {
    e.as_imm().filter(|v| binary.is_code(*v))
}

/// An entry in the exploration bag.
#[derive(Debug, Clone)]
pub struct BagItem {
    /// Instruction address of the state.
    pub addr: u64,
    /// The symbolic state.
    pub state: SymState,
    /// Source vertex of the edge that produced the state.
    pub from: Option<VertexId>,
}

/// A pending internal call discovered during exploration (§4.2.2):
/// the return site becomes reachable only once the callee provably
/// returns.
#[derive(Debug, Clone)]
pub struct PendingReturn {
    /// Callee entry address.
    pub callee: u64,
    /// The call-site vertex (the edge's source).
    pub from: VertexId,
    /// Return-site address.
    pub return_site: u64,
    /// Caller state at the return site.
    pub after: SymState,
}

/// Exploration state of a single function.
pub struct FnExploration {
    /// Function entry address.
    pub entry: u64,
    /// The Hoare Graph under construction.
    pub graph: HoareGraph,
    /// Diagnostics gathered so far.
    pub diags: Diagnostics,
    /// The bag of unexplored states.
    pub bag: Vec<BagItem>,
    /// Pending internal calls awaiting callee-return proof.
    pub pending: Vec<PendingReturn>,
    /// Set when the function is rejected.
    pub rejected: Option<VerificationError>,
    /// Set when a resource budget stopped exploration; the graph built
    /// so far is kept and the frontier is annotated.
    pub exhausted: Option<BudgetExhausted>,
    /// Set when exploring this function panicked: the engine isolates
    /// the panic, drops the bag and rejects the function as
    /// [`RejectReason::Internal`](crate::lift::RejectReason::Internal).
    pub internal_error: Option<String>,
    /// Internal callees this function's lift depends on, with `true`
    /// once the callee's return proof was consumed (its return sites
    /// were activated). Unlike [`FnExploration::pending`], entries stay
    /// after activation: an incremental re-lift needs the full
    /// dependency set to confirm a cached artifact.
    pub callee_deps: BTreeMap<u64, bool>,
    /// Join counts per vertex, to trigger widening.
    join_counts: BTreeMap<VertexId, u32>,
    /// Per address, the code-pointer signature of every variant:
    /// entry `i` belongs to vertex `At(addr, i)`, and the length is the
    /// next variant index. See [`FnExploration::signature`].
    variants: BTreeMap<u64, Vec<u64>>,
    /// This function's fresh-symbol counter. Private to the function,
    /// which is sound because exploration is context-free (§4.2.2): no
    /// symbolic state flows between functions.
    fresh: u64,
    /// Steps executed (budget accounting).
    pub steps: usize,
}

/// Per-function exploration limits.
#[derive(Debug, Clone)]
pub struct ExploreLimits {
    /// Maximum number of symbolic states per function.
    pub max_states: usize,
    /// Joins at one vertex before switching to widening.
    pub widen_after: u32,
    /// Keep states with differing immediate code pointers apart
    /// (the §4 second extension).
    pub code_pointer_refinement: bool,
}

impl Default for ExploreLimits {
    fn default() -> ExploreLimits {
        ExploreLimits {
            max_states: 20_000,
            widen_after: 8,
            code_pointer_refinement: true,
        }
    }
}

impl FnExploration {
    /// Begin exploring the function at `entry`: the bag starts with the
    /// entry state (Algorithm 1's initialisation).
    pub fn new(entry: u64) -> FnExploration {
        FnExploration {
            entry,
            graph: HoareGraph::new(),
            diags: Diagnostics::default(),
            bag: vec![BagItem { addr: entry, state: SymState::function_entry(entry), from: None }],
            pending: Vec::new(),
            rejected: None,
            exhausted: None,
            internal_error: None,
            callee_deps: BTreeMap::new(),
            join_counts: BTreeMap::new(),
            variants: BTreeMap::new(),
            fresh: 0,
            steps: 0,
        }
    }

    /// Are two states compatible (Definition 4.3 plus the immediate
    /// code-pointer refinement of §4)? Exactly when they hold the same
    /// set of (register or memory region, code address) pairs, so equal
    /// [`signature`](Self::signature)s are necessary for compatibility.
    fn compatible(binary: &Binary, a: &SymState, b: &SymState, refine: bool) -> bool {
        if !refine {
            return true;
        }
        let code_imm = |e: &Expr| code_imm(binary, e);
        // A state part holding an immediate code pointer on either side
        // must hold the *same* code pointer on the other — joining
        // would otherwise lose a value that will likely decide future
        // control flow (§4, second extension).
        let clash = |va: Option<&Expr>, vb: Option<&Expr>| -> bool {
            let ca = va.and_then(code_imm);
            let cb = vb.and_then(code_imm);
            match (ca, cb) {
                (Some(x), Some(y)) => x != y,
                (Some(_), None) | (None, Some(_)) => true,
                (None, None) => false,
            }
        };
        for r in hgl_x86::Reg::ALL {
            let (va, vb) = (a.pred.regs.get(r), b.pred.regs.get(r));
            if clash(Some(&va), Some(&vb)) {
                return false;
            }
        }
        for region in a.pred.mem.keys().chain(b.pred.mem.keys()) {
            if clash(a.pred.mem.get(region), b.pred.mem.get(region)) {
                return false;
            }
        }
        true
    }

    /// A hash of the (register or memory region, code address) pairs of
    /// `s` — exactly the parts [`compatible`](Self::compatible)
    /// compares — in canonical order (`Reg::ALL`, then region order).
    /// Compatible states have equal signatures, so the compatible-vertex
    /// lookup compares one `u64` per variant and calls `compatible` only
    /// on a match. Without the refinement every state is compatible and
    /// the signature is 0.
    fn signature(binary: &Binary, s: &SymState, refine: bool) -> u64 {
        if !refine {
            return 0;
        }
        let mut h = DefaultHasher::new();
        for r in hgl_x86::Reg::ALL {
            if let Some(v) = code_imm(binary, &s.pred.regs.get(r)) {
                (r, v).hash(&mut h);
            }
        }
        for (region, e) in s.pred.mem.iter() {
            if let Some(v) = code_imm(binary, e) {
                (region, v).hash(&mut h);
            }
        }
        h.finish()
    }

    /// Run exploration until the bag empties, a budget dimension is
    /// exhausted, or the function is rejected.
    ///
    /// Exhaustion is *graceful*: the graph built so far stays, every
    /// frontier address still in the bag is annotated with
    /// [`Annotation::BudgetFrontier`], and [`FnExploration::exhausted`]
    /// records the dimension. Only verification failures set
    /// [`FnExploration::rejected`].
    pub fn run(&mut self, cx: &ExploreCx<'_>) {
        while let Some(item) = self.bag.pop() {
            if cx.meter.check_global().is_some() {
                // The wall clock is reported at the lift level; keep the
                // item so the driver can annotate the frontier across all
                // functions.
                self.bag.push(item);
                return;
            }
            let states = self.graph.state_count();
            if states > cx.limits.max_states {
                self.bag.push(item);
                self.mark_frontier(BudgetExhausted {
                    dimension: BudgetDim::States,
                    used: states as u64,
                    limit: cx.limits.max_states as u64,
                });
                return;
            }
            if let Some(max_fuel) = cx.budget.max_fuel {
                if self.steps as u64 >= max_fuel {
                    self.bag.push(item);
                    self.mark_frontier(BudgetExhausted {
                        dimension: BudgetDim::Fuel,
                        used: self.steps as u64,
                        limit: max_fuel,
                    });
                    return;
                }
            }
            if self.rejected.is_some() {
                self.bag.clear();
                return;
            }
            self.explore_item(cx, item);
        }
    }

    /// Record budget exhaustion: annotate every address still queued in
    /// the bag as an unexplored frontier, then drop the bag so the
    /// function is not re-run.
    pub fn mark_frontier(&mut self, ex: BudgetExhausted) {
        let mut addrs: Vec<u64> = self.bag.iter().map(|b| b.addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        for addr in addrs {
            self.diags.annotate(Annotation::BudgetFrontier { addr, dimension: ex.dimension });
        }
        self.bag.clear();
        if self.exhausted.is_none() {
            self.exhausted = Some(ex);
        }
    }

    /// One iteration of Algorithm 1's `explore`.
    fn explore_item(&mut self, cx: &ExploreCx<'_>, item: BagItem) {
        let ExploreCx { binary, layout, indirect_hints, limits, .. } = *cx;
        let BagItem { addr, state, from } = item;

        // Lines 3–9: find a compatible vertex, join or create. Only a
        // variant with the state's signature can be compatible, and
        // `compatible` still decides, so the lowest compatible variant
        // is found without testing every variant at `addr`.
        let refine = limits.code_pointer_refinement;
        let sig = Self::signature(binary, &state, refine);
        let sigs = self.variants.entry(addr).or_default();
        let at = |i: usize| VertexId::At(addr, i as u32);
        let target = (0..sigs.len()).find(|&i| {
            sigs[i] == sig && Self::compatible(binary, &state, &self.graph.vertices[&at(i)].state, refine)
        });
        debug_assert_eq!(
            target.map(at),
            self.graph
                .vertices_at(addr)
                .into_iter()
                .find(|vid| Self::compatible(binary, &state, &self.graph.vertices[vid].state, refine)),
            "signature index disagrees with the compatible-vertex walk at {addr:#x}"
        );
        let (vid, state) = match target {
            Some(i) => {
                let vid = at(i);
                if let Some(src) = from {
                    self.graph.add_edge(src, vid);
                }
                // Borrow, don't clone: the existing state is only read
                // before the vertex is overwritten.
                let existing = &self.graph.vertices[&vid].state;
                let join_counts = &mut self.join_counts;
                // One plain join decides line 4 (`state ⊑ existing` is
                // `state ⊔ existing == existing`, as in `SymState::leq`)
                // and is the new vertex state unless widening is due.
                let joined = cx.metrics.time(Phase::Join, || {
                    let joined = state.join(existing, false);
                    if joined == *existing {
                        return None;
                    }
                    let joins = join_counts.entry(vid).or_insert(0);
                    *joins += 1;
                    Some(if *joins > limits.widen_after { state.join(existing, true) } else { joined })
                });
                let Some(joined) = joined else {
                    // Line 4: already covered.
                    return;
                };
                // The index must describe the stored state. Today's
                // join keeps the existing pairs (equal immediates
                // unify); re-signing keeps the index exact should a
                // join ever drop one.
                sigs[i] = Self::signature(binary, &joined, refine);
                self.graph.add_vertex(vid, joined.clone());
                (vid, joined)
            }
            None => {
                let vid = at(sigs.len());
                sigs.push(sig);
                self.graph.add_vertex(vid, state.clone());
                if let Some(src) = from {
                    // A vertex created by this step has no incoming
                    // edge yet, so this one cannot be a duplicate:
                    // skip `add_edge`'s scan over every edge.
                    self.graph.edges.push(Edge { from: src, to: vid });
                }
                (vid, state)
            }
        };

        // Vacuous states (contradictory path clauses) represent no
        // concrete states; exploring them wastes effort and can poison
        // interval reasoning. Prune.
        let t = std::time::Instant::now();
        let sat_check = hgl_solver::Ctx::from_clauses(state.pred.clauses.iter(), Arc::clone(layout));
        let mut t = lap(cx.metrics, Phase::Solver, t);
        if sat_check.is_unsat() {
            return;
        }

        // Fetch and decode (the paper's `fetch`), once per address: the
        // graph keeps the instruction, and every edge out of `vid`, and
        // every reader of this vertex, takes it from there. A failed
        // decode is never recorded, so it runs again at each visit.
        if self.graph.instr_at(addr).is_none() {
            let Some(window) = binary.fetch_window(addr) else {
                self.rejected = Some(VerificationError::JumpOutsideText { addr, target: addr });
                return;
            };
            let decoded = decode(window, addr);
            t = lap(cx.metrics, Phase::Decode, t);
            match decoded {
                Ok(i) => {
                    self.graph.record_instr(i);
                }
                Err(e) => {
                    // A rejection caused by these bytes is still a
                    // cacheable outcome: the artifact store hashes the
                    // window at `addr` to detect when the bytes change.
                    cx.metrics.count_decode_reject(e.reject_key());
                    self.rejected =
                        Some(VerificationError::Undecodable { addr, message: e.to_string() });
                    return;
                }
            }
        }
        let instr = self.graph.instr_at(addr).expect("decoded at the first visit");

        // Lines 10–17: step and push successors.
        self.steps += 1;
        let mut ctx = StepCtx {
            binary,
            layout,
            indirect_hints,
            fresh: &mut self.fresh,
            diags: &mut self.diags,
            cache: cx.cache,
            metrics: cx.metrics,
        };
        let stepped = step(&mut ctx, state, instr, self.entry);
        lap(cx.metrics, Phase::Tau, t);
        let successors = match stepped {
            Ok(s) => s,
            Err(e) => {
                self.rejected = Some(e);
                return;
            }
        };
        // Push in reverse so the LIFO bag explores successors in
        // production order: structured memory-model forks (alias,
        // separate) resolve their control flow *before* the destroy
        // fallback joins in and weakens the vertex invariant. Edges
        // found early persist across later joins (Algorithm 1 line 6
        // replaces states, never edges).
        for succ in successors.into_iter().rev() {
            match succ {
                Successor::At(a, s) => {
                    self.bag.push(BagItem { addr: a, state: s, from: Some(vid) });
                }
                Successor::Return(s) => {
                    // All return paths share the Exit vertex: join.
                    let joined = match self.graph.vertices.get(&VertexId::Exit) {
                        Some(v) => cx.metrics.time(Phase::Join, || s.join(&v.state, false)),
                        None => s,
                    };
                    self.graph.add_vertex(VertexId::Exit, joined);
                    self.graph.add_edge(vid, VertexId::Exit);
                }
                Successor::CallInternal { callee, return_site, after } => {
                    self.callee_deps.entry(callee).or_insert(false);
                    self.pending.push(PendingReturn { callee, from: vid, return_site, after });
                }
            }
        }
    }

    /// Activate the return site of a pending call once `callee` is
    /// known to return (the reachability marking of §4.2.2).
    pub fn activate_returns_from(&mut self, callee: u64) {
        let mut i = 0;
        let mut any = false;
        while i < self.pending.len() {
            if self.pending[i].callee == callee {
                let p = self.pending.remove(i);
                self.bag.push(BagItem { addr: p.return_site, state: p.after, from: Some(p.from) });
                any = true;
            } else {
                i += 1;
            }
        }
        if any {
            self.callee_deps.insert(callee, true);
        }
    }

    /// Callee entries still awaiting a return proof.
    pub fn pending_callees(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.pending.iter().map(|p| p.callee).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_exploration_has_entry_in_bag() {
        let e = FnExploration::new(0x401000);
        assert_eq!(e.bag.len(), 1);
        assert_eq!(e.bag[0].addr, 0x401000);
        assert!(!e.graph.returns());
    }

    #[test]
    fn activate_moves_pending_to_bag() {
        let mut e = FnExploration::new(0x401000);
        e.bag.clear();
        e.pending.push(PendingReturn {
            callee: 0x402000,
            from: VertexId::At(0x401000, 0),
            return_site: 0x401005,
            after: SymState::function_entry(0x401000),
        });
        assert_eq!(e.pending_callees(), vec![0x402000]);
        e.activate_returns_from(0x402000);
        assert!(e.pending.is_empty());
        assert_eq!(e.bag.len(), 1);
        assert_eq!(e.bag[0].addr, 0x401005);
    }
}
