//! Whole-trace conformance checking: run the concrete emulator and
//! replay every step against the lifted Hoare Graph.
//!
//! One trace = one seeded entry state run to completion. At every step
//! the oracle asserts
//!
//! 1. **containment** — the concrete machine state is contained in
//!    some vertex invariant at the current `rip` (via the shared
//!    [`hgl_export::checker`] containment definition),
//! 2. **edge correspondence** — the concrete transition taken by the
//!    emulator is labelled by an HG edge out of a current candidate
//!    vertex, and
//! 3. the paper's three sanity properties, trace-wide: **return
//!    address integrity** (every `ret` lands on the address its `call`
//!    pushed), **bounded control flow** (`rip` never leaves the set of
//!    addresses the graph covers, except through annotated
//!    indirections), and **calling-convention adherence** (callee-saved
//!    registers and `rsp` are restored at every return).
//!
//! Traces cross function boundaries: internal calls push a checker
//! frame holding the callee's own symbol environment (the Hoare Graph
//! is per-function and context-free, §4.2.2), external calls replay
//! the benign System V stub the emulator harness uses, and annotated
//! instructions (callbacks, wild jumps, budget frontiers) end the
//! trace gracefully — the paper's guarantee covers unannotated code
//! only.

use crate::coverage::{Coverage, EdgeKind};
use hgl_analysis::WriteClassMap;
use hgl_core::lift::LiftResult;
use hgl_core::tau::{writes_first_operand, TERMINATING_EXTERNALS};
use hgl_core::VertexId;
use hgl_elf::Binary;
use hgl_emu::{Event, Machine};
use hgl_export::checker::{bind_fresh, post_holds, Env};
use hgl_expr::Sym;
use hgl_x86::{decode, Instr, Mnemonic, Operand, Reg, RegRef};
use std::collections::VecDeque;
use std::fmt;

/// Sentinel return address for the outermost frame.
pub const SENTINEL: u64 = 0x7fff_dead_beef;

/// How a trace ended (when it did not end in a violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceStop {
    /// The entry function returned to the sentinel.
    Returned,
    /// Execution reached an instruction carrying an unsoundness or
    /// budget annotation; the guarantee stops here (§1).
    Annotated(u64),
    /// A call to a terminating external (`exit`, `abort`, …).
    Terminated,
    /// The per-trace step budget ran out (e.g. a long loop).
    StepLimit,
    /// The emulator faulted (e.g. divide error) — a concretely faulting
    /// path, outside the Hoare Graph's scope.
    Fault(String),
}

impl TraceStop {
    /// Coverage-accounting key.
    pub fn key(&self) -> &'static str {
        match self {
            TraceStop::Returned => "returned",
            TraceStop::Annotated(_) => "annotated",
            TraceStop::Terminated => "terminated",
            TraceStop::StepLimit => "step-limit",
            TraceStop::Fault(_) => "fault",
        }
    }
}

/// Which conformance property a violation breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// The machine state matched no vertex invariant at its `rip`.
    Containment,
    /// The concrete transition has no corresponding HG edge.
    MissingEdge,
    /// A `ret` did not land on the address pushed by its `call`.
    ReturnAddressIntegrity,
    /// `rip` left the graph outside any annotated instruction.
    BoundedControlFlow,
    /// Callee-saved registers or `rsp` were not restored at a return.
    CallingConvention,
    /// A concrete memory write landed outside every class the static
    /// write-classification analysis claimed for its instruction.
    WriteClassification,
    /// An indirect jump the refinement claimed to have resolved landed
    /// outside its claimed target set.
    IndirectContainment,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Containment => "containment",
            ViolationKind::MissingEdge => "missing-edge",
            ViolationKind::ReturnAddressIntegrity => "return-address-integrity",
            ViolationKind::BoundedControlFlow => "bounded-control-flow",
            ViolationKind::CallingConvention => "calling-convention",
            ViolationKind::WriteClassification => "write-classification",
            ViolationKind::IndirectContainment => "indirect-containment",
        };
        f.write_str(s)
    }
}

/// A trace conformance violation: a concrete execution the Hoare Graph
/// does not overapproximate. This is a genuine soundness
/// counterexample of the lifter (or of the oracle's own replay).
#[derive(Debug, Clone)]
pub struct Violation {
    /// The broken property.
    pub kind: ViolationKind,
    /// Trace step index at which it broke.
    pub step: usize,
    /// `rip` of the instruction whose transition broke the property.
    pub rip: u64,
    /// Entry of the function frame being checked.
    pub function: u64,
    /// Human-readable specifics.
    pub detail: String,
    /// The last few trace steps leading up to the violation.
    pub tail: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} violation at step {} (rip {:#x}, function {:#x}): {}",
            self.kind, self.step, self.rip, self.function, self.detail
        )?;
        for t in &self.tail {
            writeln!(f, "    {t}")?;
        }
        Ok(())
    }
}

/// The outcome of one checked trace.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// Steps executed.
    pub steps: usize,
    /// How the trace ended (meaningful when `violation` is `None`).
    pub stop: TraceStop,
    /// The violation, if conformance broke.
    pub violation: Option<Violation>,
    /// Concrete memory writes checked against static write-class
    /// claims (0 when the oracle has no claim index).
    pub writes_checked: usize,
    /// Concrete indirect jumps checked against refinement claims (0
    /// when the oracle has no claim set).
    pub indirect_checked: usize,
}

/// One per-function checker frame: the callee's symbol environment and
/// the candidate vertices the machine may currently inhabit.
struct Frame {
    /// Function entry address.
    entry: u64,
    /// Symbol environment: `Init(r)`, `RetSym`, `RetAddr` bound at
    /// frame entry; `Fresh` existentials accumulate as they are
    /// witnessed.
    env: Env,
    /// Vertices whose invariant currently contains the machine.
    candidates: Vec<VertexId>,
    /// Concrete return address this frame must return to.
    ret_addr: u64,
    /// `rsp` at frame entry (pointing at the return-address slot).
    entry_rsp: u64,
    /// Callee-saved register values at frame entry.
    saved: [u64; 6],
    /// Set while a callee frame is on top: the call-site candidates
    /// and call address, needed to advance past the call edge when the
    /// callee returns.
    pending_call: Option<(Vec<VertexId>, u64)>,
}

/// Seeded entry-state parameters for one trace.
#[derive(Debug, Clone)]
pub struct EntryState {
    /// `rdi` — drives jump-table case selection.
    pub rdi: u64,
    /// Other scratch register values (`rax`, `rcx`, `rdx`, `rsi`,
    /// `r8`, `r9`).
    pub scratch: [u64; 6],
}

impl EntryState {
    /// A machine at `bin`'s entry in this state: [`SENTINEL`] pushed as
    /// the return address, `rdi` and the scratch registers set.
    pub fn machine(&self, bin: &Binary) -> Machine {
        let mut m = Machine::from_binary(bin);
        m.rip = bin.entry;
        m.push_return_address(SENTINEL);
        m.set_reg(RegRef::full(Reg::Rdi), self.rdi);
        for (r, v) in [Reg::Rax, Reg::Rcx, Reg::Rdx, Reg::Rsi, Reg::R8, Reg::R9]
            .into_iter()
            .zip(self.scratch)
        {
            m.set_reg(RegRef::full(r), v);
        }
        m
    }
}

/// The trace oracle for one lifted binary.
pub struct TraceOracle<'a> {
    binary: &'a Binary,
    lift: &'a LiftResult,
    /// Per-trace step budget.
    pub max_steps: usize,
    /// Static write-class claims to cross-validate against concrete
    /// writes (built with [`WriteClassMap::build`]). `None` disables
    /// the check.
    pub write_classes: Option<WriteClassMap>,
    /// Resolved-indirection claims from the analyze→re-lift
    /// refinement, keyed by jump address: every concrete indirect jump
    /// at a claimed address must land inside its claimed target set.
    /// `None` disables the check.
    pub indirect_claims: Option<std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>>>,
}

impl<'a> TraceOracle<'a> {
    /// A new oracle over a lifted binary.
    pub fn new(binary: &'a Binary, lift: &'a LiftResult) -> TraceOracle<'a> {
        TraceOracle { binary, lift, max_steps: 20_000, write_classes: None, indirect_claims: None }
    }

    /// Enable write-classification cross-validation: every concrete
    /// write whose instruction carries a dynamically checkable claim
    /// is asserted to land inside one of the claimed classes.
    pub fn with_write_classes(mut self) -> TraceOracle<'a> {
        self.write_classes = Some(WriteClassMap::build(self.binary, self.lift));
        self
    }

    /// Enable indirect-containment cross-validation: every concrete
    /// indirect jump at a claimed address must land inside its claimed
    /// target set (the refutation channel for refinement claims).
    pub fn with_indirect_claims(
        mut self,
        claims: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>>,
    ) -> TraceOracle<'a> {
        self.indirect_claims = Some(claims);
        self
    }

    /// Is `addr` annotated in the frame's function (unresolved
    /// indirection or budget frontier)?
    fn annotated(&self, function: u64, addr: u64) -> bool {
        self.lift
            .functions
            .get(&function)
            .map(|f| f.annotations.iter().any(|a| a.addr() == addr))
            .unwrap_or(false)
    }

    /// Build the entry environment of a frame: every `Init` register
    /// bound to the machine's value, the return symbols bound to the
    /// concrete return address, and `Global` cells bound to memory at
    /// frame entry.
    fn frame_env(&self, entry: u64, m: &mut Machine, ret_addr: u64) -> Env {
        let mut env = Env::new();
        for r in Reg::ALL {
            env.insert(Sym::Init(r), m.reg(r));
        }
        env.insert(Sym::RetSym(entry), ret_addr);
        env.insert(Sym::RetAddr, ret_addr);
        if let Some(f) = self.lift.functions.get(&entry) {
            for v in f.graph.vertices.values() {
                for s in hgl_export::checker::syms_of(&v.state) {
                    if let Sym::Global(a) = s {
                        if !env.contains(s) {
                            let val = m.mem.read(a, 8);
                            env.insert(s, val);
                        }
                    }
                }
            }
        }
        env
    }

    /// Open a frame for the function at `entry`: check entry
    /// containment and return the frame.
    fn enter_frame(
        &self,
        entry: u64,
        m: &mut Machine,
        ret_addr: u64,
        step: usize,
        tail: &VecDeque<String>,
    ) -> Result<Frame, Violation> {
        let env = self.frame_env(entry, m, ret_addr);
        let Some(f) = self.lift.functions.get(&entry) else {
            return Err(Violation {
                kind: ViolationKind::BoundedControlFlow,
                step,
                rip: entry,
                function: entry,
                detail: format!("call target {entry:#x} is not a lifted function"),
                tail: tail.iter().cloned().collect(),
            });
        };
        let mut candidates = Vec::new();
        let mut errs = Vec::new();
        for vid in f.graph.vertices_at(entry) {
            match post_holds(&f.graph.vertices[&vid].state, &env, m) {
                Ok(()) => candidates.push(vid),
                Err(e) => errs.push(format!("{vid}: {e}")),
            }
        }
        if candidates.is_empty() {
            return Err(Violation {
                kind: ViolationKind::Containment,
                step,
                rip: entry,
                function: entry,
                detail: format!("no entry vertex contains the machine: {}", errs.join("; ")),
                tail: tail.iter().cloned().collect(),
            });
        }
        let saved = Reg::CALLEE_SAVED.map(|r| m.reg(r));
        Ok(Frame {
            entry,
            env,
            candidates,
            ret_addr,
            entry_rsp: m.reg(Reg::Rsp),
            saved,
            pending_call: None,
        })
    }

    /// Advance the candidate set across one executed instruction: keep
    /// the destinations of edges out of `prev` labelled with the
    /// instruction at `prev_rip` whose target vertex matches the new
    /// `rip` and whose invariant contains the machine. Fresh-symbol
    /// bindings witnessed by matching destinations are committed into
    /// the frame environment.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        frame: &mut Frame,
        prev: &[VertexId],
        prev_rip: u64,
        m: &Machine,
        step: usize,
        tail: &VecDeque<String>,
    ) -> Result<(), Violation> {
        let f = &self.lift.functions[&frame.entry];
        let mut next: Vec<VertexId> = Vec::new();
        let mut rip_matched = false;
        let mut errs: Vec<String> = Vec::new();
        for &cand in prev {
            for e in f.graph.successors(cand) {
                if f.graph.edge_instr(e).addr != prev_rip {
                    continue;
                }
                let VertexId::At(a, _) = e.to else { continue };
                if a != m.rip {
                    continue;
                }
                rip_matched = true;
                let dest = &f.graph.vertices[&e.to].state;
                let bound = bind_fresh(dest, &frame.env, m);
                match post_holds(dest, &bound, m) {
                    Ok(()) => {
                        if !next.contains(&e.to) {
                            next.push(e.to);
                        }
                        frame.env = bound;
                    }
                    Err(err) => errs.push(format!("{}: {err}", e.to)),
                }
            }
        }
        if next.is_empty() {
            let (kind, detail) = if rip_matched {
                (
                    ViolationKind::Containment,
                    format!("no destination invariant contains the machine: {}", errs.join("; ")),
                )
            } else {
                (
                    ViolationKind::MissingEdge,
                    format!(
                        "no HG edge from {} at {prev_rip:#x} reaches rip {:#x}",
                        prev.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|"),
                        m.rip
                    ),
                )
            };
            return Err(Violation {
                kind,
                step,
                rip: prev_rip,
                function: frame.entry,
                detail,
                tail: tail.iter().cloned().collect(),
            });
        }
        frame.candidates = next;
        Ok(())
    }

    /// Run and check one trace from the given entry state.
    ///
    /// `coverage` is updated with every executed mnemonic, replayed
    /// edge kind and the final stop reason.
    pub fn check_trace(&self, es: &EntryState, coverage: &mut Coverage) -> TraceOutcome {
        let mut m = es.machine(self.binary);
        let entry = self.binary.entry;

        let mut tail: VecDeque<String> = VecDeque::with_capacity(12);
        let mut frames: Vec<Frame> = Vec::new();
        let mut steps = 0usize;
        let mut writes_checked = 0usize;
        let mut indirect_checked = 0usize;

        macro_rules! outcome {
            ($stop:expr) => {{
                let stop = $stop;
                coverage.record_stop(stop.key());
                return TraceOutcome { steps, stop, violation: None, writes_checked, indirect_checked };
            }};
        }
        macro_rules! violation {
            ($v:expr) => {{
                coverage.record_stop("violation");
                return TraceOutcome {
                    steps,
                    stop: TraceStop::Returned,
                    violation: Some($v),
                    writes_checked,
                    indirect_checked,
                };
            }};
        }

        match self.enter_frame(entry, &mut m, SENTINEL, 0, &tail) {
            Ok(f) => frames.push(f),
            Err(v) => violation!(v),
        }

        loop {
            if steps >= self.max_steps {
                outcome!(TraceStop::StepLimit);
            }
            let frame_entry = frames.last().expect("frame").entry;
            let prev_rip = m.rip;

            // Annotated instruction: the guarantee (and the trace)
            // stops here. An unresolvable callback call-site counts as
            // callback edge coverage.
            if self.annotated(frame_entry, prev_rip) {
                if let Ok(i) = decode(self.binary.fetch_window(prev_rip).unwrap_or(&[]), prev_rip) {
                    if i.mnemonic == Mnemonic::Call {
                        coverage.record_edge(EdgeKind::Callback);
                    }
                }
                outcome!(TraceStop::Annotated(prev_rip));
            }

            let Some(window) = self.binary.fetch_window(prev_rip) else {
                violation!(Violation {
                    kind: ViolationKind::BoundedControlFlow,
                    step: steps,
                    rip: prev_rip,
                    function: frame_entry,
                    detail: format!("rip {prev_rip:#x} left the text section"),
                    tail: tail.iter().cloned().collect(),
                });
            };
            let instr = match decode(window, prev_rip) {
                Ok(i) => i,
                Err(e) => outcome!(TraceStop::Fault(format!("decode: {e}"))),
            };

            // Record the step (ring buffer): rip, instruction, and the
            // memory write it is about to perform, if any.
            if tail.len() == 12 {
                tail.pop_front();
            }
            let wr = mem_write_note(&m, &instr);
            tail.push_back(format!(
                "step {steps}: {prev_rip:#x}: {instr}  rax={:#x} rsp={:#x}{wr}",
                m.reg(Reg::Rax),
                m.reg(Reg::Rsp)
            ));

            // Cross-validate the static write classification: the
            // machine is contained in some candidate vertex at
            // `prev_rip` (checked each step), so its concrete write
            // address must satisfy at least one class claimed by the
            // invariants at this instruction. Computed pre-execution,
            // like the trace log above.
            if let Some(map) = &self.write_classes {
                if let Some(claim) = map.claim(frame_entry, prev_rip) {
                    if let Some(addr) = concrete_write_addr(&m, &instr) {
                        let entry_rsp = frames.last().expect("frame").entry_rsp;
                        match claim.admits(addr, entry_rsp) {
                            Some(true) => writes_checked += 1,
                            Some(false) => violation!(Violation {
                                kind: ViolationKind::WriteClassification,
                                step: steps,
                                rip: prev_rip,
                                function: frame_entry,
                                detail: format!(
                                    "concrete write to {addr:#x} (rsp0 {entry_rsp:#x}) \
                                     outside all claimed classes: {}",
                                    claim
                                        .classes
                                        .iter()
                                        .map(|c| c.to_string())
                                        .collect::<Vec<_>>()
                                        .join(" | ")
                                ),
                                tail: tail.iter().cloned().collect(),
                            }),
                            None => {}
                        }
                    }
                }
            }

            // Execute on the independent semantics.
            match m.exec(&instr) {
                Ok(Event::Normal) => {}
                Ok(Event::Halt) => outcome!(TraceStop::Fault("halt outside stub".into())),
                Ok(Event::Syscall) => {}
                Err(e) => outcome!(TraceStop::Fault(e.to_string())),
            }
            coverage.record_mnemonic(hgl_corpus::gen::mnemonic_stem(instr.mnemonic));
            steps += 1;

            match instr.mnemonic {
                Mnemonic::Ret => {
                    let frame = frames.last().expect("frame");
                    // Sanity: return-address integrity.
                    if m.rip != frame.ret_addr {
                        violation!(Violation {
                            kind: ViolationKind::ReturnAddressIntegrity,
                            step: steps,
                            rip: prev_rip,
                            function: frame.entry,
                            detail: format!(
                                "ret to {:#x}, call pushed {:#x}",
                                m.rip, frame.ret_addr
                            ),
                            tail: tail.iter().cloned().collect(),
                        });
                    }
                    // Sanity: calling-convention adherence.
                    let rsp_now = m.reg(Reg::Rsp);
                    if rsp_now != frame.entry_rsp.wrapping_add(8) {
                        violation!(Violation {
                            kind: ViolationKind::CallingConvention,
                            step: steps,
                            rip: prev_rip,
                            function: frame.entry,
                            detail: format!(
                                "rsp {:#x} after ret, expected {:#x}",
                                rsp_now,
                                frame.entry_rsp.wrapping_add(8)
                            ),
                            tail: tail.iter().cloned().collect(),
                        });
                    }
                    for (r, v0) in Reg::CALLEE_SAVED.iter().zip(frame.saved) {
                        if m.reg(*r) != v0 {
                            violation!(Violation {
                                kind: ViolationKind::CallingConvention,
                                step: steps,
                                rip: prev_rip,
                                function: frame.entry,
                                detail: format!(
                                    "callee-saved {r} is {:#x}, was {v0:#x} at entry",
                                    m.reg(*r)
                                ),
                                tail: tail.iter().cloned().collect(),
                            });
                        }
                    }
                    // Edge: some candidate must reach Exit via this ret,
                    // with the machine contained in the exit invariant.
                    let f = &self.lift.functions[&frame.entry];
                    let mut exit_ok = false;
                    let mut errs = Vec::new();
                    for &cand in &frame.candidates {
                        for e in f.graph.successors(cand) {
                            if f.graph.edge_instr(e).addr != prev_rip || e.to != VertexId::Exit {
                                continue;
                            }
                            let dest = &f.graph.vertices[&VertexId::Exit].state;
                            let bound = bind_fresh(dest, &frame.env, &m);
                            match post_holds(dest, &bound, &m) {
                                Ok(()) => exit_ok = true,
                                Err(e) => errs.push(e),
                            }
                        }
                    }
                    if !exit_ok {
                        violation!(Violation {
                            kind: ViolationKind::MissingEdge,
                            step: steps,
                            rip: prev_rip,
                            function: frame.entry,
                            detail: format!(
                                "no matching exit edge for ret: {}",
                                errs.join("; ")
                            ),
                            tail: tail.iter().cloned().collect(),
                        });
                    }
                    coverage.record_edge(EdgeKind::Ret);
                    frames.pop();
                    match frames.last_mut() {
                        None => {
                            debug_assert_eq!(m.rip, SENTINEL);
                            outcome!(TraceStop::Returned);
                        }
                        Some(caller) => {
                            let (call_cands, call_addr) =
                                caller.pending_call.take().expect("pending call");
                            let prev = call_cands;
                            let mut c2 = std::mem::replace(
                                caller,
                                Frame {
                                    entry: 0,
                                    env: Env::new(),
                                    candidates: Vec::new(),
                                    ret_addr: 0,
                                    entry_rsp: 0,
                                    saved: [0; 6],
                                    pending_call: None,
                                },
                            );
                            let r = self.advance(&mut c2, &prev, call_addr, &m, steps, &tail);
                            *caller = c2;
                            if let Err(v) = r {
                                violation!(v);
                            }
                        }
                    }
                }
                Mnemonic::Call => {
                    coverage.record_edge(EdgeKind::Call);
                    let target = m.rip;
                    if let Some(name) = self.binary.external_at(target) {
                        if TERMINATING_EXTERNALS.contains(&name) {
                            outcome!(TraceStop::Terminated);
                        }
                        // Benign System V stub: pop the return address,
                        // zero rax, resume — mirroring the emulator
                        // harness and the lifter's external contract.
                        let rsp = m.reg(Reg::Rsp);
                        let ra = m.mem.read(rsp, 8);
                        m.set_reg(RegRef::full(Reg::Rsp), rsp.wrapping_add(8));
                        m.set_reg(RegRef::full(Reg::Rax), 0);
                        m.rip = ra;
                        let frame = frames.last_mut().expect("frame");
                        let prev = frame.candidates.clone();
                        if let Err(v) = self.advance(frame, &prev, prev_rip, &m, steps, &tail) {
                            violation!(v);
                        }
                    } else {
                        // Internal call: open a callee frame. The
                        // caller's call edge is checked when the callee
                        // returns (it targets the return site).
                        let ra = m.mem.read(m.reg(Reg::Rsp), 8);
                        let caller = frames.last_mut().expect("frame");
                        caller.pending_call = Some((caller.candidates.clone(), prev_rip));
                        match self.enter_frame(target, &mut m, ra, steps, &tail) {
                            Ok(f) => frames.push(f),
                            Err(v) => violation!(v),
                        }
                    }
                }
                Mnemonic::Jcc(_) => {
                    let taken = m.rip != instr.next_addr();
                    coverage.record_edge(if taken { EdgeKind::Jcc } else { EdgeKind::FallThrough });
                    let frame = frames.last_mut().expect("frame");
                    let prev = frame.candidates.clone();
                    if let Err(v) = self.advance(frame, &prev, prev_rip, &m, steps, &tail) {
                        violation!(v);
                    }
                }
                Mnemonic::Jmp => {
                    let kind = match instr.operands.first() {
                        Some(Operand::Mem(_)) => EdgeKind::JumpTable,
                        _ => EdgeKind::FallThrough,
                    };
                    coverage.record_edge(kind);
                    // Cross-validate a refinement claim: the concrete
                    // target of a claimed-resolved indirect jump must
                    // be in the claimed set.
                    if let Some(targets) =
                        self.indirect_claims.as_ref().and_then(|c| c.get(&prev_rip))
                    {
                        indirect_checked += 1;
                        if !targets.contains(&m.rip) {
                            violation!(Violation {
                                kind: ViolationKind::IndirectContainment,
                                step: steps,
                                rip: prev_rip,
                                function: frame_entry,
                                detail: format!(
                                    "indirect jump landed at {:#x}, outside the {} claimed target(s)",
                                    m.rip,
                                    targets.len()
                                ),
                                tail: tail.iter().cloned().collect(),
                            });
                        }
                    }
                    let frame = frames.last_mut().expect("frame");
                    let prev = frame.candidates.clone();
                    if let Err(v) = self.advance(frame, &prev, prev_rip, &m, steps, &tail) {
                        violation!(v);
                    }
                }
                _ => {
                    coverage.record_edge(EdgeKind::FallThrough);
                    let frame = frames.last_mut().expect("frame");
                    let prev = frame.candidates.clone();
                    if let Err(v) = self.advance(frame, &prev, prev_rip, &m, steps, &tail) {
                        violation!(v);
                    }
                }
            }
        }
    }
}

/// The concrete start address of the memory write `instr` is about to
/// perform on `m`, using the *same* write-site predicate as the static
/// classifier ([`hgl_analysis::writes::write_region`]): an explicit
/// first-operand memory destination, or the implicit `[rsp - 8, 8]`
/// slot of `push`/`call`.
fn concrete_write_addr(m: &Machine, instr: &Instr) -> Option<u64> {
    if instr.mnemonic != Mnemonic::Lea {
        if let Some(Operand::Mem(mo)) = instr.operands.first() {
            if writes_first_operand(instr.mnemonic) {
                return Some(m.effective_addr(mo, instr.next_addr()));
            }
        }
    }
    if matches!(instr.mnemonic, Mnemonic::Push | Mnemonic::Call) {
        return Some(m.reg(Reg::Rsp).wrapping_sub(8));
    }
    None
}

/// Render the memory write `instr` is about to perform on `m`, for the
/// trace log ("mem[addr] <- value/size").
fn mem_write_note(m: &Machine, instr: &Instr) -> String {
    let writes_mem_dst = matches!(
        instr.mnemonic,
        Mnemonic::Mov
            | Mnemonic::Add
            | Mnemonic::Sub
            | Mnemonic::Xor
            | Mnemonic::And
            | Mnemonic::Or
            | Mnemonic::Shl
            | Mnemonic::Shr
            | Mnemonic::Sar
            | Mnemonic::Inc
            | Mnemonic::Dec
            | Mnemonic::Not
            | Mnemonic::Neg
    );
    match instr.operands.first() {
        Some(Operand::Mem(mo)) if writes_mem_dst => {
            let a = m.effective_addr(mo, instr.next_addr());
            format!("  mem[{a:#x}]<-{}B", mo.size.bytes())
        }
        _ if matches!(instr.mnemonic, Mnemonic::Push | Mnemonic::Call) => {
            let a = m.reg(Reg::Rsp).wrapping_sub(8);
            format!("  mem[{a:#x}]<-8B")
        }
        _ => String::new(),
    }
}
