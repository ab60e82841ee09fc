//! Executable validation of lifted Hoare triples.
//!
//! For each edge `{P} instr {Q₁ ∨ …}` of the Hoare Graph, we repeatedly
//!
//! 1. draw a random symbol environment and concrete machine state
//!    satisfying `P` (registers, flags, memory contents, clauses and
//!    the memory model's separation structure),
//! 2. execute the instruction on the *independent* `hgl-emu`
//!    semantics, and
//! 3. check that the resulting machine satisfies some destination
//!    invariant `Qᵢ` — matching fresh symbols introduced by the lifter
//!    against the values the machine actually produced.
//!
//! The environment drawing and containment checking live in
//! [`crate::checker`], shared with the whole-trace oracle.
//!
//! Call edges are *assumed* rather than checked: their post-state
//! encodes the System V external-call contract, which the paper also
//! axiomatises rather than proves (§1). A sample failure is a genuine
//! soundness counterexample of the lifter.

use crate::checker::{build_machine, draw_env, post_holds};
use hgl_core::lift::LiftResult;
use hgl_core::VertexId;
use hgl_elf::Binary;
use hgl_expr::Sym;
use hgl_x86::Mnemonic;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Validator configuration.
#[derive(Debug, Clone)]
pub struct ValidateConfig {
    /// Samples drawn per edge group.
    pub samples_per_edge: usize,
    /// Rejection-sampling attempts per sample.
    pub sample_attempts: usize,
    /// RNG seed (validation is deterministic given the seed).
    pub seed: u64,
}

impl Default for ValidateConfig {
    fn default() -> ValidateConfig {
        ValidateConfig { samples_per_edge: 16, sample_attempts: 64, seed: 0x5eed }
    }
}

/// A counterexample: a sample satisfying the precondition whose
/// post-state matched no destination invariant.
#[derive(Debug, Clone)]
pub struct EdgeFailure {
    /// Function entry.
    pub function: u64,
    /// Source vertex.
    pub from: VertexId,
    /// The instruction.
    pub instr: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Aggregate validation outcome.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Edge groups in the graph (one per `(from, instr)` pair).
    pub total: usize,
    /// Groups validated by sampling.
    pub checked: usize,
    /// Call edges covered by the external-contract axiom.
    pub assumed: usize,
    /// Groups where no satisfying concrete state could be constructed
    /// (vacuous or over-constrained preconditions).
    pub vacuous: usize,
    /// Groups at instruction addresses carrying an unsoundness
    /// annotation — outside the paper's guarantee, so not checked.
    pub annotated: usize,
    /// Total samples that passed.
    pub samples_passed: usize,
    /// Counterexamples.
    pub failed: Vec<EdgeFailure>,
}

impl ValidationReport {
    /// True when no counterexamples were found.
    pub fn all_proven(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Validate every edge of a lift result against the concrete emulator.
pub fn validate_lift(binary: &Binary, result: &LiftResult, config: &ValidateConfig) -> ValidationReport {
    let mut report = ValidationReport::default();
    let mut rng = SmallRng::seed_from_u64(config.seed);

    for (entry, f) in &result.functions {
        // Group edges by source: all of them are labelled by the
        // instruction at its address.
        let mut groups: BTreeMap<VertexId, Vec<usize>> = BTreeMap::new();
        for (i, e) in f.graph.edges.iter().enumerate() {
            groups.entry(e.from).or_default().push(i);
        }
        for (from, edge_indices) in groups {
            report.total += 1;
            let instr = f.graph.edge_instr(&f.graph.edges[edge_indices[0]]);
            if matches!(instr.mnemonic, Mnemonic::Call | Mnemonic::Syscall | Mnemonic::Cpuid | Mnemonic::Rdtsc) {
                // External contract / nondeterministic instructions:
                // axiomatized, not sampled.
                report.assumed += 1;
                continue;
            }
            if f.annotations.iter().any(|a| a.addr() == instr.addr) {
                // The paper's guarantee covers *unannotated* output
                // only (§1); edges at annotated instructions document
                // partially explored behaviour.
                report.annotated += 1;
                continue;
            }
            let pre = &f.graph.vertices[&from].state;
            let mut produced = 0;
            let mut failure: Option<String> = None;
            'sampling: for _ in 0..config.samples_per_edge {
                // Rejection sampling of a satisfying pre-state.
                let mut found = None;
                for _ in 0..config.sample_attempts {
                    let env = draw_env(pre, &mut rng, binary);
                    let lookup = |s: Sym| env.get(s);
                    let Some(machine) = build_machine(pre, &env, binary, instr.addr, &mut rng) else {
                        continue;
                    };
                    // Precondition must hold.
                    let mem_snapshot = machine.mem.clone();
                    let oracle = {
                        let snap = std::cell::RefCell::new(mem_snapshot.clone());
                        move |a: u64, sz: u8| -> Option<u64> { Some(snap.borrow_mut().read(a, sz)) }
                    };
                    if pre.pred.clauses_hold(&lookup, &oracle) != Some(true) {
                        continue;
                    }
                    if pre.model.holds_in(&lookup) == Some(false) {
                        continue;
                    }
                    found = Some((env, machine));
                    break;
                }
                let Some((env, mut machine)) = found else {
                    continue; // could not build a sample this round
                };
                // Step the independent semantics.
                match machine.exec(&instr.clone()) {
                    Ok(_) => {}
                    Err(hgl_emu::EmuError::DivideError) => continue, // faulting path: out of HG scope
                    Err(e) => {
                        failure = Some(format!("emulator fault: {e}"));
                        break 'sampling;
                    }
                }
                produced += 1;
                // Some destination must match.
                let mut errs = Vec::new();
                let mut matched = false;
                for &ei in &edge_indices {
                    let edge = &f.graph.edges[ei];
                    let dest = &f.graph.vertices[&edge.to].state;
                    let rip_ok = match edge.to {
                        VertexId::At(a, _) => machine.rip == a,
                        VertexId::Exit => machine.rip == env.get(Sym::RetSym(*entry)),
                    };
                    if !rip_ok {
                        errs.push(format!("{}: rip {:#x} differs", edge.to, machine.rip));
                        continue;
                    }
                    match post_holds(dest, &env, &machine) {
                        Ok(()) => {
                            matched = true;
                            break;
                        }
                        Err(e) => errs.push(format!("{}: {e}", edge.to)),
                    }
                }
                if !matched {
                    failure = Some(format!(
                        "no destination matched (rip {:#x}): {}",
                        machine.rip,
                        errs.join("; ")
                    ));
                    break 'sampling;
                }
                report.samples_passed += 1;
            }
            match failure {
                Some(detail) => report.failed.push(EdgeFailure {
                    function: *entry,
                    from,
                    instr: instr.to_string(),
                    detail,
                }),
                None if produced == 0 => report.vacuous += 1,
                None => report.checked += 1,
            }
        }
    }
    report
}
