//! Jump-table recovery: bound unresolved indirect jumps with the
//! value-set analysis and read their concrete targets out of the ELF
//! image.
//!
//! For every [`Annotation::UnresolvedJump`] in a cleanly lifted
//! function whose instruction is a `jmp [base + idx*scale + disp]`,
//! the recovery runs the [`VsaPass`] fixpoint, takes the abstract
//! value of the index register at the jump, and — when it is a
//! bounded [`StridedInterval`] — enumerates the candidate table slots,
//! reads each 8-byte entry from *read-only* image memory, and checks
//! the target lands in executable code. Only a fully successful
//! enumeration produces a claim; any failure (unbounded index,
//! writable or unmapped table memory, non-code target) leaves the
//! jump unresolved and is reported as a
//! [`vsa-unbounded-indirect`](crate::diag::Rule::VsaUnboundedIndirect)
//! lint instead.
//!
//! [`VsaResolver`] packages this as an [`IndirectResolver`] for the
//! analyze→re-lift refinement loop in `hgl-core`. Besides resolving
//! fresh unresolved jumps it *re-validates* every already-hinted jump
//! on each round's grown graph: a bound that grew re-proposes the
//! larger set, and a claim that can no longer be proven is demoted so
//! the loop withdraws the hint (the jump goes back to unresolved).

use crate::diag::{Diag, Rule, Severity};
use crate::engine::{fixpoint, MAX_ITERATIONS};
use crate::vsa::{StridedInterval, VsaEnv, VsaPass};
use hgl_core::diag::Annotation;
use hgl_core::graph::HoareGraph;
use hgl_core::lift::LiftResult;
use crate::engine::Lattice;
use hgl_core::refine::{IndirectResolver, Resolution};
use hgl_core::tau::MAX_JUMP_TABLE;
use hgl_elf::Binary;
use hgl_x86::{decode, Mnemonic, Operand, Width};
use std::collections::{BTreeMap, BTreeSet};

/// An indirect jump the recovery could not bound, and why.
#[derive(Debug, Clone)]
pub struct UnboundedIndirect {
    /// Address of the indirect jump.
    pub addr: u64,
    /// Human-readable reason the recovery gave up.
    pub reason: String,
}

/// The outcome of jump-table recovery over one function.
#[derive(Debug, Clone, Default)]
pub struct JumpTableRecovery {
    /// Proven target sets, keyed by jump address. Each set is complete
    /// for the paths the Hoare Graph covers.
    pub resolved: BTreeMap<u64, BTreeSet<u64>>,
    /// Jumps left unbounded, with reasons.
    pub unbounded: Vec<UnboundedIndirect>,
}

impl JumpTableRecovery {
    /// Render the unbounded jumps as `vsa-unbounded-indirect` lints.
    pub fn diags(&self, function: u64) -> Vec<Diag> {
        self.unbounded
            .iter()
            .map(|u| Diag {
                function,
                severity: Severity::Warning,
                rule: Rule::VsaUnboundedIndirect,
                node: None,
                edge: None,
                detail: format!("indirect jump at {:#x}: {}", u.addr, u.reason),
            })
            .collect()
    }
}

/// Run VSA over `graph` and try to resolve every `UnresolvedJump`
/// annotation into a concrete target set read from the binary image.
///
/// A table of more than [`MAX_JUMP_TABLE`] slots is left unbounded:
/// the lifter's own enumeration refuses the same tables. If the
/// fixpoint does not converge within its iteration cap, its facts are
/// an under-iteration and may miss index values, so no claim is made at
/// all.
pub fn recover_jump_tables(
    binary: &Binary,
    entry: u64,
    graph: &HoareGraph,
    annotations: &[Annotation],
) -> JumpTableRecovery {
    let jumps: Vec<u64> = annotations
        .iter()
        .filter_map(|a| match a {
            Annotation::UnresolvedJump { addr, .. } => Some(*addr),
            _ => None,
        })
        .collect();
    recover_jumps(binary, entry, graph, &jumps)
}

/// [`recover_jump_tables`] over an explicit list of jump addresses —
/// the refinement loop uses this to *re-validate* already-hinted jumps
/// (which no longer carry an `UnresolvedJump` annotation) on the grown
/// graph each round, alongside the still-unresolved ones.
pub fn recover_jumps(
    binary: &Binary,
    entry: u64,
    graph: &HoareGraph,
    jumps: &[u64],
) -> JumpTableRecovery {
    let mut out = JumpTableRecovery::default();
    if jumps.is_empty() {
        return out;
    }
    let sol = fixpoint(graph, &VsaPass { graph, entry }, MAX_ITERATIONS);
    for &addr in jumps {
        match resolve_one(binary, graph, &sol.facts, sol.converged, addr) {
            Ok(targets) => {
                out.resolved.insert(addr, targets);
            }
            Err(reason) => out.unbounded.push(UnboundedIndirect { addr, reason }),
        }
    }
    out
}

fn resolve_one(
    binary: &Binary,
    graph: &HoareGraph,
    facts: &BTreeMap<hgl_core::graph::VertexId, VsaEnv>,
    converged: bool,
    addr: u64,
) -> Result<BTreeSet<u64>, String> {
    if !converged {
        return Err("value-set fixpoint did not converge".into());
    }
    let window = binary.fetch_window(addr).ok_or("jump address outside text")?;
    let instr = decode(window, addr).map_err(|e| format!("undecodable: {e}"))?;
    if instr.mnemonic != Mnemonic::Jmp {
        return Err(format!("not an indirect jmp: {instr}"));
    }
    let Some(Operand::Mem(m)) = instr.operands.first() else {
        return Err("jump target is not a memory operand".into());
    };
    if m.rip_relative {
        return Err("rip-relative table operand".into());
    }
    if m.size != Width::B8 {
        return Err(format!("{}-byte table entries (only 8 supported)", m.size.bytes()));
    }
    let Some(idx) = m.index else {
        return Err("no index register in table operand".into());
    };
    // The abstract state at the jump: join across all vertex variants
    // at this address (a concrete execution may be in any of them).
    let mut env = VsaEnv::bottom();
    for id in graph.vertices_at(addr) {
        if let Some(f) = facts.get(&id) {
            env = env.join(f);
        }
    }
    if !env.reachable {
        return Err("no dataflow fact at the jump".into());
    }
    let idx_iv = env.reg(idx);
    let base_iv = match m.base {
        None => StridedInterval::point(0),
        Some(b) => env.reg(b),
    };
    let slots = base_iv.add(&idx_iv.mul_const(m.scale as u64)).add_signed(m.disp);
    let Some(addrs) = slots.enumerate(MAX_JUMP_TABLE) else {
        return Err(format!(
            "index {idx} unbounded at the jump (idx {idx_iv}, slots {slots})",
            idx_iv = idx_iv,
            slots = slots
        ));
    };
    if addrs.is_empty() {
        return Err("empty slot enumeration".into());
    }
    let mut targets = BTreeSet::new();
    for a in addrs {
        let t = binary
            .read_int_ro(a, 8)
            .ok_or_else(|| format!("table slot {a:#x} is not in read-only image memory"))?;
        if !binary.is_code(t) {
            return Err(format!("table entry {t:#x} (slot {a:#x}) is not code"));
        }
        targets.insert(t);
    }
    Ok(targets)
}

/// The [`IndirectResolver`] the refinement loop uses: jump-table
/// recovery over every cleanly lifted function that still carries
/// `UnresolvedJump` annotations.
#[derive(Debug, Clone, Copy)]
pub struct VsaResolver;

impl IndirectResolver for VsaResolver {
    fn resolve(
        &self,
        binary: &Binary,
        lift: &LiftResult,
        hints: &BTreeMap<u64, BTreeSet<u64>>,
    ) -> Resolution {
        let mut out = Resolution::default();
        for (&entry, f) in &lift.functions {
            if !f.is_lifted() {
                continue;
            }
            // The jumps to (re-)analyse on this function's graph: the
            // still-unresolved ones, plus every hinted jump whose
            // instruction the graph contains — a hinted jump carries
            // no annotation anymore, yet paths its own targets opened
            // may feed index values past the originally proven bound,
            // so its claim must be re-proven on the *current* graph.
            let mut jumps: BTreeSet<u64> = f
                .annotations
                .iter()
                .filter_map(|a| match a {
                    Annotation::UnresolvedJump { addr, .. } => Some(*addr),
                    _ => None,
                })
                .collect();
            let hinted_here: BTreeSet<u64> = hints
                .keys()
                .copied()
                .filter(|&a| !f.graph.vertices_at(a).is_empty())
                .collect();
            jumps.extend(&hinted_here);
            if jumps.is_empty() {
                continue;
            }
            let jumps: Vec<u64> = jumps.into_iter().collect();
            let rec = recover_jumps(binary, entry, &f.graph, &jumps);
            for (addr, targets) in rec.resolved {
                out.resolved.entry(addr).or_insert_with(BTreeSet::new).extend(targets);
            }
            for u in rec.unbounded {
                if hinted_here.contains(&u.addr) {
                    out.demoted.insert(u.addr);
                }
            }
        }
        // A claim that failed re-validation in *any* context is
        // withdrawn everywhere: a success elsewhere cannot vouch for
        // the paths of the function that refuted it.
        for addr in out.demoted.clone() {
            out.resolved.remove(&addr);
        }
        out
    }
}
