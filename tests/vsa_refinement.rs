//! Tier-1 acceptance for the value-set refinement loop: a campaign
//! over switch-statement-shaped programs (masked jump tables the
//! inline lift cannot bound) with the analyze→re-lift refinement on,
//! every refinement claim cross-validated on every trace — plus the
//! refutation direction: a deliberately corrupted claim must be caught
//! as an `indirect-containment` violation.

use hoare_lift::analysis::VsaResolver;
use hoare_lift::asm::Asm;
use hoare_lift::core::{Budget, IndirectResolver, LiftResult, Lifter, Resolution};
use hoare_lift::elf::Binary;
use hoare_lift::oracle::{
    run_campaign, CampaignConfig, Coverage, EntryState, TraceOracle, TraceStop, ViolationKind,
};
use hoare_lift::x86::{Instr, MemOperand, Mnemonic, Operand, Reg, Width};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// The refinement campaign: programs heavy in masked jump tables, 50
/// programs x 4 entries = 200 traces, the refinement resolving the
/// tables before tracing, and every resolved jump's concrete target
/// checked for containment in the claimed set. Zero violations, and
/// the claims must actually be exercised — a campaign that checks no
/// indirect jump proves nothing.
#[test]
fn refinement_campaign_has_zero_containment_violations() {
    let cfg = CampaignConfig {
        programs: 50,
        entries_per_program: 4,
        refine_indirect: true,
        budget: Budget::from_timeout(Duration::from_secs(240)),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg);
    if let Some(f) = &report.failure {
        panic!("refinement violation (master_seed={:#x}):\n{f}", cfg.master_seed);
    }
    assert!(!report.budget_exhausted, "campaign hit its budget:\n{report}");
    assert!(report.traces_run >= 200, "under 200 traces run:\n{report}");
    assert!(
        report.indirect_checked > 0,
        "no refinement claim was ever exercised dynamically:\n{report}"
    );
    assert!(
        report.indirections_resolved > 0,
        "refinement resolved nothing (column A contribution is zero):\n{report}"
    );
}

/// A hand-built function with one masked jump table of `n` cases.
fn masked_table_binary(n: usize) -> hoare_lift::elf::Binary {
    let ins = |m: Mnemonic, ops: Vec<Operand>, w: Width| Instr::new(m, ops, w);
    let reg32 = |r: Reg| Operand::reg(r, Width::B4);
    let mut asm = Asm::new();
    asm.label("f");
    asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), reg32(Reg::Rdi)], Width::B4));
    asm.ins(ins(Mnemonic::And, vec![reg32(Reg::Rax), Operand::Imm(n as i64 - 1)], Width::B4));
    let jmp = ins(
        Mnemonic::Jmp,
        vec![Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8))],
        Width::B8,
    );
    asm.ins_mem_label(jmp, 0, "table");
    let cases: Vec<String> = (0..n).map(|i| format!("case_{i}")).collect();
    for (i, c) in cases.iter().enumerate() {
        asm.label(c);
        asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), Operand::Imm(20 + i as i64)], Width::B4));
        asm.jmp("join");
    }
    asm.label("join");
    asm.ret();
    let case_refs: Vec<&str> = cases.iter().map(String::as_str).collect();
    asm.jump_table("table", &case_refs);
    asm.entry("f");
    asm.assemble().expect("assembles")
}

/// Correct claims pass: with the refined lift and its own claims, the
/// trace runs through the (formerly unresolved) jump to the ret, and
/// the claim check fires without a violation.
#[test]
fn correct_claims_are_confirmed_by_traces() {
    let bin = masked_table_binary(4);
    let mut lifter = Lifter::new(&bin);
    let refined = lifter.lift_entry_refined(bin.entry, &VsaResolver, 4);
    assert!(refined.converged);
    assert!(!refined.hints.is_empty());

    let oracle = TraceOracle::new(&bin, &refined.result).with_indirect_claims(refined.hints.clone());
    let mut coverage = Coverage::default();
    for rdi in [0u64, 1, 2, 3, 7, 0x1234] {
        let es = EntryState { rdi, scratch: [0; 6] };
        let outcome = oracle.check_trace(&es, &mut coverage);
        assert!(outcome.violation.is_none(), "rdi={rdi}: {:?}", outcome.violation);
        assert!(matches!(outcome.stop, TraceStop::Returned), "rdi={rdi}: {:?}", outcome.stop);
        assert!(outcome.indirect_checked >= 1, "rdi={rdi}: claim never checked");
    }
}

/// A dispatch whose round-1 index bound is an *under*-approximation:
/// the masked entry path bounds `rax` to `[0, 3]`, but `case_3` —
/// reachable only once the jump is hinted — re-enters the dispatch
/// with `rax = 5`, so the true claim needs the two extra table slots.
///
/// ```text
/// f:      mov eax, edi; and eax, 3
/// d:      jmp [table + rax*8]
/// case_0..case_2: mov eax, K; jmp join
/// case_3: mov eax, 5; jmp d        ; out-of-mask re-entry
/// join:   ret
/// table:  [case_0, case_1, case_2, case_3, join, join]
/// ```
fn reentrant_dispatch_binary() -> (Binary, u64) {
    let ins = |m: Mnemonic, ops: Vec<Operand>, w: Width| Instr::new(m, ops, w);
    let reg32 = |r: Reg| Operand::reg(r, Width::B4);
    let mut asm = Asm::new();
    asm.label("f");
    asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), reg32(Reg::Rdi)], Width::B4));
    asm.ins(ins(Mnemonic::And, vec![reg32(Reg::Rax), Operand::Imm(3)], Width::B4));
    asm.label("d");
    let jmp = ins(
        Mnemonic::Jmp,
        vec![Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8))],
        Width::B8,
    );
    asm.ins_mem_label(jmp, 0, "table");
    for i in 0..3 {
        asm.label(&format!("case_{i}"));
        asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), Operand::Imm(20 + i)], Width::B4));
        asm.jmp("join");
    }
    asm.label("case_3");
    asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), Operand::Imm(5)], Width::B4));
    asm.jmp("d");
    asm.label("join");
    asm.export("join", "join");
    asm.ret();
    asm.jump_table("table", &["case_0", "case_1", "case_2", "case_3", "join", "join"]);
    asm.entry("f");
    let bin = asm.assemble().expect("assembles");
    let join = *bin
        .symbols
        .iter()
        .find(|(_, n)| **n == "join")
        .map(|(a, _)| a)
        .expect("join exported");
    (bin, join)
}

/// Hinted jumps must be re-validated on every round's grown graph: the
/// paths a hint opens can feed the same dispatch index values beyond
/// the originally proven bound. The refinement must grow the claim to
/// the full 6-slot table (round 1 alone would stop at 4), and the
/// grown claim must survive the dynamic containment check on the
/// re-entering input.
#[test]
fn hinted_jump_bounds_are_revalidated_on_grown_graph() {
    let (bin, join) = reentrant_dispatch_binary();
    let mut lifter = Lifter::new(&bin);
    let refined = lifter.lift_entry_refined(bin.entry, &VsaResolver, 8);
    assert!(refined.converged, "fixpoint must converge");
    assert!(refined.demoted.is_empty(), "nothing should be demoted: {:?}", refined.demoted);
    assert_eq!(refined.hints.len(), 1);
    let targets = refined.hints.values().next().unwrap();
    assert!(
        targets.contains(&join),
        "re-validation must widen the claim to the re-entry target {join:#x}: {targets:x?}"
    );
    assert_eq!(targets.len(), 5, "4 cases + join: {targets:x?}");
    let (_, b, _) = refined.result.indirection_counts();
    assert_eq!(b, 0, "dispatch stays resolved");

    // rdi = 3 executes the dispatch twice, the second time with
    // rax = 5 — outside the round-1 bound. The final claim contains
    // it, so the trace-containment check passes.
    let oracle = TraceOracle::new(&bin, &refined.result).with_indirect_claims(refined.hints.clone());
    let mut coverage = Coverage::default();
    let es = EntryState { rdi: 3, scratch: [0; 6] };
    let outcome = oracle.check_trace(&es, &mut coverage);
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(matches!(outcome.stop, TraceStop::Returned), "{:?}", outcome.stop);
    assert!(outcome.indirect_checked >= 2, "dispatch must be checked on both passes");
}

/// A resolver that proposes an under-approximate claim, then (like a
/// real re-validation discovering the bound no longer holds) demotes
/// it as soon as it sees the jump hinted. The loop must withdraw the
/// hint, poison the address against re-admission — a propose→demote
/// cycle would otherwise never converge — and report the jump
/// unresolved in the final result.
struct FlipFlopResolver {
    jump: u64,
    target: u64,
}

impl IndirectResolver for FlipFlopResolver {
    fn resolve(
        &self,
        _binary: &Binary,
        _lift: &LiftResult,
        hints: &BTreeMap<u64, BTreeSet<u64>>,
    ) -> Resolution {
        let mut r = Resolution::default();
        if hints.contains_key(&self.jump) {
            r.demoted.insert(self.jump);
        } else {
            r.resolved.insert(self.jump, [self.target].into_iter().collect());
        }
        r
    }
}

#[test]
fn demoted_hints_are_withdrawn_and_not_readmitted() {
    let bin = masked_table_binary(4);
    let mut lifter = Lifter::new(&bin);

    // Fish the real jump address and one genuine target out of a
    // normal resolve pass, so the scripted hint is one the lifter
    // accepts.
    let base = lifter.lift_entry(bin.entry);
    let (_, b0, _) = base.indirection_counts();
    assert!(b0 >= 1);
    let seed = VsaResolver.resolve(&bin, &base, &BTreeMap::new());
    let (&jump, targets) = seed.resolved.iter().next().expect("one resolvable jump");
    let &target = targets.iter().next().expect("targets");

    let resolver = FlipFlopResolver { jump, target };
    let refined = lifter.lift_entry_refined(bin.entry, &resolver, 8);
    // Round 1 proposes, round 2 demotes, round 3 sees the poisoned
    // re-proposal filtered out and converges.
    assert!(refined.converged, "poisoning must force convergence");
    assert_eq!(refined.rounds, 3);
    assert!(refined.hints.is_empty(), "withdrawn hint must not be reported: {:?}", refined.hints);
    assert_eq!(refined.demoted, [jump].into_iter().collect::<BTreeSet<u64>>());
    let (_, b1, _) = refined.result.indirection_counts();
    assert!(b1 >= 1, "demoted jump must be reported unresolved again");

    // The config holds the (empty) final hint set: a plain re-lift
    // reproduces the returned result.
    let replay = lifter.lift_entry(bin.entry);
    let (ra, rb, _) = replay.indirection_counts();
    let (fa, fb, _) = refined.result.indirection_counts();
    assert_eq!((ra, rb), (fa, fb));
}

/// The refutation channel: corrupt the claim at the jump (drop the
/// real target of the traced input, keep only wrong-but-plausible
/// code addresses) and the oracle must report `indirect-containment`.
#[test]
fn corrupted_claims_are_refuted() {
    let bin = masked_table_binary(4);
    let mut lifter = Lifter::new(&bin);
    let refined = lifter.lift_entry_refined(bin.entry, &VsaResolver, 4);
    assert!(refined.converged);
    let (&jmp_addr, targets) = refined.hints.iter().next().expect("one claim");

    // rdi = 0 lands on the smallest target; claim only the others.
    let &real = targets.iter().next().expect("targets");
    let corrupted: BTreeSet<u64> = targets.iter().copied().filter(|&t| t != real).collect();
    assert!(!corrupted.is_empty());
    let claims = [(jmp_addr, corrupted)].into_iter().collect();

    let oracle = TraceOracle::new(&bin, &refined.result).with_indirect_claims(claims);
    let mut coverage = Coverage::default();
    // The first case label is the lowest code address of the targets,
    // and rdi = 0 selects table slot 0, which points at it.
    let es = EntryState { rdi: 0, scratch: [0; 6] };
    let outcome = oracle.check_trace(&es, &mut coverage);
    let v = outcome.violation.expect("corrupted claim must be refuted");
    assert_eq!(v.kind, ViolationKind::IndirectContainment, "{v}");
    assert_eq!(v.rip, jmp_addr);
}
