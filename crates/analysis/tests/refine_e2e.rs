//! End-to-end analyze→re-lift refinement: masked jump tables the
//! lifter cannot bound inline (no `cmp` guard to mine) are bounded by
//! the strided-interval value-set analysis, their targets read out of
//! the read-only image, and the re-lift resolves them — column B
//! moving to column A, with the fixpoint converging within the round
//! bound. The lifter and the recovery refuse the same oversized
//! tables: both read `hgl_core::tau::MAX_JUMP_TABLE`.

use hgl_analysis::{recover_jumps, VsaResolver};
use hgl_asm::Asm;
use hgl_core::refine::IndirectResolver;
use hgl_core::tau::MAX_JUMP_TABLE;
use hgl_core::{Annotation, Lifter};
use hgl_corpus::gen::{GenOptions, ProgramGen};
use hgl_x86::{Cond, Instr, MemOperand, Mnemonic, Operand, Reg, Width};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

fn ins(m: Mnemonic, ops: Vec<Operand>, w: Width) -> Instr {
    Instr::new(m, ops, w)
}

fn reg32(r: Reg) -> Operand {
    Operand::reg(r, Width::B4)
}

/// A hand-built function with a single masked jump table of `n`
/// (power-of-two) cases, each case label exported so the test can
/// check the recovered target set exactly.
fn masked_table_binary(n: usize) -> hgl_elf::Binary {
    assert!(n.is_power_of_two());
    let mut asm = Asm::new();
    asm.label("f");
    asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), reg32(Reg::Rdi)], Width::B4));
    asm.ins(ins(
        Mnemonic::And,
        vec![reg32(Reg::Rax), Operand::Imm(n as i64 - 1)],
        Width::B4,
    ));
    let jmp = ins(
        Mnemonic::Jmp,
        vec![Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8))],
        Width::B8,
    );
    asm.ins_mem_label(jmp, 0, "table");
    let cases: Vec<String> = (0..n).map(|i| format!("case_{i}")).collect();
    for (i, c) in cases.iter().enumerate() {
        asm.label(c);
        asm.export(c, c);
        asm.ins(ins(
            Mnemonic::Mov,
            vec![reg32(Reg::Rax), Operand::Imm(20 + i as i64)],
            Width::B4,
        ));
        asm.jmp("join");
    }
    asm.label("join");
    asm.ret();
    let case_refs: Vec<&str> = cases.iter().map(String::as_str).collect();
    asm.jump_table("table", &case_refs);
    asm.entry("f");
    asm.assemble().expect("assembles")
}

/// A jump table of `slots` entries behind `cmp rax, slots-1; ja default`,
/// the shape of `scenarios.rs::jump_table_resolved` with a 64-bit
/// index (the value-set analysis refines a 32-bit compare only when
/// the register is already known to fit in 32 bits). Slot `i` points at
/// `case_{i % 4}`: the cap counts slots, not distinct targets.
fn bounded_table_binary(slots: usize) -> hgl_elf::Binary {
    let mut asm = Asm::new();
    asm.label("dispatch");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg64(Reg::Rax), Operand::reg64(Reg::Rdi)], Width::B8));
    asm.ins(ins(
        Mnemonic::Cmp,
        vec![Operand::reg64(Reg::Rax), Operand::Imm(slots as i64 - 1)],
        Width::B8,
    ));
    asm.jcc(Cond::A, "default");
    let jmp = ins(
        Mnemonic::Jmp,
        vec![Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8))],
        Width::B8,
    );
    asm.ins_mem_label(jmp, 0, "table");
    for i in 0..4 {
        asm.label(&format!("case_{i}"));
        asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), Operand::Imm(10 + i)], Width::B4));
        asm.ret();
    }
    asm.label("default");
    asm.ins(ins(Mnemonic::Xor, vec![reg32(Reg::Rax), reg32(Reg::Rax)], Width::B4));
    asm.ret();
    let cases: Vec<String> = (0..slots).map(|i| format!("case_{}", i % 4)).collect();
    let case_refs: Vec<&str> = cases.iter().map(String::as_str).collect();
    asm.jump_table("table", &case_refs);
    asm.entry("dispatch").assemble().expect("assembles")
}

/// A table of exactly `MAX_JUMP_TABLE` slots: the lifter resolves the
/// jump inline, and the value-set recovery bounds it too.
#[test]
fn jump_table_at_the_cap_resolves() {
    let bin = bounded_table_binary(MAX_JUMP_TABLE as usize);
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(lifted.is_lifted(), "reject: {:?}", lifted.reject_reason());
    let f = &lifted.functions[&bin.entry];
    assert_eq!(f.resolved_indirections, 1, "the jump table is resolved");
    assert!(f.annotations.is_empty(), "no unresolved indirections: {:?}", f.annotations);
    assert!(f.returns);

    let jmp = f
        .graph
        .instructions()
        .into_iter()
        .find(|(_, i)| i.mnemonic == Mnemonic::Jmp)
        .map(|(a, _)| a)
        .expect("the table jump has edges");
    let rec = recover_jumps(&bin, bin.entry, &f.graph, &[jmp]);
    assert!(rec.unbounded.is_empty(), "{:?}", rec.unbounded);
    assert_eq!(rec.resolved.get(&jmp).map(BTreeSet::len), Some(4), "four distinct cases");
}

/// One slot past the cap: the lifter annotates the jump, and the
/// value-set recovery refuses the same table, so `VsaResolver`
/// proposes no hint.
#[test]
fn jump_table_past_the_cap_stays_unresolved() {
    let bin = bounded_table_binary(MAX_JUMP_TABLE as usize + 1);
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(lifted.is_lifted(), "reject: {:?}", lifted.reject_reason());
    let f = &lifted.functions[&bin.entry];
    assert_eq!(f.resolved_indirections, 0);
    let jmp = match f.annotations[..] {
        [Annotation::UnresolvedJump { addr, .. }] => addr,
        _ => panic!("expected one unresolved jump: {:?}", f.annotations),
    };

    let rec = recover_jumps(&bin, bin.entry, &f.graph, &[jmp]);
    assert!(rec.resolved.is_empty(), "{:?}", rec.resolved);
    assert_eq!(rec.unbounded.len(), 1);
    let proposed = VsaResolver.resolve(&bin, &lifted, &BTreeMap::new());
    assert!(proposed.resolved.is_empty(), "no hint past the cap: {:?}", proposed.resolved);
}

#[test]
fn masked_table_resolves_exactly() {
    let bin = masked_table_binary(4);
    let mut lifter = Lifter::new(&bin);

    // Inline lift: the jump is column B, nothing resolved, and the
    // function never reaches its ret.
    let before = lifter.lift_entry(bin.entry);
    assert!(before.is_lifted(), "reject: {:?}", before.reject_reason());
    let (a0, b0, _) = before.indirection_counts();
    assert_eq!(a0, 0);
    assert!(b0 >= 1, "masked jump must be unresolved inline");
    assert!(!before.functions[&bin.entry].returns);

    // Refine: one VSA round bounds rax to [0, 3], reads the 4 table
    // slots, and the re-lift consumes the claim.
    let refined = lifter.lift_entry_refined(bin.entry, &VsaResolver, 4);
    assert!(refined.converged, "fixpoint must converge");
    assert!(refined.rounds >= 1 && refined.rounds <= 4);
    let (a1, b1, _) = refined.result.indirection_counts();
    assert_eq!(b1, 0, "column B moved to column A");
    assert!(a1 >= 1);
    assert!(refined.result.functions[&bin.entry].returns, "cases now reach ret");

    // The claim is exact: one jump address, targets = the case labels.
    assert_eq!(refined.hints.len(), 1);
    let targets = refined.hints.values().next().unwrap();
    let expected: BTreeSet<u64> = (0..4)
        .map(|i| {
            let name = format!("case_{i}");
            *bin.symbols
                .iter()
                .find(|(_, n)| **n == name)
                .map(|(a, _)| a)
                .unwrap_or_else(|| panic!("symbol {name} missing"))
        })
        .collect();
    assert_eq!(*targets, expected, "recovered targets are exactly the case labels");
}

#[test]
fn generated_masked_tables_refine_to_zero_unresolved() {
    for seed in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pg = ProgramGen::new();
        // Several segments: tables behind the first one are only
        // discovered after earlier rounds resolve it, exercising the
        // multi-round fixpoint.
        let opts = GenOptions {
            segments: 3,
            p_jump_table: 0.0,
            p_masked_table: 0.6,
            p_callback: 0.0,
            p_param_write: 0.0,
            p_wild_jump: 0.0,
            ..GenOptions::default()
        };
        let spec = pg.gen_function("mt", &mut rng, &opts);
        pg.asm.entry("mt");
        let bin = pg.asm.assemble().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let mut lifter = Lifter::new(&bin);

        let before = lifter.lift_entry(bin.entry);
        assert!(before.is_lifted(), "seed {seed}: reject: {:?}", before.reject_reason());
        let (_, b0, _) = before.indirection_counts();

        let refined = lifter.lift_entry_refined(bin.entry, &VsaResolver, 8);
        assert!(refined.converged, "seed {seed}: fixpoint must converge");
        let (a1, b1, _) = refined.result.indirection_counts();
        assert_eq!(b1, 0, "seed {seed}: every masked table resolved");
        if spec.masked_tables > 0 {
            assert!(b0 >= 1, "seed {seed}: tables must start unresolved");
            assert!(a1 >= 1, "seed {seed}: resolution must be counted");
            assert!(!refined.hints.is_empty(), "seed {seed}");
        }
        // Every claimed target is executable code.
        for (&addr, targets) in &refined.hints {
            assert!(bin.is_code(addr), "seed {seed}: claim at non-code addr");
            for &t in targets {
                assert!(bin.is_code(t), "seed {seed}: non-code target {t:#x}");
            }
        }
    }
}

#[test]
fn refinement_is_reproducible_from_final_config() {
    // After `lift_entry_refined`, the final hints stay in the lifter's
    // config: a plain re-lift reproduces the refined result (this is
    // what makes the refinement cache- and fingerprint-sound).
    let bin = masked_table_binary(8);
    let mut lifter = Lifter::new(&bin);
    let refined = lifter.lift_entry_refined(bin.entry, &VsaResolver, 4);
    assert!(refined.converged);
    let replay = lifter.lift_entry(bin.entry);
    let (ra, rb, _) = replay.indirection_counts();
    let (fa, fb, _) = refined.result.indirection_counts();
    assert_eq!((ra, rb), (fa, fb));
    assert_eq!(
        replay.functions[&bin.entry].graph.vertices.len(),
        refined.result.functions[&bin.entry].graph.vertices.len()
    );
}
