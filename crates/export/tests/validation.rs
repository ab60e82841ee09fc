//! Step-2 validation over real lifted binaries: every Hoare triple the
//! lifter emits must survive randomized concrete testing against the
//! independent emulator semantics, and the Isabelle export must be
//! structurally complete (one lemma per edge group, one definition per
//! vertex).

use hgl_asm::Asm;
use hgl_core::Lifter;
use hgl_elf::Binary;
use hgl_export::{export_theory, validate_lift, ValidateConfig};
use hgl_x86::{Cond, Instr, MemOperand, Mnemonic, Operand, Reg, Width};

fn ins(m: Mnemonic, ops: Vec<Operand>, w: Width) -> Instr {
    Instr::new(m, ops, w)
}

fn mem(base: Reg, disp: i64, size: Width) -> Operand {
    Operand::Mem(MemOperand::base_disp(base, disp, size))
}

fn validate_clean(bin: &Binary, what: &str) -> hgl_export::ValidationReport {
    let lifted = Lifter::new(bin).lift_entry(bin.entry);
    assert!(lifted.is_lifted(), "{what}: lift rejected: {:?}", lifted.reject_reason());
    let report = validate_lift(bin, &lifted, &ValidateConfig::default());
    assert!(
        report.all_proven(),
        "{what}: counterexamples found:\n{}",
        report
            .failed
            .iter()
            .map(|f| format!("  {} @{}: {} — {}", f.function, f.from, f.instr, f.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.checked > 0, "{what}: nothing was actually checked");
    report
}

#[test]
fn frame_function_validates() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.push(Reg::Rbp);
    asm.mov(Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp));
    asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rsp), Operand::Imm(0x20)], Width::B8));
    asm.ins(ins(Mnemonic::Mov, vec![mem(Reg::Rbp, -8, Width::B8), Operand::Imm(7)], Width::B8));
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg64(Reg::Rax), mem(Reg::Rbp, -8, Width::B8)], Width::B8));
    asm.ins(ins(Mnemonic::Leave, vec![], Width::B8));
    asm.ret();
    let bin = asm.entry("main").assemble().expect("assembles");
    let report = validate_clean(&bin, "frame function");
    assert_eq!(report.assumed, 0);
}

#[test]
fn arithmetic_and_flags_validate() {
    let mut asm = Asm::new();
    asm.label("f");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rdi, Width::B4)], Width::B4));
    asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rax), Operand::Imm(5)], Width::B8));
    asm.ins(ins(Mnemonic::Shl, vec![Operand::reg64(Reg::Rax), Operand::Imm(3)], Width::B8));
    asm.ins(ins(Mnemonic::Xor, vec![Operand::reg64(Reg::Rax), Operand::reg64(Reg::Rdi)], Width::B8));
    asm.ins(ins(Mnemonic::Cmp, vec![Operand::reg64(Reg::Rax), Operand::Imm(100)], Width::B8));
    asm.jcc(Cond::B, "small");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(1)], Width::B4));
    asm.ret();
    asm.label("small");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(2)], Width::B4));
    asm.ret();
    let bin = asm.entry("f").assemble().expect("assembles");
    validate_clean(&bin, "arithmetic/flags");
}

#[test]
fn jump_table_validates() {
    let mut asm = Asm::new();
    asm.label("dispatch");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rdi, Width::B4)], Width::B4));
    asm.ins(ins(Mnemonic::Cmp, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(2)], Width::B4));
    asm.jcc(Cond::A, "default");
    let jmp_tbl = ins(
        Mnemonic::Jmp,
        vec![Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8))],
        Width::B8,
    );
    asm.ins_mem_label(jmp_tbl, 0, "table");
    asm.label("case0");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(10)], Width::B4));
    asm.ret();
    asm.label("case1");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(11)], Width::B4));
    asm.ret();
    asm.label("case2");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(12)], Width::B4));
    asm.ret();
    asm.label("default");
    asm.ins(ins(Mnemonic::Xor, vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rax, Width::B4)], Width::B4));
    asm.ret();
    asm.jump_table("table", &["case0", "case1", "case2"]);
    let bin = asm.entry("dispatch").assemble().expect("assembles");
    validate_clean(&bin, "jump table");
}

/// The weird-edge binary from the §2 example: validation must confirm
/// both the intended and the weird control flow.
#[test]
fn weird_edge_validates() {
    validate_clean(&hgl_corpus::failures::weird_edge(), "weird edge");
}

#[test]
fn external_call_edges_are_assumed() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.call_ext("puts");
    asm.ret();
    let bin = asm.entry("main").assemble().expect("assembles");
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(lifted.is_lifted());
    let report = validate_lift(&bin, &lifted, &ValidateConfig::default());
    assert!(report.all_proven());
    assert_eq!(report.assumed, 1, "the call edge is axiomatized");
}

#[test]
fn theory_export_structure() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.push(Reg::Rbp);
    asm.ins(ins(Mnemonic::Mov, vec![mem(Reg::Rdi, 0, Width::B8), Operand::Imm(3)], Width::B8));
    asm.pop(Reg::Rbp);
    asm.ret();
    let bin = asm.entry("main").assemble().expect("assembles");
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(lifted.is_lifted());
    let thy = export_theory(&lifted, "demo");

    assert!(thy.starts_with("theory demo"), "theory header");
    assert!(thy.trim_end().ends_with("end"), "theory footer");
    let f = lifted.functions.values().next().expect("one function");
    // One definition per vertex.
    let defs = thy.matches("definition P_").count();
    assert_eq!(defs, f.graph.vertices.len());
    // One lemma per edge.
    let lemmas = hgl_export::isabelle::lemma_count(&thy);
    assert_eq!(lemmas, f.graph.edges.len());
    // The caller-pointer assumption is exported as a named axiom.
    assert!(thy.contains("axiomatization where assume_"), "assumptions exported:\n{thy}");
    // Invariants mention the return-address slot.
    assert!(thy.contains("mem_read"), "memory facts exported");
}

#[test]
fn string_ops_validate() {
    let mut asm = Asm::new();
    asm.label("f");
    // Concrete-extent rep stosq through a caller pointer.
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rcx, Width::B4), Operand::Imm(4)], Width::B4));
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(0)], Width::B4));
    let mut stos = ins(Mnemonic::Stos, vec![], Width::B8);
    stos.rep = Some(hgl_x86::RepPrefix::Rep);
    asm.ins(stos);
    asm.ret();
    let bin = asm.entry("f").assemble().expect("assembles");
    validate_clean(&bin, "rep stosq");
}

#[test]
fn validation_is_deterministic() {
    let mut asm = Asm::new();
    asm.label("f");
    asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rax), Operand::reg64(Reg::Rdi)], Width::B8));
    asm.ret();
    let bin = asm.entry("f").assemble().expect("assembles");
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    let r1 = validate_lift(&bin, &lifted, &ValidateConfig::default());
    let r2 = validate_lift(&bin, &lifted, &ValidateConfig::default());
    assert_eq!(r1.samples_passed, r2.samples_passed);
    assert_eq!(r1.checked, r2.checked);
}
