//! Cross-crate integration tests: the full pipeline from program text
//! through ELF serialisation, parsing, lifting, Isabelle export and
//! executable validation.

use hoare_lift::asm::Asm;
use hoare_lift::core::Lifter;
use hoare_lift::corpus::xen::{build_study, StudySpec, UnitKind};
use hoare_lift::elf::Binary;
use hoare_lift::export::{export_theory, validate_lift, ValidateConfig};
use hoare_lift::x86::{Cond, Instr, MemOperand, Mnemonic, Operand, Reg, Width};

fn ins(m: Mnemonic, ops: Vec<Operand>, w: Width) -> Instr {
    Instr::new(m, ops, w)
}

/// Program text → ELF bytes on disk → parse → lift → export →
/// validate, entirely through the serialized format.
#[test]
fn full_pipeline_through_elf_bytes() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.push(Reg::Rbp);
    asm.mov(Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp));
    asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rsp), Operand::Imm(0x10)], Width::B8));
    asm.ins(ins(
        Mnemonic::Mov,
        vec![
            Operand::Mem(MemOperand::base_disp(Reg::Rbp, -8, Width::B8)),
            Operand::reg64(Reg::Rdi),
        ],
        Width::B8,
    ));
    asm.ins(ins(Mnemonic::Cmp, vec![Operand::reg(Reg::Rdi, Width::B4), Operand::Imm(0)], Width::B4));
    asm.jcc(Cond::E, "zero");
    asm.call("helper");
    asm.label("zero");
    asm.ins(ins(Mnemonic::Leave, vec![], Width::B8));
    asm.ret();
    asm.label("helper");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(1)], Width::B4));
    asm.ret();
    asm.export("main", "main");
    asm.export("helper", "helper");
    let elf_bytes = asm.entry("main").assemble_elf().expect("assembles");

    // Through the serialized format.
    let binary = Binary::parse(&elf_bytes).expect("parses");
    assert_eq!(binary.symbols.len(), 2);

    let result = Lifter::new(&binary).lift_entry(binary.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    assert_eq!(result.functions.len(), 2, "main and helper");
    assert!(result.functions.values().all(|f| f.graph.returns()));

    let thy = export_theory(&result, "pipeline_demo");
    assert!(thy.contains("theory pipeline_demo"));
    let report = validate_lift(&binary, &result, &ValidateConfig::default());
    assert!(report.all_proven(), "failures: {:?}", report.failed);
    assert!(report.checked >= 8);
}

/// Lifting is deterministic: same binary, same graph shape.
#[test]
fn lifting_is_deterministic() {
    let study = build_study(&StudySpec::mini(), 3);
    let unit = study
        .units
        .iter()
        .find(|u| u.expected == hoare_lift::corpus::xen::ExpectedOutcome::Lifted)
        .expect("a liftable unit");
    let r1 = Lifter::new(&unit.binary).lift_entry(unit.entry);
    let r2 = Lifter::new(&unit.binary).lift_entry(unit.entry);
    assert_eq!(r1.instruction_count(), r2.instruction_count());
    assert_eq!(r1.state_count(), r2.state_count());
    assert_eq!(r1.indirection_counts(), r2.indirection_counts());
    for (e1, e2) in r1.functions.iter().zip(r2.functions.iter()) {
        assert_eq!(e1.0, e2.0);
        assert_eq!(e1.1.graph.edges.len(), e2.1.graph.edges.len());
    }
}

/// Soundness sweep: every lifted unit of several random corpora
/// validates with zero counterexamples.
#[test]
fn corpus_validation_sweep() {
    for seed in [11u64, 22, 33] {
        let study = build_study(&StudySpec::mini(), seed);
        for unit in &study.units {
            if unit.expected != hoare_lift::corpus::xen::ExpectedOutcome::Lifted {
                continue;
            }
            let result = match unit.kind {
                UnitKind::Binary => Lifter::new(&unit.binary).lift_entry(unit.binary.entry),
                UnitKind::LibraryFunction => {
                    Lifter::new(&unit.binary).lift_entry(unit.entry)
                }
            };
            assert!(
                result.is_lifted(),
                "seed {seed} {}: {:?}",
                unit.name,
                result.reject_reason()
            );
            let vc = ValidateConfig { samples_per_edge: 4, ..ValidateConfig::default() };
            let report = validate_lift(&unit.binary, &result, &vc);
            assert!(
                report.all_proven(),
                "seed {seed} {}: counterexamples: {:?}",
                unit.name,
                report
                    .failed
                    .iter()
                    .map(|f| format!("{} {}: {}", f.from, f.instr, f.detail))
                    .collect::<Vec<_>>()
            );
        }
    }
}

/// The facade crate re-exports a coherent API.
#[test]
fn facade_reexports() {
    // Types from different crates compose through the facade paths.
    let e = hoare_lift::expr::Expr::sym(hoare_lift::expr::Sym::Init(Reg::Rsp));
    let r = hoare_lift::solver::Region::new(e, 8);
    assert_eq!(r, hoare_lift::solver::Region::return_address_slot());
    let i = hoare_lift::x86::decode(&[0xc3], 0).expect("decodes");
    assert_eq!(i.mnemonic, Mnemonic::Ret);
}

/// ELF files written by the builder survive an external strip of the
/// symbol table (the paper targets *stripped* binaries).
#[test]
fn stripped_lifting_still_works() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.ins(ins(Mnemonic::Xor, vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rax, Width::B4)], Width::B4));
    asm.ret();
    let bin = asm.entry("main").assemble().expect("assembles");
    // Simulate stripping: drop all symbols.
    let mut stripped = bin.clone();
    stripped.symbols.clear();
    let result = Lifter::new(&stripped).lift_entry(stripped.entry);
    assert!(result.is_lifted());
    assert!(result.functions[&stripped.entry].graph.returns());
}
