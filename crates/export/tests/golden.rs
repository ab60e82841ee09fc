//! Golden-file snapshot tests for the Isabelle/HOL, JSON and DOT
//! exporters on one small fixed binary.
//!
//! The exporters' output formats are consumed downstream (Isabelle
//! proof replay, the JSON CLI surface), so format drift must be a
//! *conscious* act: these tests fail on any byte difference against
//! the checked-in snapshots under `tests/golden/`.
//!
//! To intentionally change a format, regenerate the snapshots with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p hgl-export --test golden
//! ```
//!
//! and commit the refreshed files together with the exporter change.

use hgl_analysis::analyze;
use hgl_asm::Asm;
use hgl_core::Lifter;
use hgl_export::json::Json;
use hgl_export::{
    export_dot, export_json, export_lint_json, export_metrics_json, export_theory, ENVELOPE_VERSION,
    LIFT_SCHEMA, LINT_SCHEMA, METRICS_SCHEMA,
};
use hgl_x86::{Cond, Instr, MemOperand, Mnemonic, Operand, Reg, Width};
use std::path::PathBuf;

/// The fixed snapshot subject: a two-function program with a
/// conditional diamond, an internal call and a leaf callee — one of
/// every exporter-visible construct (branch, call edge, exit vertex)
/// while staying small enough to review by eye.
fn fixed_binary() -> hgl_elf::Binary {
    let mut asm = Asm::new();

    asm.label("main");
    asm.push(Reg::Rbp);
    asm.ins(Instr::new(
        Mnemonic::Mov,
        vec![Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp)],
        Width::B8,
    ));
    asm.ins(Instr::new(
        Mnemonic::Cmp,
        vec![Operand::reg(Reg::Rdi, Width::B4), Operand::Imm(1)],
        Width::B4,
    ));
    asm.jcc(Cond::E, "main_else");
    asm.ins(Instr::new(
        Mnemonic::Mov,
        vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(7)],
        Width::B4,
    ));
    asm.jmp("main_join");
    asm.label("main_else");
    asm.ins(Instr::new(
        Mnemonic::Mov,
        vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(9)],
        Width::B4,
    ));
    asm.label("main_join");
    asm.call("leaf");
    asm.pop(Reg::Rbp);
    asm.ret();

    asm.label("leaf");
    asm.ins(Instr::new(
        Mnemonic::Add,
        vec![Operand::reg64(Reg::Rax), Operand::Imm(1)],
        Width::B8,
    ));
    asm.ret();

    asm.entry("main");
    asm.assemble().expect("fixed binary assembles")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `actual` against the checked-in snapshot `name`, or rewrite
/// the snapshot when `UPDATE_GOLDEN=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test -p hgl-export --test golden",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first differing line to keep failures readable.
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| i + 1)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()) + 1);
        panic!(
            "exporter output drifted from {} (first difference at line {line}); \
             if intentional, regenerate with UPDATE_GOLDEN=1",
            path.display()
        );
    }
}

#[test]
fn isabelle_theory_matches_golden() {
    let bin = fixed_binary();
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(lifted.is_lifted(), "fixed binary must lift");
    assert_golden("fixed.thy", &export_theory(&lifted, "fixed"));
}

#[test]
fn json_export_matches_golden() {
    let bin = fixed_binary();
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    assert_golden("fixed.json", &export_json(&lifted));
}

/// The lint-snapshot subject: a function with a stack-local store, a
/// callee-saved clobber left live at `ret` (the `callee-saved-clobber`
/// error) — small enough that the full diagnostic set is reviewable.
fn lint_binary() -> hgl_elf::Binary {
    let mut asm = Asm::new();
    asm.label("clobber");
    asm.ins(Instr::new(
        Mnemonic::Mov,
        vec![
            Operand::Mem(MemOperand::base_disp(Reg::Rsp, -0x10, Width::B8)),
            Operand::Imm(5),
        ],
        Width::B8,
    ));
    asm.ins(Instr::new(
        Mnemonic::Mov,
        vec![Operand::reg64(Reg::Rbx), Operand::Imm(1)],
        Width::B8,
    ));
    asm.ret();
    asm.entry("clobber").assemble().expect("lint binary assembles")
}

#[test]
fn lint_json_matches_golden() {
    // Clean binary: writes and per-function stats, no diagnostics.
    let bin = fixed_binary();
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    let report = analyze(&bin, &lifted);
    assert_golden("fixed_lint.json", &export_lint_json(&report));

    // Defective binary: the callee-saved-clobber error shows up in the
    // diags array.
    let bin = lint_binary();
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    let report = analyze(&bin, &lifted);
    assert!(!report.diags.is_empty(), "lint binary must produce diagnostics");
    assert_golden("lint.json", &export_lint_json(&report));

    // Unbounded indirect jump: the value-set recovery cannot bound a
    // target loaded from writable memory, so the
    // `vsa-unbounded-indirect` warning lands in the diags array.
    let bin = vsa_lint_binary();
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    let report = analyze(&bin, &lifted);
    assert!(
        report.diags.iter().any(|d| d.rule.name() == "vsa-unbounded-indirect"),
        "vsa fixture must fire the lint: {report}"
    );
    assert_golden("vsa_lint.json", &export_lint_json(&report));
}

/// The vsa-lint snapshot subject: an indirect jump through a function
/// pointer in a *writable* cell — unresolvable by any refinement.
fn vsa_lint_binary() -> hgl_elf::Binary {
    let mut asm = Asm::new();
    asm.label("wild");
    asm.data("jptr", vec![0u8; 8]);
    asm.movabs_label(Reg::Rax, "jptr");
    asm.ins(Instr::new(
        Mnemonic::Mov,
        vec![
            Operand::reg64(Reg::Rax),
            Operand::Mem(MemOperand::base_disp(Reg::Rax, 0, Width::B8)),
        ],
        Width::B8,
    ));
    asm.ins(Instr::new(Mnemonic::Jmp, vec![Operand::reg64(Reg::Rax)], Width::B8));
    asm.entry("wild").assemble().expect("vsa lint binary assembles")
}

#[test]
fn dot_export_matches_golden() {
    let bin = fixed_binary();
    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    let dot = export_dot(&lifted, bin.entry).expect("entry function exists");
    assert_golden("fixed.dot", &dot);
}

/// Every golden JSON document, and a metrics document of the fixed
/// binary's lift, parses as JSON and opens with its envelope.
#[test]
fn json_documents_parse() {
    let envelope = |text: &str, schema: &str| {
        let doc = Json::parse(text).unwrap_or_else(|e| panic!("{schema} document: {e}"));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(schema));
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(ENVELOPE_VERSION));
    };
    for (name, schema) in [
        ("fixed.json", LIFT_SCHEMA),
        ("fixed_lint.json", LINT_SCHEMA),
        ("lint.json", LINT_SCHEMA),
        ("vsa_lint.json", LINT_SCHEMA),
    ] {
        let text = std::fs::read_to_string(golden_dir().join(name)).expect("read golden");
        envelope(&text, schema);
    }
    let bin = fixed_binary();
    let report = Lifter::new(&bin).lift_all();
    envelope(&export_metrics_json(&report.metrics), METRICS_SCHEMA);
}
