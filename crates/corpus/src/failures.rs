//! The paper's hand-built example binaries, reproduced as synthesized
//! ELFs: the §2 weird edge, the §5.1 overflow, the §5.3 failure cases,
//! and the seeded fixtures the lints must flag.

use hgl_asm::Asm;
use hgl_elf::Binary;
use hgl_x86::{Cond, Instr, MemOperand, Mnemonic, Operand, Reg, Width};

fn ins(m: Mnemonic, ops: Vec<Operand>, w: Width) -> Instr {
    Instr::new(m, ops, w)
}

fn mem(base: Reg, disp: i64, size: Width) -> Operand {
    Operand::Mem(MemOperand::base_disp(base, disp, size))
}

/// The §2 example, ported to x86-64: `weird` reads a jump-table entry
/// `a_jt`, stores it through `rsi`, stores a constant through `rdx`,
/// then jumps through `rsi`. When `rsi` and `rdx` alias, the constant
/// overwrites `a_jt`; it points one byte into `carrier`'s
/// `mov eax, 0xc3`, whose immediate byte `0xc3` is a hidden `ret` — a
/// ROP gadget. An overapproximating lift must contain that weird edge.
pub fn weird_edge() -> Binary {
    let mut asm = Asm::new();
    asm.label("weird");
    // mov eax, edi ; cmp eax, 1 ; ja done      (bounded index)
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rdi, Width::B4)], Width::B4));
    asm.ins(ins(Mnemonic::Cmp, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(1)], Width::B4));
    asm.jcc(Cond::A, "done");
    // mov rax, [table + rax*8]                 (a_jt)
    let load = ins(
        Mnemonic::Mov,
        vec![Operand::reg64(Reg::Rax), Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8))],
        Width::B8,
    );
    asm.ins_mem_label(load, 1, "table");
    // mov [rsi], rax                           (*rsi := a_jt)
    asm.ins(ins(Mnemonic::Mov, vec![mem(Reg::Rsi, 0, Width::B8), Operand::reg64(Reg::Rax)], Width::B8));
    // mov qword [rdx], carrier+1               (the §2 `mov [esi], 1`)
    let poison = ins(Mnemonic::Mov, vec![mem(Reg::Rdx, 0, Width::B8), Operand::Imm(0)], Width::B8);
    asm.ins_imm_label_off(poison, 1, "carrier", 1);
    // jmp [rsi]
    asm.ins(ins(Mnemonic::Jmp, vec![mem(Reg::Rsi, 0, Width::B8)], Width::B8));
    asm.label("t0");
    asm.ret();
    asm.label("t1");
    asm.ret();
    asm.label("done");
    asm.ret();
    // carrier: "mov eax, 0xc3" hides a `ret` (byte 0xc3) at carrier+1.
    asm.label("carrier");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(0xc3)], Width::B4));
    asm.ret();
    asm.jump_table("table", &["t0", "t1"]);
    asm.entry("weird").assemble().expect("weird edge assembles")
}

/// The ROP-emporium `ret2win` shape (§5.3): `main` passes a pointer to
/// a 32-byte stack buffer to external `memset` with a 48-byte length.
/// The lifter cannot see the length, so it emits a proof obligation
/// that `memset` preserves `[RSP0-8, RSP0+8]` — the negation of which
/// is the exploit.
pub fn ret2win() -> Binary {
    let mut asm = Asm::new();
    asm.label("main");
    asm.push(Reg::Rbp);
    asm.mov(Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp));
    asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rsp), Operand::Imm(0x20)], Width::B8));
    // lea rdi, [rbp-0x20] ; mov esi, 0 ; mov edx, 48 ; call memset
    asm.ins(ins(
        Mnemonic::Lea,
        vec![Operand::reg64(Reg::Rdi), mem(Reg::Rbp, -0x20, Width::B8)],
        Width::B8,
    ));
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rsi, Width::B4), Operand::Imm(0)], Width::B4));
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rdx, Width::B4), Operand::Imm(48)], Width::B4));
    asm.call_ext("memset");
    asm.ins(ins(Mnemonic::Leave, vec![], Width::B8));
    asm.ret();
    // The hidden win function the exploit would pivot to.
    asm.label("ret2win");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rdi, Width::B4), Operand::Imm(0)], Width::B4));
    asm.call_ext("system");
    asm.ret();
    asm.entry("main").assemble().expect("ret2win assembles")
}

/// The `/usr/bin/zip` stack-probing shape (§5.3): an internal call
/// whose callee's effect on `rax` is unknown, followed by
/// `sub rsp, rax`.
pub fn stack_probe() -> Binary {
    let mut asm = Asm::new();
    asm.label("caller");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(0x1400)], Width::B4));
    asm.call("probe");
    asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rsp), Operand::reg64(Reg::Rax)], Width::B8));
    asm.ins(ins(Mnemonic::Mov, vec![mem(Reg::Rsp, 0, Width::B8), Operand::Imm(0)], Width::B8));
    asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rsp), Operand::Imm(0x1400)], Width::B8));
    asm.ret();
    // The probing routine: touches guard pages below rsp.
    asm.label("probe");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg64(Reg::Rcx), Operand::reg64(Reg::Rax)], Width::B8));
    asm.ret();
    asm.entry("caller").assemble().expect("stack probe assembles")
}

/// The `/usr/bin/ssh` non-standard stack-pointer restoration (§5.3):
/// `rsp` is reloaded from a computed memory location before `ret`.
pub fn nonstandard_rsp() -> Binary {
    let mut asm = Asm::new();
    asm.label("f");
    // rsp := *[(rsp - (48 - ((-4 - r9) * 8))) & -400 + ...] — we keep
    // the shape simple: rsp loaded through a pointer parameter.
    asm.ins(ins(
        Mnemonic::Lea,
        vec![
            Operand::reg64(Reg::Rax),
            Operand::Mem(MemOperand::sib(Some(Reg::Rdi), Reg::R9, 8, -48, Width::B8)),
        ],
        Width::B8,
    ));
    asm.ins(ins(Mnemonic::And, vec![Operand::reg64(Reg::Rax), Operand::Imm(-400)], Width::B8));
    asm.mov(Operand::reg64(Reg::Rsp), mem(Reg::Rax, 8, Width::B8));
    asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rsp), Operand::Imm(56)], Width::B8));
    asm.ret();
    asm.entry("f").assemble().expect("nonstandard rsp assembles")
}

/// A function that clobbers a callee-saved register (`rbx`) and
/// returns without restoring it — a calling-convention defect the
/// lifter rejects and the `callee-saved-clobber` lint must flag.
pub fn callee_saved_clobber() -> Binary {
    let mut asm = Asm::new();
    asm.label("clobber");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg64(Reg::Rbx), Operand::Imm(1)], Width::B8));
    asm.ret();
    asm.entry("clobber").assemble().expect("clobber assembles")
}

/// A function that writes straight over its own return-address slot
/// `[rsp0, 8]` — the defect the `ret-slot-overwrite` lint must flag.
pub fn ret_slot_overwrite() -> Binary {
    let mut asm = Asm::new();
    asm.label("smash");
    asm.ins(ins(Mnemonic::Mov, vec![mem(Reg::Rsp, 0, Width::B8), Operand::Imm(0x41)], Width::B8));
    asm.ret();
    asm.entry("smash").assemble().expect("smash assembles")
}

/// An indirect jump through a *writable* function-pointer cell: the
/// lifter annotates it (column B), and the value-set recovery cannot
/// bound it either — the target is a register whose value came from
/// mutable memory, so `vsa-unbounded-indirect` fires.
pub fn vsa_unbounded_indirect() -> Binary {
    let mut asm = Asm::new();
    asm.label("wild");
    asm.data("jptr", vec![0u8; 8]);
    asm.movabs_label(Reg::Rax, "jptr");
    asm.mov(
        Operand::reg64(Reg::Rax),
        Operand::Mem(MemOperand::base_disp(Reg::Rax, 0, Width::B8)),
    );
    asm.ins(ins(Mnemonic::Jmp, vec![Operand::reg64(Reg::Rax)], Width::B8));
    asm.entry("wild").assemble().expect("wild assembles")
}

/// Argument value that steers [`corrupted_return`] onto its
/// corrupting path.
pub const CORRUPT_TRIGGER: i64 = 0x2bad;

/// Value the corrupting path writes through the laundered pointer.
pub const CORRUPT_PAYLOAD: i64 = 0x4141_4141;

/// A function whose return-address integrity rests on an *assumed*
/// separation: when `edi == CORRUPT_TRIGGER` it writes
/// `CORRUPT_PAYLOAD` through a pointer loaded from the writable
/// `cell` in `.data`. The loaded value is a fresh symbol, so the
/// solver can only separate the write from `[rsp0, 8]` by the
/// stack-vs-heap provenance assumption — the lifter accepts (with the
/// assumption recorded) and the `ret-slot-overwrite` lint downgrades
/// the ret to a warning. Seeding `cell` with the concrete
/// return-slot address falsifies the assumption at runtime: the
/// shadow-stack guard must catch exactly this.
pub fn corrupted_return() -> Binary {
    let mut asm = Asm::new();
    asm.label("victim");
    asm.data("cell", vec![0u8; 8]);
    asm.ins(ins(Mnemonic::Endbr64, vec![], Width::B8));
    asm.push(Reg::Rbp);
    asm.mov(Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp));
    asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rsp), Operand::Imm(0x18)], Width::B8));
    asm.ins(ins(
        Mnemonic::Cmp,
        vec![Operand::reg(Reg::Rdi, Width::B4), Operand::Imm(CORRUPT_TRIGGER)],
        Width::B4,
    ));
    asm.jcc(Cond::Ne, "benign");
    asm.movabs_label(Reg::Rax, "cell");
    asm.mov(Operand::reg64(Reg::Rax), mem(Reg::Rax, 0, Width::B8));
    asm.ins(ins(
        Mnemonic::Mov,
        vec![mem(Reg::Rax, 0, Width::B8), Operand::Imm(CORRUPT_PAYLOAD)],
        Width::B8,
    ));
    asm.label("benign");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(7)], Width::B4));
    asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rsp), Operand::Imm(0x18)], Width::B8));
    asm.pop(Reg::Rbp);
    asm.ret();
    asm.entry("victim").assemble().expect("corrupted_return assembles")
}

/// The §5.1 induced buffer overflow: no Hoare Graph may be produced.
pub fn induced_overflow() -> Binary {
    let mut asm = Asm::new();
    asm.label("vuln");
    asm.ins(ins(
        Mnemonic::Mov,
        vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rdi, Width::B4)],
        Width::B4,
    ));
    asm.ins(ins(
        Mnemonic::Mov,
        vec![
            Operand::Mem(MemOperand::sib(Some(Reg::Rsp), Reg::Rax, 1, -0x40, Width::B1)),
            Operand::Imm(0x41),
        ],
        Width::B1,
    ));
    asm.ret();
    asm.entry("vuln").assemble().expect("overflow assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_core::{Lifter, RejectReason};
    use hgl_core::VerificationError;

    #[test]
    fn ret2win_lifts_with_obligation() {
        let bin = ret2win();
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
        let f = &result.functions[&bin.entry];
        let ob = f.obligations.iter().find(|o| o.callee == "memset").expect("obligation");
        let s = ob.to_string();
        assert!(s.contains("memset(RDI := (rsp0 + -0x28))"), "{s}");
        assert!(s.contains("MUST PRESERVE [(rsp0 + -0x8), 16]"), "{s}");
    }

    #[test]
    fn corrupted_return_lifts_on_assumed_separation() {
        let bin = corrupted_return();
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
        let f = &result.functions[&bin.entry];
        // The corrupting store is only separated from the return slot
        // by a provenance assumption — that's the whole point of the
        // fixture.
        assert!(
            !f.assumptions.is_empty(),
            "expected an assumed separation backing the laundered write"
        );
    }

    #[test]
    fn stack_probe_rejected() {
        let bin = stack_probe();
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(!result.is_lifted());
        assert!(matches!(
            result.reject_reason(),
            Some(RejectReason::Verification(
                VerificationError::ReturnAddressClobbered { .. }
                    | VerificationError::NonStandardStackRestore { .. }
            ))
        ));
    }

    #[test]
    fn nonstandard_rsp_rejected() {
        let bin = nonstandard_rsp();
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(!result.is_lifted());
        match result.reject_reason() {
            Some(RejectReason::Verification(VerificationError::NonStandardStackRestore {
                rsp, ..
            })) => {
                // The reported symbolic rsp involves the loaded value.
                assert!(!rsp.is_bottom());
            }
            other => panic!("expected NonStandardStackRestore, got {other:?}"),
        }
    }

    #[test]
    fn callee_saved_clobber_rejected() {
        let bin = callee_saved_clobber();
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(!result.is_lifted());
        assert!(matches!(
            result.reject_reason(),
            Some(RejectReason::Verification(VerificationError::CallingConventionViolation {
                ..
            }))
        ));
    }

    #[test]
    fn ret_slot_overwrite_rejected() {
        let bin = ret_slot_overwrite();
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(!result.is_lifted());
        assert!(matches!(
            result.reject_reason(),
            Some(RejectReason::Verification(VerificationError::ReturnAddressClobbered { .. }))
        ));
    }

    #[test]
    fn induced_overflow_rejected() {
        let bin = induced_overflow();
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(!result.is_lifted());
    }
}
